import gc
import itertools
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from siqrng import extractor
from siqrng.extractor import (
    ToeplitzSpec,
    _fft_length,
    _seed_spectrum,
    _spectra,
    format_bit_string,
    output_length,
    pack_bits,
    parse_bit_string,
    read_bits,
    toeplitz_extract,
    toeplitz_matrix,
    unpack_bits,
    write_bits,
)

GOLDEN = dict(n=3, m=2, seed=(1, 0, 1, 1), raw=(1, 0, 1), out=(0, 1))

# the three postprocess blocks (n, m)
BLOCKS = [(44_571, 10_003), (66_857, 23_199), (89_142, 37_653)]


def spec_for(n: int, m: int, seed) -> ToeplitzSpec:
    return ToeplitzSpec(input_length=n, output_length=m, seed=np.asarray(seed))


def smallest_smooth_at_least(target: int) -> int:
    """Scan upward from target for the first number with no prime factor above 5."""
    k = target
    while True:
        rest = k
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 1


def run_python(code: str) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter that imports siqrng from this checkout."""
    src = str(Path(extractor.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, capture_output=True, text=True, timeout=60)


def is_helper(thread: threading.Thread) -> bool:
    return thread.name.startswith("siqrng-extract")


def cpus(count: float):
    """A stand-in for extractor._cpus: the process may keep count CPUs busy."""
    return lambda: count


@pytest.fixture
def unsplit(monkeypatch):
    """Every hash runs as one transform in this thread's kept buffers, as on one CPU."""
    monkeypatch.setattr(extractor, "_cpus", cpus(1))


@pytest.fixture
def split(monkeypatch):
    """Every hash of two or more raw bits that runs alone is split into column halves, as past the threshold on two CPUs."""
    monkeypatch.setattr(extractor, "_cpus", cpus(2))
    monkeypatch.setattr(extractor, "_SPLIT_MIN_INPUT", 2)


@pytest.fixture
def hash_threads(monkeypatch):
    """The threads that ran each half (or whole) hash, in the order they started."""
    threads = []
    body = extractor._row_sums

    def recording(*args):
        threads.append(threading.current_thread())
        return body(*args)

    monkeypatch.setattr(extractor, "_row_sums", recording)
    return threads


def reference_parse(text: str) -> np.ndarray:
    """Whitespace dropped by str.split(), then every remaining character checked on its own."""
    stripped = "".join(text.split())
    bad = set(stripped) - {"0", "1"}
    if bad:
        raise ValueError(f"bit string contains non-binary characters: {sorted(bad)}")
    return np.array([int(c) for c in stripped], dtype=np.uint8)


def matrix_extract(raw, spec: ToeplitzSpec) -> np.ndarray:
    """The literal matrix-vector product mod 2, the O(n * m) reference for the FFT path."""
    return toeplitz_matrix(spec).astype(np.int64) @ np.asarray(raw, dtype=np.int64) % 2


def reference_extract(raw, seed, n: int, m: int) -> np.ndarray:
    """Plain double loop over the defining convention T[i][j] = seed[i - j + n - 1]."""
    out = np.zeros(m, dtype=np.uint8)
    for i in range(m):
        acc = 0
        for j in range(n):
            acc ^= seed[i - j + n - 1] & raw[j]
        out[i] = acc
    return out


class TestOutputLength:
    def test_frozen_example(self):
        assert output_length(100.7, 1e-10) == 66

    def test_penalty_exceeds_budget(self):
        assert output_length(10, 2.0**-20) == 0

    def test_loose_epsilon(self):
        assert output_length(10.0, 0.5) == 9

    def test_negative_net(self):
        assert output_length(-5.0, 0.5) == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            output_length(10.0, 0.0)
        with pytest.raises(ValueError):
            output_length(float("nan"), 0.5)


class TestFftLength:
    def test_matches_brute_force(self):
        for target in range(1, 5001):
            assert _fft_length(target) == smallest_smooth_at_least(target)

    @pytest.mark.parametrize("target", [1_500_000, 6_000_000, 15_000_000])
    def test_large_targets(self, target):
        for t in (target - 1, target, target + 1):
            assert _fft_length(t) == smallest_smooth_at_least(t)

    def test_benchmark_blocks(self):
        # powers of two would be 65 536 / 131 072 / 131 072
        assert [_fft_length(n + m - 1) for n, m in BLOCKS] == [54_675, 91_125, 128_000]


class TestSpec:
    def test_seed_length_enforced(self):
        with pytest.raises(ValueError):
            spec_for(3, 2, (1, 0, 1))

    def test_output_cannot_exceed_input(self):
        with pytest.raises(ValueError):
            spec_for(3, 4, (1,) * 6)

    def test_nonbinary_seed_rejected(self):
        with pytest.raises(ValueError):
            spec_for(3, 2, (1, 0, 2, 1))

    def test_zero_output_allowed(self):
        spec = spec_for(3, 0, ())
        assert toeplitz_extract([1, 1, 0], spec).size == 0

    def test_seed_is_frozen(self):
        # a write after validation would hash with a matrix row holding 7
        source = np.array(GOLDEN["seed"], dtype=np.uint8)
        spec = spec_for(GOLDEN["n"], GOLDEN["m"], source)
        with pytest.raises(ValueError, match="read-only"):
            spec.seed[0] = 7
        source[0] = 0  # the spec holds its own copy
        assert spec.seed.tolist() == list(GOLDEN["seed"])
        fresh = spec_for(GOLDEN["n"], GOLDEN["m"], GOLDEN["seed"])
        assert toeplitz_extract(GOLDEN["raw"], fresh).tolist() == list(GOLDEN["out"])


class TestGoldenVector:
    def test_matrix_layout(self):
        spec = spec_for(GOLDEN["n"], GOLDEN["m"], GOLDEN["seed"])
        assert toeplitz_matrix(spec).tolist() == [[1, 0, 1], [1, 1, 0]]

    def test_extraction(self):
        spec = spec_for(GOLDEN["n"], GOLDEN["m"], GOLDEN["seed"])
        assert toeplitz_extract(GOLDEN["raw"], spec).tolist() == list(GOLDEN["out"])

    def test_zero_seed_annihilates(self):
        spec = spec_for(5, 3, (0,) * 7)
        assert toeplitz_extract([1, 0, 1, 1, 1], spec).tolist() == [0, 0, 0]

    def test_length_mismatch(self):
        spec = spec_for(3, 2, GOLDEN["seed"])
        with pytest.raises(ValueError):
            toeplitz_extract([1, 0, 1, 1], spec)


class TestExtraction:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            n = int(rng.integers(1, 33))
            m = int(rng.integers(0, n + 1))
            seed = rng.integers(0, 2, n + m - 1 if m else 0, dtype=np.uint8)
            raw = rng.integers(0, 2, n, dtype=np.uint8)
            spec = spec_for(n, m, seed)
            assert np.array_equal(
                toeplitz_extract(raw, spec), reference_extract(raw, seed, n, m)
            )

    def test_linearity(self):
        rng = np.random.default_rng(37)
        n, m = 64, 24
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        spec = spec_for(n, m, seed)
        for _ in range(25):
            a = rng.integers(0, 2, n, dtype=np.uint8)
            b = rng.integers(0, 2, n, dtype=np.uint8)
            direct = toeplitz_extract(a ^ b, spec)
            combined = toeplitz_extract(a, spec) ^ toeplitz_extract(b, spec)
            assert np.array_equal(direct, combined)

    @pytest.mark.parametrize(
        "n,m",
        [
            (1, 1), (9, 1), (17, 17),
            # n + m - 1 just below, at and just above a power of two
            (200, 56), (200, 57), (200, 58), (128, 128), (129, 128),
            (128, 32), (1 << 10, 100), (1 << 13, 200), (1 << 16, 64),
            # n + m - 1 at and just above other 5-smooth FFT lengths:
            # 3 * 2**k, 5**k and 3**7 * 5**2 (the smallest postprocess block)
            (90, 7), (90, 8), (12_000, 289), (12_000, 290),
            (100, 26), (100, 27), (15_600, 26), (15_600, 27), (78_100, 26), (78_100, 27),
            (54_600, 76), (54_600, 77),
        ],
    )
    def test_fft_path_is_bit_identical(self, n, m):
        rng = np.random.default_rng(n)
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        raw = rng.integers(0, 2, n, dtype=np.uint8)
        spec = spec_for(n, m, seed)
        assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))

    @staticmethod
    def transform_lengths(monkeypatch, n: int, m: int) -> tuple[list, list]:
        """The length of every rfft and irfft, in any thread, of a hash and of a rehash with an equal seed."""
        lengths = []
        for name in ("rfft", "irfft"):
            transform = getattr(np.fft, name)
            # numpy's default transform length when n is not given
            default = len if name == "rfft" else (lambda a: 2 * (len(a) - 1))

            def recording(a, n=None, *args, transform=transform, default=default, **kwargs):
                lengths.append(default(a) if n is None else n)
                return transform(a, n, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, recording)
        rng = np.random.default_rng(n)
        spec = spec_for(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
        _seed_spectrum.cache_clear()
        toeplitz_extract(rng.integers(0, 2, n, dtype=np.uint8), spec)
        first = lengths.copy()
        lengths.clear()
        toeplitz_extract(rng.integers(0, 2, n, dtype=np.uint8), spec_for(n, m, spec.seed.copy()))
        return first, lengths

    @pytest.mark.parametrize("n,m", [BLOCKS[0], (100, 27), (1 << 10, 1)])
    def test_fft_runs_at_the_smooth_length(self, monkeypatch, unsplit, n, m):
        first, again = self.transform_lengths(monkeypatch, n, m)
        assert first == [smallest_smooth_at_least(n + m - 1)] * 3
        # an equal seed in another array reuses the kept seed spectrum: one rfft and one irfft
        assert again == [smallest_smooth_at_least(n + m - 1)] * 2

    @pytest.mark.parametrize("n,m", [BLOCKS[0], (100, 27), (1 << 10, 1), (81, 25)])
    def test_split_runs_at_the_halves_length(self, monkeypatch, split, n, m):
        # both halves at the longer (right) half's length; at (81, 25) the left alone would fit 64, the right needs 72
        first, again = self.transform_lengths(monkeypatch, n, m)
        assert first == [smallest_smooth_at_least(n - n // 2 + m - 1)] * 6
        assert again == [smallest_smooth_at_least(n - n // 2 + m - 1)] * 4

    def test_fft_matches_matrix_on_random_shapes(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(1, 600))
            m = int(rng.integers(1, n + 1))
            seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
            raw = rng.integers(0, 2, n, dtype=np.uint8)
            spec = spec_for(n, m, seed)
            assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))

    def test_benchmark_sized_block_sampled_rows(self):
        # the matrix oracle would need ~27 GB here, so check sampled rows directly
        n, m = 89_000, 37_653
        rng = np.random.default_rng(59)
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        raw = rng.integers(0, 2, n, dtype=np.uint8)
        out = toeplitz_extract(raw, spec_for(n, m, seed))
        assert out.shape == (m,)
        rows = np.concatenate([[0, 1, m - 2, m - 1], rng.choice(m, 200, replace=False)])
        for i in rows:
            # row i of T is seed[i : i + n] reversed
            parity = int(np.dot(seed[i : i + n][::-1].astype(np.int64), raw)) & 1
            assert out[i] == parity

    # 0.6 would round to the wrong integer; a NaN sum has no distance to any
    @pytest.mark.parametrize("offset", [0.4, 0.6, float("nan")])
    def test_rounding_guard_fires(self, monkeypatch, perturb_irfft, offset):
        n, m = 64, 24
        rng = np.random.default_rng(61)
        spec = spec_for(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
        raw = rng.integers(0, 2, n, dtype=np.uint8)
        perturb_irfft(n - 1 + m // 2, offset)
        with pytest.raises(ValueError, match="margin"):
            toeplitz_extract(raw, spec)
        assert matrix_extract(raw, spec).size == m
        # the perturbed sums were left in this thread's buffers; the next call must not see them
        monkeypatch.undo()
        assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))

    def test_universality_exhaustive_small(self):
        # over every seed, distinct inputs collide on at most a 2^-m fraction
        n, m = 6, 3
        seeds = np.array(list(itertools.product((0, 1), repeat=n + m - 1)), dtype=np.uint8)
        rng = np.random.default_rng(43)
        for _ in range(30):
            x = rng.integers(0, 2, n, dtype=np.uint8)
            y = rng.integers(0, 2, n, dtype=np.uint8)
            if np.array_equal(x, y):
                continue
            collisions = 0
            for seed in seeds:
                spec = spec_for(n, m, seed)
                if np.array_equal(toeplitz_extract(x, spec), toeplitz_extract(y, spec)):
                    collisions += 1
            assert collisions / seeds.shape[0] <= 2.0**-m + 1e-12


class TestBufferReuse:
    """Every FFT-length array lives in per-thread buffers that later calls reuse."""

    @staticmethod
    def case(n: int, m: int, seed: int):
        rng = np.random.default_rng(seed)
        spec = spec_for(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
        raw = rng.integers(0, 2, n, dtype=np.uint8)
        return raw, spec, matrix_extract(raw, spec)

    def test_interleaved_shapes(self):
        # large, small, large again, then the one-row and one-column extremes
        cases = [self.case(n, m, seed) for seed, (n, m) in enumerate(
            [(3000, 1400), (40, 9), (2600, 1700), (700, 1), (1, 1)]
        )]
        results = []
        for raw, spec, expected in cases:
            results.append(toeplitz_extract(raw, spec))
            assert np.array_equal(results[-1], expected)
        # a result returned earlier is not a view into buffers that later calls overwrote
        for result, (_, _, expected) in zip(results, cases):
            assert np.array_equal(result, expected)

    def test_stale_buffer_contents_are_ignored(self):
        # n + m - 1 = 4299 pads to 4320, so the staged seed has a tail to clear
        raw, spec, expected = self.case(2600, 1700, 5)
        for buffer in _spectra(_fft_length(2600 + 1700 - 1)):
            buffer.fill(np.nan)
        assert np.array_equal(toeplitz_extract(raw, spec), expected)

    def test_threads_hash_at_once(self):
        self.hash_at_once()

    def test_threads_hash_at_once_split(self, split):
        # a caller splits only while no other thread hashes, so splits and whole hashes interleave
        self.hash_at_once()

    def hash_at_once(self):
        shapes = [[(1500, 700), (60, 5), (900, 900)], [(2000, 300), (1, 1)],
                  [(257, 31), (1200, 1100), (800, 2)], [(1024, 1024), (333, 100)]]
        # every thread also hashes two seeds the others hash, each held in an array of its own;
        # with 12 seeds, split into up to 24 halves, against 16 kept spectra, hits race misses and evictions
        shared = [self.case(700, 300, 1), self.case(96, 33, 2)]
        work = [
            [self.case(n, m, 100 * t + k) for k, (n, m) in enumerate(row)]
            + [(raw.copy(), spec_for(spec.input_length, spec.output_length, spec.seed.copy()), expected)
               for raw, spec, expected in shared]
            for t, row in enumerate(shapes)
        ]
        _seed_spectrum.cache_clear()

        def hash_all(cases):
            return [[toeplitz_extract(raw, spec) for raw, spec, _ in cases] for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible while they hash
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                outputs = list(pool.map(hash_all, work, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for cases, rounds in zip(work, outputs):
            for results in rounds:
                for result, (_, _, expected) in zip(results, cases):
                    assert np.array_equal(result, expected)

    def test_longer_hashes_keep_nothing(self, monkeypatch):
        # lengths 4400 and 4320 pass both caps and get pairs of their own, their seeds transformed
        # in that pair; 48, 700 and 2000 keep their buffers and their seed spectra
        monkeypatch.setattr(extractor, "_KEPT_LENGTH", 2048)
        monkeypatch.setattr(extractor, "_KEPT_SEED_LENGTH", 2048)
        cases = [self.case(n, m, seed) for seed, (n, m) in enumerate(
            [(3000, 1400), (40, 9), (700, 1), (1500, 500), (2600, 1700)]
        )]
        _seed_spectrum.cache_clear()

        def hash_all():
            return [toeplitz_extract(raw, spec) for raw, spec, _ in cases], extractor._buffers.pair[0].size

        with ThreadPoolExecutor(max_workers=1) as pool:  # a fresh thread, with no buffers kept yet
            results, kept = pool.submit(hash_all).result(timeout=60)
        for result, (_, _, expected) in zip(results, cases):
            assert np.array_equal(result, expected)
        assert kept == _fft_length(1500 + 500 - 1) // 2 + 1
        assert _seed_spectrum.cache_info().currsize == 3

    def test_repeat_call_allocates_less_than_one_fft_buffer(self, unsplit):
        # the largest postprocess block; a call that allocated its own FFT arrays peaks near 22 * L bytes
        n, m = BLOCKS[2]
        rng = np.random.default_rng(67)
        spec = spec_for(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
        raw = rng.integers(0, 2, n, dtype=np.uint8)
        toeplitz_extract(raw, spec)  # warm-up: this thread's buffers grow to this length
        tracemalloc.start()
        try:
            toeplitz_extract(raw, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _fft_length(n + m - 1)


class TestSeedSpectra:
    """The seed's spectrum is kept per seed content and FFT length, read-only and bounded."""

    @staticmethod
    def seed_for(n: int, m: int, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).integers(0, 2, n + m - 1, dtype=np.uint8)

    def test_equal_seed_in_another_array_hits(self):
        n, m = 500, 120
        seed = self.seed_for(n, m, 71)
        raw = np.random.default_rng(72).integers(0, 2, n, dtype=np.uint8)
        _seed_spectrum.cache_clear()
        first = toeplitz_extract(raw, spec_for(n, m, seed))
        again = toeplitz_extract(raw, spec_for(n, m, seed.copy()))
        assert _seed_spectrum.cache_info()[:2] == (1, 1)  # one hit, one miss
        assert np.array_equal(first, again)
        assert np.array_equal(again, matrix_extract(raw, spec_for(n, m, seed)))

    def test_changed_seed_misses(self):
        # each spec is dropped before the next is built, so a cache keyed by the seed array's
        # identity or by the FFT length alone would hand a later spec an earlier seed's spectrum
        n, m = 500, 120
        raw = np.random.default_rng(73).integers(0, 2, n, dtype=np.uint8)
        _seed_spectrum.cache_clear()
        for k in range(6):
            spec = spec_for(n, m, self.seed_for(n, m, 80 + k))
            assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))
            del spec
        assert _seed_spectrum.cache_info().misses == 6

    def test_one_seed_serves_every_split(self):
        # the spectrum depends on the padded seed alone: two splits of n + m - 1 = 619 share it
        seed = self.seed_for(500, 120, 74)
        rng = np.random.default_rng(75)
        _seed_spectrum.cache_clear()
        for n, m in [(500, 120), (560, 60)]:
            raw = rng.integers(0, 2, n, dtype=np.uint8)
            spec = spec_for(n, m, seed)
            assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))
        assert _seed_spectrum.cache_info()[:2] == (1, 1)

    def test_cached_spectra_are_read_only(self):
        n, m = 300, 40
        seed = self.seed_for(n, m, 76)
        toeplitz_extract(np.zeros(n, dtype=np.uint8), spec_for(n, m, seed))
        spectrum = _seed_spectrum(np.packbits(seed).tobytes(), _fft_length(n + m - 1))  # the entry that call kept
        with pytest.raises(ValueError):
            spectrum[0] = 0.0

    def test_guard_fires_on_a_hit(self, monkeypatch, perturb_irfft):
        n, m = 64, 24
        rng = np.random.default_rng(77)
        spec = spec_for(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
        raw = rng.integers(0, 2, n, dtype=np.uint8)
        _seed_spectrum.cache_clear()
        toeplitz_extract(raw, spec)  # warm: the seed's spectrum is kept
        perturb_irfft(n - 1 + m // 2, 0.4)
        with pytest.raises(ValueError, match="margin"):
            toeplitz_extract(raw, spec)
        assert _seed_spectrum.cache_info().hits == 1
        monkeypatch.undo()
        assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))

    def test_retained_memory_is_bounded(self, unsplit):
        # the worst case of _seed_spectrum's docstring: every entry at the longest kept FFT length
        cap = extractor._KEPT_SEED_LENGTH
        worst = _seed_spectrum.cache_info().maxsize * (16 * (cap // 2 + 1) + cap // 8)
        assert _fft_length(128_000) <= cap and worst <= 17.1e6
        # 30 seeds, the last 20 padding to the cap itself
        shapes = [(200 + 50 * k, 100) for k in range(10)] + [(cap - 1000 - k, 1001 + k) for k in range(20)]
        n, m = shapes[-1]
        toeplitz_extract(np.zeros(n, dtype=np.uint8), spec_for(n, m, self.seed_for(n, m, 0)))
        _seed_spectrum.cache_clear()  # this thread's buffers now span the cap, so only spectra are retained
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k, (n, m) in enumerate(shapes):
                toeplitz_extract(np.ones(n, dtype=np.uint8), spec_for(n, m, self.seed_for(n, m, 90 + k)))
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert {_fft_length(n + m - 1) for n, m in shapes[10:]} == {cap}
        assert 0 < retained <= worst + 65536


class TestColumnSplit:
    """T @ r as T[:, :h] @ r[:h] XOR T[:, h:] @ r[h:], the left half hashed by the helper thread."""

    @staticmethod
    def case(n: int, m: int, seed: int):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 2, n, dtype=np.uint8), spec_for(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))

    @pytest.mark.parametrize(
        "n,m",
        [
            (2, 1), (2, 2), (3, 1), (3, 3),
            # odd n: the right half is one column longer, and its seed slice one bit longer
            (101, 40), (999, 500), (81, 25),
            # m = n and m = 1
            (200, 200), (201, 201), (301, 1), (1 << 12, 1),
        ],
    )
    def test_matches_matrix(self, split, hash_threads, n, m):
        raw, spec = self.case(n, m, n + m)
        assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))
        assert sorted(map(is_helper, hash_threads)) == [False, True]

    def test_matches_matrix_on_random_shapes(self, split):
        rng = np.random.default_rng(83)
        for k in range(60):
            n = int(rng.integers(2, 600))
            raw, spec = self.case(n, int(rng.integers(1, n + 1)), 800 + k)
            assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_threshold(self, monkeypatch, hash_threads, offset):
        # on two CPUs the split starts at exactly _SPLIT_MIN_INPUT raw bits
        monkeypatch.setattr(extractor, "_cpus", cpus(2))
        n, m = extractor._SPLIT_MIN_INPUT + offset, 64
        raw, spec = self.case(n, m, 90)
        assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))
        assert sorted(map(is_helper, hash_threads)) == ([False] if offset < 0 else [False, True])

    @pytest.mark.parametrize("count", [1, 1.9])
    def test_under_two_cpus_never_splits(self, monkeypatch, hash_threads, count):
        # one CPU, or a cgroup quota of 1.9 CPUs' time on two: the split's halves would queue for the CPU
        monkeypatch.setattr(extractor, "_cpus", cpus(count))
        monkeypatch.setattr(extractor, "_SPLIT_MIN_INPUT", 2)
        raw, spec = self.case(300, 100, 91)
        assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))
        assert [is_helper(t) for t in hash_threads] == [False]

    @pytest.mark.parametrize("n,m", BLOCKS)
    def test_postprocess_blocks(self, monkeypatch, hash_threads, n, m):
        # the matrix oracle would need up to ~27 GB, so compare with the unsplit hash and sample rows directly
        raw, spec = self.case(n, m, 92)
        monkeypatch.setattr(extractor, "_cpus", cpus(1))
        whole = toeplitz_extract(raw, spec)
        monkeypatch.setattr(extractor, "_cpus", cpus(2))
        out = toeplitz_extract(raw, spec)
        assert [is_helper(t) for t in hash_threads[:1]] == [False] and sorted(map(is_helper, hash_threads[1:])) == [False, True]
        assert np.array_equal(out, whole)
        rows = np.concatenate([[0, 1, m - 2, m - 1], np.random.default_rng(93).choice(m, 100, replace=False)])
        for i in rows:
            # row i of T is seed[i : i + n] reversed
            assert out[i] == int(np.dot(spec.seed[i : i + n][::-1].astype(np.int64), raw)) & 1

    def test_long_halves_stay_whole(self, monkeypatch, split, hash_threads):
        # a half whose FFT would pass the kept length is not split: one-shot hashes at n = 1e7 keep one transform
        monkeypatch.setattr(extractor, "_KEPT_LENGTH", 2048)
        for n, m, halves in [(3000, 1400, [False]), (1500, 500, [False, True])]:
            hash_threads.clear()
            raw, spec = self.case(n, m, n)
            assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))
            assert sorted(map(is_helper, hash_threads)) == halves

    @pytest.mark.parametrize("half", ["left", "right"])
    def test_guard_fires_in_either_half(self, monkeypatch, split, half):
        n, m = 64, 24
        raw, spec = self.case(n, m, 94)
        irfft = np.fft.irfft

        def perturbed(*args, **kwargs):
            result = irfft(*args, **kwargs)
            if is_helper(threading.current_thread()) == (half == "left"):
                result[n // 2 - 1 + m // 2] += 0.4  # row m // 2 of this half's sums
            return result

        monkeypatch.setattr(np.fft, "irfft", perturbed)
        with pytest.raises(ValueError, match="margin"):
            toeplitz_extract(raw, spec)
        monkeypatch.setattr(np.fft, "irfft", irfft)
        assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))

    def test_repeat_call_allocates_less_than_one_half_buffer(self, monkeypatch):
        # the largest postprocess block: each thread hashes its half in its kept pair, so only the
        # m-point int64 and uint8 parities are allocated; one half's buffer would be 8 * L bytes
        monkeypatch.setattr(extractor, "_cpus", cpus(2))
        n, m = BLOCKS[2]
        raw, spec = self.case(n, m, 95)
        toeplitz_extract(raw, spec)  # warm-up: both threads' pairs grow and the halves' seed spectra are kept
        tracemalloc.start()
        try:
            toeplitz_extract(raw, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * _fft_length(n - n // 2 + m - 1)

    def test_helper_enters_no_public_function(self, monkeypatch, split):
        # perfbench's tracer keeps one span stack; a public call from the helper would land in the caller's span
        package = os.path.dirname(extractor.__file__)
        entered = []

        def profile(frame, event, arg):
            if event == "call" and os.path.dirname(frame.f_code.co_filename) == package:
                entered.append((is_helper(threading.current_thread()), frame.f_code.co_name))

        monkeypatch.setattr(extractor, "_helper", None)  # the next helper's thread starts under the profile hook
        threading.setprofile(profile)
        try:
            raw, spec = self.case(300, 100, 96)
            assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))
        finally:
            threading.setprofile(None)
            if extractor._helper is not None:
                extractor._helper._tasks.put(None)  # end the profiled helper's thread
        helper_calls = {name for helper, name in entered if helper}
        assert "_row_sums" in helper_calls
        assert [name for name in helper_calls if not name.startswith(("_", "<"))] == []

    def test_forked_child_hashes(self):
        # the child inherits the parent's helper but not its thread; without a fresh helper it waits forever
        result = run_python(
            """
            import os, signal, sys, time
            import numpy as np
            from siqrng import extractor
            from siqrng.extractor import ToeplitzSpec, toeplitz_extract

            extractor._cpus, extractor._SPLIT_MIN_INPUT = (lambda: 2), 2
            rng = np.random.default_rng(97)
            spec = ToeplitzSpec(301, 120, rng.integers(0, 2, 420, dtype=np.uint8))
            raw = rng.integers(0, 2, 301, dtype=np.uint8)
            expected = toeplitz_extract(raw, spec)  # starts the helper
            pid = os.fork()
            if pid == 0:
                sys.exit(0 if np.array_equal(toeplitz_extract(raw, spec), expected) else 3)
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    sys.exit(os.waitstatus_to_exitcode(status))
                time.sleep(0.01)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            sys.exit("the forked child did not hash within 10 s")
            """
        )
        assert result.returncode == 0, result.stderr

    def test_import_leaves_the_helper_unloaded(self):
        # queue and mmap cost ~1.4 ms to import; a console run that hashes nothing should not pay it
        result = run_python("import sys, siqrng.cli; print([m for m in ('queue', 'mmap', 'concurrent.futures') if m in sys.modules])")
        assert result.stdout == "[]\n", result.stderr

    def test_helper_is_a_daemon(self):
        # the interpreter waits at exit for every thread that is not a daemon, and the helper never returns;
        # a helper of its own is ended here, so a failing check does not hold up the test run's exit
        before = set(threading.enumerate())
        helper = extractor._Helper()
        (thread,) = set(threading.enumerate()) - before
        helper._tasks.put(None)
        thread.join(timeout=10)
        assert is_helper(thread) and thread.daemon

    @pytest.mark.parametrize("helper", ["started early", "started late"])
    def test_hashes_after_the_main_thread_returns(self, helper):
        # a thread still hashing after the main thread has returned, then an atexit handler: by then
        # a thread pool would refuse new work, and Python 3.12 starts no new thread, so a helper not
        # started early leaves both hashes to run whole
        result = run_python(
            f"""
            import atexit, threading, time
            import numpy as np
            from siqrng import extractor
            from siqrng.extractor import ToeplitzSpec, toeplitz_extract

            n, m = 44_571, 10_003
            rng = np.random.default_rng(98)
            spec = ToeplitzSpec(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
            raw = rng.integers(0, 2, n, dtype=np.uint8)
            extractor._cpus = lambda: 1
            expected = toeplitz_extract(raw, spec)
            extractor._cpus = lambda: 2
            if {helper!r} == "started early":
                assert np.array_equal(toeplitz_extract(raw, spec), expected) and extractor._helper is not None

            def late():
                time.sleep(0.3)  # the main thread has returned by now
                print("thread", np.array_equal(toeplitz_extract(raw, spec), expected), flush=True)

            atexit.register(lambda: print("atexit", np.array_equal(toeplitz_extract(raw, spec), expected), flush=True))
            threading.Thread(target=late).start()
            """
        )
        assert (result.returncode, result.stdout) == (0, "thread True\natexit True\n"), result.stderr

    def test_hashes_whole_when_no_helper_starts(self, monkeypatch, split, hash_threads):
        def refused():
            raise RuntimeError("can't create new thread at interpreter shutdown")

        monkeypatch.setattr(extractor, "_helper", None)
        monkeypatch.setattr(extractor, "_Helper", refused)
        raw, spec = self.case(300, 100, 99)
        assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))
        assert [is_helper(t) for t in hash_threads] == [False]

    def test_a_hash_beside_another_runs_whole(self, monkeypatch, split):
        # while one thread hashes, the CPUs are taken: a second caller hashes whole, and splits again once alone
        body = extractor._row_sums
        threads, entered, release = [], threading.Event(), threading.Event()

        def gated(*args):
            threads.append(threading.current_thread().name)
            if threading.current_thread().name == "first":
                entered.set()
                release.wait(30)
            return body(*args)

        monkeypatch.setattr(extractor, "_row_sums", gated)
        raw, spec = self.case(300, 100, 100)
        expected = matrix_extract(raw, spec)
        results = []
        first = threading.Thread(target=lambda: results.append(toeplitz_extract(raw, spec)), name="first")
        first.start()
        try:
            assert entered.wait(30)
            threads.clear()
            assert np.array_equal(toeplitz_extract(raw, spec), expected)
            beside = threads.copy()
        finally:
            release.set()
            first.join(30)
        assert beside == [threading.current_thread().name]
        assert np.array_equal(results[0], expected)
        threads.clear()
        assert np.array_equal(toeplitz_extract(raw, spec), expected)
        assert sorted(name.startswith("siqrng-extract") for name in threads) == [False, True]

    def test_eight_split_seeds_stay_kept(self, split):
        # each split seed keeps one spectrum per half, so 16 entries hold 8 seeds: a second pass is all hits
        cases = [self.case(400, 90, 110 + k) for k in range(8)]
        _seed_spectrum.cache_clear()
        for _ in range(2):
            for raw, spec in cases:
                assert np.array_equal(toeplitz_extract(raw, spec), matrix_extract(raw, spec))
        assert _seed_spectrum.cache_info()[:2] == (16, 16)


class TestCpuBudget:
    """The CPUs a split may count on: the affinity set, capped by cgroup v1 or v2 CPU quotas."""

    @staticmethod
    def tree(tmp_path, cgroup: str, files: dict[str, str]):
        (tmp_path / "cgroup").write_text(cgroup)
        mount = tmp_path / "fs"
        for name, text in files.items():
            (mount / name).parent.mkdir(parents=True, exist_ok=True)
            (mount / name).write_text(text)
        return tmp_path / "cgroup", mount

    @pytest.mark.parametrize(
        "cgroup,files,expected",
        [
            # v2: the tightest quota on the path from the process's cgroup to the root binds
            ("0::/a/b\n", {"a/b/cpu.max": "max 100000\n", "a/cpu.max": "150000 100000\n", "cpu.max": "400000 100000\n"}, 1.5),
            ("0::/\n", {"cpu.max": "max 100000\n"}, float("inf")),
            ("0::/\n", {"cpu.max": "300000 100000\n"}, 3.0),
            # v1: the cpu controller's cfs files, -1 for none; other controllers are ignored
            ("not a hierarchy\n5:memory:/c\n4:cpu,cpuacct:/c\n", {"cpu/c/cpu.cfs_quota_us": "-1\n", "cpu/c/cpu.cfs_period_us": "100000\n",
                                                   "cpu/cpu.cfs_quota_us": "50000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 0.5),
            # a container whose own cgroup is mounted at the root, under a path it cannot see
            ("4:cpu,cpuacct:/docker/1f\n", {"cpu/cpu.cfs_quota_us": "100000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1.0),
            # no cgroup files at all, or unreadable ones
            ("0::/a\n", {}, float("inf")),
            ("0::/a\n", {"a/cpu.max": "garbled\n"}, float("inf")),
        ],
    )
    def test_quota(self, tmp_path, cgroup, files, expected):
        assert extractor._cgroup_cpus(*self.tree(tmp_path, cgroup, files)) == expected

    def test_no_cgroup_file(self, tmp_path):
        assert extractor._cgroup_cpus(tmp_path / "missing", tmp_path) == float("inf")

    def test_quota_caps_the_affinity_set(self, monkeypatch):
        try:
            monkeypatch.setattr(extractor, "_cgroup_cpus", lambda: float("inf"))
            extractor._cpus.cache_clear()
            affinity = extractor._cpus()
            monkeypatch.setattr(extractor, "_cgroup_cpus", lambda: 1.5)
            extractor._cpus.cache_clear()
            assert affinity >= 1 and extractor._cpus() == min(1.5, affinity)
        finally:
            extractor._cpus.cache_clear()


class TestBitSerialization:
    def test_pack_msb_first(self):
        assert pack_bits([1, 0, 1, 1, 0, 0, 1, 0]) == b"\xb2"
        assert pack_bits([1, 1]) == b"\xc0"  # zero-padded tail

    def test_pack_unpack_round_trip(self):
        rng = np.random.default_rng(47)
        for count in (0, 1, 7, 8, 9, 64, 100):
            bits = rng.integers(0, 2, count, dtype=np.uint8)
            assert np.array_equal(unpack_bits(pack_bits(bits), count), bits)

    def test_unpack_validation(self):
        with pytest.raises(ValueError):
            unpack_bits(b"\x00", 9)
        with pytest.raises(ValueError):
            unpack_bits(b"", -1)

    @pytest.mark.parametrize(
        "data,count,message",
        [
            (b"\x00\x00", 8, "packed data holds 2 bytes, expected 1 for 8 bits"),
            (b"\x80\x00", 1, "packed data holds 2 bytes, expected 1 for 1 bits"),
            (b"\x00", 0, "packed data holds 1 bytes, expected 0 for 0 bits"),
            (b"\x01", 7, "packed data has nonzero padding bits after bit 7"),
            (b"\xff\xc0", 9, "packed data has nonzero padding bits after bit 9"),
        ],
        ids=["extra-byte-8", "extra-byte-1", "extra-byte-0", "padding-7", "padding-9"],
    )
    def test_unpack_refuses_extra_bytes_and_padding(self, data, count, message):
        with pytest.raises(ValueError) as caught:
            unpack_bits(data, count)
        assert str(caught.value) == message

    def test_bit_string_round_trip(self):
        assert format_bit_string(parse_bit_string("0110 1\n01")) == "01101 01".replace(" ", "")
        assert parse_bit_string("").size == 0
        with pytest.raises(ValueError):
            parse_bit_string("010X")

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(53)
        bits = rng.integers(0, 2, 77, dtype=np.uint8)
        ascii_path = tmp_path / "bits.txt"
        packed_path = tmp_path / "bits.bin"
        write_bits(ascii_path, bits, "ascii")
        write_bits(packed_path, bits, "packed")
        assert np.array_equal(read_bits(ascii_path), bits)
        assert np.array_equal(read_bits(packed_path, "packed", 77), bits)
        with pytest.raises(ValueError):
            read_bits(packed_path, "packed")
        with pytest.raises(ValueError):
            read_bits(ascii_path, "weird")


# 0/1 and what str.split() drops as whitespace, ASCII and not
BIT_TEXT_CHARS = ["0", "1", *(chr(c) for c in (*range(9, 14), *range(28, 33))), "\x85", "\xa0", "\u2028"]
NON_BINARY_CHARS = ["2", "a", "/", "\x00", "\x7f", "\xe9"]


@given(
    st.one_of(
        st.text(alphabet=st.sampled_from(BIT_TEXT_CHARS)),
        st.text(alphabet=st.sampled_from(BIT_TEXT_CHARS + NON_BINARY_CHARS)),
    )
)
def test_parse_matches_reference(text):
    try:
        expected = reference_parse(text)
    except ValueError as e:
        with pytest.raises(ValueError) as caught:
            parse_bit_string(text)
        assert str(caught.value) == str(e)
    else:
        bits = parse_bit_string(text)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, expected)
