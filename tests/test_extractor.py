import itertools

import numpy as np
import pytest

from siqrng.extractor import (
    ToeplitzSpec,
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


def spec_for(n: int, m: int, seed) -> ToeplitzSpec:
    return ToeplitzSpec(input_length=n, output_length=m, seed=np.asarray(seed))


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
        ],
    )
    def test_fft_path_is_bit_identical(self, n, m):
        rng = np.random.default_rng(n)
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        raw = rng.integers(0, 2, n, dtype=np.uint8)
        spec = spec_for(n, m, seed)
        via_matrix = toeplitz_extract(raw, spec, method="matrix")
        via_fft = toeplitz_extract(raw, spec, method="fft")
        assert np.array_equal(via_matrix, via_fft)

    def test_fft_matches_matrix_on_random_shapes(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            n = int(rng.integers(1, 600))
            m = int(rng.integers(1, n + 1))
            seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
            raw = rng.integers(0, 2, n, dtype=np.uint8)
            spec = spec_for(n, m, seed)
            assert np.array_equal(
                toeplitz_extract(raw, spec), toeplitz_extract(raw, spec, method="matrix")
            )

    def test_method_selection(self):
        spec = spec_for(3, 2, GOLDEN["seed"])
        assert np.array_equal(
            toeplitz_extract(GOLDEN["raw"], spec),
            toeplitz_extract(GOLDEN["raw"], spec, method="matrix"),
        )
        for method in ("fancy", "auto", "blocked"):
            with pytest.raises(ValueError):
                toeplitz_extract(GOLDEN["raw"], spec, method=method)

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

    @pytest.mark.parametrize("offset", [0.4, 0.6])  # 0.6 would round to the wrong integer
    def test_rounding_guard_fires(self, perturb_irfft, offset):
        n, m = 64, 24
        rng = np.random.default_rng(61)
        spec = spec_for(n, m, rng.integers(0, 2, n + m - 1, dtype=np.uint8))
        raw = rng.integers(0, 2, n, dtype=np.uint8)
        perturb_irfft(n - 1 + m // 2, offset)
        with pytest.raises(ValueError, match="margin"):
            toeplitz_extract(raw, spec)
        assert toeplitz_extract(raw, spec, method="matrix").size == m

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
