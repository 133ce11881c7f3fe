"""Toeplitz-hashing extraction of the certified bits.

The hash family is the set of binary Toeplitz matrices T with
T[i][j] = seed[i - j + n - 1], built from a uniformly random seed of
n + m - 1 bits; output[i] is the parity of T's row i against the raw input.
The family is two-universal, so hashing n raw bits carrying k certified
bits of min-entropy down to m = floor(k) - ceil(log2(1/eps2)) bits leaves
the output eps2-close to uniform.

A long hash is split by columns: with h = n // 2, T @ r = T[:, :h] @ r[:h]
+ T[:, h:] @ r[h:], and each half is itself a Toeplitz hash, the left one
of seed[n - h:] and the right one of seed[:n - h + m - 1].  Parity is
additive, so the output is the XOR of the two halves' outputs, bit for bit
the same as the whole product.  When the process may keep two CPUs busy
and no other thread of it is hashing, one helper thread hashes the left
half while the caller hashes the right.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path, PurePosixPath

import numpy as np

from .acquisition import _check_epsilon, _read_file

# Exact row sums are integers; float64 FFT error at n = 1e7 is ~2e-9.
ROUNDING_MARGIN = 0.25


def output_length(net_bits: float, epsilon2: float) -> int:
    """Extractable output length max(0, floor(net_bits) - ceil(log2(1/eps2)))."""
    _check_epsilon(epsilon2, "epsilon2")
    if not math.isfinite(net_bits):
        raise ValueError(f"net_bits must be finite: {net_bits!r}")
    t_e = math.ceil(-math.log2(epsilon2))
    return max(0, math.floor(net_bits) - t_e)


def _as_bits(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    bits = arr.astype(np.uint8)
    if not np.array_equal(bits, arr) or np.any(bits > 1):
        raise ValueError(f"{name} must contain only 0/1 entries")
    return bits


@dataclass(frozen=True, eq=False)
class ToeplitzSpec:
    """Dimensions and seed of one Toeplitz hash: m x n from n + m - 1 seed bits."""

    input_length: int
    output_length: int
    seed: np.ndarray

    def __post_init__(self) -> None:
        if self.input_length < 1:
            raise ValueError(f"input_length must be at least 1: {self.input_length!r}")
        if self.output_length < 0:
            raise ValueError(f"output_length must be nonnegative: {self.output_length!r}")
        if self.output_length > self.input_length:
            raise ValueError(
                f"output_length {self.output_length} exceeds input_length {self.input_length}: "
                "hashing cannot lengthen the input"
            )
        seed = _as_bits(self.seed, "seed")
        expected = self.input_length + self.output_length - 1
        if self.output_length > 0 and seed.size != expected:
            raise ValueError(
                f"seed length {seed.size} != n + m - 1 = {expected} "
                f"for n = {self.input_length}, m = {self.output_length}"
            )
        seed.flags.writeable = False  # a later write would change the hash the spec was checked for
        object.__setattr__(self, "seed", seed)


def toeplitz_matrix(spec: ToeplitzSpec) -> np.ndarray:
    """The explicit m x n hash matrix; row i is seed[i : i + n] reversed."""
    n, m = spec.input_length, spec.output_length
    return spec.seed[np.subtract.outer(np.arange(m), np.arange(n)) + n - 1]


def _fft_length(target: int) -> int:
    """The smallest 2**a * 3**b * 5**c >= target, a length numpy's FFT factors into small radices."""
    best = 1 << (target - 1).bit_length()
    odd = 1
    while odd < best:  # odd runs over 3**b * 5**c
        factor = odd
        while factor < best:
            best = min(best, factor << ((target - 1) // factor).bit_length())
            factor *= 3
        odd *= 5
    return best


_buffers = threading.local()

# FFT lengths up to this keep their buffers, at most ~16 MB per thread.
_KEPT_LENGTH = 1 << 20

# FFT lengths up to this keep their seed's spectrum; 2**17 covers the 128 000-point postprocess block.
_KEPT_SEED_LENGTH = 1 << 17


def _mapped_array(size: int) -> np.ndarray:
    """size complex128 points in a private anonymous memory mapping of their own, zero until written.

    The split's helper thread keeps its pair here rather than in malloc's
    heap, where it would hold about 0.6 MB more peak RSS on the postprocess
    blocks.  A mapping is returned whole when its last array goes, and it
    is private, copied on write into a forked child as malloc's memory is.
    """
    import mmap  # ~0.4 ms to import, which a console run that hashes nothing skips

    private = {"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS} if hasattr(mmap, "MAP_PRIVATE") else {}
    mapping = mmap.mmap(-1, 16 * size, **private)
    if 16 * size >= 1 << 22 and hasattr(mmap, "MADV_HUGEPAGE"):
        mapping.madvise(mmap.MADV_HUGEPAGE)  # as numpy advises its own arrays from 4 MiB
    return np.frombuffer(mapping, np.complex128)


def _spectra(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Two complex128 half-spectra of length // 2 + 1 points, from this thread's kept buffers up to _KEPT_LENGTH.

    The buffers grow to the largest kept length L the thread has hashed and
    never shrink, about 16 * L bytes for the pair, so hashing block after
    block reuses resident pages instead of faulting fresh ones in.  Each
    thread has its own pair, so no lock is needed; the split's helper thread
    keeps one too, in _mapped_array.  A caller's pair comes from malloc:
    mapping it as well cut about 0.5 MB of peak RSS on the postprocess
    blocks, but pocketfft's per-call scratch then faulted back in on every
    transform, and two threads hashing at once lost 11%.  A longer hash
    gets a pair of its own, freed when the call returns.
    """
    size = length // 2 + 1
    if length > _KEPT_LENGTH:
        return np.empty(size, np.complex128), np.empty(size, np.complex128)
    pair = getattr(_buffers, "pair", None)
    if pair is None or pair[0].size < size:
        _buffers.pair = None  # free the smaller pair before allocating the larger
        allocate = _mapped_array if getattr(_buffers, "mapped", False) else functools.partial(np.empty, dtype=np.complex128)
        pair = _buffers.pair = (allocate(size), allocate(size))
    return pair[0][:size], pair[1][:size]


@functools.lru_cache(maxsize=16)
def _seed_spectrum(seed_bytes: bytes, length: int) -> np.ndarray:
    """Read-only half-spectrum of the seed packed MSB-first in seed_bytes, zero-padded to length points.

    The packed bits and the length fix the padded seed exactly: packing pads
    with zeros, as the transform does, so equal keys have equal spectra.  A
    post-processor reuses its seed block after block, so each hit saves one
    transform.  A split hash keeps one entry per column half, so the 16
    entries hold 8 seeds whether split or not.  toeplitz_extract keeps
    spectra of length <= _KEPT_SEED_LENGTH only, so one entry holds at most
    16 * (2**16 + 1) bytes of spectrum plus 2**14 bytes of key, 1.07 MB, and
    the 16 entries at most 17.1 MB; a half's entry is about 0.65 of its
    seed's unsplit one.  Only the seed is kept, which the hash family treats
    as public; raw bits and outputs never are.
    """
    bits = np.unpackbits(np.frombuffer(seed_bytes, np.uint8))
    spectrum = np.fft.rfft(bits, length)  # cuts off any packing zeros past length
    spectrum.flags.writeable = False
    return spectrum


def _cgroup_cpus(cgroups: Path = Path("/proc/self/cgroup"), mount: Path = Path("/sys/fs/cgroup")) -> float:
    """CPUs' worth of run time per period that cgroup CPU quotas leave this process, inf without a quota.

    Each line of cgroups names a hierarchy and the process's path in it.
    cgroup v2 ("0::/path") keeps the quota in cpu.max under mount ("max
    100000", or "150000 100000" for 1.5 CPUs); v1's cpu controller keeps it
    in cpu.cfs_quota_us (-1 for none) and cpu.cfs_period_us under mount/cpu.
    A quota on the process's cgroup or on any ancestor binds; a file that
    cannot be read sets none.
    """
    try:
        lines = cgroups.read_text().splitlines()
    except OSError:
        return math.inf
    limit = math.inf
    for line in lines:
        fields = line.split(":", 2)
        if len(fields) != 3 or (fields[1] and "cpu" not in fields[1].split(",")):
            continue  # not a hierarchy line, or a v1 hierarchy without the cpu controller
        _, controllers, path = fields
        root = mount if not controllers else mount / "cpu"
        here = PurePosixPath(path.lstrip("/"))
        for directory in (root / here, *(root / parent for parent in here.parents)):
            try:
                if not controllers:
                    quota, period = (directory / "cpu.max").read_text().split()
                else:
                    quota, period = ((directory / name).read_text() for name in ("cpu.cfs_quota_us", "cpu.cfs_period_us"))
                if quota.strip() not in ("max", "-1"):
                    limit = min(limit, int(quota) / int(period))
            except (OSError, ValueError):
                pass
    return limit


@functools.cache
def _cpus() -> float:
    """CPUs this process may keep busy at once, read on first use: its affinity set, capped by any cgroup quota."""
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)
    return min(affinity, _cgroup_cpus())


# Shortest input hashed as two column halves at once.  On a 2-vCPU host a half reaches the
# helper in ~40 us, and the split took 0.94-1.7x the unsplit time at n = 8 000-28 000 but
# 0.82-0.85x at n = 32 768 and 0.70-0.73x on the 44 571-89 142-bit postprocess blocks.
_SPLIT_MIN_INPUT = 1 << 15


class _Helper:
    """A daemon thread that hashes the left column half of one split hash at a time.

    Being a daemon, it keeps serving atexit handlers and threads that still
    hash after the main thread has returned, and never holds up the exit.
    """

    def __init__(self) -> None:
        import queue  # ~1 ms to import, which a console run that splits nothing skips

        self._reply_queue = queue.SimpleQueue
        self._tasks = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="siqrng-extract", daemon=True).start()

    def _serve(self) -> None:
        _buffers.mapped = True  # this thread's pair lives in _mapped_array
        for function, args, reply in iter(self._tasks.get, None):  # None ends the thread
            try:
                reply.put((function(*args), None))
            except BaseException as error:
                reply.put((None, error))

    def submit(self, function, *args):
        """A queue that will hold (function(*args), None), or (None, the exception it raised)."""
        reply = self._reply_queue()
        self._tasks.put((function, args, reply))
        return reply


_helper: _Helper | None = None

# toeplitz_extract calls running in this process.  Only a call that runs alone splits: the
# split pays only with a second CPU free, and a process whose threads hash at once has none.
# So at most one split runs at a time, and the helper never has a half queued.
_hashing = 0
_hashing_lock = threading.Lock()


def _started_helper() -> _Helper | None:
    """The helper, started on first use; None when no thread can start, as during interpreter shutdown."""
    global _helper
    if _helper is None:
        try:
            _helper = _Helper()
        except RuntimeError:
            return None
    return _helper


def _forget_helper() -> None:
    """In a forked child: the parent's helper thread and hashing threads did not come along."""
    global _helper, _hashing, _hashing_lock
    _helper, _hashing, _hashing_lock = None, 0, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _staged(bits: np.ndarray, buffer: np.ndarray, length: int) -> np.ndarray:
    """bits zero-padded to length points in the float view of buffer, whatever it held before."""
    staged = buffer.view(np.float64)[:length]
    staged[: bits.size] = bits
    staged[bits.size :] = 0.0
    return staged


def _kept_spectrum(seed: np.ndarray, length: int) -> np.ndarray | None:
    """seed's spectrum at length from _seed_spectrum (16 entries, at most 17.1 MB); None past _KEPT_SEED_LENGTH."""
    return _seed_spectrum(np.packbits(seed).tobytes(), length) if length <= _KEPT_SEED_LENGTH else None


def _row_sums(raw: np.ndarray, seed: np.ndarray, seed_spectrum: np.ndarray | None, m: int, length: int) -> np.ndarray:
    """The m row sums of the Toeplitz hash of raw by seed, by a circular convolution of the given length.

    Every FFT-length array lives in the calling thread's two buffers from
    _spectra, first and second.  With seed_spectrum given (_kept_spectrum),
    the raw bits are staged in first's float view and transformed into
    second, so a repeated seed costs one rfft and one irfft.  Without it the
    seed is staged in second and transformed into first, which holds its
    spectrum for this call only, and rfft casts the raw bits itself, so no
    third FFT-length array is allocated.  The product's inverse lands in
    first's float view, and the sums rounded to integers, as float64, in
    second's, which the caller must read before this thread hashes again.
    The rounding check runs here, so a split hash checks each half.
    """
    n = raw.size
    first, second = _spectra(length)
    if seed_spectrum is not None:
        np.fft.rfft(_staged(raw, first, length), out=second)
    else:
        seed_spectrum = np.fft.rfft(_staged(seed, second, length), out=first)
        np.fft.rfft(raw, length, out=second)
    second *= seed_spectrum
    sums = np.fft.irfft(second, length, out=first.view(np.float64)[:length])[n - 1 : n - 1 + m]
    rounded = np.rint(sums, out=second.view(np.float64)[:m])
    sums -= rounded
    error = float(np.abs(sums, out=sums).max())
    if not error <= ROUNDING_MARGIN:
        raise ValueError(f"FFT row sums lie {error:.3g} from an integer, past the {ROUNDING_MARGIN} margin")
    return rounded


def toeplitz_extract(raw_bits, spec: ToeplitzSpec) -> np.ndarray:
    """Hash raw_bits down to spec.output_length bits: toeplitz_matrix(spec) @ raw mod 2, as the tests multiply it out.

    Row i's sum is entry n - 1 + i of one circular convolution seed * raw of
    the smallest 5-smooth length (2**a * 3**b * 5**c) >= n + m - 1, which
    wraps only outside the kept rows: O((n + m) log(n + m)).  ValueError is
    raised when any sum lies more than ROUNDING_MARGIN from an integer, on
    every call, whether the seed's spectrum was kept or not.

    The hash is split by columns (see the module docstring) when four things
    hold: the process may keep two CPUs busy (its affinity set and any cgroup
    CPU quota, read once); no other call of this function is running in the
    process, so concurrent callers already fill the CPUs and each hashes
    whole; n >= _SPLIT_MIN_INPUT; and each half's FFT length, the 5-smooth
    length >= n - n // 2 + m - 1 for both, is at most _KEPT_LENGTH.  Load
    from other processes, or from this one's threads doing other work, is
    not seen.  The helper thread hashes the left half and the calling thread
    the right, each in its own kept buffers and each with its own rounding
    check; the sum of the two halves' row sums, taken mod 2, is the output,
    bit for bit.  When the helper cannot start, as on Python 3.12 once the
    main thread has returned, the hash runs whole.  The helper runs only
    private code, so a tracer wrapping this module's public functions sees
    one call.

    Every FFT-length array lives in the two buffers from _spectra, which
    each thread keeps for later calls up to 2**20 points (16 bytes a point,
    about 16 MB); a longer hash allocates its own and keeps nothing.  Either
    way a kept seed spectrum (one per half, when split) saves a transform,
    as _row_sums describes.  The returned bits are a fresh array; the
    buffers are scratch for the next call.
    """
    raw = _as_bits(raw_bits, "raw_bits")
    if raw.size != spec.input_length:
        raise ValueError(f"raw length {raw.size} != spec input_length {spec.input_length}")
    if spec.output_length == 0:
        return np.zeros(0, dtype=np.uint8)
    n, m = spec.input_length, spec.output_length
    global _hashing
    with _hashing_lock:
        _hashing += 1
        alone = _hashing == 1
    try:
        if alone and n >= _SPLIT_MIN_INPUT:
            h = n // 2
            half_length = _fft_length(n - h + m - 1)  # the right half is the longer when n is odd
            helper = half_length <= _KEPT_LENGTH and _cpus() >= 2 and _started_helper()
            if helper:
                # both seeds' spectra are looked up before either half grows its pair, as for the unsplit hash below
                left_seed, right_seed = spec.seed[n - h :], spec.seed[: n - h + m - 1]
                left_spectrum = _kept_spectrum(left_seed, half_length)
                right_spectrum = _kept_spectrum(right_seed, half_length)
                reply = helper.submit(_row_sums, raw[:h], left_seed, left_spectrum, m, half_length)
                try:
                    sums = _row_sums(raw[h:], right_seed, right_spectrum, m, half_length)
                finally:
                    left, error = reply.get()
                if error is not None:
                    raise error
                sums += left  # integers below 2**53, so exact
                return sums.astype(np.int64).astype(np.uint8) & 1
        length = _fft_length(n + m - 1)
        # the seed's spectrum is looked up before _row_sums grows this thread's pair: in that order a
        # loop over the postprocess blocks faulted no pages per call, in the other up to 926
        sums = _row_sums(raw, spec.seed, _kept_spectrum(spec.seed, length), m, length)
        return sums.astype(np.int64).astype(np.uint8) & 1
    finally:
        with _hashing_lock:
            _hashing -= 1


# --- bit-string serialization ---
#
# Packed files store bits most-significant-bit-first within each byte; the
# final byte is zero-padded, so the bit count must be supplied when reading,
# and a file of any other length or with a nonzero padding bit is refused.
# ASCII files hold the characters 0/1 with optional whitespace.
BIT_FORMATS = ("ascii", "packed")


def pack_bits(bits) -> bytes:
    return np.packbits(_as_bits(bits, "bits")).tobytes()


def unpack_bits(data: bytes, count: int) -> np.ndarray:
    """The count bits packed in data, which must be exactly ceil(count / 8) bytes with zero padding."""
    if count < 0:
        raise ValueError(f"bit count must be nonnegative: {count!r}")
    expected = -(-count // 8)
    if len(data) != expected:
        raise ValueError(f"packed data holds {len(data)} bytes, expected {expected} for {count} bits")
    padding = -count % 8
    if padding and data[-1] & ((1 << padding) - 1):
        raise ValueError(f"packed data has nonzero padding bits after bit {count}")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)


def _ascii_bits(data: bytes) -> np.ndarray | None:
    """data split on ASCII whitespace as bits, or None if a byte is not 0/1 (uint8 wraps, so others land above 1)."""
    bits = np.frombuffer(b"".join(data.split()), dtype=np.uint8) - ord("0")
    return None if np.any(bits > 1) else bits


def parse_bit_string(text: str) -> np.ndarray:
    """The 0/1 characters of text as bits, ignoring whitespace; ValueError names any other character."""
    stripped = "".join(text.split())
    bits = _ascii_bits(stripped.encode("ascii")) if stripped.isascii() else None
    if bits is None:
        raise ValueError(f"bit string contains non-binary characters: {sorted(set(stripped) - {'0', '1'})}")
    return bits


def format_bit_string(bits) -> str:
    return (_as_bits(bits, "bits") + ord("0")).tobytes().decode("ascii")


def read_bits(path: str | os.PathLike, fmt: str = "ascii", count: int | None = None) -> np.ndarray:
    """The bits of the file at path, in one unbuffered read with no pathlib object: ASCII 0/1, or count packed bits."""
    if fmt == "ascii":
        data = _read_file(path)
        bits = _ascii_bits(data)  # None: other whitespace or characters, for the text parser to drop or name
        return parse_bit_string(data.decode("utf-8-sig")) if bits is None else bits
    if fmt == "packed":
        if count is None:
            raise ValueError("packed format needs an explicit bit count")
        return unpack_bits(_read_file(path), count)
    raise ValueError(f"unknown bit format {fmt!r}")


def write_bits(path: str | os.PathLike, bits, fmt: str = "ascii") -> None:
    """Truncate path and write bits to it with plain open: ASCII 0/1 bytes and a newline, or packed.

    Truncating costs ~4x an overwrite in place on ext4 (0.12 ms for 37 KB; auto_da_alloc flushes on close),
    but an overwrite could leave old and new random bits mixed after a crash; temp file + os.replace: 0.26 ms.
    """
    if fmt == "ascii":
        data = (_as_bits(bits, "bits") + ord("0")).tobytes() + b"\n"
    elif fmt == "packed":
        data = pack_bits(bits)
    else:
        raise ValueError(f"unknown bit format {fmt!r}")
    with open(path, "wb") as f:
        f.write(data)
