"""Toeplitz-hashing extraction of the certified bits.

The hash family is the set of binary Toeplitz matrices T with
T[i][j] = seed[i - j + n - 1], built from a uniformly random seed of
n + m - 1 bits; output[i] is the parity of T's row i against the raw input.
The family is two-universal, so hashing n raw bits carrying k certified
bits of min-entropy down to m = floor(k) - ceil(log2(1/eps2)) bits leaves
the output eps2-close to uniform.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Exact row sums are integers; float64 FFT error at n = 1e7 is ~2e-9.
ROUNDING_MARGIN = 0.25


def output_length(net_bits: float, epsilon2: float) -> int:
    """Extractable output length max(0, floor(net_bits) - ceil(log2(1/eps2)))."""
    if not 0.0 < epsilon2 < 1.0:
        raise ValueError(f"epsilon2 must lie strictly in (0, 1): {epsilon2!r}")
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
    if m == 0:
        return np.zeros((0, n), dtype=np.uint8)
    rows = np.arange(m)[:, None]
    cols = np.arange(n)[None, :]
    return spec.seed[rows - cols + n - 1]


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


def _spectra(length: int) -> tuple[np.ndarray, np.ndarray]:
    """Two complex128 half-spectra of length // 2 + 1 points, from this thread's kept buffers up to _KEPT_LENGTH.

    The buffers grow to the largest kept length L the thread has hashed and
    never shrink, about 16 * L bytes for the pair, so hashing block after
    block reuses resident pages instead of faulting fresh ones in.  Each
    thread has its own pair, so no lock is needed.  A longer hash gets a pair
    of its own, freed when the call returns.
    """
    size = length // 2 + 1
    if length > _KEPT_LENGTH:
        return np.empty(size, np.complex128), np.empty(size, np.complex128)
    pair = getattr(_buffers, "pair", None)
    if pair is None or pair[0].size < size:
        _buffers.pair = None  # free the smaller pair before allocating the larger
        pair = _buffers.pair = (np.empty(size, np.complex128), np.empty(size, np.complex128))
    return pair[0][:size], pair[1][:size]


@functools.lru_cache(maxsize=8)
def _seed_spectrum(seed_bytes: bytes, length: int) -> np.ndarray:
    """Read-only half-spectrum of the seed packed MSB-first in seed_bytes, zero-padded to length points.

    The packed bits and the length fix the padded seed exactly: packing pads
    with zeros, as the transform does, so equal keys have equal spectra.  A
    post-processor reuses its seed block after block, so each hit saves one
    transform.  _extract_fft keeps spectra of length <= _KEPT_SEED_LENGTH
    only, so one entry holds at most 16 * (2**16 + 1) bytes of spectrum plus
    2**14 bytes of key, 1.07 MB, and the 8 entries at most 8.5 MB.  Only the
    seed is kept, which the hash family treats as public; raw bits and
    outputs never are.
    """
    bits = np.unpackbits(np.frombuffer(seed_bytes, np.uint8))
    spectrum = np.fft.rfft(bits, length)  # cuts off any packing zeros past length
    spectrum.flags.writeable = False
    return spectrum


def _staged(bits: np.ndarray, buffer: np.ndarray, length: int) -> np.ndarray:
    """bits zero-padded to length points in the float view of buffer, whatever it held before."""
    staged = buffer.view(np.float64)[:length]
    staged[: bits.size] = bits
    staged[bits.size :] = 0.0
    return staged


def _extract_fft(spec: ToeplitzSpec, raw: np.ndarray) -> np.ndarray:
    """Row parities from one circular convolution seed * raw of _fft_length(n + m - 1) points.

    Row i's sum is entry n - 1 + i; any length >= n + m - 1 wraps only
    outside the kept rows, and the smallest 5-smooth one is the cheapest.
    Every per-call FFT-length array lives in the two buffers from _spectra.
    Up to _KEPT_SEED_LENGTH the seed's spectrum comes from _seed_spectrum,
    and the raw bits are staged in the first buffer's float view and
    transformed into the second; a repeated seed then costs one rfft and one
    irfft.  Above it the seed is staged in the second buffer and transformed
    into the first, which holds its spectrum for this call only, and rfft
    casts the raw bits itself, so no third FFT-length array is allocated.
    The product's inverse lands in the first buffer's float view.  The
    returned bits are a fresh array; the buffers are scratch for the next call.
    """
    n, m = spec.input_length, spec.output_length
    length = _fft_length(n + m - 1)
    first, second = _spectra(length)
    if length <= _KEPT_SEED_LENGTH:
        seed_spectrum = _seed_spectrum(np.packbits(spec.seed).tobytes(), length)
        np.fft.rfft(_staged(raw, first, length), out=second)
    else:
        seed_spectrum = np.fft.rfft(_staged(spec.seed, second, length), out=first)
        np.fft.rfft(raw, length, out=second)
    second *= seed_spectrum
    sums = np.fft.irfft(second, length, out=first.view(np.float64)[:length])[n - 1 : n - 1 + m]
    rounded = np.rint(sums)
    sums -= rounded
    error = float(np.abs(sums, out=sums).max())
    if not error <= ROUNDING_MARGIN:
        raise ValueError(f"FFT row sums lie {error:.3g} from an integer, past the {ROUNDING_MARGIN} margin")
    return rounded.astype(np.int64).astype(np.uint8) & 1


def toeplitz_extract(raw_bits, spec: ToeplitzSpec) -> np.ndarray:
    """Hash raw_bits down to spec.output_length bits.

    Reads row i's sum off entry n - 1 + i of the convolution seed * raw,
    computed with FFTs of the smallest 5-smooth length (2**a * 3**b * 5**c)
    >= n + m - 1 in O((n + m) log(n + m)), and raises ValueError when any
    sum lies more than ROUNDING_MARGIN from an integer.  The output equals
    toeplitz_matrix(spec) @ raw mod 2, the product the tests multiply out.
    The transforms run in buffers the calling thread keeps for its later
    calls, 16 bytes per FFT point of the longest hash it has run up to
    2**20 points (about 16 MB); a longer hash allocates its own and keeps
    nothing.  For FFT lengths up to 2**17 points the process also keeps
    the spectra of the 8 seeds hashed last, at most 8.5 MB (see _seed_spectrum),
    so a repeated seed skips its transform; the margin check runs on every
    call all the same.
    """
    raw = _as_bits(raw_bits, "raw_bits")
    if raw.size != spec.input_length:
        raise ValueError(f"raw length {raw.size} != spec input_length {spec.input_length}")
    if spec.output_length == 0:
        return np.zeros(0, dtype=np.uint8)
    return _extract_fft(spec, raw)


# --- bit-string serialization ---
#
# Packed files store bits most-significant-bit-first within each byte; the
# final byte is zero-padded, so the bit count must be supplied when reading,
# and a file of any other length or with a nonzero padding bit is refused.
# ASCII files hold the characters 0/1 with optional whitespace.


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


def read_bits(path: str | Path, fmt: str = "ascii", count: int | None = None) -> np.ndarray:
    if fmt == "ascii":
        data = Path(path).read_bytes()
        bits = _ascii_bits(data)  # None: other whitespace or characters, for the text parser to drop or name
        return parse_bit_string(data.decode("utf-8-sig")) if bits is None else bits
    if fmt == "packed":
        if count is None:
            raise ValueError("packed format needs an explicit bit count")
        return unpack_bits(Path(path).read_bytes(), count)
    raise ValueError(f"unknown bit format {fmt!r}")


def write_bits(path: str | Path, bits, fmt: str = "ascii") -> None:
    """Truncate path and write bits to it: ASCII 0/1 bytes and a newline, or packed.

    Truncating costs ~4x an overwrite in place on ext4 (0.12 ms for 37 KB; auto_da_alloc flushes on close),
    but an overwrite could leave old and new random bits mixed after a crash; temp file + os.replace: 0.26 ms.
    """
    if fmt == "ascii":
        Path(path).write_bytes((_as_bits(bits, "bits") + ord("0")).tobytes() + b"\n")
    elif fmt == "packed":
        Path(path).write_bytes(pack_bits(bits))
    else:
        raise ValueError(f"unknown bit format {fmt!r}")
