"""Toeplitz-hashing extraction of the certified bits.

The hash family is the set of binary Toeplitz matrices T with
T[i][j] = seed[i - j + n - 1], built from a uniformly random seed of
n + m - 1 bits; output[i] is the parity of T's row i against the raw input.
The family is two-universal, so hashing n raw bits carrying k certified
bits of min-entropy down to m = floor(k) - ceil(log2(1/eps2)) bits leaves
the output eps2-close to uniform.
"""

from __future__ import annotations

import math
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
        object.__setattr__(self, "seed", seed)


def toeplitz_matrix(spec: ToeplitzSpec) -> np.ndarray:
    """The explicit m x n hash matrix; row i is seed[i : i + n] reversed."""
    n, m = spec.input_length, spec.output_length
    if m == 0:
        return np.zeros((0, n), dtype=np.uint8)
    rows = np.arange(m)[:, None]
    cols = np.arange(n)[None, :]
    return spec.seed[rows - cols + n - 1]


def _extract_matrix(spec: ToeplitzSpec, raw: np.ndarray) -> np.ndarray:
    matrix = toeplitz_matrix(spec).astype(np.float64)
    return (matrix @ raw.astype(np.float64)).astype(np.int64).astype(np.uint8) & 1


def _extract_fft(spec: ToeplitzSpec, raw: np.ndarray) -> np.ndarray:
    n, m = spec.input_length, spec.output_length
    # a circular convolution of length >= n + m - 1 wraps only outside the kept rows
    length = 1 << (n + m - 2).bit_length()
    spectrum = np.fft.rfft(spec.seed, length) * np.fft.rfft(raw, length)
    sums = np.fft.irfft(spectrum, length)[n - 1 : n - 1 + m]
    rounded = np.rint(sums)
    error = float(np.max(np.abs(sums - rounded)))
    if not error <= ROUNDING_MARGIN:
        raise ValueError(f"FFT row sums lie {error:.3g} from an integer, past the {ROUNDING_MARGIN} margin")
    return rounded.astype(np.int64).astype(np.uint8) & 1


def toeplitz_extract(raw_bits, spec: ToeplitzSpec, method: str = "fft") -> np.ndarray:
    """Hash raw_bits down to spec.output_length bits.

    method 'fft' (the default) reads row i's sum off entry n - 1 + i of the
    convolution seed * raw, in O((n + m) log(n + m)), and raises ValueError
    when any sum lies more than ROUNDING_MARGIN from an integer.  method
    'matrix' evaluates the literal matrix-vector product in O(n * m) memory
    and is the normative small-n oracle.  Both give bit-identical output.
    """
    if method not in ("fft", "matrix"):
        raise ValueError(f"unknown method {method!r}")
    raw = _as_bits(raw_bits, "raw_bits")
    if raw.size != spec.input_length:
        raise ValueError(f"raw length {raw.size} != spec input_length {spec.input_length}")
    if spec.output_length == 0:
        return np.zeros(0, dtype=np.uint8)
    if method == "matrix":
        return _extract_matrix(spec, raw)
    return _extract_fft(spec, raw)


# --- bit-string serialization ---
#
# Packed files store bits most-significant-bit-first within each byte; the
# final byte is zero-padded, so the bit count must be supplied when reading.
# ASCII files hold the characters 0/1 with optional whitespace.


def pack_bits(bits) -> bytes:
    return np.packbits(_as_bits(bits, "bits")).tobytes()


def unpack_bits(data: bytes, count: int) -> np.ndarray:
    if count < 0:
        raise ValueError(f"bit count must be nonnegative: {count!r}")
    if len(data) * 8 < count:
        raise ValueError(f"{len(data)} bytes hold fewer than {count} bits")
    return np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=count)


def parse_bit_string(text: str) -> np.ndarray:
    stripped = "".join(text.split())
    if not stripped:
        return np.zeros(0, dtype=np.uint8)
    bad = set(stripped) - {"0", "1"}
    if bad:
        raise ValueError(f"bit string contains non-binary characters: {sorted(bad)}")
    return np.frombuffer(stripped.encode("ascii"), dtype=np.uint8) - ord("0")


def format_bit_string(bits) -> str:
    return (_as_bits(bits, "bits") + ord("0")).tobytes().decode("ascii")


def read_bits(path: str | Path, fmt: str = "ascii", count: int | None = None) -> np.ndarray:
    if fmt == "ascii":
        return parse_bit_string(Path(path).read_text())
    if fmt == "packed":
        if count is None:
            raise ValueError("packed format needs an explicit bit count")
        return unpack_bits(Path(path).read_bytes(), count)
    raise ValueError(f"unknown bit format {fmt!r}")


def write_bits(path: str | Path, bits, fmt: str = "ascii") -> None:
    if fmt == "ascii":
        Path(path).write_text(format_bit_string(bits) + "\n")
    elif fmt == "packed":
        Path(path).write_bytes(pack_bits(bits))
    else:
        raise ValueError(f"unknown bit format {fmt!r}")
