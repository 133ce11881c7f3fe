"""Source-independent certification and extraction of quantum randomness.

The package turns raw detector click statistics into a certified lower
bound on extractable random bits.  `certify` squashes the measurement
record into probability intervals, worst-cases them over everything the
source side could have prepared, tightens them by statistical fluctuation
terms, and converts them through a coherence estimate into a finite-size
min-entropy bound, less the cost of double clicks.  A Toeplitz extractor
then distills the certified bits.

Layout:

    qubit        binary entropy, and the Bloch length and coherence `certify` and `compare` run
    acquisition  click records, the finite-size penalty and floor, and `certify` to a `Certificate`
    detector     optical threshold-detector model (closed form and Monte Carlo)
    optimizer    grid search over intensity and basis bias
    extractor    Toeplitz hashing and bit-file handling
    cli          the ``siqrng`` command
"""

from .acquisition import (
    MIN_ENTROPY_COEFF,
    BasisCounts,
    BasisEstimate,
    Certificate,
    ClickRecord,
    EpsilonBudget,
    certify,
    finite_size_floor,
    parse_counts,
    read_counts,
    smoothing_log_term,
    write_counts,
)
from .detector import (
    ClickStats,
    ExperimentConfig,
    analytic_click_stats,
    mc_sample,
)
from .extractor import (
    ToeplitzSpec,
    output_length,
    pack_bits,
    read_bits,
    toeplitz_extract,
    toeplitz_matrix,
    unpack_bits,
    write_bits,
)
from .optimizer import OptimizationResult, optimize, rate_surface
from .qubit import NonphysicalStateError, binary_entropy

__version__ = "0.1.0"

__all__ = [
    "BasisCounts",
    "BasisEstimate",
    "Certificate",
    "ClickRecord",
    "ClickStats",
    "EpsilonBudget",
    "ExperimentConfig",
    "MIN_ENTROPY_COEFF",
    "NonphysicalStateError",
    "OptimizationResult",
    "ToeplitzSpec",
    "analytic_click_stats",
    "binary_entropy",
    "certify",
    "finite_size_floor",
    "mc_sample",
    "optimize",
    "output_length",
    "pack_bits",
    "parse_counts",
    "rate_surface",
    "read_bits",
    "read_counts",
    "smoothing_log_term",
    "toeplitz_extract",
    "toeplitz_matrix",
    "unpack_bits",
    "write_bits",
    "write_counts",
]
