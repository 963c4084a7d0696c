"""Fast structured operators for the Slepian (DPSS) basis.

The prolate matrix and its spectral companions (subspace projector,
truncated pseudoinverse, Tikhonov solution map) are each a fast Toeplitz or
circulant part plus a provably low-rank correction; this package builds
those corrections with certified operator-norm error bounds and applies
everything in O(n log n).
"""

from .dpss import PreconditionViolated
from .fourier_ext import FourierExtensionConfig, SyntheticTarget, run_fourier_extension
from .operators import (
    BadMagicError,
    FactorFileError,
    FastFactorization,
    FastProjector,
    FastPseudoinverse,
    FastTikhonov,
    PrecisionFloorWarning,
    SlepianParams,
    TruncatedFileError,
    UnsupportedVersionError,
    load_operator,
    operator_from_bytes,
    operator_to_bytes,
    save_operator,
)

__all__ = [
    "SlepianParams",
    "FastProjector",
    "FastFactorization",
    "FastPseudoinverse",
    "FastTikhonov",
    "PrecisionFloorWarning",
    "PreconditionViolated",
    "save_operator",
    "load_operator",
    "operator_to_bytes",
    "operator_from_bytes",
    "FactorFileError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedFileError",
    "FourierExtensionConfig",
    "SyntheticTarget",
    "run_fourier_extension",
]

__version__ = "0.1.0"
