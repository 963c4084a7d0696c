"""Fast structured operators for the Slepian (DPSS) basis.

The prolate matrix and its spectral companions (subspace projector,
truncated pseudoinverse, Tikhonov solution map) are each a fast Toeplitz or
circulant part plus a provably low-rank correction; this package builds
those corrections with certified operator-norm error bounds and applies
everything in O(n log n).
"""

from .dpss import (
    PreconditionViolated,
    TransitionEigenSet,
    commuting_tridiagonal,
    transition_count,
    transition_eigenpairs,
)
from .fft_kernels import (
    PartialFourier,
    ToeplitzOperator,
    ToeplitzSymbol,
    prolate_matrix_dense,
    prolate_symbol,
)
from .fourier_ext import FourierExtensionConfig, SyntheticTarget, run_fourier_extension
from .lowrank import (
    AdiConfig,
    LowRankFactor,
    adi_rank,
    adi_shifts,
    bandwidth_shift_factor,
    cfadi_solve,
    fourier_correction_factor,
    hilbert_factor,
    pinv_correction,
    projection_correction,
    sinc_alias_factor,
    tikhonov_correction,
    tikhonov_precision_floor,
    zeta_even,
)
from .operators import (
    FastFactorization,
    FastProjector,
    FastPseudoinverse,
    FastTikhonov,
    PrecisionFloorWarning,
    SlepianParams,
    load_operator,
    save_operator,
)

__all__ = [
    "AdiConfig",
    "FastFactorization",
    "FastProjector",
    "FastPseudoinverse",
    "FastTikhonov",
    "FourierExtensionConfig",
    "LowRankFactor",
    "PartialFourier",
    "PrecisionFloorWarning",
    "PreconditionViolated",
    "SlepianParams",
    "SyntheticTarget",
    "ToeplitzOperator",
    "ToeplitzSymbol",
    "TransitionEigenSet",
    "adi_rank",
    "adi_shifts",
    "bandwidth_shift_factor",
    "cfadi_solve",
    "commuting_tridiagonal",
    "fourier_correction_factor",
    "hilbert_factor",
    "load_operator",
    "pinv_correction",
    "projection_correction",
    "prolate_matrix_dense",
    "prolate_symbol",
    "run_fourier_extension",
    "save_operator",
    "sinc_alias_factor",
    "tikhonov_correction",
    "tikhonov_precision_floor",
    "transition_count",
    "transition_eigenpairs",
    "zeta_even",
]

__version__ = "0.1.0"
