"""User-facing fast operators: projector, compressed factorization, pseudoinverse, Tikhonov.

Each operator packages a fast Toeplitz (or partial Fourier) part with the
low-rank correction that turns it into the target spectral operator, plus
the certified operator-norm error bound of the construction; how that bound
shares epsilon among the factorization's blocks, and the ranks and budgets
that follow, are lowrank's alone.  A common
binary format persists any of them to disk as its header and its spectral
correction in structured form, and restores an operator whose applications
are bit-identical to the original.
"""

from __future__ import annotations

import math
import numbers
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .dpss import default_subspace_dim, quotient_error, slepian_plan, transition_window
from .fft_kernels import PartialFourier, _real, _weight, _working
from .lowrank import (
    SpectralFactor,
    correction_rank_budget,
    fourier_correction_factor,
    hilbert_rank,
    pinv_correction,
    projection_correction,
    taylor_widths,
    tikhonov_correction,
    tikhonov_precision_floor,
    transition_count_budget,
)

__all__ = [
    "SlepianParams",
    "FastProjector",
    "FastFactorization",
    "FastPseudoinverse",
    "FastTikhonov",
    "PrecisionFloorWarning",
    "save_operator",
    "load_operator",
    "operator_from_bytes",
    "operator_to_bytes",
    "FactorFileError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedFileError",
]


@dataclass(frozen=True)
class SlepianParams:
    """Problem parameters (n, w, epsilon) plus the subspace split k.

    n and k are integers, Python's or numpy's, and k defaults to round(2nw)
    (half-up); w and epsilon are real numbers, stored as floats.  The
    eigenvalue condition on k is validated when an operator is built, where
    the transition eigenpairs are available.
    """

    n: int
    w: float
    epsilon: float
    k: int

    @classmethod
    def create(cls, n: int, w: float, epsilon: float, k: int | None = None) -> "SlepianParams":
        for name, value in (("signal length n", n), ("subspace dimension k", k)):
            if value is not None and not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if n < 1:
            raise ValueError(f"signal length must be positive, got {n}")
        w = _real(w, 0.0, 0.5, f"half-bandwidth must lie in (0, 1/2), got {w}")
        epsilon = _real(epsilon, 0.0, 0.5, f"tolerance must lie in (0, 1/2), got {epsilon}")
        if k is None:
            k = default_subspace_dim(n, w)
        if not 0 <= k <= n:
            raise ValueError(f"subspace dimension k={k} outside [0, {n}]")
        return cls(n=int(n), w=w, epsilon=epsilon, k=int(k))


class PrecisionFloorWarning(UserWarning):
    """A requested tolerance lies below what the operator can reach in this floating-point environment.

    Issued when an operator is built; the operator is still returned, and
    its error may reach its precision_floor rather than its error_bound.
    """


def _warn_below_floor(op):
    """op, after a PrecisionFloorWarning if its tolerance lies at or below its precision floor."""
    p, alpha_txt = op.params, (f", alpha={op.alpha:g}" if op.alpha else "")
    if p.epsilon <= op.precision_floor:
        warnings.warn(f"tolerance {p.epsilon:g} lies below the {_KIND_NAMES[op.kind]} precision floor "
                      f"{op.precision_floor:.2g} at n={p.n}, w={p.w:g}{alpha_txt}; "
                      "expect errors up to about the floor", PrecisionFloorWarning, stacklevel=3)
    return op


class _Operator:
    """Every kind's params, spectral correction u, alpha (0 but for Tikhonov) and certified bound_factor * epsilon."""

    alpha, bound_factor = 0.0, 1.0

    def __init__(self, params: SlepianParams, u: SpectralFactor):
        self.params, self.u, self.error_bound = params, u, self.bound_factor * params.epsilon

    @property
    def precision_floor(self) -> float:
        """The float64 eigenvalue noise quotient_error(n, w): at or below it the window edge is set by noise."""
        return quotient_error(self.params.n, self.params.w)

    def corrections(self):
        return (self.u,)

    def factors(self):
        """Every array the operator holds: each correction's, in the order of corrections()."""
        return sum((f.arrays for f in self.corrections()), ())


class _SpectralOperator(_Operator):
    """B / (1 + alpha) plus one spectral correction V diag(g) V^T: the projector, pinv and Tikhonov map.

    The kinds differ only in the spectral weight g they put on the transition
    eigenvectors V, in alpha and in bound_factor; each binds build and apply
    in its own body.  B is the Toeplitz part of slepian_plan(n, w).
    """

    def __init__(self, params: SlepianParams, correction: SpectralFactor):
        super().__init__(params, correction)
        self.b_op = slepian_plan(params.n, params.w).b_op


def _apply_spectral(self, x) -> np.ndarray:
    y = self.b_op.apply(x)
    if self.alpha:
        y /= 1.0 + self.alpha
    return self.u.synthesize(self.u.adjoint_apply(x), out=y)


class FastProjector(_SpectralOperator):
    """Projector onto the leading-k Slepian subspace as Toeplitz plus low-rank.

    apply(x) deviates from the exact subspace projection by at most
    error_bound * ||x||; real input yields real output.
    """

    kind = 1
    apply = _apply_spectral

    @classmethod
    def build(cls, params: SlepianParams) -> "FastProjector":
        return _warn_below_floor(cls(params, projection_correction(params.n, params.w, params.epsilon, params.k)))


class FastPseudoinverse(_SpectralOperator):
    """Rank-k truncated pseudoinverse of the prolate matrix as Toeplitz plus low-rank.

    apply(y) deviates from the exact truncated-pseudoinverse solve by at
    most error_bound * ||y|| with error_bound = 3 * epsilon.
    """

    kind, bound_factor = 3, 3.0
    apply = _apply_spectral

    @classmethod
    def build(cls, params: SlepianParams) -> "FastPseudoinverse":
        return _warn_below_floor(cls(params, pinv_correction(params.n, params.w, params.epsilon, params.k)))

    @classmethod
    def build_with_cutoff(cls, n: int, w: float, epsilon: float, cutoff: float) -> "FastPseudoinverse":
        """Split chosen so the retained eigenvalues are those >= cutoff.

        cutoff must lie inside (epsilon, 1 - epsilon) for the split condition
        to hold automatically.
        """
        params = SlepianParams.create(n, w, epsilon)  # n, w and epsilon checked before the cutoff and the window solve
        n, w, epsilon = params.n, params.w, params.epsilon
        cutoff = _real(cutoff, epsilon, 1.0 - epsilon, f"cutoff {cutoff} must lie inside ({epsilon}, {1 - epsilon})")
        start, lams, _ = transition_window(n, w, epsilon, 1.0 - epsilon)
        k = start + int(np.count_nonzero(lams >= cutoff))
        # not through build, which a tracer may wrap as a second build
        return _warn_below_floor(cls(SlepianParams.create(n, w, epsilon, k=k), pinv_correction(n, w, epsilon, k)))


class FastTikhonov(_SpectralOperator):
    """Tikhonov solution map (B^2 + alpha I)^{-1} B as scaled Toeplitz plus low-rank.

    apply(y) deviates from the exact regularized solve by at most
    error_bound * ||y|| with error_bound = epsilon, provided epsilon is at
    least precision_floor.  The floor is the estimated accuracy that the
    transition eigenpairs reach in this floating-point environment,
    magnified by the spectral weight's slope (about 1/alpha) and size
    (about 1/(2 sqrt(alpha))); it grows with n.  build() issues a
    PrecisionFloorWarning when epsilon lies below it.
    """

    kind = 4
    apply = _apply_spectral

    @classmethod
    def build(cls, params: SlepianParams, alpha: float) -> "FastTikhonov":
        # tikhonov_correction, called first, and __init__ both take alpha through _weight
        return _warn_below_floor(cls(params, alpha, tikhonov_correction(params.n, params.w, params.epsilon, alpha)))

    def __init__(self, params: SlepianParams, alpha: float, correction: SpectralFactor):
        self.alpha = _weight(alpha)
        super().__init__(params, correction)

    @property
    def precision_floor(self) -> float:
        return tikhonov_precision_floor(self.params.n, self.params.w, self.alpha)


class FastFactorization(_Operator):
    """Compressed two-sided factorization of the Slepian subspace projector.

    compress(x) stacks the partial Fourier coefficients with the two
    low-rank coefficient blocks (k_prime numbers in total); decompress
    rebuilds a vector within 2 * epsilon * ||x|| of the exact projection.
    Every part computes in real arithmetic, so a real x gives k_prime real
    coefficients and real c a real vector; complex input stays complex.
    The partial Fourier frame and the Fourier correction are fixed by
    (n, w, epsilon), so the operator derives them from params; only the
    spectral correction u is handed in.
    """

    kind, bound_factor = 2, 2.0

    def __init__(self, params: SlepianParams, u: SpectralFactor):
        super().__init__(params, u)
        self.pf = PartialFourier(params.n, params.w)
        # looked up as this module's global at each call, where perfbench/tracing.py wraps it
        self.l = fourier_correction_factor(params.n, params.w, params.epsilon)

    @classmethod
    def build(cls, params: SlepianParams) -> "FastFactorization":
        taylor_widths(params.epsilon)  # an eps beyond the Taylor blocks fails before the eigensolve
        return _warn_below_floor(cls(params, projection_correction(params.n, params.w, params.epsilon, params.k)))

    @property
    def k_prime(self) -> int:
        return self.pf.num_cols + self.l.rank + self.u.rank

    def k_prime_budget(self) -> float:
        """ceil(2nw) + correction_rank_budget(n, epsilon) + transition_count_budget(n, epsilon): the frame, then the
        Fourier and the spectral correction."""
        n, eps = self.params.n, self.params.epsilon
        return math.ceil(2.0 * n * self.params.w) + correction_rank_budget(n, eps) + transition_count_budget(n, eps)

    def compress(self, x) -> np.ndarray:
        """The k_prime coefficients of x: float64 for a real x, complex for a complex one."""
        return np.concatenate([self.pf.adjoint(x), self.l.adjoint_apply(x), self.u.adjoint_apply(x)])

    def decompress(self, c) -> np.ndarray:
        """The vector k_prime coefficients stand for: real for real c, complex for complex c."""
        c = _working(c, self.k_prime, "coefficients")
        nf, nl = self.pf.num_cols, self.l.rank
        out = self.pf.apply(c[:nf])
        self.l.synthesize(c[nf:nf + nl], out=out)
        return self.u.synthesize(c[nf + nl:], out=out)

    def apply(self, x) -> np.ndarray:
        return self.decompress(self.compress(x))

    def corrections(self):
        """The Fourier correction (z, ca and cb), then the spectral one."""
        return (self.l, self.u)


# ---------------------------------------------------------------------------
# Persistence: magic "FSLT", little-endian, version 6 only.
# "FSLT", u32 version, u64 n, f64 w, f64 epsilon, f64 alpha (+0.0 but for Tikhonov), u64 k, u8 kind, 7 zero pad
# bytes, f64 error bound; then every kind's one spectral record, its SpectralFactor u: two u64, lead (the parity
# of V's column 0) and count, then its arrays, column-major finite float64, every offset a multiple of 8: the
# count weights g, in V's column order, and the ceil(n/2) x count block of V's leading rows, its odd columns'
# middle row +-0 at odd n.  Nothing else is stored: the factorization's partial Fourier frame and Fourier
# correction are fixed by (n, w, epsilon), and the loader rebuilds them.


_MAGIC, _VERSION = b"FSLT", 6
_KIND_NAMES = {1: "projector", 2: "factorization", 3: "pinv", 4: "tikhonov"}
# largest n a file without stored columns may name: its length cannot bound n
MAX_EMPTY_N = 1 << 20


class FactorFileError(Exception):
    """Base error for the persisted-factor format."""


class BadMagicError(FactorFileError):
    pass


class UnsupportedVersionError(FactorFileError):
    """A format version other than 6; rebuild an older file with `prolate precompute` from its header."""


class TruncatedFileError(FactorFileError):
    pass


def operator_to_bytes(op) -> bytearray:
    """Serialize an operator as FSLT version 6, its spectral record's arrays written once into one preallocated
    buffer."""
    p, u = op.params, op.u
    head = struct.pack("<4sIQdddQB7xd2Q", _MAGIC, _VERSION, p.n, p.w, p.epsilon, op.alpha, p.k,
                       op.kind, op.error_bound, u.lead, u.rank)
    out, at = bytearray(len(head) + sum(a.nbytes for a in u.arrays)), len(head)
    out[:at] = head
    for a in u.arrays:
        if a.size:
            np.frombuffer(out, "<f8", a.size, at).reshape(a.shape, order="F")[...] = a
        at += a.nbytes
    return out


def save_operator(op, path) -> None:
    with open(path, "wb") as fh:
        fh.write(operator_to_bytes(op))


def _unpack(data, at, fmt, what):
    """The values of fmt at offset at of data, and the offset after them."""
    if at + struct.calcsize(fmt) > len(data):
        raise TruncatedFileError(f"file truncated while reading {what}")
    return struct.unpack_from(fmt, data, at), at + struct.calcsize(fmt)


def operator_from_bytes(data):
    """Rebuild an operator from FSLT version 6, recomputing the fast transforms from (n, w) and the factorization's
    Fourier correction from (n, w, epsilon).

    The header is bounded before anything is allocated.  The spectral
    record's arrays are read-only views of data, every value finite and the
    middle row of the odd columns zero at odd n.  Past them, a load
    allocates the Toeplitz part of slepian_plan(n, w) when that plan is not
    held yet (about 8 x 8n bytes at its peak, while the prolate column is
    computed, of which it keeps 4 to 6 x 8n), a few KB otherwise.
    The factorization takes no plan but rebuilds its Hilbert factor z,
    r x n x 8 bytes with r = hilbert_rank(n, epsilon) of lowrank, which owns the tolerance split; a
    factorization file is rejected unless r n <= 8 MAX_EMPTY_N + 16 x (its
    stored values), so z takes at most 64 MB plus 16 times the file's
    factor data.  Any other buffer, such as a bytearray, is first copied.
    """
    data = bytes(data)
    (magic,), at = _unpack(data, 0, "<4s", "magic")
    if magic != _MAGIC:
        raise BadMagicError("bad magic: not a persisted-factor file")
    (version,), at = _unpack(data, at, "<I", "version")
    if version != _VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}; only version {_VERSION} is read")
    (n, w, epsilon, alpha, k, kind, pad, error_bound, lead, columns), at = _unpack(data, at, "<QdddQB7sd2Q", "header")
    if kind not in _KIND_NAMES:
        raise FactorFileError(f"unknown operator kind {kind}")
    # the fields the writer fixes hold its bytes: a file that differs there would load but not re-encode to itself
    if kind != 4 and struct.pack("<d", alpha) != bytes(8):
        raise FactorFileError(f"header alpha {alpha!r} of a {_KIND_NAMES[kind]} must be +0.0")
    if pad != bytes(7):
        raise FactorFileError("header pad bytes after the kind must be zero")
    if lead > 1:
        raise FactorFileError(f"spectral record: lead parity {lead} is neither 0 nor 1")

    # the arrays must fill the rest of the file, checked before any is read; without a stored
    # column the file's length cannot bound n, so n is capped at MAX_EMPTY_N
    count = columns * (1 + (n + 1) // 2)
    if 8 * count != len(data) - at:
        if 8 * count > len(data) - at:
            raise TruncatedFileError("file truncated while reading factor data")
        raise FactorFileError("trailing bytes after factor data")
    if not columns and n > MAX_EMPTY_N:
        raise FactorFileError(f"header size n={n} is too large to rebuild: a file without "
                              f"stored columns may name n up to {MAX_EMPTY_N}")
    # one pass over every stored value, allocating nothing per value: a nan or inf leaves the sum not finite, and
    # only then are the extremes read to tell it from finite values whose sum overflowed (min <= 0 <= max, so
    # their own sum cannot overflow)
    values = np.frombuffer(data, "<f8", count, at)
    with np.errstate(over="ignore", invalid="ignore"):
        total = values.sum()
    if not (math.isfinite(total) or math.isfinite(values.min(initial=0.0) + values.max(initial=0.0))):
        raise FactorFileError("factor data holds a value that is not finite")
    g, block = values[:columns], values[columns:].reshape(((n + 1) // 2, columns), order="F")
    # at odd n the writer's odd columns hold +-0 in the middle row, which the factor never reads
    for value in block[-1, 1 - lead::2] if n % 2 else ():
        if value:
            raise FactorFileError(f"spectral record: an odd column holds {float(value)!r} in the middle row, not 0")

    # a header that passes the format checks can still name an impossible
    # operator (w outside (0, 1/2), mismatched ranks) or one too large to rebuild
    try:
        params = SlepianParams.create(int(n), float(w), float(epsilon), k=int(k))
        rank = hilbert_rank(params.n, params.epsilon) if kind == 2 else 0
        if rank * n > 8 * MAX_EMPTY_N + 16 * count:
            raise FactorFileError(f"header n={n}, eps={epsilon:g} asks for a Hilbert factor of {rank} x n, "
                                  f"beyond what the file's {count} stored values may rebuild")
        cls = {1: FastProjector, 2: FastFactorization, 3: FastPseudoinverse, 4: FastTikhonov}[kind]
        op = cls(params, *((float(alpha),) if kind == 4 else ()), SpectralFactor(params.n, lead, block, g))
    except (ValueError, OverflowError) as exc:
        raise FactorFileError(f"invalid operator header: {exc}") from exc
    except MemoryError:
        raise FactorFileError(f"header size n={n} is too large to rebuild") from None
    if not abs(op.error_bound - error_bound) <= 1e-15 * max(1.0, abs(error_bound)):
        raise FactorFileError("stored error bound disagrees with the reconstructed operator")
    return op


def load_operator(path):
    with open(path, "rb") as fh:
        return operator_from_bytes(fh.read())


def describe_operator(op) -> str:
    """Kind, parameters, each correction's coefficient rank, the bytes of every array held and the certified bound."""
    p = op.params
    alpha_txt = f" alpha={op.alpha:g}" if op.alpha else ""
    return (
        f"{_KIND_NAMES[op.kind]} n={p.n} w={p.w:g} eps={p.epsilon:g} k={p.k}{alpha_txt} "
        f"ranks=[{','.join(str(f.rank) for f in op.corrections())}] "
        f"factor_bytes={sum(a.nbytes for a in op.factors())} error_bound={op.error_bound:g}"
    )
