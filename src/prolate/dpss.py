"""Slepian basis vectors and eigenvalues through the commuting tridiagonal matrix.

Only the handful of eigenpairs whose eigenvalues fall strictly between the
two cluster plateaus are ever needed; they are located by expanding a
windowed tridiagonal eigensolve outward from the expected transition index,
with each eigenvalue recovered as a Rayleigh quotient against the fast
Toeplitz apply (the tridiagonal's own spectrum is unrelated to the
concentration values).  Where a caller weights eigenvalues steeply enough
that double-precision quotients are too coarse, refine_window recomputes
the ones it flags in extended precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .fft_kernels import (
    ToeplitzOperator,
    circulant_embedding,
    next_pow2,
    prolate_column_extended,
    prolate_matrix_dense,
    prolate_symbol,
)

__all__ = [
    "PreconditionViolated",
    "TransitionEigenSet",
    "commuting_tridiagonal",
    "rayleigh_lambda",
    "transition_window",
    "refine_window",
    "rayleigh_extended",
    "quotient_error",
    "vector_error",
    "transition_eigenpairs",
    "transition_count",
    "dense_slepian_basis",
    "default_subspace_dim",
    "DENSE_GUARD",
]

DENSE_GUARD = 4096
_CLAMP_TOL = 1e-12
_SIGN_TOL = 1e-12
_EPS64 = float(np.finfo(np.float64).eps)
_EPS_EXT = float(np.finfo(np.longdouble).eps)
# columns per longdouble transform, bounding its complex256 workspace
_EXT_CHUNK = 16


class PreconditionViolated(ValueError):
    """The requested subspace split contradicts the eigenvalue layout."""


def default_subspace_dim(n: int, w: float) -> int:
    """Default subspace dimension round(2nw), ties rounding up."""
    return int(math.floor(2.0 * n * w + 0.5))


def commuting_tridiagonal(n: int, w: float):
    """Diagonal and off-diagonal of the tridiagonal matrix sharing the Slepian eigenvectors.

    diagonal[m] = ((n-1-2m)/2)^2 * cos(2*pi*w); off-diagonal[m] = (m+1)(n-1-m)/2.
    Its eigenvectors, ordered by descending tridiagonal eigenvalue, are the
    Slepian basis vectors in descending concentration order.
    """
    if n <= 0:
        raise ValueError(f"dimension must be positive, got {n}")
    if not 0.0 < w < 0.5:
        raise ValueError(f"half-bandwidth must lie in (0, 1/2), got {w}")
    m = np.arange(n, dtype=float)
    diag = ((n - 1 - 2 * m) / 2.0) ** 2 * math.cos(2.0 * math.pi * w)
    off = (m[: n - 1] + 1.0) * (n - 1 - m[: n - 1]) / 2.0
    return diag, off


def rayleigh_lambda(v: np.ndarray, b_op: ToeplitzOperator) -> float:
    """v' (B v) through the fast Toeplitz apply, clamped into [0, 1]."""
    v = np.asarray(v)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"expected a unit vector, got norm {nrm}")
    lam = float(np.real(np.vdot(v, b_op.apply(v))))
    return _clamp_eigenvalue(lam)


def _clamp_eigenvalue(lam: float) -> float:
    if lam < -_CLAMP_TOL or lam > 1.0 + _CLAMP_TOL:
        raise ValueError(f"eigenvalue estimate {lam} outside [0, 1] beyond clamp tolerance")
    return min(max(lam, 0.0), 1.0)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first entry larger than the sign tolerance positive, per column."""
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        nz = np.flatnonzero(np.abs(col) > _SIGN_TOL)
        lead = nz[0] if nz.size else int(np.argmax(np.abs(col)))
        if col[lead] < 0:
            vectors[:, j] = -col
    return vectors


def _slepian_vectors(d, e, n, lo, hi):
    """Slepian eigenvectors for the index range [lo, hi] (inclusive, ascending)."""
    if n == 1:
        return np.ones((1, 1))
    # slepian index l corresponds to the (n-1-l)-th ascending tridiagonal eigenvalue
    tri_lo, tri_hi = n - 1 - hi, n - 1 - lo
    _, vec = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(tri_lo, tri_hi))
    return _fix_signs(vec[:, ::-1].copy())


@dataclass(frozen=True)
class TransitionEigenSet:
    """Consecutive eigenpairs with lo < lam < hi, split at the subspace dimension k.

    ``vectors[:, j]`` belongs to Slepian index ``start_index + j``; the set
    is empty when both cluster plateaus meet.
    """

    n: int
    w: float
    lo: float
    hi: float
    k: int
    start_index: int
    lams: np.ndarray
    vectors: np.ndarray

    @property
    def count(self) -> int:
        return int(self.lams.size)

    def split(self):
        """(lams, vectors) below k and at-or-above k."""
        cut = max(0, min(self.count, self.k - self.start_index))
        return (
            (self.lams[:cut], self.vectors[:, :cut]),
            (self.lams[cut:], self.vectors[:, cut:]),
        )


def transition_window(n, w, lo, hi, b_op=None, max_pairs=4096):
    """All consecutive eigenpairs with lo < lam < hi.

    Returns (start_index, lams, vectors).  The window is found by expanding a
    tridiagonal eigensolve outward from round(2nw) until an eigenvalue >= hi
    appears on the low-index side and one <= lo on the high-index side (or
    the spectrum ends).  Eigenvalues below the float noise floor cannot be
    told apart from zero (see quotient_error), so a low threshold below that
    ends the window wherever a noisy value first falls to it; a caller that
    needs that edge placed honestly re-decides it with refine_window.
    max_pairs caps the sweep.
    """
    empty = np.zeros(0), np.zeros((n, 0))
    if lo >= hi or hi <= 0.0 or lo >= 1.0:
        return min(max(default_subspace_dim(n, w), 0), n), *empty
    if b_op is None:
        b_op = ToeplitzOperator(prolate_symbol(n, w))
    d, e = commuting_tridiagonal(n, w)

    center = min(max(default_subspace_dim(n, w), 0), n - 1)
    chunk = 16
    e_lo = max(0, center - chunk)
    e_hi = min(n - 1, center + chunk)
    vecs = _slepian_vectors(d, e, n, e_lo, e_hi)
    lams = _rayleigh_block(vecs, b_op)

    while True:
        if lams[0] < hi and e_lo > 0:
            step = min(chunk, e_lo)
            new = _slepian_vectors(d, e, n, e_lo - step, e_lo - 1)
            vecs = np.hstack([new, vecs])
            lams = np.concatenate([_rayleigh_block(new, b_op), lams])
            e_lo -= step
        elif lams[-1] > lo and e_hi < n - 1:
            step = min(chunk, n - 1 - e_hi)
            new = _slepian_vectors(d, e, n, e_hi + 1, e_hi + step)
            vecs = np.hstack([vecs, new])
            lams = np.concatenate([lams, _rayleigh_block(new, b_op)])
            e_hi += step
        else:
            break
        chunk = min(2 * chunk, 512)
        if lams.size > max_pairs:
            raise RuntimeError(
                f"transition window exceeded {max_pairs} eigenpairs for n={n}, "
                f"thresholds ({lo:g}, {hi:g}); thresholds are likely below "
                "the eigenvalue resolution of double precision"
            )

    below_hi = np.flatnonzero(lams < hi)
    start_off = int(below_hi[0]) if below_hi.size else lams.size
    at_or_below_lo = np.flatnonzero(lams[start_off:] <= lo)
    stop_off = start_off + (int(at_or_below_lo[0]) if at_or_below_lo.size else lams.size - start_off)
    return e_lo + start_off, lams[start_off:stop_off].copy(), vecs[:, start_off:stop_off].copy()


def quotient_error(n: int, w: float, extended: bool = False) -> float:
    """Estimated absolute error of a transition eigenvalue taken as a Rayleigh quotient.

    For the float64 quotients of transition_window it is
    eps64 * (w n / 4 + 8 log2 n): the float64 symbol's rounded sine
    arguments add up coherently, so the error grows with w n.  Measured
    1.5-69x below this against rayleigh_extended on the real-FFT quotients
    of the window (1e-12, 1 - 1e-12), for n in [64, 2^16] and w in
    [0.01, 0.49].  For rayleigh_extended it is eps_ext * (8 + sqrt(n)),
    eps_ext the machine epsilon of np.longdouble; measured 3.5-34x below
    against 30-digit mpmath quotients for n in [64, 1024].  Where
    np.longdouble is no wider than float64 the float64 estimate stands for
    both.
    """
    if extended and _EPS_EXT < _EPS64:
        return _EPS_EXT * (8.0 + math.sqrt(n))
    return _EPS64 * (w * n / 4.0 + 8.0 * math.log2(max(n, 2)))


def vector_error(n: int, w: float) -> float:
    """Estimated norm error of a window eigenvector from the tridiagonal solve.

    u * (n / (4 sin(2 pi w)) + 16), u the float64 unit roundoff.  The
    commuting tridiagonal separates every eigenvalue, so the float64 vectors
    are resolved individually, but its gaps near the transition shrink with
    sin(2 pi w) while its norm does not.  Measured 1.5-37x below this for
    n in [64, 4096] and w in [0.01, 0.49], against vectors refined by
    longdouble inverse iteration.
    """
    return 0.5 * _EPS64 * (n / (4.0 * math.sin(2.0 * math.pi * w)) + 16.0)


def rayleigh_extended(vecs: np.ndarray, n: int, w: float) -> np.ndarray:
    """v'Bv / v'v for each column of vecs, evaluated in np.longdouble and rounded to float64.

    B is applied through a longdouble real-FFT circulant embedding of the
    longdouble prolate column.  A quotient's error is second order in the
    vector's, so float64 vectors give eigenvalues to about quotient_error(n, w, True).
    """
    fft_len = next_pow2(2 * n)
    half = np.fft.rfft(circulant_embedding(prolate_column_extended(n, w), fft_len)).real
    out = np.empty(vecs.shape[1])
    for j in range(0, vecs.shape[1], _EXT_CHUNK):
        v = vecs[:, j:j + _EXT_CHUNK].astype(np.longdouble)
        bv = np.fft.irfft(half[:, None] * np.fft.rfft(v, n=fft_len, axis=0), n=fft_len, axis=0)[:n]
        out[j:j + _EXT_CHUNK] = np.einsum("ij,ij->j", v, bv) / np.einsum("ij,ij->j", v, v)
    return np.array([_clamp_eigenvalue(float(x)) for x in out])


def refine_window(n, w, start, lams, vecs, flagged, lo, extend=False):
    """A transition window with the flagged eigenvalues recomputed in extended precision.

    (start, lams, vecs) is a window from transition_window and flagged a
    boolean mask over it.  With extend, the float64 quotients could not
    place the low edge either: the pairs after the window are refined four
    at a time until one falls to lo or to the extended noise floor.  The
    window is then cut before the first eigenvalue at or below that edge.
    Returns (lams, vecs) for the pairs from start on.
    """
    lams = np.array(lams, dtype=float)
    if np.any(flagged):
        lams[flagged] = rayleigh_extended(vecs[:, flagged], n, w)
    edge = max(lo, quotient_error(n, w, extended=True)) if extend else lo
    if extend:
        d, e = commuting_tridiagonal(n, w)
        while start + lams.size < n and (lams.size == 0 or lams[-1] > edge):
            first = start + lams.size
            new = _slepian_vectors(d, e, n, first, min(n - 1, first + 3))
            vecs = np.hstack([vecs, new])
            lams = np.concatenate([lams, rayleigh_extended(new, n, w)])
    at_edge = np.flatnonzero(lams <= edge)
    stop = int(at_edge[0]) if at_edge.size else lams.size
    return lams[:stop].copy(), vecs[:, :stop].copy()


def _rayleigh_block(vecs, b_op):
    lams = np.einsum("ij,ij->j", vecs, b_op.apply_block(vecs))
    return np.array([_clamp_eigenvalue(float(x)) for x in lams])


def transition_eigenpairs(n, w, epsilon, k=None, b_op=None, max_pairs=4096) -> TransitionEigenSet:
    """Eigenpairs with epsilon < lam < 1 - epsilon, split at k (default round(2nw)).

    Raises PreconditionViolated unless lam^(k-1) > epsilon and lam^(k) < 1 - epsilon.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"tolerance must lie in (0, 1/2), got {epsilon}")
    if k is None:
        k = default_subspace_dim(n, w)
    start, lams, vecs = transition_window(n, w, epsilon, 1.0 - epsilon, b_op=b_op, max_pairs=max_pairs)
    if not start <= k <= start + lams.size:
        raise PreconditionViolated(
            f"subspace dimension k={k} violates the split condition: eigenvalues in "
            f"({epsilon:g}, {1 - epsilon:g}) occupy indices [{start}, {start + lams.size})"
        )
    return TransitionEigenSet(n, w, epsilon, 1.0 - epsilon, k, start, lams, vecs)


def transition_count(n, w, epsilon, b_op=None, max_pairs=4096) -> int:
    """Number of eigenvalues strictly inside (epsilon, 1 - epsilon)."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"tolerance must lie in (0, 1/2), got {epsilon}")
    _, lams, _ = transition_window(n, w, epsilon, 1.0 - epsilon, b_op=b_op, max_pairs=max_pairs)
    return int(lams.size)


def dense_slepian_basis(n: int, w: float):
    """Full Slepian basis and eigenvalues by dense eigendecomposition (test oracle).

    Returns (S, lams) with orthonormal columns and eigenvalues descending.
    Guarded to n <= DENSE_GUARD.
    """
    if n > DENSE_GUARD:
        raise ValueError(f"dense Slepian basis guarded to n <= {DENSE_GUARD}, got {n}")
    b = prolate_matrix_dense(n, w)
    lams, vecs = np.linalg.eigh(b)
    lams, vecs = lams[::-1], vecs[:, ::-1]
    lams = np.array([_clamp_eigenvalue(float(x)) for x in lams])
    return _fix_signs(vecs.copy()), lams
