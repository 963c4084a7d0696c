"""Low-rank building blocks behind the fast operators.

Three families of factors are produced here:

* a Cholesky-factored ADI solve of a diagonal Lyapunov equation, which
  yields a certified low-rank square root of the Hilbert matrix;
* truncated Taylor factorizations of the two smooth difference kernels that
  remain after the Hilbert part is pulled out (one odd, one even);
* eigen-partition corrections built from transition eigenpairs, which turn
  the prolate matrix into the subspace projector, the truncated
  pseudoinverse, or the Tikhonov solution map.

Assembled together they give the circulant-plus-low-rank split of the
prolate matrix with an operator-norm certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dpss import TransitionEigenSet, quotient_error, refine_window, transition_window, vector_error
from .fft_kernels import nearest_odd_integer

__all__ = [
    "AdiConfig",
    "LowRankFactor",
    "PolynomialKernelFactor",
    "adi_rank",
    "adi_shifts",
    "jacobi_dn",
    "cfadi_solve",
    "hilbert_factor",
    "zeta_even",
    "sinc_alias_factor",
    "bandwidth_shift_factor",
    "fourier_correction_factor",
    "projection_correction",
    "pinv_correction",
    "tikhonov_correction",
    "tikhonov_precision_floor",
    "correction_rank_budget",
    "transition_count_budget",
]

_SQRT_CLAMP = -1e-14
# share of epsilon that one window eigenvalue's quotient error may cost the
# Tikhonov map before that eigenvalue is recomputed in extended precision
_REFINE_SHARE = 0.25


@dataclass(frozen=True)
class LowRankFactor:
    """Tall-skinny pair (left, right) standing for left @ right.conj().T."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        if self.left.shape != self.right.shape or self.left.ndim != 2:
            raise ValueError(
                f"factor halves must share an (n, r) shape, got {self.left.shape} and {self.right.shape}"
            )

    @property
    def rank(self) -> int:
        return self.left.shape[1]

    @property
    def n(self) -> int:
        return self.left.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _product(self.left, _adjoint_product(self.right, x))

    def adjoint_apply(self, x: np.ndarray) -> np.ndarray:
        return _adjoint_product(self.right, x)

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """left @ c without copying left: the synthesis half of a two-sided factorization."""
        return _product(self.left, c)

    def dense(self) -> np.ndarray:
        return self.left @ self.right.conj().T

    @classmethod
    def zeros(cls, n: int, dtype=np.float64) -> "LowRankFactor":
        z = np.zeros((n, 0), dtype=dtype)
        return cls(z, z)

    @classmethod
    def symmetric(cls, u: np.ndarray) -> "LowRankFactor":
        return cls(u, u)


def _product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m @ x without copying m: a real m takes complex x as two real products."""
    if np.iscomplexobj(x) and not np.iscomplexobj(m):
        return m @ x.real + 1j * (m @ x.imag)
    return m @ x


def _adjoint_product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """m^H @ x without copying m."""
    if np.iscomplexobj(m):
        return (np.conj(x) @ m).conj()
    return _product(m.T, x)


# ---------------------------------------------------------------------------
# CF-ADI Lyapunov machinery and the Hilbert factor


def adi_rank(kappa: float, delta: float) -> int:
    """Iterations guaranteeing relative error delta for condition number kappa.

    ceil((1/pi^2) * log(4*kappa) * log(4/delta)), natural logs.
    """
    if kappa < 1.0:
        raise ValueError(f"condition number must be >= 1, got {kappa}")
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"relative tolerance must lie in (0, 1], got {delta}")
    return int(math.ceil(math.log(4.0 * kappa) * math.log(4.0 / delta) / math.pi**2))


def _agm_sequence(one_minus_m: float):
    """AGM iterates for modulus-squared m = 1 - one_minus_m."""
    a, b = 1.0, math.sqrt(one_minus_m)
    c = math.sqrt(max(1.0 - one_minus_m, 0.0))
    a_seq, c_seq = [a], [c]
    while abs(c) > 1e-17 * a and len(a_seq) < 64:
        a, b, c = (a + b) / 2.0, math.sqrt(a * b), (a - b) / 2.0
        a_seq.append(a)
        c_seq.append(c)
    return a_seq, c_seq


def _complete_elliptic_k(one_minus_m: float) -> float:
    a_seq, _ = _agm_sequence(one_minus_m)
    return math.pi / (2.0 * a_seq[-1])


def jacobi_dn(u, one_minus_m: float):
    """Jacobi dn(u | m) with m = 1 - one_minus_m, by the descending Landen transformation.

    Parameterized by the complementary parameter so that m extremely close
    to one loses no digits.
    """
    u = np.asarray(u, dtype=float)
    if not 0.0 < one_minus_m <= 1.0:
        raise ValueError(f"complementary parameter must lie in (0, 1], got {one_minus_m}")
    a_seq, c_seq = _agm_sequence(one_minus_m)
    depth = len(a_seq) - 1
    if depth == 0:
        return np.sqrt(1.0 - (1.0 - one_minus_m) * np.sin(u) ** 2)
    phi = (2.0**depth) * a_seq[depth] * u
    phi_prev = phi
    for i in range(depth, 0, -1):
        s = np.clip(c_seq[i] / a_seq[i] * np.sin(phi), -1.0, 1.0)
        phi_prev = phi
        phi = (phi + np.arcsin(s)) / 2.0
    # after the loop phi is phi_0 and phi_prev is phi_1
    return np.cos(phi) / np.cos(phi_prev - phi)


def adi_shifts(a: float, b: float, r: int) -> np.ndarray:
    """r positive shift parameters for a spectrum inside [a, b].

    They sit at Jacobi dn points, the optimal choice backing the rank
    certificate.
    """
    if not 0.0 < a <= b:
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    if r < 1:
        raise ValueError(f"need at least one shift, got r={r}")
    if a == b:
        return np.full(r, a)
    k = np.arange(1, r + 1)
    one_minus_m = (a / b) ** 2
    big_k = _complete_elliptic_k(one_minus_m)
    u = (2 * k - 1) / (2 * r) * big_k
    return b * jacobi_dn(u, one_minus_m)


@dataclass(frozen=True)
class AdiConfig:
    """A planned ADI iteration: spectrum bounds, count and shifts."""

    a: float
    b: float
    r: int
    shifts: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.a <= self.b:
            raise ValueError(f"need 0 < a <= b, got a={self.a}, b={self.b}")
        if self.r < 1 or self.shifts.shape != (self.r,):
            raise ValueError("shift count must match the iteration count")
        if np.any(self.shifts < self.a - 1e-12) or np.any(self.shifts > self.b + 1e-12):
            raise ValueError("shifts must lie inside [a, b]")

    @property
    def kappa(self) -> float:
        return self.b / self.a

    @classmethod
    def plan(cls, a: float, b: float, delta: float) -> "AdiConfig":
        """Pick the certified iteration count for relative error delta, then the shifts."""
        if not 0.0 < a <= b:
            raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
        r = adi_rank(b / a, delta)
        return cls(a=a, b=b, r=r, shifts=adi_shifts(a, b, r))


def cfadi_solve(a_diag: np.ndarray, b_col: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Low-rank factor Z with Z Z' approximating the solution of A X + X A' = b b'.

    A = diag(a_diag) must be positive, which keeps every iteration O(n):

        Z_1 = sqrt(2 p_1) (A + p_1 I)^{-1} b
        Z_k = sqrt(p_k / p_{k-1}) (A - p_{k-1} I)(A + p_k I)^{-1} Z_{k-1}
    """
    a_diag = np.asarray(a_diag, dtype=float)
    b_col = np.asarray(b_col, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    if np.any(a_diag <= 0.0):
        raise ValueError("diagonal entries must be positive")
    if np.any(shifts <= 0.0):
        raise ValueError("shift parameters must be positive")
    cols = []
    z = math.sqrt(2.0 * shifts[0]) / (a_diag + shifts[0]) * b_col
    cols.append(z)
    for k in range(1, shifts.size):
        z = math.sqrt(shifts[k] / shifts[k - 1]) * (a_diag - shifts[k - 1]) / (a_diag + shifts[k]) * z
        cols.append(z)
    return np.column_stack(cols)


def hilbert_factor(n: int, delta_h: float) -> np.ndarray:
    """Z with ||H - Z Z'|| <= delta_h for the n x n Hilbert matrix.

    H solves the Lyapunov equation with A = diag(m + 1/2) and an all-ones
    right-hand side, so CF-ADI with relative target delta_h / pi applies;
    the condition number is 2n - 1.
    """
    if n <= 0:
        raise ValueError(f"dimension must be positive, got {n}")
    if delta_h <= 0.0:
        raise ValueError(f"tolerance must be positive, got {delta_h}")
    delta = min(delta_h / math.pi, 1.0)
    config = AdiConfig.plan(0.5, n - 0.5, delta)
    return cfadi_solve(np.arange(n) + 0.5, np.ones(n), config.shifts)


# ---------------------------------------------------------------------------
# Taylor factors for the two smooth difference kernels


def zeta_even(k: int) -> float:
    """zeta(2k) by closed form for small k, direct summation with a tail bound after."""
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    closed = {
        1: math.pi**2 / 6.0,
        2: math.pi**4 / 90.0,
        3: math.pi**6 / 945.0,
        4: math.pi**8 / 9450.0,
    }
    if k in closed:
        return closed[k]
    s = 2 * k
    # tail after q terms is below q^(1-s)/(s-1); push it under 1e-17
    q = int(math.ceil((1e-17 * (s - 1)) ** (1.0 / (1 - s))))
    q = min(max(q, 8), 10**6)
    terms = (np.arange(q, 0, -1, dtype=float)) ** (-s)
    return float(math.fsum(terms))


@dataclass(frozen=True)
class PolynomialKernelFactor:
    """Symmetric polynomial kernel basis @ coeffs @ basis.T with normalized monomials.

    basis[m, j] = (m/n)^j keeps entries in [0, 1]; the represented matrix is
    identical to the raw-monomial form but stays well-scaled at large n.
    """

    basis: np.ndarray
    coeffs: np.ndarray
    frobenius_bound: float

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def dense(self) -> np.ndarray:
        return self.basis @ self.coeffs @ self.basis.T


def _binomial_expand(coeffs_by_degree, n, width):
    """Coefficient matrix c with sum_k a_k ((m-l)/n)^k == basis @ c @ basis.T."""
    c = np.zeros((width, width))
    for deg, a in coeffs_by_degree:
        for i in range(deg + 1):
            c[i, deg - i] += a * math.comb(deg, i) * (-1.0) ** (deg - i)
    return c


def sinc_alias_factor(n: int, tol: float) -> PolynomialKernelFactor:
    """Low-rank factor of the odd residual kernel left after unfolding the Hilbert part.

    The target kernel is 1/(pi d) - 1/(n sin(pi d/n)) - 1/(pi(d+n)) - 1/(pi(d-n))
    (zero diagonal, d = row - column), whose Taylor series in d/n has
    coefficients (2/(n pi)) [1 - (1 - 2^(1-2k)) zeta(2k)].  Truncating after
    r terms leaves a Frobenius error of at most (2/(3 pi)) 4^(-r).
    """
    if n <= 0:
        raise ValueError(f"dimension must be positive, got {n}")
    if not 0.0 < tol < 8.0 / (3.0 * math.pi):
        raise ValueError(f"tolerance must lie in (0, 8/(3 pi)), got {tol}")
    r = max(int(math.ceil(math.log(2.0 / (3.0 * math.pi * tol)) / (2.0 * math.log(2.0)))), 0)
    width = 2 * r
    grid = (np.arange(n, dtype=float) / n)[:, None]
    basis = grid ** np.arange(width)[None, :] if width else np.zeros((n, 0))
    by_degree = []
    for k in range(1, r + 1):
        a_k = (2.0 / (n * math.pi)) * (1.0 - (1.0 - 2.0 ** (1 - 2 * k)) * zeta_even(k))
        by_degree.append((2 * k - 1, a_k))
    coeffs = _binomial_expand(by_degree, n, width)
    bound = (2.0 / (3.0 * math.pi)) * 4.0 ** (-r)
    return PolynomialKernelFactor(basis, coeffs, bound)


def bandwidth_shift_factor(n: int, w: float, w_prime: float, tol: float) -> PolynomialKernelFactor:
    """Low-rank factor of the even kernel 2 sin(pi (w - w') d) / (pi d).

    This kernel carries the rounding of the bandwidth to an odd column
    count; |2nw - 2nw'| <= 1 keeps the series argument below pi/2 so r
    Taylor terms leave a Frobenius error of at most (3/2) (pi/6)^(2r).
    """
    if n <= 0:
        raise ValueError(f"dimension must be positive, got {n}")
    if abs(2.0 * n * w_prime - 2.0 * n * w) > 1.0 + 1e-9:
        raise ValueError("w' must round 2nw to a neighboring odd integer")
    if not 0.0 < tol < 1.5:
        raise ValueError(f"tolerance must lie in (0, 3/2), got {tol}")
    r = max(int(math.ceil(math.log(3.0 / (2.0 * tol)) / (2.0 * math.log(6.0 / math.pi)))), 1)
    width = 2 * r - 1
    grid = (np.arange(n, dtype=float) / n)[:, None]
    basis = grid ** np.arange(width)[None, :]
    beta = math.pi * (w - w_prime) * n
    by_degree = []
    for k in range(r):
        a_k = (2.0 / (n * math.pi)) * (-1.0) ** k * beta ** (2 * k + 1) / math.factorial(2 * k + 1)
        by_degree.append((2 * k, a_k))
    coeffs = _binomial_expand(by_degree, n, width)
    bound = 1.5 * (math.pi / 6.0) ** (2 * r)
    return PolynomialKernelFactor(basis, coeffs, bound)


# ---------------------------------------------------------------------------
# Assembly of the circulant-plus-low-rank correction


def correction_rank_budget(n: int, epsilon: float) -> float:
    """(4/pi^2 log(8n) + 6) log(15/epsilon)."""
    return (4.0 / math.pi**2 * math.log(8.0 * n) + 6.0) * math.log(15.0 / epsilon)


def transition_count_budget(n: int, epsilon: float) -> float:
    """(8/pi^2 log(8n) + 12) log(15/epsilon)."""
    return (8.0 / math.pi**2 * math.log(8.0 * n) + 12.0) * math.log(15.0 / epsilon)


def fourier_correction_factor(n: int, w: float, epsilon: float) -> LowRankFactor:
    """Factor (left, right) with ||B - F F* - left @ right^H|| <= epsilon.

    The tolerance is split 4 pi/15 to the Hilbert block and 7/30 to each
    Taylor block, which sums back to epsilon after the assembly; the rank
    stays within correction_rank_budget(n, epsilon).
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"tolerance must lie in (0, 1/2), got {epsilon}")
    if not 0.0 < w < 0.5:
        raise ValueError(f"half-bandwidth must lie in (0, 1/2), got {w}")
    w_prime = nearest_odd_integer(2.0 * n * w) / (2.0 * n)
    delta_h = 4.0 * math.pi / 15.0 * epsilon
    delta_taylor = 7.0 / 30.0 * epsilon

    z = hilbert_factor(n, delta_h)
    odd = sinc_alias_factor(n, delta_taylor)
    even = bandwidth_shift_factor(n, w, w_prime, delta_taylor)

    idx = np.arange(n)
    d_a = np.exp(2j * np.pi * w_prime * idx)[:, None]
    d_b = np.exp(1j * np.pi * (w + w_prime) * idx)[:, None]
    z_flip = z[::-1, :]
    va, ca = odd.basis, odd.coeffs
    vb, cb = even.basis, even.coeffs

    s_hilb = 1.0 / (2.0 * math.pi * 1j)
    s_odd = 1.0 / (2.0 * 1j)
    left = np.hstack([
        s_hilb * d_a * z,
        -s_hilb * d_a * z_flip,
        -s_hilb * d_a.conj() * z,
        s_hilb * d_a.conj() * z_flip,
        s_odd * d_a * va,
        -s_odd * d_a.conj() * va,
        0.5 * d_b * vb,
        0.5 * d_b.conj() * vb,
    ])
    va_ct = va @ ca.T
    vb_ct = vb @ cb.T
    right = np.hstack([
        d_a * z_flip,
        d_a * z,
        d_a.conj() * z_flip,
        d_a.conj() * z,
        d_a * va_ct,
        d_a.conj() * va_ct,
        d_b * vb_ct,
        d_b.conj() * vb_ct,
    ])
    return LowRankFactor(left, right)


# ---------------------------------------------------------------------------
# Eigen-partition corrections


def projection_correction(eigset: TransitionEigenSet) -> LowRankFactor:
    """(u1, u2) with ||S_k S_k' - (B + u1 u2')|| bounded by the search tolerance.

    u1 = [V2 (I - L2)^(1/2), -V3 L3^(1/2)], u2 flips the sign of the second
    block; V2/V3 hold the transition eigenvectors below / at-or-above k.
    """
    (lam2, vec2), (lam3, vec3) = eigset.split()
    w2 = np.sqrt(1.0 - lam2)
    w3 = np.sqrt(lam3)
    u1 = np.hstack([vec2 * w2, -vec3 * w3])
    u2 = np.hstack([vec2 * w2, vec3 * w3])
    return LowRankFactor(u1, u2)


def pinv_correction(eigset: TransitionEigenSet) -> LowRankFactor:
    """(u3, u4) with ||B_k^+ - (B + u3 u4')|| within three times the search tolerance."""
    (lam2, vec2), (lam3, vec3) = eigset.split()
    if np.any(lam2 <= 0.0):
        raise ValueError("below-split eigenvalues must be positive")
    w2 = np.sqrt(1.0 / lam2 - lam2)
    w3 = np.sqrt(lam3)
    u3 = np.hstack([vec2 * w2, -vec3 * w3])
    u4 = np.hstack([vec2 * w2, vec3 * w3])
    return LowRankFactor(u3, u4)


def _tikhonov_weight(lams, alpha):
    return lams / (lams**2 + alpha) - lams / (1.0 + alpha)


def _tikhonov_slope(lams, alpha):
    """Derivative of the correction weight in lambda."""
    return (alpha - lams**2) / (lams**2 + alpha) ** 2 - 1.0 / (1.0 + alpha)


def tikhonov_precision_floor(n: int, w: float, alpha: float) -> float:
    """Estimated error floor of the Tikhonov correction in this floating-point environment.

    quotient_error(n, w, extended=True) * max |f'| + vector_error(n, w) * max f
    over [0, 1], f the correction weight: the eigenvalue error magnified
    by the weight's slope (up to about 1/alpha) plus the eigenvector error
    magnified by the weight itself (up to 1/(2 sqrt(alpha))).  Both grow
    with n.  No tolerance below it can be met.
    """
    if alpha <= 0.0:
        raise ValueError(f"regularization weight must be positive, got {alpha}")
    # |f'| peaks at lambda = 0 or at its minimum, lambda^2 = 3 alpha (or the end of [0, 1])
    slope = max(abs(_tikhonov_slope(0.0, alpha)), abs(_tikhonov_slope(min(1.0, math.sqrt(3.0 * alpha)), alpha)))
    weight = 0.5 / math.sqrt(alpha) if alpha <= 1.0 else 1.0 / (1.0 + alpha)
    return quotient_error(n, w, extended=True) * slope + vector_error(n, w) * weight


def tikhonov_correction(n, w, epsilon, alpha, b_op=None, max_pairs=4096) -> LowRankFactor:
    """Symmetric factor u5 with ||(B^2 + a I)^{-1} B - (B/(1+a) + u5 u5')|| <= epsilon.

    The retained eigenpairs are those with a(1+a)*epsilon < lam < 1 - epsilon/3
    (thresholds of the regularized solution map, not the projector ones);
    their weights are lam (1 - lam^2) / ((1+a)(lam^2 + a)).  The weight's
    slope reaches about 1/a, so each window eigenvalue whose float64
    quotient error would cost the map more than a quarter of epsilon is
    recomputed in extended precision, and the low edge is decided on the
    refined values when float64 cannot place it.  The bound holds for
    epsilon down to tikhonov_precision_floor(n, w, a).
    """
    if alpha <= 0.0:
        raise ValueError(f"regularization weight must be positive, got {alpha}")
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"tolerance must lie in (0, 1/2), got {epsilon}")
    lo = alpha * (1.0 + alpha) * epsilon
    hi = 1.0 - epsilon / 3.0
    start, lams, vecs = transition_window(n, w, lo, hi, b_op=b_op, max_pairs=max_pairs)
    max_slope = _REFINE_SHARE * epsilon / quotient_error(n, w)
    flagged = np.abs(_tikhonov_slope(lams, alpha)) > max_slope
    extend = abs(_tikhonov_slope(lo, alpha)) > max_slope
    if extend or np.any(flagged):
        lams, vecs = refine_window(n, w, start, lams, vecs, flagged, lo, extend=extend)
    weights = _tikhonov_weight(lams, alpha)
    if np.any(weights < _SQRT_CLAMP):
        raise ValueError("negative spectral weight beyond the clamp tolerance")
    u5 = vecs * np.sqrt(np.maximum(weights, 0.0))
    return LowRankFactor.symmetric(u5)
