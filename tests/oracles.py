"""Independent dense oracles shared across the test modules.

Everything here is built entrywise from closed forms or by dense
eigendecomposition, never through the fast code paths under test.
Expensive spectral data is cached per (n, w).
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from prolate.lowrank import SpectralFactor

_PI_EXT = np.arccos(np.longdouble(-1.0))

# the extended-precision oracle and the extended-precision refinement need a
# np.longdouble wider than float64
needs_extended = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 on this platform",
)


def prolate_dense(n, w):
    """Entrywise sinc kernel sin(2*pi*w*(m-l)) / (pi*(m-l)), diagonal 2w."""
    d = np.subtract.outer(np.arange(n), np.arange(n)).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(2.0 * np.pi * w * d) / (np.pi * d)
    np.fill_diagonal(out, 2.0 * w)
    return out


def toeplitz_dense(col, rows=None):
    """The symmetric Toeplitz matrix with first column col, or the given rows of it."""
    if rows is None:
        return scipy.linalg.toeplitz(col)
    return col[np.abs(np.subtract.outer(rows, np.arange(col.size)))]


def circulant_half_spectrum(col, fft_len):
    """Bins 0..fft_len/2 of the spectrum of the symmetric circulant of length fft_len >= 2n - 1 whose leading
    n x n block is the Toeplitz matrix with first column col: the real part of the embedded column's real FFT."""
    n = col.size
    circ = np.zeros(fft_len, dtype=col.dtype)
    circ[:n] = col
    circ[fft_len - n + 1:] = col[1:][::-1]
    return scipy.fft.rfft(circ).real


def dirichlet_projector_dense(n, w_prime):
    """Entrywise Dirichlet kernel sin(2*pi*w'*(m-l)) / (n*sin(pi*(m-l)/n)), diagonal 2w'."""
    d = np.subtract.outer(np.arange(n), np.arange(n)).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(2.0 * np.pi * w_prime * d) / (n * np.sin(np.pi * d / n))
    np.fill_diagonal(out, 2.0 * w_prime)
    return out


def hilbert_matrix_dense(n):
    """Entries 1/(m+l+1); operator norm at most pi."""
    idx = np.arange(n, dtype=float)
    return 1.0 / (np.add.outer(idx, idx) + 1.0)


def fourier_columns_dense(pf):
    """The real frame F of a PartialFourier, materialized: 1/sqrt(n), then sqrt(2/n) cos(2 pi m k / n) and
    -sqrt(2/n) sin(2 pi m k / n) for k = 1..half_span, the turns m k / n reduced modulo one in integers."""
    k = np.arange(1, pf.half_span + 1)
    angle = 2.0 * np.pi * (np.outer(np.arange(pf.n), k) % pf.n) / pf.n
    scale = math.sqrt(2.0 / pf.n)
    return np.hstack([np.full((pf.n, 1), 1.0 / math.sqrt(pf.n)), scale * np.cos(angle), -scale * np.sin(angle)])


def fourier_projector_dense(pf):
    """F F* of a PartialFourier, from its materialized frame."""
    f = fourier_columns_dense(pf)
    return f @ f.T


def sinc_alias_dense(n):
    """The odd residual kernel: sinc minus Dirichlet minus the two adjacent images."""
    d = np.subtract.outer(np.arange(n), np.arange(n)).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            1.0 / (np.pi * d)
            - 1.0 / (n * np.sin(np.pi * d / n))
            - 1.0 / (np.pi * (d + n))
            - 1.0 / (np.pi * (d - n))
        )
    np.fill_diagonal(out, 0.0)
    return out


def kernel_mismatch_dense(n):
    """The odd kernel before unfolding: sinc minus Dirichlet, zero diagonal."""
    d = np.subtract.outer(np.arange(n), np.arange(n)).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 1.0 / (np.pi * d) - 1.0 / (n * np.sin(np.pi * d / n))
    np.fill_diagonal(out, 0.0)
    return out


def bandwidth_shift_dense(n, w, w_prime):
    """The even kernel 2*sin(pi*(w-w')*(m-l)) / (pi*(m-l)), diagonal 2*(w-w')."""
    d = np.subtract.outer(np.arange(n), np.arange(n)).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 2.0 * np.sin(np.pi * (w - w_prime) * d) / (np.pi * d)
    np.fill_diagonal(out, 2.0 * (w - w_prime))
    return out


def grid_spectrum_sampled(target, start, step, count, q, m_max):
    """Bins 0..m_max of the length-q real FFT of a SyntheticTarget sampled node by node at start + j*step, j < count:
    offset + slope t plus every bump a exp(-|t - c| / w), summed from the target's fields."""
    t = start + step * np.arange(count)
    f = target.offset + target.slope * t
    for a, c, w in zip(target.amps, target.centers, target.widths):
        f = f + a * np.exp(-np.abs(t - c) / w)
    return scipy.fft.rfft(f, n=q)[:m_max + 1]


@lru_cache(maxsize=32)
def eig_dense(n, w):
    """Descending eigendecomposition of the dense prolate matrix; cached."""
    lams, vecs = np.linalg.eigh(prolate_dense(n, w))
    return lams[::-1].copy(), vecs[:, ::-1].copy()


@lru_cache(maxsize=32)
def eigvals_dense(n, w):
    lams = np.linalg.eigvalsh(prolate_dense(n, w))
    return lams[::-1].copy()


def projection_oracle(n, w, k):
    _, vecs = eig_dense(n, w)
    vk = vecs[:, :k]
    return vk @ vk.T


def pinv_oracle(n, w, k):
    lams, vecs = eig_dense(n, w)
    vk = vecs[:, :k]
    return (vk / lams[:k]) @ vk.T


def tridiagonal_dense(n, w):
    """Slepian's commuting tridiagonal: diagonal ((n-1-2m)/2)^2 cos(2 pi w), off-diagonal (m+1)(n-1-m)/2."""
    m = np.arange(n, dtype=float)
    diag = ((n - 1 - 2 * m) / 2.0) ** 2 * math.cos(2.0 * math.pi * w)
    off = (m[: n - 1] + 1.0) * (n - 1 - m[: n - 1]) / 2.0
    return diag, off


def chunked_window(n, w, lo, hi):
    """(start, count) of the window lo < lam < hi, found by growing a full-size tridiagonal solve.

    The search the library used before it predicted its window: bisection
    and inverse iteration on the full commuting tridiagonal for the 33
    indices around round(2nw), grown by 16, 32, ... (at most 512) indices
    on the low side until an eigenvalue >= hi precedes the window, then on
    the high side until the last one is <= lo, or the spectrum ends; the
    eigenvalues are float64 Rayleigh quotients against the dense matrix.
    """
    diag, off = tridiagonal_dense(n, w)
    b = prolate_dense(n, w)

    def quotients(first, last):
        _, v = scipy.linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(n - 1 - last, n - 1 - first), lapack_driver="stebz")
        v = v[:, ::-1]
        return np.clip(np.einsum("ij,ij->j", v, b @ v), 0.0, 1.0)

    center = min(int(math.floor(2.0 * n * w + 0.5)), n - 1)
    chunk = 16
    first, last = max(0, center - chunk), min(n - 1, center + chunk)
    lams = quotients(first, last)
    while True:
        if lams[0] < hi and first > 0:
            step = min(chunk, first)
            lams = np.concatenate([quotients(first - step, first - 1), lams])
            first -= step
        elif lams[-1] > lo and last < n - 1:
            step = min(chunk, n - 1 - last)
            lams = np.concatenate([lams, quotients(last + 1, last + step)])
            last += step
        else:
            break
        chunk = min(2 * chunk, 512)
    below_hi = np.flatnonzero(lams < hi)
    start = int(below_hi[0]) if below_hi.size else lams.size
    at_or_below_lo = np.flatnonzero(lams[start:] <= lo)
    count = int(at_or_below_lo[0]) if at_or_below_lo.size else lams.size - start
    return first + start, count


def prolate_dense_extended(n, w):
    """The sinc kernel in np.longdouble; w*|m-l| is reduced modulo one before the sine."""
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(np.longdouble)
    frac = np.fmod(np.longdouble(w) * d, np.longdouble(1.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(2 * _PI_EXT * frac) / (_PI_EXT * d)
    np.fill_diagonal(out, 2 * np.longdouble(w))
    return out


@lru_cache(maxsize=16)
def eig_extended(n, w):
    """Descending Slepian eigenpairs accurate enough to weight by 1/alpha; cached.

    The vectors come from a full eigensolve of the commuting tridiagonal,
    whose well-separated spectrum resolves each of them, where a dense
    solve of the clustered sinc matrix cannot.  Bisection with inverse
    iteration (stebz) is named because the divide-and-conquer and MRRR
    drivers gave vectors 10-100x less accurate here.  The eigenvalues are their
    Rayleigh quotients against the longdouble sinc matrix, accurate to a few
    longdouble ulps (the quotient's error is second order in the vector's).
    """
    diag, off = tridiagonal_dense(n, w)
    _, vecs = scipy.linalg.eigh_tridiagonal(diag, off, lapack_driver="stebz")
    vecs = vecs[:, ::-1].copy()
    v = vecs.astype(np.longdouble)
    # np.dot runs the longdouble product about twice as fast as the @ operator
    lams = np.einsum("ij,ij->j", v, np.dot(prolate_dense_extended(n, w), v)) / np.einsum("ij,ij->j", v, v)
    return np.clip(lams, 0.0, 1.0), vecs


def tikhonov_oracle(n, w, alpha):
    """(B^2 + alpha I)^{-1} B from the extended-precision eigenpairs."""
    lams, vecs = eig_extended(n, w)
    f = (lams / (lams**2 + np.longdouble(alpha))).astype(float)
    return (vecs * f) @ vecs.T


def tikhonov_oracle_mpmath(n, w, alpha, dps=40):
    """(B^2 + alpha I)^{-1} B by a dps-digit dense eigensolve of the sinc matrix (slow; n <= 128)."""
    import mpmath

    with mpmath.workdps(dps):
        ww = mpmath.mpf(w)
        col = [2 * ww] + [mpmath.sin(2 * mpmath.pi * ww * d) / (mpmath.pi * d) for d in range(1, n)]
        b = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                b[i, j] = col[abs(i - j)]
        lams, vecs = mpmath.eigsy(b)
        a = mpmath.mpf(alpha)
        f = mpmath.diag([lam / (lam**2 + a) for lam in lams])
        out = vecs * f * vecs.T
        return np.array(out.tolist(), dtype=float)


def diag_lyapunov_dense(a_diag, b_col):
    """Closed-form solution of diag(a) X + X diag(a) = b b'."""
    a_diag = np.asarray(a_diag, float)
    b_col = np.asarray(b_col, float)
    return np.outer(b_col, b_col) / np.add.outer(a_diag, a_diag)


def shift_quality(a, b, shifts, grid=10_000):
    """max over a grid of |prod (x - p_j)/(x + p_j)|^2 on [a, b]: the ADI error factor."""
    x = np.linspace(a, b, grid)
    phi = np.ones_like(x)
    for p in shifts:
        phi *= (x - p) / (x + p)
    return float(np.max(phi**2))


def norm2(m):
    return float(np.linalg.norm(m, 2))


def rayleigh_lambda(v, b_op):
    """v' (B v) for a unit vector v through a Toeplitz apply, clamped into [0, 1] (1e-12 leeway)."""
    v = np.asarray(v)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"expected a unit vector, got norm {nrm}")
    return _clamp(float(np.real(np.vdot(v, b_op.apply(v)))))


def _clamp(lam):
    if lam < -1e-12 or lam > 1.0 + 1e-12:
        raise ValueError(f"eigenvalue estimate {lam} outside [0, 1] beyond clamp tolerance")
    return min(max(lam, 0.0), 1.0)


def dense_slepian_basis(n, w):
    """Full Slepian basis and eigenvalues by dense eigendecomposition, eigenvalues descending.

    The first entry above 1e-12 of each vector is positive, as in the fast
    solver.  Guarded to n <= 4096.
    """
    if n > 4096:
        raise ValueError(f"dense Slepian basis guarded to n <= 4096, got {n}")
    lams, vecs = np.linalg.eigh(prolate_dense(n, w))
    vecs = vecs[:, ::-1].copy()
    big = np.abs(vecs) > 1e-12
    lead = np.where(big.any(axis=0), big.argmax(axis=0), np.abs(vecs).argmax(axis=0))
    vecs *= np.where(vecs[lead, np.arange(n)] < 0, -1.0, 1.0)
    return vecs, np.array([_clamp(float(x)) for x in lams[::-1]])


def monomial_basis(n, width, dtype=float):
    """The normalized monomials (m/n)^j, m < n, j < width, in dtype."""
    return (np.arange(n, dtype=dtype) / dtype(n))[:, None] ** np.arange(width)


def kernel_dense(fac):
    """A PolynomialKernelFactor as its dense matrix basis @ coeffs @ basis', the basis (m/n)^j expanded here."""
    basis = monomial_basis(fac.n, fac.rank)
    return basis @ fac.coeffs @ basis.T


def phase_turns(n, w, step):
    """Turns (angle / 2 pi) of a Fourier-correction phase at m = 0..n-1, in np.longdouble and within 2^-64.

    |step| 1 is w' m = q m / (2n), |step| 2 is (w + w') m / 2; each is reduced modulo one in integer arithmetic
    from the exact binary value of w, and negated for a negative step.  q is the odd integer nearest the rounded
    float product 2.0 * n * w, as the library takes it: at (300, 0.37) the exact 2nw is 221.999999999999997
    and the float one 222.0, and q is 223, not 221.
    """
    num, den = Fraction(w).as_integer_ratio()
    q = 2 * math.floor(2.0 * n * w / 2.0) + 1
    # turns = a m / d exactly: q m / (2n), or (2 n num + q den) m / (4 n den)
    a, d = (q, 2 * n) if abs(step) == 1 else (2 * n * num + q * den, 4 * n * den)
    scaled = np.array([(a * m % d << 64) // d for m in range(n)], dtype=np.uint64)
    return math.copysign(1.0, step) * scaled.astype(np.longdouble) / np.longdouble(2.0) ** 64


def unfolded_half(f, parity):
    """Parity half of the SpectralFactor f at its full n rows: mirrored below its leading rows (even), or
    mirrored and negated with a zero middle row for odd n (odd)."""
    half, n = f.halves[parity], f.n
    mirror = half[: n // 2][::-1] * (-1.0 if parity else 1.0)
    middle = np.zeros((n % 2 if parity else 0, half.shape[1]))
    return np.vstack([half, middle, mirror])


# The Fourier correction B - F F* as four real terms, in the FourierFactor's coefficient order: (taylor, step,
# flip_left, flip_right, p_sin, p_cos) each stands for p_sin (S X C - C X S) + p_cos (C X C + S X S),
# X = J^flip_left P M P^T J^flip_right, C and S the cos and sin diagonals of the phase of step (phase_turns), P the
# columns of z (taylor None: M the identity) or the monomial basis (m/n)^j with M = ca (taylor 0) or cb (taylor 1).
# By the structural identity B - F F* = (H J - J H) / pi + A1 (odd, sine) + B0 (even, cosine), H ~ z z^T.
_FOUR_TERMS = ((None, 1, False, True, 1.0 / math.pi, 0.0), (None, 1, True, False, -1.0 / math.pi, 0.0),
               (0, 1, False, False, 1.0, 0.0), (1, 2, False, False, 0.0, 1.0))
# The same correction as the eight complex outer products of both members of each conjugate pair, (taylor, step,
# flip_left, flip_right, post) each: post D J^flip_left P M P^T J^flip_right D^*, D = e^{2 pi i phase_turns(step)}.
_HILB, _ODD = 1.0 / (2.0 * math.pi * 1j), 1.0 / (2.0 * 1j)
_EIGHT_TERMS = ((None, 1, False, True, _HILB), (None, 1, True, False, -_HILB),
                (None, -1, False, True, -_HILB), (None, -1, True, False, _HILB),
                (0, 1, False, False, _ODD), (0, -1, False, False, -_ODD),
                (1, 2, False, False, 0.5), (1, -2, False, False, 0.5))


def _blocks(f, taylor, dtype=float):
    """The basis P and the coefficient matrix M of a term of the FourierFactor f, in dtype: z and the identity
    (taylor None), or the monomial basis (m/n)^j at the width of ca (0) or cb (1), expanded here, and that matrix."""
    if taylor is None:
        return f.z.astype(dtype), np.eye(f.z.shape[1], dtype=dtype)
    coef = (f.ca, f.cb)[taylor].astype(dtype)
    return monomial_basis(f.n, len(coef), dtype), coef


def _four_terms(f, dtype=float):
    """Per entry of _FOUR_TERMS: the entry, the cos and sin diagonals of its phase (longdouble turns), its P and M
    in dtype, and its slot of 2 width coefficients, the slots following one another in table order."""
    at = 0
    for term in _FOUR_TERMS:
        basis, coef = _blocks(f, term[0], dtype)
        angle = 2 * _PI_EXT * phase_turns(f.n, f.w, term[1])
        cos, sin = np.cos(angle).astype(dtype), np.sin(angle).astype(dtype)
        yield term, cos, sin, basis, coef, slice(at, at + 2 * len(coef))
        at += 2 * len(coef)


def factor_halves(f):
    """Dense real (left, right) with left @ right^T equal to the factor f, one column per coefficient.

    A SpectralFactor's parity halves are unfolded to n rows and placed at
    their coefficients abs(p - lead), abs(p - lead) + 2, ...; its weights g
    put sqrt|g| on each side and their signs on the left.  Each term of a
    FourierFactor gets its basis, coefficient matrix, phase diagonals and
    reversals here, outside the factor's own products, at its slot: the
    right columns C J^flip_right P M^T, then S J^flip_right P M^T, and the
    left ones that with them give the term's real form.
    """
    if isinstance(f, SpectralFactor):
        basis = np.zeros((f.n, f.rank))
        for parity in (0, 1):
            basis[:, abs(parity - f.lead)::2] = unfolded_half(f, parity)
        root = np.sqrt(np.abs(f.weights))
        return basis * (np.sign(f.weights) * root), basis * root
    left, right = np.zeros((f.n, f.rank)), np.zeros((f.n, f.rank))
    for (_, _, flip_left, flip_right, p_sin, p_cos), cos, sin, basis, coef, slot in _four_terms(f):
        mid = slot.start + len(coef)
        outer, inner = (basis[::-1] if flip_left else basis), (basis[::-1] if flip_right else basis) @ coef.T
        # with X = Y Z^T: p_sin (S X C - C X S) + p_cos (C X C + S X S)
        # = (p_cos C + p_sin S) Y (C Z)^T + (p_cos S - p_sin C) Y (S Z)^T
        left[:, slot.start:mid] = (p_cos * cos + p_sin * sin)[:, None] * outer
        left[:, mid:slot.stop] = (p_cos * sin - p_sin * cos)[:, None] * outer
        right[:, slot.start:mid] = cos[:, None] * inner
        right[:, mid:slot.stop] = sin[:, None] * inner
    return left, right


def factor_dense(f):
    """The dense matrix a SpectralFactor or FourierFactor stands for."""
    left, right = factor_halves(f)
    return left @ right.T


def fourier_correction_eight_terms(f):
    """The dense complex matrix of the FourierFactor f's z, ca and cb as the eight outer products of _EIGHT_TERMS,
    both members of each conjugate pair: the reference the factor's four real terms are judged against."""
    out = np.zeros((f.n, f.n), complex)
    for taylor, step, flip_left, flip_right, post in _EIGHT_TERMS:
        basis, coef = _blocks(f, taylor)
        d = np.exp(2j * np.pi * phase_turns(f.n, f.w, step).astype(float))
        x = (basis[::-1] if flip_left else basis) @ coef @ (basis[::-1] if flip_right else basis).T
        out += post * (d[:, None] * x * d.conj())
    return out


def _columns(basis, v):
    """basis @ v for a real basis and real or complex v, each part its own real product."""
    return basis @ v.real + 1j * (basis @ v.imag) if np.iscomplexobj(v) else basis @ v


def fourier_synthesis_extended(f, c):
    """f.synthesize(c) for the FourierFactor f, in np.longdouble: per term, with a and b the halves of its slot,
    (p_cos C + p_sin S) J^flip_left P a + (p_cos S - p_sin C) J^flip_left P b."""
    c = np.asarray(c)
    out = np.zeros(f.n, np.clongdouble if np.iscomplexobj(c) else np.longdouble)
    for (_, _, flip_left, _, p_sin, p_cos), cos, sin, basis, coef, slot in _four_terms(f, np.longdouble):
        a, b = (_columns(basis, h.astype(np.clongdouble if np.iscomplexobj(c) else np.longdouble))
                for h in np.split(c[slot], 2))
        a, b = (a[::-1], b[::-1]) if flip_left else (a, b)
        out += (p_cos * cos + p_sin * sin) * a + (p_cos * sin - p_sin * cos) * b
    return out


def fourier_analysis_extended(f, x):
    """f.adjoint_apply(x) for the FourierFactor f, M P^T J^flip_right (C x) then M P^T J^flip_right (S x) per
    term, in np.longdouble."""
    x = np.asarray(x)
    x = x.astype(np.clongdouble if np.iscomplexobj(x) else np.longdouble)
    out = np.zeros(f.rank, x.dtype)
    for (_, _, _, flip_right, _, _), cos, sin, basis, coef, slot in _four_terms(f, np.longdouble):
        halves = [y[::-1] if flip_right else y for y in (cos * x, sin * x)]
        out[slot] = np.concatenate([coef @ _columns(basis.T, y) for y in halves])
    return out
