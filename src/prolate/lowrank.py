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
prolate matrix with an operator-norm certificate.  This module alone shares
epsilon among the certificate's blocks, and tells the factor-file loader
the Hilbert factor's rank (hilbert_rank).  Each correction is kept
in structured form, as one of the two LowRankFactor kinds, whose base class
splits complex input into real rows once for a real core: a FourierFactor
holds the Hilbert factor z and two Taylor coefficient matrices (their basis
(m/n)^j is fixed by n and never stored; phases are recomputed per call), a
SpectralFactor holds a correction V diag(g) V^T as its weights g over a
view of the Slepian plan's block of V's leading ceil(n/2) rows, uncopied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.special

from .dpss import (
    PreconditionViolated,
    quotient_error,
    refine_window,
    transition_window,
    unfold,
    vector_error,
)
from .fft_kernels import (_read_only, _real, _real_rows, _reduced_product, _size, _weight, _working, mapped_rows,
                          nearest_odd_integer)

__all__ = [
    "LowRankFactor",
    "SpectralFactor",
    "FourierFactor",
    "PolynomialKernelFactor",
    "taylor_widths",
    "hilbert_rank",
    "adi_rank",
    "adi_shifts",
    "jacobi_dn",
    "cfadi_solve",
    "hilbert_factor",
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

# the shares of epsilon that fourier_correction_factor gives its Hilbert block (whose two terms scale it by 1/pi)
# and each of its two Taylor blocks: 2 (4/15) + 2 (7/30) = 1
_HILBERT_SHARE, _TAYLOR_SHARE = 4.0 * math.pi / 15.0, 7.0 / 30.0
# share of epsilon that one window eigenvalue's quotient error may cost the
# Tikhonov map before that eigenvalue is recomputed in extended precision
_REFINE_SHARE = 0.25
# rows per chunk of a spectral record's analysis products
_CHUNK = 8192
# rows per tile of both directions of the Fourier correction's products: analysis ran fastest while a tile of z and
# its modulated copies stay in cache, and synthesis' own tiles of n/4 rows (up to 16384) were no faster while they
# held a second tiling, 3.8 MB at n = 2^16, eps = 1e-6
_TILE = 4096
# widest even Taylor block: its last coefficient divides by width!, and 171! is beyond float range
_MAX_EVEN_WIDTH = 169


class LowRankFactor:
    """A correction in structured form: complex input is split into real rows once, here, and each kind's core is real.

    x (length n) and c (rank coefficients) of a bool, integer, float or complex dtype compute in np.result_type(x,
    float64); real x gives real coefficients, real c a real sum.  synthesize adds into a length-n array out (complex
    where c is) and never copies it: a core's _synthesize(rows, targets) adds c's real rows into the views (out,) or
    (out.real, out.imag), and its _analyze(rows) returns real (rows, rank) coefficients.  Anything else raises
    ValueError.  The arrays a factor holds are read-only views.
    """

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _working(x, self.n)
        return self._add(self._analyze(_real_rows(x)), np.zeros(self.n, x.dtype))

    def adjoint_apply(self, x: np.ndarray) -> np.ndarray:
        rows = self._analyze(_real_rows(_working(x, self.n)))
        return rows[0] if len(rows) == 1 else rows[0] + 1j * rows[1]

    def synthesize(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The factor's left side times c added into out, a new vector (complex where c is) by default."""
        c = _working(c, self.rank, "coefficients")
        out = np.zeros(self.n, c.dtype) if out is None else out
        # an out that the input rule would copy cannot receive the sum
        if _working(out, self.n) is not out or not np.can_cast(c.dtype, out.dtype):
            raise ValueError(f"expected a {'complex' if np.iscomplexobj(c) else 'float'} out that holds {c.dtype}")
        return self._add(_real_rows(c), out)

    def _add(self, rows, out):
        self._synthesize(rows, (out.real, out.imag) if np.iscomplexobj(out) else (out,))
        return out


class SpectralFactor(LowRankFactor):
    """V diag(g) V^T over one column-major block of V's leading ceil(n/2) rows, column 0 of parity lead.

    Column j is a Slepian vector of the parity of lead + j, even (mirrored
    below the block) or odd (mirrored and negated, its middle row zero at
    odd n), as the plan holds them.  Analysis folds x to
    x_lead +- reversed(x_tail) for each parity's half, synthesis unfolds
    both parities' products, and g enters as sqrt|g| on each side of the
    coefficients.  A column-major float64 block is kept as given: the
    builders' view of the plan's snapshot, which it keeps alive (see
    SlepianPlan), or the loader's of the file bytes; any other is copied onto
    the heap.  arrays lists the block in full, though factors share it.
    """

    def __init__(self, n: int, lead: int, block, g):
        self.n, self.lead, self.block = n, lead, _read_only(np.asfortranarray(block, dtype=float).view())
        self.weights = _read_only(np.asarray(g, float).view())
        if lead not in (0, 1) or self.block.shape != ((n + 1) // 2, self.weights.size) or self.weights.ndim != 1:
            raise ValueError("a spectral block must hold ceil(n/2) leading rows, one column per weight")

    @property
    def halves(self) -> tuple:
        """Views of the block: its even columns, and the leading floor(n/2) rows of its odd ones."""
        return self.block[:, self.lead::2], self.block[:self.n // 2, 1 - self.lead::2]

    @property
    def rank(self) -> int:
        return self.weights.size

    @property
    def arrays(self) -> tuple:
        """Every array the factor holds, in file order: the weights and the block (its halves are views of it)."""
        return (self.weights, self.block)

    def _analyze(self, rows):
        c = np.empty((len(rows), self.rank), rows.dtype)
        for p, half in enumerate(self.halves):
            c[:, abs(p - self.lead)::2] = _half_product(half, _fold(rows, p)).T
        return c * np.sqrt(np.abs(self.weights))

    def _synthesize(self, rows, targets):
        """V diag(sign(g) sqrt|g|) c added into the targets, one per real row of c."""
        rows = rows * (np.sign(self.weights) * np.sqrt(np.abs(self.weights)))
        for p, half in enumerate(self.halves):
            for prod, target in zip(rows[:, abs(p - self.lead)::2] @ half.T, targets):
                unfold(prod[:, None], p, self.n, target[:, None])


# The four terms of the Fourier correction B - F F*, each twice the real part of one member of a conjugate pair, in
# coefficient order, (taylor, step, flip_left, flip_right, post): Re(post D X D^*), X = J^flip_left P M P^T J^flip_right
# with P the columns of z (taylor None) or the leading ones of the basis (m/n)^j, M = ca (taylor 0) or cb (taylor 1),
# J the reversal, D = C + i S = e^{2 pi i w' m} (step 1) or e^{i pi (w + w') m} (step 2): post -i p gives
# p (S X C - C X S) (Hilbert and odd Taylor terms), a real post p gives p (C X C + S X S) (the even Taylor term).
_FOURIER_TERMS = ((None, 1, False, True, -1j / math.pi), (None, 1, True, False, 1j / math.pi),
                  (0, 1, False, False, -1j), (1, 2, False, False, 1.0))


class FourierFactor(LowRankFactor):
    """B - F F* from the Hilbert factor z and the Taylor coefficient matrices ca and cb, phases recomputed per call.

    Each term of _FOURIER_TERMS has 2 width real coefficients per real row of
    x, M P^T J (C x) then M P^T J (S x).  The basis (m/n)^j is held by no
    array: both directions run over one tiling of _TILE-row tiles (synthesis'
    longer tiles held a second tiling and were no faster) that read z once per
    call, the basis rows of the tile at i0 are the local table (k/n)^j times the
    Pascal shift S(t0)[k, j] = C(j, k) t0^(j - k), t0 = i0/n, and each
    phase is a local cos/sin table times one rotation per tile, both from
    exactly reduced turns (_phases).  The shift and the rotation act on the
    coefficient side.
    """

    def __init__(self, w: float, z, ca, cb):
        message = f"need a half-bandwidth in (0, 1/2), z of n rows and ca and cb square, got w={w}"
        self.w = _real(w, 0.0, 0.5, message)
        if np.ndim(z) != 2 or any(np.ndim(c) != 2 or len(c) != len(c.T) for c in (ca, cb)):
            raise ValueError(message)
        # z as cfadi_solve returns it, column-major in a memory map of its own
        self.z, self.ca, self.cb = (_read_only(np.asfortranarray(a, dtype=float).view()) for a in (z, ca, cb))

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def rank(self) -> int:
        return 2 * (2 * self.z.shape[1] + len(self.ca) + len(self.cb))

    @property
    def arrays(self) -> tuple:
        """Every array the factor holds: z, ca, cb."""
        return (self.z, self.ca, self.cb)

    @cached_property
    def _tiles(self):
        """The factor's one _tiling, formed at first use, for tiles of _TILE rows or of n/4 (at least 64) where that
        is fewer, so that at small n its workspace stays a fraction of z's bytes."""
        return _tiling(self.n, self.w, max(len(self.ca), len(self.cb)), min(_TILE, max(64, self.n // 4), self.n))

    def _terms(self):
        """Per outer product of _FOURIER_TERMS: its entry, its coefficient matrix (None for z) and its slot."""
        coefs = [None if taylor is None else (self.ca, self.cb)[taylor] for taylor, *_ in _FOURIER_TERMS]
        edges = np.cumsum([0] + [2 * (self.z.shape[1] if c is None else len(c)) for c in coefs]).tolist()
        return zip(_FOURIER_TERMS, coefs, map(slice, edges, edges[1:]))

    def _analyze(self, rows):
        """M P^T J (C x) and M P^T J (S x) for every term, x given as its real rows.

        Per tile, x (reversed for z's reversed terms) times the local cos and
        sin tables meets the tile's rows of z and its shifted local basis in
        one product each; a term sums them under their rotations e^{i step i0}
        (reversed: e^{i step (n - 1 - i0)}) in one complex product, its real
        part the C half and its imaginary part the S half of each row.
        """
        n, m, z = self.n, len(rows), self.z
        tile, starts, basis, table, rotations, shift = self._tiles
        # x reversed times cos_a and sin_a, then x times cos_a, sin_a, cos_b and sin_b: z meets the first four
        copies = np.empty((6, m, tile))
        pz, pb = np.empty((len(starts), 4, m, z.shape[1])), np.empty((len(starts), 4, m, len(basis)))
        for i, i0 in enumerate(starts):
            k = min(tile, n - i0)
            np.multiply(rows[None, :, n - i0 - k:n - i0][..., ::-1], table[:2, None, :k], out=copies[:2, :, :k])
            np.multiply(rows[None, :, i0:i0 + k], table[:, None, :k], out=copies[2:, :, :k])
            pz[i] = (copies[:4].reshape(4 * m, tile)[:, :k] @ z[i0:i0 + k]).reshape(4, m, -1)
            pb[i] = ((copies[2:].reshape(4 * m, tile)[:, :k] @ basis[:, :k].T) @ shift(i)).reshape(4, m, -1)
        c = np.empty((m, self.rank))
        for (taylor, step, _, flip_right, _), coef, slot in self._terms():
            p, j = (pz, 0 if flip_right else 2) if taylor is None else (pb, 2 * step - 2)
            # e^{i step m} at m = i0 + k is e^{i step i0} (cos + i sin); reversed rows m = n - 1 - i0 - k take
            # e^{i step (n - 1 - i0)} (cos - i sin)
            rot_cos, rot_sin = rotations[step, flip_right]
            local = p[:, j] + (-1j if flip_right else 1j) * p[:, j + 1]
            acc = ((rot_cos + 1j * rot_sin) @ local.reshape(len(starts), -1)).reshape(m, -1)
            acc = acc if coef is None else acc[:, :len(coef)] @ coef.T
            c[:, slot] = np.concatenate([acc.real, acc.imag], axis=1)
        return c

    def _synthesize(self, rows, targets):
        """Adds each term's C J P u + S J P v to the targets, u + i v = conj(post) (c's first half + i its second).

        Per tile at i0 and real row of c, E = Re(r (u + i v)) times cos plus O = Im(r (u + i v)) times sin (reversed:
        -Im), r = e^{-i step i0} (reversed: e^{-i step (n - 1 - i0)}), in one product of z's rows and one of the
        shifted local basis for every term; the reversed term's sum is added to the mirrored rows.
        """
        n, z, m = self.n, self.z, len(rows)
        tile, starts, basis, table, rotations, shift = self._tiles
        # per tile and term (z: forward, reversed; basis: step 1, step 2): E and O per real row of c
        uz, ub = (np.zeros((len(starts), 2, 2, m, cols)) for cols in (z.shape[1], len(basis)))
        for (taylor, step, flip_left, _, post), _, slot in self._terms():
            halves = rows[:, slot].reshape(m, 2, -1)
            rot_cos, rot_sin = rotations[step, flip_left]
            u = np.multiply.outer(rot_cos - 1j * rot_sin, np.conj(post) * (halves[:, 0] + 1j * halves[:, 1]))
            group = uz[:, int(flip_left)] if taylor is None else ub[:, step - 1, :, :, :halves.shape[2]]
            group[:, 0] = u.real
            group[:, 1] = -u.imag if flip_left else u.imag
        uz, ub = (u.reshape(len(starts), 4 * m, -1) for u in (uz, ub))
        for i, i0 in enumerate(starts):
            k = min(tile, n - i0)
            yz = (uz[i] @ z[i0:i0 + k].T).reshape(2, 2, m, k)
            yb = ((ub[i] @ shift(i).T) @ basis[:, :k]).reshape(2, 2, m, k)
            yz *= table[:2, None, :k]
            yb *= table[:, None, :k].reshape(2, 2, 1, k)
            # cos E + sin O per term
            yz, yb = yz[:, 0] + yz[:, 1], yb[:, 0] + yb[:, 1]
            yz[0] += yb[0] + yb[1]
            for target, ahead, mirrored in zip(targets, yz[0], yz[1]):
                target[i0:i0 + k] += ahead
                target[n - i0 - k:n - i0] += mirrored[::-1]


def _half_product(block, copies):
    """block^T copies^T for the folded input rows, summed over row chunks whose slices stay in cache."""
    if len(copies) == 1:
        return (block.T @ copies[0])[:, None]
    return sum(block[i:i + _CHUNK].T @ copies[:, i:i + _CHUNK].T for i in range(0, max(len(block), 1), _CHUNK))


def _fold(rows, parity):
    """The rows as a parity half sees them: x_lead + reversed(x_tail), the middle entry once (even), or minus it."""
    p = rows.shape[1] // 2
    out = rows[:, :(rows.shape[1] + 1 - parity) // 2].copy()
    (np.subtract if parity else np.add)(out[:, :p], rows[:, ::-1][:, :p], out=out[:, :p])
    return out


def _phases(n, w, step, m):
    """cos and sin of the phase of step (1 or 2) at the integer rows m, from its turns reduced modulo one exactly.

    The turns are w' m = q m / (2n) (step 1), taken from the integer
    q m mod 2n, or (w + w') m / 2 (step 2): w m / 2 through
    _reduced_product plus q m mod 4n over 4n.  q = 2 n w' is the odd integer
    nearest 2nw, so no angle error grows with n.
    """
    q = nearest_odd_integer(2.0 * n * w)
    if step == 1:
        turns = (q * m % (2 * n)) / (2 * n)
    else:
        turns = _reduced_product(0.5 * w, m.astype(float)) + (q * m % (4 * n)) / (4 * n)
    angle = 2.0 * math.pi * (turns - np.rint(turns))
    return np.cos(angle), np.sin(angle)


def _tiling(n, w, width, tile):
    """The Fourier correction's tiles at (n, w) for a basis of width columns, which a factor keeps.

    Returns the tile length, the tile starts i0, the local basis (k/n)^j as
    width x tile and the local table [cos_a, sin_a, cos_b, sin_b] of both
    steps' phases at k = 0..tile-1, each in a memory map of its own as
    cfadi_solve's z is, the (cos, sin) of the rotations
    of the starts per step and of their mirrors n - 1 - i0 for step 1, keyed
    (step, mirrored), and the Pascal shift of tile i.  Every
    weight of a shift is positive, so (k/n)^j S(t0) keeps the rounding bound
    of (m/n)^j.
    """
    starts, local, j = np.arange(0, n, tile), np.arange(tile), np.arange(width)
    basis = _read_only(np.power(local / n, j[:, None], out=mapped_rows(width, tile)))
    (cos_a, sin_a), (cos_b, sin_b) = (_phases(n, w, s, local) for s in (1, 2))
    table = _read_only(np.stack([cos_a, sin_a, cos_b, sin_b], out=mapped_rows(4, tile)))
    rotations = {(s, flip): tuple(map(_read_only, _phases(n, w, s, n - 1 - starts if flip else starts)))
                 for s, flip in ((1, 0), (1, 1), (2, 0))}
    binom = np.array([[math.comb(b, a) for b in j] for a in j], dtype=float)  # C(j, k) at [k, j]
    powers, gap = (starts / n)[:, None] ** j, np.maximum(j - j[:, None], 0)
    return tile, starts, basis, table, rotations, lambda i: binom * powers[i][gap]


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
    """AGM iterates for modulus-squared m = 1 - one_minus_m, until c is 0 or no longer shrinks (it can stall at
    half an ulp of a, 1.39e-17 at a = 0.13 for n = 16384's one_minus_m, above a tolerance relative to a)."""
    a, b = 1.0, math.sqrt(one_minus_m)
    a_seq, c_seq = [a], [math.sqrt(max(1.0 - one_minus_m, 0.0))]
    while c_seq[-1] != 0.0:
        a, b, c = (a + b) / 2.0, math.sqrt(a * b), (a - b) / 2.0
        if abs(c) >= abs(c_seq[-1]):
            break
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


def cfadi_solve(a_diag: np.ndarray, b_col: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Low-rank factor Z with Z Z' approximating the solution of A X + X A' = b b'.

    A = diag(a_diag) must be positive, which keeps every iteration O(n):

        Z_1 = sqrt(2 p_1) (A + p_1 I)^{-1} b
        Z_k = sqrt(p_k / p_{k-1}) (A - p_{k-1} I)(A + p_k I)^{-1} Z_{k-1}

    Z is column-major in a memory map of its own, so a dropped factor returns it to the system whatever was allocated
    after it: on the malloc heap, one small live allocation above it could keep tens of MB resident.  Each column is
    formed in its row, in the order of operations above, through one n-length workspace for the denominators.
    """
    a_diag = np.asarray(a_diag, dtype=float)
    b_col = np.asarray(b_col, dtype=float)
    shifts = np.asarray(shifts, dtype=float)
    if np.any(a_diag <= 0.0):
        raise ValueError("diagonal entries must be positive")
    if np.any(shifts <= 0.0):
        raise ValueError("shift parameters must be positive")
    cols, den = mapped_rows(shifts.size, a_diag.size), np.empty_like(a_diag)
    np.divide(math.sqrt(2.0 * shifts[0]), np.add(a_diag, shifts[0], out=den), out=cols[0])
    cols[0] *= b_col
    for k in range(1, shifts.size):
        np.multiply(math.sqrt(shifts[k] / shifts[k - 1]), np.subtract(a_diag, shifts[k - 1], out=cols[k]), out=cols[k])
        np.multiply(np.divide(cols[k], np.add(a_diag, shifts[k], out=den), out=cols[k]), cols[k - 1], out=cols[k])
    return cols.T


def hilbert_factor(n: int, delta_h: float) -> np.ndarray:
    """Z with ||H - Z Z'|| <= delta_h for the n x n Hilbert matrix.

    H solves the Lyapunov equation with A = diag(m + 1/2) and an all-ones
    right-hand side, so CF-ADI with relative target delta_h / pi applies;
    the condition number is 2n - 1.
    """
    n = _size(n, f"dimension must be positive, got {n}")
    delta_h = _real(delta_h, 0.0, math.inf, f"tolerance must be positive and finite, got {delta_h}")
    return cfadi_solve(np.arange(n) + 0.5, np.ones(n), adi_shifts(0.5, n - 0.5, _hilbert_columns(n, delta_h)))


def _hilbert_columns(n, delta_h):
    """The column count of hilbert_factor(n, delta_h)."""
    return adi_rank(2 * n - 1, min(delta_h / math.pi, 1.0))


def hilbert_rank(n: int, epsilon: float) -> int:
    """The column count of the Hilbert factor z that fourier_correction_factor(n, w, epsilon) builds, at any w."""
    return _hilbert_columns(n, _HILBERT_SHARE * epsilon)


# ---------------------------------------------------------------------------
# Taylor factors for the two smooth difference kernels


@dataclass(frozen=True)
class PolynomialKernelFactor:
    """Symmetric polynomial kernel basis @ coeffs @ basis.T in the normalized monomials basis[m, j] = (m/n)^j.

    The basis keeps entries in [0, 1], so the represented matrix is the
    raw-monomial form's but stays well-scaled at large n; n and the width of
    coeffs fix it, so it is not stored.
    """

    n: int
    coeffs: np.ndarray
    frobenius_bound: float

    @property
    def rank(self) -> int:
        return self.coeffs.shape[0]


def _odd_terms(tol):
    """Taylor terms of the odd residual kernel within Frobenius error tol."""
    return max(int(math.ceil(math.log(2.0 / (3.0 * math.pi * tol)) / (2.0 * math.log(2.0)))), 0)


def _even_terms(tol):
    """Taylor terms r of the even bandwidth-shift kernel within Frobenius error tol, its block 2r - 1 wide."""
    r = max(int(math.ceil(math.log(3.0 / (2.0 * tol)) / (2.0 * math.log(6.0 / math.pi)))), 1)
    if 2 * r - 1 > _MAX_EVEN_WIDTH:
        raise ValueError(f"Taylor tolerance {tol:g} needs an even Taylor block of width {2 * r - 1}, "
                         f"beyond the {_MAX_EVEN_WIDTH} whose factorials fit a float")
    return r


def taylor_widths(epsilon: float) -> tuple:
    """(ra, rb): the widths of fourier_correction_factor's odd and even Taylor coefficient matrices at epsilon.

    Raises ValueError where rb would pass _MAX_EVEN_WIDTH, for epsilon below about 1.09e-47.
    """
    message = f"tolerance must lie in (0, 1/2), 7/30 of it a normal float, got {epsilon}"
    tol = _TAYLOR_SHARE * _real(epsilon, 0.0, 0.5, message)
    if tol < np.finfo(float).tiny:
        raise ValueError(message)
    return 2 * _odd_terms(tol), 2 * _even_terms(tol) - 1


def _binomial_expand(coeffs_by_degree, width):
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
    n = _size(n, f"dimension must be positive, got {n}")
    tol = _real(tol, 0.0, 8.0 / (3.0 * math.pi), f"tolerance must lie in (0, 8/(3 pi)), got {tol}")
    r = _odd_terms(tol)
    by_degree = []
    for k in range(1, r + 1):
        a_k = (2.0 / (n * math.pi)) * (1.0 - (1.0 - 2.0 ** (1 - 2 * k)) * scipy.special.zeta(2 * k))
        by_degree.append((2 * k - 1, a_k))
    bound = (2.0 / (3.0 * math.pi)) * 4.0 ** (-r)
    return PolynomialKernelFactor(n, _binomial_expand(by_degree, 2 * r), bound)


def bandwidth_shift_factor(n: int, w: float, w_prime: float, tol: float) -> PolynomialKernelFactor:
    """Low-rank factor of the even kernel 2 sin(pi (w - w') d) / (pi d).

    This kernel carries the rounding of the bandwidth to an odd column
    count; |2nw - 2nw'| <= 1 keeps the series argument below pi/2 so r
    Taylor terms leave a Frobenius error of at most (3/2) (pi/6)^(2r).
    """
    n = _size(n, f"dimension must be positive, got {n}")
    if abs(2.0 * n * w_prime - 2.0 * n * w) > 1.0 + 1e-9:
        raise ValueError("w' must round 2nw to a neighboring odd integer")
    tol = _real(tol, 0.0, 1.5, f"tolerance must lie in (0, 3/2), got {tol}")
    r = _even_terms(tol)
    beta = math.pi * (w - w_prime) * n
    by_degree = []
    for k in range(r):
        a_k = (2.0 / (n * math.pi)) * (-1.0) ** k * beta ** (2 * k + 1) / math.factorial(2 * k + 1)
        by_degree.append((2 * k, a_k))
    bound = 1.5 * (math.pi / 6.0) ** (2 * r)
    return PolynomialKernelFactor(n, _binomial_expand(by_degree, 2 * r - 1), bound)


# ---------------------------------------------------------------------------
# Assembly of the circulant-plus-low-rank correction


def correction_rank_budget(n: int, epsilon: float) -> float:
    """(4/pi^2 log(8n) + 6) log(15/epsilon)."""
    return (4.0 / math.pi**2 * math.log(8.0 * n) + 6.0) * math.log(15.0 / epsilon)


def transition_count_budget(n: int, epsilon: float) -> float:
    """(8/pi^2 log(8n) + 12) log(15/epsilon)."""
    return (8.0 / math.pi**2 * math.log(8.0 * n) + 12.0) * math.log(15.0 / epsilon)


def fourier_correction_factor(n: int, w: float, epsilon: float) -> FourierFactor:
    """Factor with ||B - F F* - factor|| <= epsilon, held as z and two Taylor coefficient matrices, all read-only.

    The tolerance is split 4 pi/15 (_HILBERT_SHARE) to the Hilbert block, of hilbert_rank(n, epsilon) columns, and
    7/30 (_TAYLOR_SHARE) to each Taylor block, which sums back to epsilon after the assembly; the rank stays within
    correction_rank_budget(n, epsilon); epsilon must pass taylor_widths.
    """
    taylor_widths(epsilon)
    n = _size(n, f"dimension must be positive, got {n}")
    w = _real(w, 0.0, 0.5, f"half-bandwidth must lie in (0, 1/2), got {w}")
    w_prime = nearest_odd_integer(2.0 * n * w) / (2.0 * n)
    delta_h, delta_taylor = _HILBERT_SHARE * epsilon, _TAYLOR_SHARE * epsilon
    z = hilbert_factor(n, delta_h)
    odd = sinc_alias_factor(n, delta_taylor)
    even = bandwidth_shift_factor(n, w, w_prime, delta_taylor)
    return FourierFactor(w, z, odd.coeffs, even.coeffs)


# ---------------------------------------------------------------------------
# Eigen-partition corrections


def _split_window(n, w, epsilon, k):
    """The window (start, lams, block) of eigenvalues in (epsilon, 1 - epsilon) and the count below the split k.

    Raises PreconditionViolated unless lam^(k-1) > epsilon and lam^(k) < 1 - epsilon.
    """
    epsilon = _real(epsilon, 0.0, 0.5, f"tolerance must lie in (0, 1/2), got {epsilon}")
    k = _size(k, f"subspace dimension must be a non-negative integer, got {k}", least=0)
    start, lams, block = transition_window(n, w, epsilon, 1.0 - epsilon)
    if not start <= k <= start + lams.size:
        raise PreconditionViolated(
            f"subspace dimension k={k} violates the split condition: eigenvalues in "
            f"({epsilon:g}, {1 - epsilon:g}) occupy indices [{start}, {start + lams.size})"
        )
    return start, lams, block, k - start


def projection_correction(n, w, epsilon, k) -> SpectralFactor:
    """V diag(g) V' with ||S_k S_k' - (B + V diag(g) V')|| bounded by the search tolerance.

    V holds the eigenvectors with epsilon < lam < 1 - epsilon and g = [1 - L2, -L3]: the pairs
    below / at-or-above k, each pushed to its side of the split.
    """
    start, lams, block, cut = _split_window(n, w, epsilon, k)
    return SpectralFactor(n, start % 2, block, np.concatenate([1.0 - lams[:cut], -lams[cut:]]))


def pinv_correction(n, w, epsilon, k) -> SpectralFactor:
    """V diag(g) V' with ||B_k^+ - (B + V diag(g) V')|| within three times the search tolerance.

    V as for projection_correction, g = [1/L2 - L2, -L3]; every L2 exceeds epsilon > 0.
    """
    start, lams, block, cut = _split_window(n, w, epsilon, k)
    return SpectralFactor(n, start % 2, block, np.concatenate([1.0 / lams[:cut] - lams[:cut], -lams[cut:]]))


def _tikhonov_weight(lams, alpha):
    """lam/(lam^2 + a) - lam/(1 + a), at least +0 for lam in [0, 1]: rounding is monotone, so fl(lam^2 + a) <=
    fl(1 + a) and the first quotient is never below the second."""
    return lams / (lams**2 + alpha) - lams / (1.0 + alpha)


def _tikhonov_slope(lams, alpha):
    """Derivative of the correction weight in lambda, divided twice by lambda^2 + alpha: its square underflows
    to zero for a tiny alpha."""
    return (alpha - lams**2) / (lams**2 + alpha) / (lams**2 + alpha) - 1.0 / (1.0 + alpha)


def tikhonov_precision_floor(n: int, w: float, alpha: float) -> float:
    """Estimated error floor of the Tikhonov correction in this floating-point environment.

    quotient_error(n, w, extended=True) * max |f'| + vector_error(n, w) * max f
    over [0, 1], f the correction weight: the eigenvalue error magnified
    by the weight's slope (up to about 1/alpha) plus the eigenvector error
    magnified by the weight itself (up to 1/(2 sqrt(alpha))).  Both grow
    with n.  No tolerance below it can be met.
    """
    n, alpha = _size(n, f"dimension must be positive, got {n}"), _weight(alpha)
    w = _real(w, 0.0, 0.5, f"half-bandwidth must lie in (0, 1/2), got {w}")
    # |f'| peaks at lambda = 0 or at its minimum, lambda^2 = 3 alpha (or the end of [0, 1]): it is f'(0) =
    # 1/(alpha (1 + alpha)) up to alpha = 1 and -f'(1) = 2/(1 + alpha)^2 beyond, neither taken by squaring alpha
    slope = 1.0 / (alpha * (1.0 + alpha)) if alpha <= 1.0 else 2.0 / (1.0 + alpha) / (1.0 + alpha)
    weight = 0.5 / math.sqrt(alpha) if alpha <= 1.0 else 1.0 / (1.0 + alpha)
    return quotient_error(n, w, extended=True) * slope + vector_error(n, w) * weight


def tikhonov_correction(n, w, epsilon, alpha) -> SpectralFactor:
    """V diag(g) V' with ||(B^2 + a I)^{-1} B - (B/(1+a) + V diag(g) V')|| <= epsilon.

    The retained eigenpairs are those with a(1+a)*epsilon < lam < 1 - epsilon/3
    (thresholds of the regularized solution map, not the projector ones);
    their weights are lam (1 - lam^2) / ((1+a)(lam^2 + a)), never negative
    as computed (see _tikhonov_weight).  The weight's
    slope reaches about 1/a, so each window eigenvalue whose float64
    quotient error would cost the map more than a quarter of epsilon is
    recomputed in extended precision, and the low edge is decided on the
    refined values when float64 cannot place it.  The bound holds for
    epsilon down to tikhonov_precision_floor(n, w, a).
    """
    alpha = _weight(alpha)
    epsilon = _real(epsilon, 0.0, 0.5, f"tolerance must lie in (0, 1/2), got {epsilon}")
    lo = alpha * (1.0 + alpha) * epsilon
    hi = 1.0 - epsilon / 3.0
    start, lams, block = transition_window(n, w, lo, hi)
    max_slope = _REFINE_SHARE * epsilon / quotient_error(n, w)
    flagged = np.abs(_tikhonov_slope(lams, alpha)) > max_slope
    # a low edge at or above hi leaves the window empty; its slope would square the lo that a huge alpha gives
    extend = lo < hi and abs(_tikhonov_slope(lo, alpha)) > max_slope
    if extend or np.any(flagged):
        lams, block = refine_window(n, w, start, lams, block, flagged, lo, extend=extend)
    return SpectralFactor(n, start % 2, block, _tikhonov_weight(lams, alpha))
