"""Slepian basis vectors and eigenvalues through the commuting tridiagonal matrix.

Only the handful of eigenpairs whose eigenvalues fall strictly between the
two cluster plateaus are ever needed.  Their index range is predicted from
the asymptotic eigenvalue distribution and solved in one pass on the two
half-size tridiagonals of the even and the odd Slepian vectors, with each
eigenvalue recovered as a Rayleigh quotient against the Toeplitz part (the
tridiagonal's own spectrum is unrelated to the concentration values).  A
Slepian vector is even or odd, so centred in the Toeplitz part's circulant its
transform is real or imaginary: one DCT or DST of its half vector gives the
quotient by Parseval's identity (half_quadratic_forms), where applying the
Toeplitz part to the vector would take a DCT-II and a DCT-III of about the
same length on each of its two halves.

Inverse iteration needs a tridiagonal eigenvalue only isolated from its
neighbours, not exact, so bisection stops at 1e-5 of _gap_estimate, a lower
estimate of the smallest same-parity gap; at n = 2^16 that halves the
bisection's time.  Each loose solve is then checked: its eigenvalues must
lie at least the estimate apart, and a Sturm count must find no other
eigenvalue within the estimate of their range.  A range that fails is
solved again with the bisection run to full precision.

Where a caller weights eigenvalues steeply enough that double-precision
quotients are too coarse, refine_window recomputes the ones it flags in
extended precision.

Every build at one (n, w) shares one SlepianPlan: the Toeplitz part and the
pairs solved so far as one block of their leading ceil(n/2) entries (each is
even or odd), about (pairs solved) x ceil(n/2) x 8 bytes (47 pairs, 11.75 MiB,
once all four operators are built at n = 2^16, w = 1/4, eps = 1e-6).  A later
window starts from the held pairs and solves only what it needs beyond them to
place its edges (none for a Tikhonov build after a projector at the benchmark
points), and is a read-only view of the block, which only rayleigh_extended
and SpectralFactor.synthesize unfold.  slepian_plan holds one (n, w) at a time.
The tridiagonal solves run scipy's OpenBLAS on the calling thread: their
level-1 BLAS gains nothing from more threads, whose rounding and idle spinning
only made a build's bytes depend on the thread count and its time on the load.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import math
import mmap
import os
import threading

import numpy as np
import scipy.fft
import scipy.linalg

from .fft_kernels import ToeplitzOperator, _read_only, next_pow2, prolate_column

__all__ = [
    "PreconditionViolated",
    "SlepianPlan",
    "commuting_tridiagonal",
    "slepian_plan",
    "transition_window",
    "refine_window",
    "rayleigh_extended",
    "quotient_error",
    "vector_error",
    "default_subspace_dim",
    "FULL_BASIS_MAX_N",
]

# largest n at which the extension experiment's exact solvers take all n Slepian pairs, the plan's n x ceil(n/2)
# block (67 MB at the cap), and linear prediction its leading k
FULL_BASIS_MAX_N = 4096
_CLAMP_TOL = 1e-12
_SIGN_TOL = 1e-12
_SQRT_HALF = math.sqrt(0.5)
# pairs solved beyond each predicted window edge
_WINDOW_MARGIN = 4
_EPS64 = float(np.finfo(np.float64).eps)
_EPS_EXT = float(np.finfo(np.longdouble).eps)
# bisection stops at this fraction of the gap estimate; inverse iteration from
# there gives the full-precision solve's vectors to 2e-14 at n = 2^16 (1.4e-13 at 2^18)
_ISOLATION = 1e-5
# columns per chunk of the quotients' transforms and sign fix, bounding their workspace (for rayleigh_extended's
# longdouble apply, a real stack of parity halves)
_BLOCK_COLS = 16
# most eigenpairs a transition window may request, solved or held
_MAX_PAIRS = 4096


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


def _clamp_eigenvalue(lam: float) -> float:
    if lam < -_CLAMP_TOL or lam > 1.0 + _CLAMP_TOL:
        raise ValueError(f"eigenvalue estimate {lam} outside [0, 1] beyond clamp tolerance")
    return min(max(lam, 0.0), 1.0)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first entry larger than the sign tolerance positive, per column (in place)."""
    mag = np.abs(vectors)
    big = mag > _SIGN_TOL
    lead = np.where(big.any(axis=0), big.argmax(axis=0), mag.argmax(axis=0))
    vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return vectors


def _parity_tridiagonals(n: int, w: float):
    """The half-size tridiagonals of the even and of the odd Slepian vectors.

    The commuting tridiagonal is persymmetric, so each eigenvector is even
    (v[m] = v[n-1-m]) or odd (v[m] = -v[n-1-m]) and is fixed by its first
    ceil(n/2) or floor(n/2) entries.  Returns ((d_even, e_even), (d_odd, e_odd)):
    for even n = 2p both are the leading p x p block with e[p-1] added to
    (even) or subtracted from (odd) its last diagonal entry; for odd
    n = 2p + 1 the odd one is the leading p x p block and the even one the
    leading (p+1) x (p+1) block with its last off-diagonal entry scaled by
    sqrt(2), which makes the middle entry's coupling symmetric.  Slepian
    vector l has the parity of l, and the parities' spectra interlace, so it
    is the (l // 2)-th eigenvector of its parity's block in descending order.
    """
    d, e = commuting_tridiagonal(n, w)
    p = n // 2
    if n % 2 == 0:
        d_even, d_odd = d[:p].copy(), d[:p].copy()
        d_even[-1] += e[p - 1]
        d_odd[-1] -= e[p - 1]
        return (d_even, e[: p - 1]), (d_odd, e[: p - 1])
    e_even = e[:p].copy()
    if p:
        e_even[-1] *= math.sqrt(2.0)
    return (d[: p + 1], e_even), (d[:p], e[: max(p - 1, 0)])


def _gap_estimate(n: int, w: float) -> float:
    """A lower estimate of the smallest gap between same-parity eigenvalues of the commuting tridiagonal.

    2 s / max(log(8 s), 1) with s = n sin(2 pi w): the gaps are smallest in
    the transition band, whose width the log of Slepian's asymptotics sets.
    Over every eigenvalue of both parity tridiagonals the smallest gap
    measured at least 1.45x above this for n in [2, 2^16] and w in
    [1e-4, 0.4999], and 1.45-1.5x above it at the windows of n >= 1024.
    """
    s = n * math.sin(2.0 * math.pi * w)
    return 2.0 * s / max(math.log(8.0 * s), 1.0)


def _isolated(d, e, vals, gap) -> bool:
    """Whether the consecutive ascending eigenvalues vals of the tridiagonal (d, e) lie at least gap from every other.

    Their own differences settle the gaps among them; one Sturm count (LAPACK
    dstebz over (vals[0] - gap, vals[-1] + gap], stopped before any bisection)
    settles their outer neighbours.
    """
    if d.size == 1:
        return True
    if np.any(np.diff(vals) < gap):
        return False
    lo, hi = vals[0] - gap, vals[-1] + gap
    return scipy.linalg.lapack.dstebz(d, e, 1, lo, hi, 0, 0, 2.0 * (hi - lo), b"E")[0] == vals.size


def _require_memory(n: int, pairs: int) -> None:
    """Raise MemoryError, before anything is allocated, if a plan at n and a solve of pairs Slepian pairs need more
    than the machine's physical memory, where the system would kill the process rather than fail an allocation.

    Counted in doubles: 8n to build the plan (prolate_column's peak; the plan then holds 4-6n), 3/2 ceil(n/2) per
    pair for the solve's block and the eigensolver's vectors of one parity's share, and the quotients' workspace of
    up to _BLOCK_COLS columns of fft_len/2 + 1.  Where the platform does not report its memory nothing is refused.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    need = 8 * (8 * n + 3 * ((n + 1) // 2) * pairs // 2 + min(pairs, _BLOCK_COLS) * (next_pow2(2 * n) // 2 + 1))
    if need > memory:
        raise MemoryError(f"unable to allocate a Slepian plan at n={n} solving {pairs} pairs: about "
                          f"{need / 2**30:.1f} GiB, more than the {memory / 2**30:.1f} GiB of physical memory")


# private and faulted in at creation: every mapped array is written in full right away
_MAP_FLAGS = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)}
              if hasattr(mmap, "MAP_ANONYMOUS") else {})


def mapped_rows(rows: int, n: int, dtype=float) -> np.ndarray:
    """A zeroed C-ordered (rows, n) array in an anonymous memory map of its own."""
    size = np.dtype(dtype).itemsize * rows * n
    return np.frombuffer(mmap.mmap(-1, max(size, 1), **_MAP_FLAGS), dtype, count=rows * n).reshape(rows, n)


def mapped_columns(block: np.ndarray) -> np.ndarray:
    """A column-major copy of a 2-D block in a memory map of its own, returned to the system when dropped."""
    out = mapped_rows(block.shape[1], block.shape[0]).T
    out[...] = block
    return out


def unfold(block, parity, n, out=None):
    """Adds into out (by default new zeros, column-major) the n-vectors whose leading rows are block's columns, each
    mirrored below them, and negated there where its parity (one per column, or one for all) is odd."""
    out = np.zeros((block.shape[1], n)).T if out is None else out
    tail = out[n - n // 2:][::-1]
    out[:len(block)] += block
    for j, odd in enumerate(np.broadcast_to(np.asarray(parity) % 2, block.shape[1:])):
        (np.subtract if odd else np.add)(tail[:, j], block[:len(tail), j], out=tail[:, j])
    return out


def half_quadratic_forms(b_op, block, parity):
    """v'Bv for each Slepian vector v whose leading half is a column of block, parity[j] the parity of column j
    and B the Toeplitz matrix of b_op, in b_op's precision; no vector is unfolded.

    Centred in B's circulant of length L = 2m, an even or odd v has a real or an imaginary transform, whose
    magnitudes are one DCT or DST of v's half read from the centre out (reversed, from the middle row at odd n
    for an even v) and zero-padded.  Parseval's identity then gives v'Bv = sum_k c_k s_k y_k^2, s the half
    spectrum and c_k = 1/L doubled for 0 < k < m.  Even n takes type 2 of length m (bins 0..m-1 for even v,
    1..m for odd); odd n type 1 of length m+1 (bins 0..m) for even v and m-1 (bins 1..m-1) for odd.  One
    parity's columns go through one column-major workspace _BLOCK_COLS at a time, transformed in place; the
    weighted squares are summed along the contiguous axis, which numpy sums pairwise.
    """
    n, m = b_op.n, b_op.fft_len // 2
    weights = b_op.half_spectrum / b_op.fft_len
    weights[1:m] *= 2
    parity = np.asarray(parity) % 2
    out = np.empty(block.shape[1], weights.dtype)
    work = mapped_rows(min(_BLOCK_COLS, block.shape[1]), m + 1, weights.dtype).T
    for odd, transform in ((0, scipy.fft.dct), (1, scipy.fft.dst)):
        rows = n // 2 + n % 2 * (1 - odd)
        kind, size = (1, m + 1 - 2 * odd) if n % 2 else (2, m)
        cols = np.flatnonzero(parity == odd)
        for j in range(0, cols.size, _BLOCK_COLS):
            chunk = cols[j:j + _BLOCK_COLS]
            y = work[:size, :chunk.size]
            for i, col in enumerate(chunk):
                y[:rows, i] = block[:rows, col][::-1]
            y[rows:] = 0.0
            y = transform(y, kind, axis=0, overwrite_x=True)
            y *= y
            y *= weights[odd:odd + size, None]
            out[chunk] = y.sum(axis=0)
    return out


@functools.cache
def _openblas_thread_setter():
    """openblas_set_num_threads_local of the OpenBLAS bundled with scipy, or None (another BLAS)."""
    for path in glob.glob(os.path.join(os.path.dirname(scipy.__file__), os.pardir, "scipy.libs", "libscipy_openblas*")):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        return setter
    return None


class _OneBlasThread:
    """Scipy's OpenBLAS (scipy.linalg's LAPACK) runs one thread while any of these sections is open, process-wide;
    numpy's own OpenBLAS, which runs numpy's matrix products, keeps its thread count."""

    def __init__(self):
        self._lock, self._open, self._restore = threading.Lock(), 0, 0

    def __enter__(self):
        setter = _openblas_thread_setter()
        if setter is not None:
            with self._lock:
                if self._open == 0:
                    self._restore = setter(1)
                self._open += 1

    def __exit__(self, *exc):
        setter = _openblas_thread_setter()
        if setter is not None:
            with self._lock:
                self._open -= 1
                if self._open == 0:
                    setter(self._restore)


_one_blas_thread = _OneBlasThread()


class SlepianPlan:
    """The Toeplitz part, the two parity tridiagonals and the Slepian pairs solved so far at one (n, w).

    The pairs are one snapshot (first, block, lams): column j of the column-major block holds the first ceil(n/2)
    entries of Slepian vector first + j (the middle one zero if odd at odd n), lams[j] its float64 Rayleigh quotient.
    Stored arrays are read-only and a snapshot is replaced, never written, so concurrent builds at one (n, w) can at
    worst solve the same missing pairs twice.  Blocks live in their own memory maps: held on the malloc heap across
    builds, they kept it from returning the builds' temporaries (peak RSS up to 50 MB higher).
    """

    def __init__(self, n: int, w: float):
        self.n, self.w = n, w
        self.b_op = ToeplitzOperator(prolate_column(n, w))
        self.tridiagonals = tuple((_read_only(d), _read_only(e)) for d, e in _parity_tridiagonals(n, w))
        self._held = (0, _read_only(np.zeros(((n + 1) // 2, 0))), _read_only(np.zeros(0)))

    @property
    def held(self) -> range:
        """The Slepian indices the snapshot holds (an empty range before the first solve)."""
        first, _, lams = self._held
        return range(first, first + lams.size)

    def pairs(self, first: int, last: int):
        """(block, lams) of Slepian indices first..last (inclusive), read-only views of the snapshot.

        Solves only the indices the snapshot lacks, one range per side that
        grows; a range apart from the snapshot replaces it.
        """
        held_first, block, lams = self._held
        stop = held_first + lams.size
        if not held_first <= first <= last < stop:
            if last + 1 < held_first or first > stop or not lams.size:
                held_first, (block, lams) = first, self._solve(first, last)
            else:
                parts = ([self._solve(first, held_first - 1)] if first < held_first else []) + [(block, lams)]
                parts += [self._solve(stop, last)] if last >= stop else []
                held_first = min(first, held_first)
                out = mapped_rows(max(last + 1, stop) - held_first, len(block)).T
                block = np.concatenate([b for b, _ in parts], axis=1, out=out)
                lams = np.concatenate([v for _, v in parts])
            self._held = (held_first, _read_only(block), _read_only(lams))
        at = first - held_first
        return block[:, at:at + last - first + 1], lams[at:at + last - first + 1]

    def _solve(self, first: int, last: int):
        """Leading halves of Slepian vectors first..last, one per column of a column-major block, and their quotients.

        Each parity's share of the range is one index range of its half-size
        tridiagonal, solved by one bisection/inverse-iteration call whose
        bisection stops at _ISOLATION of the gap estimate.  If those
        eigenvalues are not isolated by the estimate (_isolated), the range is
        solved again with the bisection run to full precision.  The half
        vectors are then scaled into place and their signs fixed _BLOCK_COLS
        columns at a time, and the quotients are taken from the halves
        themselves by half_quadratic_forms, one DCT or DST per column in a
        workspace of _BLOCK_COLS columns; no vector is unfolded.
        """
        n, p = self.n, self.n // 2
        _require_memory(n, last - first + 1)
        block = mapped_rows(last - first + 1, n - p).T
        gap = _gap_estimate(n, self.w)
        for parity, (d, e) in enumerate(self.tridiagonals):
            j0, j1 = (first - parity + 1) // 2, (last - parity) // 2
            if j0 > j1:
                continue
            # descending index j is the (size-1-j)-th ascending eigenvalue
            select = {"select": "i", "select_range": (d.size - 1 - j1, d.size - 1 - j0)}
            # inverse iteration's level-1 BLAS on half-length vectors: a second thread only changes its rounding
            with _one_blas_thread:
                try:
                    vals, half = scipy.linalg.eigh_tridiagonal(d, e, tol=_ISOLATION * gap, **select)
                    isolated = _isolated(d, e, vals, gap)
                except np.linalg.LinAlgError:
                    isolated = False
                if not isolated:
                    _, half = scipy.linalg.eigh_tridiagonal(d, e, **select)
            out = block[:, 2 * j0 + parity - first :: 2]
            np.multiply(half[:p, ::-1], _SQRT_HALF, out=out[:p])
            if n % 2 and parity == 0:
                out[p] = half[p, ::-1]
        for j in range(0, block.shape[1], _BLOCK_COLS):
            _fix_signs(block[:, j:j + _BLOCK_COLS])
        lams = half_quadratic_forms(self.b_op, block, np.arange(first, last + 1))
        return block, np.array([_clamp_eigenvalue(float(x)) for x in lams])


@functools.lru_cache(maxsize=1)
def slepian_plan(n: int, w: float) -> SlepianPlan:
    """The shared plan of the most recent (n, w); one is held at a time."""
    return SlepianPlan(n, w)


def _predicted_range(n, w, lo, hi):
    """Slepian index range [first, last] expected to hold every eigenvalue in (lo, hi).

    The eigenvalue t sits near index 2nw + (1/pi^2) log(8n sin 2 pi w) log((1 - t)/t)
    (Slepian's asymptotics; Karnik, Romberg & Davenport bound the count
    non-asymptotically); each edge gets _WINDOW_MARGIN pairs on top.
    A threshold at or beyond the end of (0, 1) covers that end of the index
    range, and one inside the float noise floor is predicted at the floor,
    where the noisy quotients start falling to it.
    """
    spread = max(math.log(8.0 * n * math.sin(2.0 * math.pi * w)), 1.0) / math.pi**2
    floor = quotient_error(n, w)

    def index(t):
        t = min(max(t, floor), 1.0 - floor)
        return 2.0 * n * w + spread * math.log((1.0 - t) / t)

    first = 0 if hi >= 1.0 else math.floor(index(hi)) - _WINDOW_MARGIN
    last = n - 1 if lo <= 0.0 else math.ceil(index(lo)) + _WINDOW_MARGIN
    return min(max(first, 0), n - 1), min(max(last, 0), n - 1)


def _window_edges(lams, lo, hi):
    """(start, stop): the first eigenvalue below hi, and the first at or below lo after it."""
    below_hi = np.flatnonzero(lams < hi)
    start = int(below_hi[0]) if below_hi.size else lams.size
    at_or_below_lo = np.flatnonzero(lams[start:] <= lo)
    return start, start + (int(at_or_below_lo[0]) if at_or_below_lo.size else lams.size - start)


def transition_window(n, w, lo, hi):
    """All consecutive eigenpairs with lo < lam < hi, taken from slepian_plan(n, w).

    Returns (start_index, lams, block), read-only views of the plan's snapshot, block's columns the leading
    halves of the window's vectors.  Where the plan's held pairs overlap the index range that
    _predicted_range sizes from the asymptotic eigenvalue count, the search starts from the held pairs;
    otherwise it starts from that range.  A side grows only while its edge is not bracketed (an eigenvalue
    >= hi before the window on the low-index side, one <= lo after it on the high-index side, or the end of
    the spectrum): first to the predicted bound, then in chunks of 16, 32, ... on that side.  So a window
    whose edges the held pairs bracket solves nothing.  Eigenvalues below the float noise floor cannot be told
    apart from zero (see quotient_error), so a low threshold below that ends
    the window wherever a noisy value first falls to it; a caller that needs
    that edge placed honestly re-decides it with refine_window.  The
    requested range is capped at _MAX_PAIRS.
    """
    empty = np.zeros(0), np.zeros(((n + 1) // 2, 0))
    if lo >= hi or hi <= 0.0 or lo >= 1.0:
        return min(max(default_subspace_dim(n, w), 0), n), *empty
    low, high = _predicted_range(n, w, lo, hi)
    _require_memory(n, high - low + 1)
    plan = slepian_plan(n, w)
    held = plan.held
    first, last = (held[0], held[-1]) if held and held[0] <= high and low <= held[-1] else (low, high)
    chunk = 16
    while True:
        if last - first + 1 > _MAX_PAIRS:
            raise RuntimeError(
                f"transition window exceeded {_MAX_PAIRS} eigenpairs for n={n}, "
                f"thresholds ({lo:g}, {hi:g}); thresholds are likely below "
                "the eigenvalue resolution of double precision"
            )
        block, lams = plan.pairs(first, last)
        if lams[0] < hi and first > 0:
            if first > low:
                first = low
            else:
                first, chunk = first - min(chunk, first), min(2 * chunk, 512)
        elif _window_edges(lams, lo, hi)[1] == lams.size and last < n - 1:
            if last < high:
                last = high
            else:
                last, chunk = last + min(chunk, n - 1 - last), min(2 * chunk, 512)
        else:
            break

    start, stop = _window_edges(lams, lo, hi)
    return first + start, lams[start:stop], block[:, start:stop]


def quotient_error(n: int, w: float, extended: bool = False) -> float:
    """Estimated absolute error of a transition eigenvalue taken as a Rayleigh quotient.

    For the float64 quotients of transition_window it is
    eps64 * (w n / 4 + 8 log2 n), a conservative bound: prolate_column
    reduces w*m from its exact product, so the error does not grow with
    w n.  Against rayleigh_extended on the window (1e-12, 1 - 1e-12), for
    n in [64, 2^16] and w in [0.01, 0.49], the DCT/DST quotients of
    half_quadratic_forms measured 24-3750x below it, none more than
    7.8e-16 off.  For rayleigh_extended it is
    eps_ext * (8 + sqrt(n)), eps_ext the machine epsilon of np.longdouble;
    measured 3.2-27x below against 30-digit mpmath quotients of the same
    vectors for n in [64, 1024] and w in [0.01, 0.49].  Where np.longdouble
    is no wider than float64 the float64 estimate stands for both.
    """
    if extended and _EPS_EXT < _EPS64:
        return _EPS_EXT * (8.0 + math.sqrt(n))
    return _EPS64 * (w * n / 4.0 + 8.0 * math.log2(max(n, 2)))


def vector_error(n: int, w: float) -> float:
    """Estimated norm error of a window eigenvector from the tridiagonal solve.

    u * (n / (4 sin(2 pi w)) + 16), u the float64 unit roundoff.  The
    commuting tridiagonal separates every eigenvalue, so the float64 vectors
    are resolved individually, but its gaps near the transition shrink with
    sin(2 pi w) while its norm does not.  Measured 5.9-92x below this on
    the window (1e-12, 1 - 1e-12) for n in [64, 16384] and w in
    [0.01, 0.49], against vectors refined by longdouble inverse iteration
    on the full tridiagonal (4.0-99x with the bisection run to full
    precision instead of to isolation).
    """
    return 0.5 * _EPS64 * (n / (4.0 * math.sin(2.0 * math.pi * w)) + 16.0)


def rayleigh_extended(block: np.ndarray, index, n: int, w: float) -> np.ndarray:
    """v'Bv / v'v in np.longdouble, rounded to float64, for Slepian vectors index[j] with leading halves block[:, j].

    Unfolded _BLOCK_COLS columns at a time; B is the Toeplitz operator of the
    longdouble prolate column.  A quotient's error is second order in the
    vector's, so float64 vectors give eigenvalues to about quotient_error(n, w, True).
    """
    b_op = ToeplitzOperator(prolate_column(n, w, np.longdouble))
    out = np.empty(block.shape[1])
    for j in range(0, block.shape[1], _BLOCK_COLS):
        v = unfold(block[:, j:j + _BLOCK_COLS], index[j:j + _BLOCK_COLS], n).astype(np.longdouble)
        out[j:j + _BLOCK_COLS] = np.einsum("ij,ij->j", v, b_op.apply_block(v)) / np.einsum("ij,ij->j", v, v)
    return np.array([_clamp_eigenvalue(float(x)) for x in out])


def refine_window(n, w, start, lams, block, flagged, lo, extend=False):
    """A transition window with the flagged eigenvalues recomputed in extended precision.

    (start, lams, block) is a window from transition_window and flagged a
    boolean mask over it; only flagged columns are unfolded.  With extend,
    the float64 quotients could not place the low edge either: the pairs
    after the window are refined four at a time until one falls to lo or to
    the extended noise floor, and the window is cut before the first
    eigenvalue at or below that edge.  The extra pairs come from
    slepian_plan(n, w), like the window's; only their quotients are kept.
    Returns (lams, block) for the pairs from start on, block a read-only
    view of the plan's snapshot like the window's.
    """
    lams = np.array(lams, dtype=float)
    if np.any(flagged):
        lams[flagged] = rayleigh_extended(block[:, flagged], start + np.flatnonzero(flagged), n, w)
    edge = max(lo, quotient_error(n, w, extended=True)) if extend else lo
    if extend:
        while start + lams.size < n and (lams.size == 0 or lams[-1] > edge):
            first = start + lams.size
            new = slepian_plan(n, w).pairs(first, min(n - 1, first + 3))[0]
            lams = np.concatenate([lams, rayleigh_extended(new, first + np.arange(new.shape[1]), n, w)])
    at_edge = np.flatnonzero(lams <= edge)
    stop = int(at_edge[0]) if at_edge.size else lams.size
    return lams[:stop].copy(), slepian_plan(n, w).pairs(start, start + stop - 1)[0] if stop else block[:, :0]
