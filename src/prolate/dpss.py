"""Slepian basis vectors and eigenvalues through the commuting tridiagonal matrix.

Only the handful of eigenpairs whose eigenvalues fall strictly between the
two cluster plateaus are ever needed.  Their index range is predicted from
the asymptotic eigenvalue distribution and solved in one pass on the two
half-size tridiagonals of the even and the odd Slepian vectors, with each
eigenvalue recovered as a Rayleigh quotient against the Toeplitz part (the
tridiagonal's own spectrum is unrelated to the concentration values), which
takes it from the half vector alone (ToeplitzOperator.half_quadratic_forms).

Inverse iteration needs a tridiagonal eigenvalue only isolated from its
neighbours, not exact, so bisection stops at 1e-5 of _gap_estimate, a lower
estimate of the smallest same-parity gap; at n = 2^16 that halves the
bisection's time.  Halves of at most 256 rows (_EXACT_HALF) bisect to full
precision.  Each loose solve is then checked: its eigenvalues must
lie at least the estimate apart, and a Sturm count must find no other
eigenvalue within the estimate of their range.  A range that fails is
solved again with the bisection run to full precision.  A request lacking
over _WHOLE_SHARE of n <= FULL_BASIS_MAX_N pairs gets all n from stevd.

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
and SpectralFactor.synthesize unfold; every spectral record keeps that view,
so the block is the one copy of the pairs.  slepian_plan holds one (n, w) at a
time.  The tridiagonal solves run scipy's OpenBLAS on one thread: their
level-1 BLAS gains nothing from more threads, whose rounding and idle spinning
only made a build's bytes depend on the thread count and its time on the load.
But the two parity halves are independent: where both bisect windows of at
least _THREAD_HALF rows and a second CPU is usable, a short-lived thread solves
the odd half beside the even one, through _bisect's GIL-free calls of scipy's
own LAPACK (through scipy's f2py wrappers, which hold the GIL, two threads ran
no faster than one).  The bytes are the same on either path.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import functools
import glob
import math
import os
import threading

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack

from .fft_kernels import _BLOCK_COLS, ToeplitzOperator, _read_only, _real, _size, mapped_rows, prolate_column

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
# block (67 MB at the cap), and linear prediction its leading k; also the largest n of a whole-spectrum solve
FULL_BASIS_MAX_N = 4096
# stevd + _inverse_step on a half of h = 41..2048 rows cost as much as bisecting 20-50 % of it (30 % from h = 161)
_WHOLE_SHARE = 0.3
_CLAMP_TOL = 1e-12
_SIGN_TOL = 1e-12
_SQRT_HALF = math.sqrt(0.5)
# pairs solved beyond each predicted window edge
_WINDOW_MARGIN = 4
_EPS64 = float(np.finfo(np.float64).eps)
_EPS_EXT = float(np.finfo(np.longdouble).eps)
# bisection stops (and _inverse_step shifts) at this fraction of the gap estimate; inverse iteration from there
# gives the full-precision solve's vectors to 2e-14 at n = 2^16 (1.4e-13 at 2^18)
_ISOLATION = 1e-5
# a window of a parity half of at most this many rows (n <= 513) bisects to full precision: inverse iteration from
# a value bisected to isolation read 907x vector_error there (see vector_error); up to about 2 ms per cold window
_EXACT_HALF = 256
# most eigenpairs a transition window may request, solved or held
_MAX_PAIRS = 4096
# parity halves of at least this many rows (n >= 8191) have their windows solved on two threads: a 25-pair window
# takes about 25 ms per half there, some 100x a thread's start and join
_THREAD_HALF = 4096


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
    n = _size(n, f"dimension must be positive, got {n}")
    w = _real(w, 0.0, 0.5, f"half-bandwidth must lie in (0, 1/2), got {w}")
    m = np.arange(n, dtype=float)
    diag = ((n - 1 - 2 * m) / 2.0) ** 2 * math.cos(2.0 * math.pi * w)
    off = (m[: n - 1] + 1.0) * (n - 1 - m[: n - 1]) / 2.0
    return diag, off


def _clamp_eigenvalues(lams: np.ndarray) -> np.ndarray:
    """float64 eigenvalue estimates clamped into [0, 1], else ValueError for the first beyond _CLAMP_TOL of it."""
    beyond = (lams < -_CLAMP_TOL) | (lams > 1.0 + _CLAMP_TOL)
    if np.any(beyond):
        raise ValueError(f"eigenvalue estimate {lams[beyond][0]} outside [0, 1] beyond clamp tolerance")
    return np.where(lams < 0.0, 0.0, np.minimum(lams, 1.0))


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first entry larger than the sign tolerance positive, per column (in place).

    Every column is the leading half of a unit Slepian vector, whose squares sum to at least 1/2, so one entry is at
    least 1/sqrt(n + 1), far above the tolerance.
    """
    lead = (np.abs(vectors) > _SIGN_TOL).argmax(axis=0)
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


@functools.cache
def _routine(name: str):
    """scipy's own LAPACK routine name (scipy.linalg.cython_lapack, every argument a pointer) as a ctypes function,
    which, unlike scipy's f2py wrappers, releases the GIL while it runs."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    signature = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, signature)
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * signature.count(b"*"))(pointer)


def _lapack(name: str, *args) -> None:
    """Calls _routine(name) on args, arrays by address, ctypes scalars by reference and bytes as characters, and on
    its trailing info; LinAlgError if info is not 0."""
    info = ctypes.c_int()
    _routine(name)(*[a.ctypes.data if isinstance(a, np.ndarray) else a if isinstance(a, bytes) else ctypes.byref(a)
                     for a in args], ctypes.byref(info))
    if info.value:
        raise np.linalg.LinAlgError(f"{name} failed (LAPACK info={info.value})")


def _stebz(d, e, select: bytes, vl, vu, il, iu, tol):
    """LAPACK dstebz on (d, e), contiguous float64, for the ascending indices il..iu (select b"I") or the values in
    (vl, vu] (b"V"), bisected to tol and ordered by split-off block: (count as a c_int, values, int and float work)."""
    h, m, c_int, c_double = d.size, ctypes.c_int(), ctypes.c_int, ctypes.c_double
    vals, ints, work = np.empty(h), np.empty(5 * h, np.intc), np.empty(5 * h)
    _lapack("dstebz", select, b"B", c_int(h), c_double(vl), c_double(vu), c_int(il + 1), c_int(iu + 1),
            c_double(tol), d, e, m, c_int(), vals, ints, ints[h:], work, ints[2 * h:])
    return m, vals, ints, work


def _bisect(d, e, il: int, iu: int, tol: float, out=None):
    """scipy.linalg.eigh_tridiagonal(d, e, tol=tol, select="i", select_range=(il, iu)) bit for bit, and LinAlgError
    where it raises one, by the same LAPACK dstebz and dstein run without the GIL; the vectors go into out (column-
    major, d.size x (iu - il + 1)) if given.  The values come out ascending, as the wrapper sorts them, because a
    parity half does not split: an off-diagonal entry would fall below dstebz's threshold only near n = 1e16."""
    m, vals, ints, work = _stebz(d, e, b"I", 0.0, 0.0, il, iu, tol)
    h, rows = d.size, ctypes.c_int(d.size)
    out = np.empty((h, m.value), order="F") if out is None else out
    _lapack("dstein", rows, d, e, m, vals, ints, ints[h:], out, rows, work, ints[2 * h:], ints[3 * h:])
    return vals[:m.value], out[:, :m.value]


def _isolated(d, e, vals, gap) -> bool:
    """Whether the consecutive ascending eigenvalues vals of the tridiagonal (d, e) lie at least gap from every other.

    Their own differences settle the gaps among them; one Sturm count (LAPACK
    dstebz over (vals[0] - gap, vals[-1] + gap], stopped before any bisection)
    settles their outer neighbours.
    """
    if np.any(np.diff(vals) < gap):
        return False
    lo, hi = vals[0] - gap, vals[-1] + gap
    return _stebz(d, e, b"V", lo, hi, 0, 0, 2.0 * (hi - lo))[0].value == vals.size


def _half_vectors(d, e, il, iu, gap, out):
    """Ascending eigenvectors il..iu of the parity half (d, e), one per column: a whole half by divide and conquer
    and _inverse_step, any other range by _bisect into out to _ISOLATION of the gap estimate (to full precision on a
    half of at most _EXACT_HALF rows), and again to full precision if those eigenvalues are not isolated by the
    estimate (_isolated) or a LAPACK call fails."""
    tol = _ISOLATION * gap if d.size > _EXACT_HALF else 0.0
    try:
        if iu - il + 1 == d.size:  # nothing to isolate
            vals, half = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stevd")
            # at least a few ulps of the half's norm (or of 1): a 1 x 1 half's shift within half an ulp of its value
            # (n <= 3 at w <= 1e-13) rounds to it, and the solve is singular
            offset = max(_ISOLATION * gap, 4 * np.spacing(max(np.abs(vals).max(), 1.0)))
            _inverse_step(d, e, vals + offset, half)
            return half
        vals, half = _bisect(d, e, il, iu, tol, out)
        if not tol or _isolated(d, e, vals, gap):
            return half
    except np.linalg.LinAlgError:
        pass
    return _bisect(d, e, il, iu, 0.0, out)[1]


def _inverse_step(d, e, shifts, vecs):
    """vecs, in place, after one step of inverse iteration each on (d, e) shifted to shifts[j]; 2^16 rows per solve."""
    step = max(1, 2**16 // d.size)
    for j in range(0, vecs.shape[1], step):
        cols = vecs[:, j:j + step]
        bands = np.zeros((3, cols.shape[1], d.size))
        bands[0, :, 1:] = bands[2, :, :-1] = e
        np.subtract(d, shifts[j:j + step, None], out=bands[1])
        x = scipy.linalg.solve_banded((1, 1), bands.reshape(3, -1), cols.T.ravel()).reshape(cols.shape[::-1]).T
        np.divide(x, np.linalg.norm(x, axis=0), out=cols)


def _require_memory(n: int, pairs: int) -> None:
    """Raise MemoryError, before anything is allocated, if a plan at n and a solve of pairs Slepian pairs need more
    than the machine's physical memory, where the system would kill the process rather than fail an allocation.

    Counted in doubles: 8n to build the plan (prolate_column's peak; it then holds 4-6n), per pair h = ceil(n/2) for
    the block and h for the eigensolver's vectors, both parities' at once (all n: 2h^2 plus stevd's 1 + 4h + h^2),
    and up to _BLOCK_COLS columns of half the Toeplitz part's embedding length, plus one, for the quotients.
    Nothing is refused where the platform does not report its memory.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    h = (n + 1) // 2
    solver = 3 * h * h + 4 * h + 1 if pairs == n else h * pairs
    need = 8 * (8 * n + h * pairs + solver + min(pairs, _BLOCK_COLS) * (ToeplitzOperator.embedding_length(n) // 2 + 1))
    if need > memory:
        raise MemoryError(f"unable to allocate a Slepian plan at n={n} solving {pairs} pairs: about "
                          f"{need / 2**30:.1f} GiB, more than the {memory / 2**30:.1f} GiB of physical memory")


def unfold(block, parity, n, out=None):
    """Adds into out (by default new zeros, column-major) the n-vectors whose leading rows are block's columns, each
    mirrored below them, and negated there where its parity (one per column, or one for all) is odd."""
    out = np.zeros((block.shape[1], n)).T if out is None else out
    tail = out[n - n // 2:][::-1]
    out[:len(block)] += block
    for j, odd in enumerate(np.broadcast_to(np.asarray(parity) % 2, block.shape[1:])):
        (np.subtract if odd else np.add)(tail[:, j], block[:len(tail), j], out=tail[:, j])
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
    Stored arrays are read-only and a snapshot is replaced, never written (_solve fills a fresh block, pairs joins
    into a new one), so concurrent builds at one (n, w) can at worst solve the same missing pairs twice, and windows
    and records stay valid when it is replaced or the plan dropped.  A record keeps its whole snapshot alive (a
    projector at (2^16, 1/4, 1e-6) the plan's 47 columns, not its 34).  Blocks live in their own memory maps, so a
    dropped one goes back to the system whatever was allocated after it: on the malloc heap across builds, they kept
    it from returning the builds' temporaries (peak RSS up to 50 MB higher).
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

        Solves only the indices the snapshot lacks, one range per side that grows; a range apart from the snapshot
        replaces it.  Where more than _WHOLE_SHARE of n are lacking, n <= FULL_BASIS_MAX_N, all n are solved.
        """
        held_first, block, lams = self._held
        stop = held_first + lams.size
        if not held_first <= first <= last < stop:
            lacking = last - first + 1 - max(0, min(last + 1, stop) - max(first, held_first))
            if self.n <= FULL_BASIS_MAX_N and lacking > _WHOLE_SHARE * self.n:
                whole, whole_lams = self._solve(0, self.n - 1)
                whole[:, held_first:stop], whole_lams[held_first:stop] = block, lams  # held pairs keep their bits
                held_first, block, lams = 0, whole, whole_lams
            elif last + 1 < held_first or first > stop or not lams.size:
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

        Each parity's share of the range is one index range of its half-size tridiagonal, solved by _half_vectors,
        the odd one on a second thread where the module docstring says; that thread is joined, and its error raised,
        here.  The half vectors are then scaled into place and their signs fixed _BLOCK_COLS columns at a time, and
        the quotients are taken from the halves themselves by the Toeplitz part's half_quadratic_forms; none is
        unfolded.
        """
        n, p = self.n, self.n // 2
        _require_memory(n, last - first + 1)
        block = mapped_rows(last - first + 1, n - p).T
        gap = _gap_estimate(n, self.w)
        # two threads where a second CPU is usable and, below, both parities bisect windows of _THREAD_HALF rows or more
        threaded = len(getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))(0)) > 1
        jobs = []  # per parity with pairs in the range: its first index and the arguments of _half_vectors
        for parity, (d, e) in enumerate(self.tridiagonals):
            j0, j1 = (first - parity + 1) // 2, (last - parity) // 2
            if j0 <= j1:  # descending index j is the (size-1-j)-th ascending eigenvalue
                window = np.empty((d.size, j1 - j0 + 1), order="F") if j1 - j0 + 1 < d.size else None
                jobs.append((parity, j0, (d, e, d.size - 1 - j1, d.size - 1 - j0, gap, window)))
                threaded = threaded and window is not None and d.size >= _THREAD_HALF
        # inverse iteration's level-1 BLAS on half-length vectors: a second BLAS thread only changes its rounding
        with _one_blas_thread:
            if threaded and len(jobs) == 2:  # the odd half on one more thread, beside this one
                with concurrent.futures.ThreadPoolExecutor(1) as pool:
                    odd = pool.submit(_half_vectors, *jobs[1][2])
                    halves = [_half_vectors(*jobs[0][2]), odd.result()]
            else:
                halves = [_half_vectors(*args) for *_, args in jobs]
        for (parity, j0, _), half in zip(jobs, halves):
            out = block[:, 2 * j0 + parity - first :: 2]
            np.multiply(half[:p, ::-1], _SQRT_HALF, out=out[:p])
            if n % 2 and parity == 0:
                out[p] = half[p, ::-1]
        for j in range(0, block.shape[1], _BLOCK_COLS):
            _fix_signs(block[:, j:j + _BLOCK_COLS])
        lams = self.b_op.half_quadratic_forms(block, np.arange(first, last + 1))
        return block, _clamp_eigenvalues(lams)


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
    apart from zero (see quotient_error), so a low threshold below that ends the window wherever a noisy value
    first falls to it; a caller that needs that edge placed honestly re-decides it with refine_window.  Likewise
    an eigenvalue within quotient_error(n, w) of a threshold may fall on either side of it, depending on the
    solve.  The requested range is capped at _MAX_PAIRS.
    """
    n = _size(n, f"signal length must be positive, got {n}")
    w = _real(w, 0.0, 0.5, f"half-bandwidth must lie in (0, 1/2), got {w}")
    empty = np.zeros(0), np.zeros(((n + 1) // 2, 0))
    if lo >= hi or hi <= 0.0 or lo >= 1.0:
        return default_subspace_dim(n, w), *empty
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
    ToeplitzOperator.half_quadratic_forms measured 24-3750x below it, none more than
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

    u * (n / (4 sin(2 pi w)) + 16), u the float64 unit roundoff.  The commuting tridiagonal separates every
    eigenvalue, so the float64 vectors are resolved individually, but its gaps near the transition shrink with
    sin(2 pi w) while its norm does not.  Measured 5.9-92x below this on the window (1e-12, 1 - 1e-12) for n in
    [64, 16384] and w in [0.01, 0.49], against vectors refined by longdouble inverse iteration on the full
    tridiagonal (4.0-99x with the bisection run to full precision instead of to isolation); whole-spectrum vectors
    2.7-46x for n in [17, 4096], against longdouble inverse iteration on the halves (divide and conquer's own,
    before _inverse_step, 0.16-3.1x).  Not everywhere with the bisection stopped at isolation: at
    (64, 0.22011605627059908) a cold window (0.1, 0.99999) returned index 27's vector 907x above it (3.3e-12)
    against longdouble dense eigenvectors, its neighbours 0.06-0.15x.  So a window of a half of at most _EXACT_HALF
    rows bisects to full precision; that window's columns now read at most 0.11x against 40-digit mpmath
    eigenvectors, and the whole-spectrum solve 0.10x.  Larger halves still bisect to isolation, where scans of
    random cold windows (n <= 8192) found a few columns up to 10.9x above it (at n = 1151).
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
    return _clamp_eigenvalues(out)


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
