"""FFT-backed kernels: symmetric-Toeplitz products and the partial Fourier projector.

The two structured matrices everything else is built from are the prolate
matrix (symmetric Toeplitz, sinc entries) and the orthogonal projector onto
the lowest-frequency DFT columns (circulant, Dirichlet-kernel entries).
Both apply to a vector in O(n log n) through a single precomputed spectrum.
The Toeplitz matrix's circulant embedding is real and symmetric, so its
spectrum is the DCT-I of the zero-padded first column; and the matrix is
persymmetric, so it maps the even and the odd half of a vector about its
centre apart, each by a type-2 DCT, the spectrum and a type-3 DCT of half
the embedding's length (symmetric convolution, Martucci 1994), which need
only reach n rounded up to even: scipy.fft.next_fast_len, as fast as a power
of two (Frigo & Johnson 2005).  The operator also takes quadratic forms from
half vectors, so no other module reads the embedding.  Every transform is
scipy.fft's, which computes in the input's precision (float64 or longdouble).

Every layer takes its input through the two rules here.  A vector
(_working) computes in np.result_type(x, float64).  A scalar is checked at
construction: n (_size) is any numbers.Integral of at least 1 (a split k of
at least 0), stored as an int, and w, epsilon, a tolerance or alpha (_real,
_weight) any numbers.Real inside its open interval, stored as a float;
anything else raises ValueError.
"""

from __future__ import annotations

import math
import mmap
import numbers

import numpy as np
import scipy.fft

__all__ = [
    "ToeplitzOperator",
    "PartialFourier",
    "prolate_column",
    "nearest_odd_integer",
]

# columns per chunk of a pass over a block of halves, bounding its workspace (the quadratic forms' transforms)
_BLOCK_COLS = 16

# private and faulted in at creation: every mapped array is written in full right away
_MAP_FLAGS = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)}
              if hasattr(mmap, "MAP_ANONYMOUS") else {})


def mapped_rows(rows: int, n: int, dtype=float) -> np.ndarray:
    """A zeroed C-ordered (rows, n) array in an anonymous memory map of its own."""
    size = np.dtype(dtype).itemsize * rows * n
    return np.frombuffer(mmap.mmap(-1, max(size, 1), **_MAP_FLAGS), dtype, count=rows * n).reshape(rows, n)


def nearest_odd_integer(x: float) -> int:
    """Nearest odd integer to x; exact ties round upward."""
    return 2 * int(math.floor((x - 1.0) / 2.0 + 0.5)) + 1


def _reduced_product(w, m: np.ndarray) -> np.ndarray:
    """w*m minus its nearest integer, within one rounding of the exact product's, in m's dtype.

    The rounded product p and its rounding error (Dekker's two-product with
    Veltkamp's splitting) are reduced apart: p minus its nearest integer is exact.
    """
    split = m.dtype.type(2 ** ((np.finfo(m.dtype).nmant + 2) // 2) + 1)

    def halves(x):
        c = split * x
        hi = c - (c - x)
        return hi, x - hi

    w = m.dtype.type(w)
    p = w * m
    (w_hi, w_lo), (m_hi, m_lo) = halves(w), halves(m)
    err = ((w_hi * m_hi - p) + w_hi * m_lo + w_lo * m_hi) + w_lo * m_lo
    return (p - np.rint(p)) + err


def _size(n, message: str, least: int = 1) -> int:
    """n as an int where it is a numbers.Integral (Python's or numpy's) of at least least, else ValueError(message)."""
    if not (isinstance(n, numbers.Integral) and n >= least):
        raise ValueError(message)
    return int(n)


def _real(value, lo: float, hi: float, message: str) -> float:
    """value as a float where it is a numbers.Real (Python's, numpy's or a Fraction) in (lo, hi), else
    ValueError(message): a float32 kept as given would round the builds' float64 arithmetic to float32."""
    if not (isinstance(value, numbers.Real) and lo < value < hi):
        raise ValueError(message)
    return float(value)


def _weight(alpha) -> float:
    """The Tikhonov weight alpha as a positive finite float, else ValueError."""
    return _real(alpha, 0.0, math.inf, f"regularization weight must be positive and finite, got {alpha}")


def _working(x, size: int, unit: str = "") -> np.ndarray:
    """x as a vector of shape (size,) in np.result_type(x, float64), else a ValueError: "expected a length-size vector"
    or "expected size unit", or "expected a real or complex vector" for a dtype not bool, integer, float or complex."""
    x = np.asarray(x)
    if x.shape != (size,):
        raise ValueError(f"expected {f'{size} {unit}' if unit else f'a length-{size} vector'}, got shape {x.shape}")
    if x.dtype.kind not in "biufc":
        raise ValueError(f"expected a real or complex vector, got dtype {x.dtype}")
    return x.astype(np.result_type(x, np.float64), copy=False)


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, no longer writable: pass a.view() to keep a caller's array as it was."""
    a.flags.writeable = False
    return a


def prolate_column(n: int, w: float, dtype=np.float64) -> np.ndarray:
    """First column of the n x n prolate matrix with half-bandwidth w in (0, 1/2), in dtype.

    col[0] = 2w (the sinc limit) and col[m] = sin(2*pi*w*m) / (pi*m) for m >= 1.
    w*m is reduced modulo one from its exact product before the sine, so each
    sine argument is off by a few ulps of 2*pi rather than of 2*pi*w*m.
    """
    n = _size(n, f"matrix dimension must be positive, got {n}")
    w = _real(w, 0.0, 0.5, f"half-bandwidth must lie in (0, 1/2), got {w}")
    pi = np.arccos(dtype(-1.0))
    m = np.arange(1, n).astype(dtype)
    col = np.empty(n, dtype=dtype)
    col[0] = 2 * dtype(w)
    col[1:] = np.sin(2 * pi * _reduced_product(w, m)) / (pi * m)
    return col


class ToeplitzOperator:
    """Fast application of a symmetric Toeplitz matrix via a circulant embedding.

    The embedding length is L = 2m with m = scipy.fft.next_fast_len(n'), n' the even number n or n + 1, so either
    half of a vector about its centre (an odd n padded by one zero) fits in m entries and every transform has a
    2-3-5-smooth length (m = n at a power of two n).  The embedded circulant is real and symmetric, so its half
    spectrum (bins 0..m) is real: the DCT-I of the first column zero-padded to m + 1 entries, stored once at
    construction, scaled by 1/(2L), as the even half's bins 0..m-1 over the odd half's m..1.  Every apply folds
    each real row into its even and odd half, stacks them, and runs one in-place DCT-II/DCT-III pair of length m
    over the stack.  Instances are immutable and safe to share across threads.
    """

    def __init__(self, col: np.ndarray):
        """col is the first column: entry (m, l) of the matrix is col[|m - l|]; a float column keeps its precision."""
        col = np.asarray(col)
        col = col if col.dtype.kind == "f" else col.astype(np.float64)
        if col.ndim != 1 or col.size == 0 or not np.all(np.isfinite(col)):
            raise ValueError("Toeplitz column must be a nonempty finite 1-d array")
        self.n, self.fft_len = col.size, self.embedding_length(col.size)
        m = self.fft_len // 2
        spec = scipy.fft.dct(col, 1, n=m + 1)
        # bins 0..m-1 for the even half and m..1 for the odd, over the fold's 2 and the DCT pair's L
        self._spectra = _read_only(np.stack([spec[:m], spec[m:0:-1]])[:, None] / (2 * self.fft_len))

    @staticmethod
    def embedding_length(n: int) -> int:
        """The circulant length L of an n x n operator: twice the fast length at or above n rounded up to even."""
        return 2 * scipy.fft.next_fast_len(n + n % 2, real=True)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """T @ x in O(n log n); real x goes through apply_real, complex x as its two parts in one product."""
        x = _working(x, self.n)
        if not np.iscomplexobj(x):
            return self.apply_real(x)
        out = np.empty(self.n, np.result_type(x, self._spectra))
        self._parity_product(_real_rows(x), _real_rows(out))
        return out

    def apply_real(self, x: np.ndarray) -> np.ndarray:
        """T @ x for real x; returns a real vector."""
        x = _working(x, self.n)
        if np.iscomplexobj(x):
            raise ValueError("apply_real expects a real vector")
        out = np.empty(self.n, np.result_type(x, self._spectra))
        self._parity_product(x[None], out[None])
        return out

    def apply_block(self, x: np.ndarray) -> np.ndarray:
        """T @ X for a real (n, m) block of column vectors; returns a real column-major block.

        The transforms run along the last axis of x.T, one row per column,
        which is the contiguous axis when x is column-major (a transposed
        row-major block).
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ValueError(f"expected an ({self.n}, m) block, got shape {x.shape}")
        if np.iscomplexobj(x):
            raise ValueError("apply_block expects a real block")
        out = np.empty((x.shape[1], self.n), np.result_type(x, self._spectra))
        self._parity_product(x.T, out)
        return out.T

    def _parity_product(self, x: np.ndarray, out: np.ndarray):
        """out[i] = T @ x[i] for each row of the real (r, n) x, in out's precision.

        With h = ceil(n/2), the even half e_j = x[h+j] + x[h-1-j] and the odd
        half o_j = x[h+j] - x[h-1-j] (x[n] = 0 at odd n), zero-padded to m,
        extend to sequences of period L symmetric and antisymmetric about
        -1/2, whose spectra are DCT-II(e) and DST-II(o).  The DST-II of o is
        the reversed DCT-II of o with alternating signs, so both halves share
        one DCT-II, a product with the even or the reversed half spectrum and
        one DCT-III (the DST-III read back with alternating signs); then
        y[h+j] = e'_j + o'_j and y[h-1-j] = e'_j - o'_j.
        """
        h, m = (self.n + 1) // 2, self.fft_len // 2
        x = x.astype(out.dtype, copy=False)
        right, left = x[:, h:], x[:, h - 1::-1]
        k = right.shape[1]
        work = np.empty((2, len(x), m), out.dtype)
        even, odd = work
        np.add(right, left[:, :k], out=even[:, :k])
        np.subtract(right, left[:, :k], out=odd[:, :k])
        if k < h:
            even[:, k] = left[:, k]
            np.negative(left[:, k], out=odd[:, k])
        work[:, :, h:] = 0
        odd[:, 1:h:2] *= -1
        scipy.fft.dct(work, 2, overwrite_x=True)
        work *= self._spectra
        scipy.fft.dct(work, 3, overwrite_x=True)
        odd[:, 1:h:2] *= -1
        np.add(even[:, :k], odd[:, :k], out=out[:, h:])
        np.subtract(even[:, :h], odd[:, :h], out=out[:, h - 1::-1])

    def half_quadratic_forms(self, block, parity):
        """v'Tv for each vector v whose leading ceil(n/2) entries are a column of block, even or odd as parity[j]
        is for column j (its middle entry zero if odd at odd n), in the operator's precision; none is unfolded.

        Centred in the circulant, an even or odd v has a real or an imaginary transform, whose magnitudes are one
        DCT or DST of v's half read from the centre out (reversed, from the middle row at odd n for an even v) and
        zero-padded.  Parseval's identity then gives v'Tv = sum_k c_k s_k y_k^2, s the half spectrum and c_k = 1/L
        doubled for 0 < k < m, so c_k s_k is twice the stored s/(2L).  Even n takes type 2 of length m (bins 0..m-1
        for even v, 1..m for odd); odd n type 1 of length m+1 (bins 0..m) for even v and m-1 (bins 1..m-1) for odd.
        One parity's columns go through one column-major workspace _BLOCK_COLS at a time, transformed in place; the
        weighted squares are summed along the contiguous axis, which numpy sums pairwise.
        """
        n, m = self.n, self.fft_len // 2
        weights = 2 * np.append(self._spectra[0, 0], self._spectra[1, 0, 0])
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
                y[:rows] = block[:rows][::-1, chunk]
                y[rows:] = 0.0
                y = transform(y, kind, axis=0, overwrite_x=True)
                y *= y
                y *= weights[odd:odd + size, None]
                out[chunk] = y.sum(axis=0)
        return out


def _real_rows(x) -> np.ndarray:
    """A vector as the rows of one real view: itself, or its real and imaginary parts."""
    x = np.asarray(x)
    if not np.iscomplexobj(x):
        return x[None]
    x = np.ascontiguousarray(x)
    return x.view(x.real.dtype).reshape(-1, 2).T


class PartialFourier:
    """Real frame of the span of the lowest 2nw' frequency DFT columns of length n.

    2nw' is the nearest odd integer to 2nw (at most n, as w < 1/2), so the
    column frequencies k/n, k = -r .. r with r = (2nw'-1)/2, form a
    symmetric integer set.  The Gram projector F F* is then a real
    circulant with Dirichlet-kernel entries
    sin(2*pi*w'*(m-n)) / (n*sin(pi*(m-n)/n)) and diagonal 2w'.  With X the
    orthonormal DFT of x, F* x is X_0, (X_k + X_-k)/sqrt(2) and then
    i (X_-k - X_k)/sqrt(2) for k = 1..r: for a real x, sqrt(2) Re X_k and
    sqrt(2) Im X_k.  adjoint() and apply() route through one orthonormal
    length-n FFT, a real one for real input.
    """

    def __init__(self, n: int, w: float):
        n = _size(n, f"signal length must be positive, got {n}")
        w = _real(w, 0.0, 0.5, f"half-bandwidth must lie in (0, 1/2), got {w}")
        q = nearest_odd_integer(2.0 * n * w)
        self.n, self.num_cols, self.w_prime, self.half_span = n, q, q / (2.0 * n), (q - 1) // 2

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """F* x: X_0, then the cos and the sin coefficients by ascending frequency; real for a real x."""
        x, r = _working(x, self.n), self.half_span
        if not np.iscomplexobj(x):
            low = scipy.fft.rfft(x, norm="ortho")[:r + 1]
            return np.concatenate([low[:1].real, math.sqrt(2.0) * low[1:].real, math.sqrt(2.0) * low[1:].imag])
        # sums written into out: a temporary per step read 13.8 against 9.8 ms at n = 2^18 (2-CPU x86-64 VM)
        spec = scipy.fft.fft(x, norm="ortho")
        ahead, behind, out = spec[1:r + 1], spec[self.n - 1:self.n - r - 1:-1], np.empty(self.num_cols, spec.dtype)
        out[0] = spec[0]
        np.add(ahead, behind, out=out[1:r + 1])
        np.subtract(behind, ahead, out=out[r + 1:])
        out[1:r + 1] *= math.sqrt(0.5)
        out[r + 1:] *= 1j * math.sqrt(0.5)
        return out

    def apply(self, c: np.ndarray) -> np.ndarray:
        """F c: the coefficients into their DFT bins, inverted; real for a real c."""
        c, r, cplx = _working(c, self.num_cols, "coefficients"), self.half_span, np.iscomplexobj(c)
        cos, sin = c[1:r + 1] * math.sqrt(0.5), c[r + 1:] * (1j * math.sqrt(0.5))
        spec = np.zeros(self.n if cplx else self.n // 2 + 1, np.result_type(c, 1j))
        spec[0], spec[1:r + 1] = c[0], cos + sin
        if not cplx:
            return scipy.fft.irfft(spec, self.n, norm="ortho")
        spec[self.n - 1:self.n - r - 1:-1] = cos - sin
        return scipy.fft.ifft(spec, norm="ortho", overwrite_x=True)
