"""FFT-backed kernels: symmetric-Toeplitz products and the partial Fourier projector.

The two structured matrices everything else is built from are the prolate
matrix (symmetric Toeplitz, sinc entries) and the orthogonal projector onto
the lowest-frequency DFT columns (circulant, Dirichlet-kernel entries).
Both apply to a vector in O(n log n) through a single precomputed transform.
The Toeplitz matrix's circulant embedding is real and symmetric, so its
spectrum is the DCT-I of the zero-padded first column.  Every transform is
scipy.fft's, which computes in the input's precision (float64 or longdouble).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

__all__ = [
    "ToeplitzOperator",
    "PartialFourier",
    "prolate_column",
    "nearest_odd_integer",
    "next_pow2",
]


def next_pow2(m: int) -> int:
    """Smallest power of two >= m."""
    return 1 << (int(m) - 1).bit_length()


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


def prolate_column(n: int, w: float, dtype=np.float64) -> np.ndarray:
    """First column of the n x n prolate matrix with half-bandwidth w in (0, 1/2), in dtype.

    col[0] = 2w (the sinc limit) and col[m] = sin(2*pi*w*m) / (pi*m) for m >= 1.
    w*m is reduced modulo one from its exact product before the sine, so each
    sine argument is off by a few ulps of 2*pi rather than of 2*pi*w*m.
    """
    if n <= 0:
        raise ValueError(f"matrix dimension must be positive, got {n}")
    if not 0.0 < w < 0.5:
        raise ValueError(f"half-bandwidth must lie in (0, 1/2), got {w}")
    pi = np.arccos(dtype(-1.0))
    m = np.arange(1, n).astype(dtype)
    col = np.empty(n, dtype=dtype)
    col[0] = 2 * dtype(w)
    col[1:] = np.sin(2 * pi * _reduced_product(w, m)) / (pi * m)
    return col


class ToeplitzOperator:
    """Fast application of a symmetric Toeplitz matrix via a circulant embedding.

    The embedding length L is the smallest power of two >= 2n.  The embedded
    circulant is real and symmetric, so its half spectrum (bins 0..L/2) is
    real: the DCT-I of the first column zero-padded to L/2 + 1 entries,
    precomputed at construction.  Every apply is one real FFT pair per real
    vector.  Instances are immutable and safe to share across threads.
    """

    def __init__(self, col: np.ndarray):
        """col is the first column: entry (m, l) of the matrix is col[|m - l|]; a float column keeps its precision."""
        col = np.asarray(col)
        col = col if col.dtype.kind == "f" else col.astype(np.float64)
        if col.ndim != 1 or col.size == 0 or not np.all(np.isfinite(col)):
            raise ValueError("Toeplitz column must be a nonempty finite 1-d array")
        self.col, self.n = col, col.size
        self.fft_len = next_pow2(2 * self.n)
        self.half_spectrum = scipy.fft.dct(col, 1, n=self.fft_len // 2 + 1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """T @ x in O(n log n); real x goes through apply_real, complex x as its real and imaginary parts."""
        x = np.asarray(x)
        if np.iscomplexobj(x):
            return self.apply_real(x.real) + 1j * self.apply_real(x.imag)
        return self.apply_real(x)

    def apply_real(self, x: np.ndarray) -> np.ndarray:
        """T @ x for real x through the half-spectrum; returns a real vector."""
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"expected a length-{self.n} vector, got shape {x.shape}")
        if np.iscomplexobj(x):
            raise ValueError("apply_real expects a real vector")
        return self._circular(x)[: self.n]

    def apply_block(self, x: np.ndarray) -> np.ndarray:
        """T @ X for a real (n, m) block of column vectors; returns a real block.

        The transforms run along the last axis of x.T, one row per column,
        which is the contiguous axis when x is column-major (a transposed
        row-major block).
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ValueError(f"expected an ({self.n}, m) block, got shape {x.shape}")
        if np.iscomplexobj(x):
            raise ValueError("apply_block expects a real block")
        return self._circular(x.T)[:, : self.n].T

    def _circular(self, x: np.ndarray) -> np.ndarray:
        """The embedded circulant times each row of x, zero-padded to fft_len, in the wider of their precisions."""
        xs = scipy.fft.rfft(x.astype(np.result_type(x, self.half_spectrum), copy=False), n=self.fft_len)
        xs *= self.half_spectrum
        return scipy.fft.irfft(xs, n=self.fft_len, overwrite_x=True)


class PartialFourier:
    """Frame of the lowest 2nw' frequency DFT columns of length n.

    2nw' is the nearest odd integer to 2nw, so the column frequencies k/n,
    k = -(2nw'-1)/2 .. (2nw'-1)/2, form a symmetric integer set.  The Gram
    projector F F* is then a real circulant with Dirichlet-kernel entries
    sin(2*pi*w'*(m-n)) / (n*sin(pi*(m-n)/n)) and diagonal 2w'.

    adjoint() and apply() route through a single orthonormal length-n FFT.
    """

    def __init__(self, n: int, w: float):
        if n <= 0:
            raise ValueError(f"signal length must be positive, got {n}")
        if not 0.0 < w < 0.5:
            raise ValueError(f"half-bandwidth must lie in (0, 1/2), got {w}")
        q = nearest_odd_integer(2.0 * n * w)
        if q > n:
            raise ValueError(f"frequency count {q} exceeds signal length {n}")
        self.n = n
        self.num_cols = q
        self.w_prime = q / (2.0 * n)
        self.half_span = (q - 1) // 2

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """F* x, ordered by ascending column frequency; a real x takes a real FFT and conjugates."""
        x = np.asarray(x)
        if x.shape != (self.n,):
            raise ValueError(f"expected a length-{self.n} vector, got shape {x.shape}")
        r = self.half_span
        if np.iscomplexobj(x):
            spec = scipy.fft.fft(x, norm="ortho")
            return np.concatenate([spec[self.n - r:], spec[: r + 1]])
        low = scipy.fft.rfft(x, norm="ortho")[: r + 1]
        return np.concatenate([low[r:0:-1].conj(), low])

    def apply(self, c: np.ndarray) -> np.ndarray:
        """F c: scatter the coefficients into their DFT bins and invert."""
        c = np.asarray(c)
        if c.shape != (self.num_cols,):
            raise ValueError(f"expected {self.num_cols} coefficients, got shape {c.shape}")
        r = self.half_span
        spec = np.zeros(self.n, dtype=complex)
        if r > 0:
            spec[self.n - r:] = c[:r]
        spec[: r + 1] = c[r:]
        return scipy.fft.ifft(spec, norm="ortho", overwrite_x=True)
