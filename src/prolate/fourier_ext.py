"""Fourier extension experiment: periodic least-squares continuation of a rough function.

A function on [-1, 1] that is continuous but not smooth, with mismatched
endpoints, is approximated three ways: by its truncated Fourier series
(which rings), and by least-squares extension to a longer period, solving
the prolate normal equations with either the truncated pseudoinverse or
Tikhonov regularization -- each in an exact dense variant and a fast
structured variant.  Coefficient integrals are computed by FFT quadrature
whose length grows with the truncation order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dpss import DENSE_GUARD
from .fft_kernels import prolate_matrix_dense
from .operators import FastPseudoinverse, FastTikhonov, SlepianParams

__all__ = [
    "FourierExtensionConfig",
    "SyntheticTarget",
    "run_fourier_extension",
    "METHODS",
]

METHODS = ("fourier", "ext_exact_pinv", "ext_fast_pinv", "ext_exact_tik", "ext_fast_tik")

# nodes per block of the uniform-grid sums: 256, 512 and 1024 come within 30 % of
# each other on the extension grids, 512 best on the q = 2^22 ones
GRID_BLOCK = 512


def _grid_blocks(start: float, step: float, count: int) -> np.ndarray:
    """Nodes start + j*step of a uniform grid in blocks of up to GRID_BLOCK, the last padded: (blocks, length)."""
    if not step > 0.0 or count < 0:
        raise ValueError(f"grid needs a positive step and a non-negative count, got {step} and {count}")
    length = max(1, min(GRID_BLOCK, count))
    blocks = -(-count // length)
    return start + step * np.arange(blocks * length, dtype=float).reshape(blocks, length)


@dataclass(frozen=True)
class FourierExtensionConfig:
    """Extension experiment parameters; defaults reproduce the desk-scale study."""

    t_ext: float = 1.5
    m_values: tuple[int, ...] = (40, 80, 160, 320, 640)
    pinv_threshold: float = 1e-4
    fast_eps: float = 1e-5
    alpha: float = 1e-8
    eval_points: int = 10_000
    constant_target: bool = False

    def __post_init__(self):
        if self.t_ext <= 1.0:
            raise ValueError(f"extension half-period must exceed 1, got {self.t_ext}")
        if not 0.0 < self.pinv_threshold < 1.0:
            raise ValueError(f"eigenvalue cutoff must lie in (0, 1), got {self.pinv_threshold}")
        if any(m < 1 for m in self.m_values):
            raise ValueError("truncation orders must be positive")
        if self.eval_points < 2:
            raise ValueError(f"evaluation grid needs at least 2 points, got {self.eval_points}")

    def fft_length(self, m: int) -> int:
        """Quadrature transform length 2^(13 + floor(log2 m))."""
        return 1 << (13 + int(math.floor(math.log2(m))))


@dataclass(frozen=True)
class SyntheticTarget:
    """Linear trend plus many two-sided exponential bumps: continuous, kinked, aperiodic."""

    slope: float
    offset: float
    amps: np.ndarray
    centers: np.ndarray
    widths: np.ndarray

    @classmethod
    def draw(cls, rng: np.random.Generator, slope: float = 5.0, n_bumps: int = 500) -> "SyntheticTarget":
        return cls(
            slope=slope,
            offset=0.0,
            amps=rng.uniform(-1.0, 1.0, n_bumps),
            centers=rng.uniform(-1.0, 1.0, n_bumps),
            widths=rng.uniform(1e-3, 1e-1, n_bumps),
        )

    @classmethod
    def constant(cls, value: float = 1.0) -> "SyntheticTarget":
        empty = np.zeros(0)
        return cls(slope=0.0, offset=value, amps=empty, centers=empty, widths=empty)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = self.offset + self.slope * t
        if self.amps.size:
            for lo in range(0, t.size, 65536):
                seg = t[lo:lo + 65536, None]
                acc = np.zeros(seg.shape[0])
                for jb in range(0, self.amps.size, 64):
                    sl = slice(jb, jb + 64)
                    acc += (
                        self.amps[sl]
                        * np.exp(-np.abs(seg - self.centers[sl]) / self.widths[sl])
                    ).sum(axis=1)
                out[lo:lo + 65536] += acc
        return out

    def on_grid(self, start: float, step: float, count: int) -> np.ndarray:
        """Samples at the uniform grid start + j*step, j < count (step > 0).

        Equal to __call__ at those nodes up to rounding of the nodes.  Within a
        block of up to GRID_BLOCK nodes t = s + i*step, so a bump wholly left of
        the block is a_k e^{-(s - c_k)/w_k} e^{-i step/w_k}, and one wholly right
        of it the mirror image anchored at the block's last node: two
        (blocks x bumps) @ (bumps x block) products.  The one block that holds
        a bump's center gets that bump directly.
        """
        nodes = _grid_blocks(start, step, count)
        out = self.offset + self.slope * nodes
        if self.amps.size and count:
            amps, centers, widths = self.amps, self.centers, self.widths
            first, last = nodes[:, :1], nodes[:, -1:]
            left = centers <= first
            right = ~left & (centers >= last)  # once, even where rounding collapses a block to one point
            # masked gaps go to +inf, so their factor is exp(-inf) = 0 without overflow
            head = amps * np.exp(-np.where(left, first - centers, np.inf) / widths)
            tail = amps * np.exp(-np.where(right, centers - last, np.inf) / widths)
            decay = np.exp(-(step * np.arange(nodes.shape[1])) / widths[:, None])
            out += head @ decay + tail @ decay[:, ::-1]
            block, bump = np.nonzero(~(left | right))  # sorted by block
            if block.size:
                near = amps[bump, None] * np.exp(
                    -np.abs(nodes[block] - centers[bump, None]) / widths[bump, None])
                held, first_row = np.unique(block, return_index=True)
                out[held] += np.add.reduceat(near, first_row, axis=0)
        return out.ravel()[:count]


class _PeriodSamples:
    """Target samples on the finest quadrature grid of one period family.

    Grids for smaller transform lengths are strided subsets, so the target
    is evaluated once per family.  Node j = 2^v * (odd) is sampled on the
    grid of spacing 2^(v+1) h that holds the odd multiples of 2^v h, so a
    sample does not depend on q_max: for_q(q) equals sampling at length q.
    """

    def __init__(self, target, period: float, q_max: int):
        self.period = period
        self.q_max = q_max
        h = period / q_max
        n_in = min(int(math.floor(2.0 / h)), q_max - 1)
        self.values = np.empty(n_in + 1)
        self.values[0] = target(np.array([-1.0]))[0]
        stride = 1
        while stride <= n_in:
            step = h * stride
            self.values[stride::2 * stride] = target.on_grid(-1.0 + step, 2.0 * step, (n_in // stride + 1) // 2)
            stride *= 2

    def for_q(self, q: int):
        stride = self.q_max // q
        h = self.period / q
        n_in = min(int(math.floor(2.0 / h)), q - 1)
        return self.values[::stride][: n_in + 1], n_in, h


def _quad_coeffs(samples: _PeriodSamples, q: int, m_max: int, half_period: float, f_at_1: float):
    """Trapezoid FFT quadrature of (1/sqrt(2T)) * integral of f(t) e^{-j pi m t / T} over [-1, 1].

    Works for both families: the Fourier series is the half_period = 1 case.
    The right endpoint may fall between grid nodes (period > 2); the last
    sliver is integrated by a one-panel trapezoid.
    """
    fv, n_in, h = samples.for_q(q)
    pad = np.zeros(q)
    pad[: n_in + 1] = fv
    spec = np.fft.fft(pad)
    m = np.arange(-m_max, m_max + 1)
    base = h * np.exp(1j * math.pi * m / half_period) * spec[np.mod(m, q)]
    t_last = -1.0 + h * n_in
    phase_last = np.exp(-1j * math.pi * m * t_last / half_period)
    g_first = fv[0] * np.exp(1j * math.pi * m / half_period)
    g_last = fv[-1] * phase_last
    g_end = f_at_1 * np.exp(-1j * math.pi * m / half_period)
    sliver = 1.0 - t_last
    total = base - 0.5 * h * (g_first + g_last) + 0.5 * sliver * (g_last + g_end)
    return total / math.sqrt(2.0 * half_period)


def _reconstruct(coeffs: np.ndarray, m_max: int, half_period: float, start: float, step: float,
                 count: int) -> np.ndarray:
    """(1/sqrt(2T)) Re sum_m c_m e^{i pi m t / T} on the grid t = start + j*step, j < count.

    Within a block t = s + i*step, so the sum is one product of the per-block
    factors c_m e^{i pi m s / T} with the per-offset table e^{i pi m i step / T}.
    """
    nodes = _grid_blocks(start, step, count)
    freq = (math.pi / half_period) * np.arange(-m_max, m_max + 1)
    head = np.exp(1j * np.outer(nodes[:, 0], freq)) * coeffs
    table = np.exp(1j * np.outer(freq, step * np.arange(nodes.shape[1])))
    out = head.real @ table.real - head.imag @ table.imag
    return out.ravel()[:count] / math.sqrt(2.0 * half_period)


def run_fourier_extension(config: FourierExtensionConfig, seed: int = 0):
    """Run the five-method comparison; returns rows (m, method, rel_rms, seconds).

    seconds covers the method's full coefficient pipeline: quadrature of its
    integral family plus, for the extension methods, the normal-equations
    solve (including any dense eigendecomposition or operator build).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    target = SyntheticTarget.constant() if config.constant_target else SyntheticTarget.draw(rng)
    t_ext = config.t_ext
    w = 1.0 / (2.0 * t_ext)
    f_at_1 = float(target(np.array([1.0]))[0])

    q_max = config.fft_length(max(config.m_values))
    series_samples = _PeriodSamples(target, 2.0, q_max)
    ext_samples = _PeriodSamples(target, 2.0 * t_ext, q_max)

    eval_grid = (-1.0, 2.0 / (config.eval_points - 1), config.eval_points)
    f_eval = target.on_grid(*eval_grid)
    f_norm = float(np.linalg.norm(f_eval))

    rows = []
    for m in sorted(config.m_values):
        n = 2 * m + 1
        q = config.fft_length(m)

        t0 = time.perf_counter()
        fhat = _quad_coeffs(series_samples, q, m, 1.0, f_at_1)
        t_series_quad = time.perf_counter() - t0

        t0 = time.perf_counter()
        yhat = _quad_coeffs(ext_samples, q, m, t_ext, f_at_1)
        t_ext_quad = time.perf_counter() - t0

        recon = _reconstruct(fhat, m, 1.0, *eval_grid)
        rows.append((m, "fourier", _rel_rms(recon, f_eval, f_norm), t_series_quad))

        # dense spectral data shared by the two exact solvers
        t0 = time.perf_counter()
        if n > DENSE_GUARD:
            raise ValueError(f"extension order m={m} needs dense size {n} > guard {DENSE_GUARD}")
        b = prolate_matrix_dense(n, w)
        lams, vecs = np.linalg.eigh(b)
        lams, vecs = lams[::-1].copy(), vecs[:, ::-1].copy()
        refined = np.clip(np.einsum("ij,ij->j", vecs, b @ vecs), 0.0, 1.0)
        t_eig = time.perf_counter() - t0

        t0 = time.perf_counter()
        kcut = int(np.count_nonzero(lams >= config.pinv_threshold))
        vk = vecs[:, :kcut]
        ghat = vk @ ((vk.T @ yhat) / refined[:kcut])
        t_solve = time.perf_counter() - t0
        recon = _reconstruct(ghat, m, t_ext, *eval_grid)
        rows.append((m, "ext_exact_pinv", _rel_rms(recon, f_eval, f_norm), t_ext_quad + t_eig + t_solve))

        t0 = time.perf_counter()
        fast_pinv = FastPseudoinverse.build_with_cutoff(n, w, config.fast_eps, config.pinv_threshold)
        ghat = fast_pinv.apply(yhat)
        t_solve = time.perf_counter() - t0
        recon = _reconstruct(ghat, m, t_ext, *eval_grid)
        rows.append((m, "ext_fast_pinv", _rel_rms(recon, f_eval, f_norm), t_ext_quad + t_solve))

        t0 = time.perf_counter()
        f_tik = refined / (refined**2 + config.alpha)
        ghat = (vecs * f_tik) @ (vecs.T @ yhat)
        t_solve = time.perf_counter() - t0
        recon = _reconstruct(ghat, m, t_ext, *eval_grid)
        rows.append((m, "ext_exact_tik", _rel_rms(recon, f_eval, f_norm), t_ext_quad + t_eig + t_solve))

        t0 = time.perf_counter()
        params = SlepianParams.create(n, w, config.fast_eps)
        fast_tik = FastTikhonov.build(params, config.alpha)
        ghat = fast_tik.apply(yhat)
        t_solve = time.perf_counter() - t0
        recon = _reconstruct(ghat, m, t_ext, *eval_grid)
        rows.append((m, "ext_fast_tik", _rel_rms(recon, f_eval, f_norm), t_ext_quad + t_solve))
    return rows


def _rel_rms(recon: np.ndarray, f_eval: np.ndarray, f_norm: float) -> float:
    return float(np.linalg.norm(recon - f_eval) / f_norm)
