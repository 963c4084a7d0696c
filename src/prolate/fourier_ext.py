"""Fourier extension experiment: periodic least-squares continuation of a rough function.

A function on [-1, 1] that is continuous but not smooth, with mismatched
endpoints, is approximated three ways: by its truncated Fourier series
(which rings), and by least-squares extension to a longer period, solving
the prolate normal equations with either the truncated pseudoinverse or
Tikhonov regularization -- each exactly, as one SpectralFactor over all n
Slepian pairs of the shared plan (one whole-spectrum solve) with
extended-precision eigenvalues, and by a fast structured operator.
Coefficient integrals are trapezoid sums of length 2^(13 + floor(log2 m)),
summed in closed form per bump; only the evaluation grid is sampled.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .dpss import FULL_BASIS_MAX_N, rayleigh_extended, slepian_plan
from .fft_kernels import _real, _weight
from .lowrank import SpectralFactor
from .operators import FastPseudoinverse, FastTikhonov, SlepianParams

__all__ = [
    "FourierExtensionConfig",
    "SyntheticTarget",
    "run_fourier_extension",
    "METHODS",
]

METHODS = ("fourier", "ext_exact_pinv", "ext_fast_pinv", "ext_exact_tik", "ext_fast_tik")


def _grid_blocks(start: float, step: float, count: int) -> np.ndarray:
    """Nodes start + j*step of a uniform grid in blocks of about sqrt(count) nodes, the last padded: (blocks, length).

    That length, a function of count alone, balances the blocked sums' (blocks x terms) exponentials against
    their (terms x length) per-offset table."""
    if not (math.isfinite(start) and 0.0 < step < math.inf) or count < 0:
        raise ValueError(f"grid needs a finite start, a finite positive step and a non-negative count, "
                         f"got {start}, {step} and {count}")
    length = 1 << (int(count).bit_length() // 2)
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
        def real(name, lo, hi, message):  # the float fields take any real number and store it as a float
            object.__setattr__(self, name, _real(getattr(self, name), lo, hi, message))

        real("t_ext", 1.0, math.inf, f"extension half-period must be finite and exceed 1, got {self.t_ext}")
        real("fast_eps", 0.0, 0.5, f"tolerance must lie in (0, 1/2), got {self.fast_eps}")
        real("pinv_threshold", self.fast_eps, 1.0 - self.fast_eps,
             f"cutoff {self.pinv_threshold} must lie inside ({self.fast_eps}, {1 - self.fast_eps})")
        object.__setattr__(self, "alpha", _weight(self.alpha))
        if not self.m_values or not all(isinstance(m, numbers.Integral) for m in self.m_values):
            raise ValueError(f"truncation orders must be a nonempty sequence of integers, got {self.m_values!r}")
        if any(m < 1 for m in self.m_values):
            raise ValueError("truncation orders must be positive")
        if any(2 * m + 1 > FULL_BASIS_MAX_N for m in self.m_values):
            raise ValueError(f"truncation orders must be at most {(FULL_BASIS_MAX_N - 1) // 2}: the exact "
                             f"solvers take all n = 2m + 1 Slepian pairs, n <= {FULL_BASIS_MAX_N}")
        if not isinstance(self.eval_points, numbers.Integral) or self.eval_points < 2:
            raise ValueError(f"evaluation grid needs an integer count of at least 2 points, got {self.eval_points}")

    def fft_length(self, m: int) -> int:
        """The quadrature's trapezoid panel count per period, 2^(13 + floor(log2 m)); no transform of it is taken."""
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
    def draw(cls, rng: np.random.Generator) -> "SyntheticTarget":
        """Slope 5 and 500 bumps drawn from rng: amplitudes and centers uniform in [-1, 1], widths in [1e-3, 1e-1]."""
        return cls(
            slope=5.0,
            offset=0.0,
            amps=rng.uniform(-1.0, 1.0, 500),
            centers=rng.uniform(-1.0, 1.0, 500),
            widths=rng.uniform(1e-3, 1e-1, 500),
        )

    @classmethod
    def constant(cls) -> "SyntheticTarget":
        """The constant f = 1."""
        empty = np.zeros(0)
        return cls(slope=0.0, offset=1.0, amps=empty, centers=empty, widths=empty)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        """Values at t, an array of t's shape; chunks of nodes share one buffer of about 2^20 doubles."""
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        out = self.offset + self.slope * flat
        if self.amps.size:
            rows = max(1, (1 << 20) // self.amps.size)
            buf = np.empty((min(rows, out.size), self.amps.size))
            for lo in range(0, out.size, rows):
                b = buf[:min(rows, out.size - lo)]
                np.subtract(flat[lo:lo + rows, None], self.centers, out=b)
                np.abs(b, out=b)
                np.divide(b, self.widths, out=b)
                np.negative(b, out=b)
                np.exp(b, out=b)
                out[lo:lo + rows] += b @ self.amps
        return out.reshape(t.shape)

    def on_grid(self, start: float, step: float, count: int) -> np.ndarray:
        """Samples at the uniform grid start + j*step, j < count (finite start, finite step > 0).

        Equal to __call__ at those nodes up to rounding of the nodes.  Within a
        block of about sqrt(count) nodes t = s + i*step, so a bump wholly left of
        the block is a_k e^{-(s - c_k)/w_k} e^{-i step/w_k}, and one wholly right
        of it the mirror image anchored at the block's last node: one exponential
        per (block, bump) at its near edge, then two (blocks x bumps) @ (bumps x block)
        products.  The one block that holds a bump's center gets that bump directly.
        """
        nodes = _grid_blocks(start, step, count)
        out = self.offset + self.slope * nodes
        if self.amps.size and count:
            amps, centers, widths = self.amps, self.centers, self.widths
            first, last = nodes[:, :1], nodes[:, -1:]
            left = centers <= first
            right = ~left & (centers >= last)  # once, even where rounding collapses a block to one point
            # one factor per (block, bump) at the block's near edge; the abs keeps a held bump's masked one finite
            edge = amps * np.exp(-np.abs(np.where(left, first, last) - centers) / widths)
            head, tail = edge * left, edge * right
            decay = np.exp(-(step * np.arange(nodes.shape[1])) / widths[:, None])
            out += head @ decay + tail @ decay[:, ::-1]
            block, bump = np.nonzero(~(left | right))  # sorted by block
            if block.size:
                near = amps[bump, None] * np.exp(
                    -np.abs(nodes[block] - centers[bump, None]) / widths[bump, None])
                held, first_row = np.unique(block, return_index=True)
                out[held] += np.add.reduceat(near, first_row, axis=0)
        return out.ravel()[:count]

    def spectrum_on_grid(self, start: float, step: float, count: int, q: int, m_max: int) -> np.ndarray:
        """S(m) = sum_{j<count} f(start + j*step) e^{-2 pi i j m / q}, m = 0..m_max < q: rfft(samples, n=q)[:m_max + 1].

        In closed form, with z = e^{-2 pi i m / q}: the trend is sum z^j and sum j z^j, and bump k is two geometric
        series of ratio e^{-step/w_k} z^{-+1} from the nodes J_k and J_k + 1 either side of its center.  Each z^k
        comes from k mod q in integers, z^{jm} as z^{jBa} z^{jb} (m = aB + b, B ~ sqrt(m_max)), and each 1 - ratio
        from expm1 and sin^2, so nothing cancels as step/w_k and m/q go to 0; the work is O(bumps x m_max).
        """
        def turn(k):  # z^k, the exponent reduced mod q in integers
            return np.exp((-2j * math.pi / q) * (k % q))

        m, last = np.arange(m_max + 1), count - 1
        z, z_end, half, sin = turn(m), turn(count * m), np.sin(math.pi * m / q), np.sin(2.0 * math.pi * m / q)
        level = self.offset + self.slope * start
        out = np.full(m_max + 1, count * (level + self.slope * step * last / 2), dtype=complex)
        d, z_last = 2.0 * half[1:] ** 2 + 1j * sin[1:], turn(last * m[1:])  # 1 - z and z^last, m >= 1
        out[1:] = (level * (1.0 - z_end[1:]) + self.slope * step * z[1:] * ((1.0 - z_last) / d - last * z_last)) / d
        split, rows = math.isqrt(m_max) + 1, max(1, 2**13 // (m_max + 1))  # bumps per pass: 128 KiB temporaries
        for k in range(0, self.amps.size, rows):
            amps, centers, widths = (a[k:k + rows, None] for a in (self.amps, self.centers, self.widths))
            x = step / widths
            j = np.clip(np.floor((centers - start) / step), -1, last).astype(np.int64)
            gap = (start + step * j - centers) / widths  # (t_J - c_k) / w_k
            # each bump at J and J + 1; an empty side (J = -1 or last) sums to zero, the abs keeps it finite
            left, right = amps * np.exp(-np.abs(gap)), amps * np.exp(-np.abs(gap + x))
            decay = np.exp(-x)
            re, im = -np.expm1(-x) + 2.0 * decay * half**2, decay * sin  # 1 - e^{-x} z^{-+1} = re -+ i im
            p = turn(j * split * np.arange(m_max // split + 1))[:, :, None] * turn(j * np.arange(split))[:, None, :]
            p = p.reshape(j.size, -1)[:, :m_max + 1]
            ahead = left * (p - np.exp(-(j + 1) * x) * turn(-m))
            behind = right * (p * z - np.exp(-(last - j) * x) * z_end)
            # ahead / (re - i im) + behind / (re + i im) over one real denominator
            out += np.sum(((ahead + behind) * re + (ahead - behind) * (1j * im)) / (re * re + im * im), axis=0)
        return out


def _quad_coeffs(target: SyntheticTarget, q: int, m_max: int, half_period: float, f_at_1: float):
    """Trapezoid quadrature of (1/sqrt(2T)) * integral of f(t) e^{-j pi m t / T} over [-1, 1], period 2T split in q.

    Works for both families: the Fourier series is the half_period = 1 case.
    The grid's sums are target.spectrum_on_grid's closed forms; only the two
    end nodes are sampled.  The right endpoint may fall between grid nodes
    (period > 2); the last sliver is integrated by a one-panel trapezoid.
    """
    h = 2.0 * half_period / q
    n_in = min(int(math.floor(2.0 / h)), q - 1)
    t_last = -1.0 + h * n_in
    f_first, f_last = target(np.array([-1.0, t_last]))
    m = np.arange(-m_max, m_max + 1)
    # the target is real, so the sum at -m is the conjugate of the one at m
    spec = target.spectrum_on_grid(-1.0, h, n_in + 1, q, m_max)[np.abs(m)]
    spec = np.where(m < 0, spec.conj(), spec)
    base = h * np.exp(1j * math.pi * m / half_period) * spec
    phase_last = np.exp(-1j * math.pi * m * t_last / half_period)
    g_first = f_first * np.exp(1j * math.pi * m / half_period)
    g_last = f_last * phase_last
    g_end = f_at_1 * np.exp(-1j * math.pi * m / half_period)
    sliver = 1.0 - t_last
    total = base - 0.5 * h * (g_first + g_last) + 0.5 * sliver * (g_last + g_end)
    return total / math.sqrt(2.0 * half_period)


def _reconstruct(coeffs: np.ndarray, m_max: int, half_period: float, start: float, step: float,
                 count: int) -> np.ndarray:
    """(1/sqrt(2T)) Re sum_m c_m e^{i pi m t / T} on the grid t = start + j*step, j < count, per row of coeffs.

    coeffs is (2 m_max + 1,) or (rows, 2 m_max + 1), the result (count,) or (rows, count).  Within a block
    t = s + i*step, so the sums are one product of the per-block factors c_m e^{i pi m s / T} of every row
    with the per-offset table e^{i pi m i step / T} that all rows share.  Re c e^{-i x} = Re conj(c) e^{i x}, so
    they run over m >= 0 only, with c_m + conj(c_-m).
    """
    nodes = _grid_blocks(start, step, count)
    freq = (math.pi / half_period) * np.arange(m_max + 1)
    folded = coeffs[..., m_max:].copy()
    folded[..., 1:] += coeffs[..., :m_max][..., ::-1].conj()
    head = (np.exp(1j * np.outer(nodes[:, 0], freq)) * folded[..., None, :]).reshape(-1, freq.size)
    table = np.exp(1j * np.outer(freq, step * np.arange(nodes.shape[1])))
    out = head.real @ table.real - head.imag @ table.imag
    return out.reshape(*coeffs.shape[:-1], -1)[..., :count] / math.sqrt(2.0 * half_period)


def _exact_pairs(n: int, w: float):
    """All n Slepian pairs (lams, block) at (n, w), descending: their longdouble Rayleigh quotients and the read-only
    ceil(n/2) x n block of leading halves that slepian_plan(n, w) holds, so no n x n array is made."""
    block = slepian_plan(n, w).pairs(0, n - 1)[0]
    return rayleigh_extended(block, np.arange(n), n, w), block


def run_fourier_extension(config: FourierExtensionConfig, seed: int = 0):
    """Run the five-method comparison; returns rows (m, method, rel_rms, seconds) in METHODS order per m.

    seconds covers the method's full coefficient pipeline: quadrature of its
    integral family plus, for the extension methods, the normal-equations
    solve (including the exact solvers' eigenpairs or the fast operator's build).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    target = SyntheticTarget.constant() if config.constant_target else SyntheticTarget.draw(rng)
    t_ext = config.t_ext
    w = 1.0 / (2.0 * t_ext)
    f_at_1 = float(target(np.array([1.0]))[0])

    eval_grid = (-1.0, 2.0 / (config.eval_points - 1), config.eval_points)
    f_eval = target.on_grid(*eval_grid)
    f_norm = float(np.linalg.norm(f_eval))

    rows = []
    for m in sorted(config.m_values):
        n = 2 * m + 1
        q = config.fft_length(m)

        t0 = time.perf_counter()
        fhat = _quad_coeffs(target, q, m, 1.0, f_at_1)
        t_series_quad = time.perf_counter() - t0

        t0 = time.perf_counter()
        yhat = _quad_coeffs(target, q, m, t_ext, f_at_1)
        t_ext_quad = time.perf_counter() - t0

        recon = _reconstruct(fhat, m, 1.0, *eval_grid)
        rows.append((m, "fourier", _rel_rms(recon, f_eval, f_norm), t_series_quad))

        # the fast solvers first, so that their timings include their own window solves
        solved = {}
        t0 = time.perf_counter()
        fast_pinv = FastPseudoinverse.build_with_cutoff(n, w, config.fast_eps, config.pinv_threshold)
        solved["ext_fast_pinv"] = fast_pinv.apply(yhat), t_ext_quad + time.perf_counter() - t0

        t0 = time.perf_counter()
        fast_tik = FastTikhonov.build(SlepianParams.create(n, w, config.fast_eps), config.alpha)
        solved["ext_fast_tik"] = fast_tik.apply(yhat), t_ext_quad + time.perf_counter() - t0

        # the eigenpairs shared by the two exact solvers
        t0 = time.perf_counter()
        lams, block = _exact_pairs(n, w)
        t_eig = time.perf_counter() - t0

        t0 = time.perf_counter()
        # the pairs before the first quotient below the cutoff: past their noise floor the quotients do not descend
        vk = block[:, :np.append(lams < config.pinv_threshold, True).argmax()]
        ghat = SpectralFactor(n, 0, vk, 1.0 / lams[:vk.shape[1]]).apply(yhat)
        solved["ext_exact_pinv"] = ghat, t_ext_quad + t_eig + time.perf_counter() - t0

        t0 = time.perf_counter()
        ghat = SpectralFactor(n, 0, block, lams / (lams**2 + config.alpha)).apply(yhat)
        solved["ext_exact_tik"] = ghat, t_ext_quad + t_eig + time.perf_counter() - t0

        recons = _reconstruct(np.array([solved[method][0] for method in METHODS[1:]]), m, t_ext, *eval_grid)
        for method, recon in zip(METHODS[1:], recons):
            rows.append((m, method, _rel_rms(recon, f_eval, f_norm), solved[method][1]))
    return rows


def _rel_rms(recon: np.ndarray, f_eval: np.ndarray, f_norm: float) -> float:
    return float(np.linalg.norm(recon - f_eval) / f_norm)
