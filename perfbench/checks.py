"""Output checks of the benchmark, independent of the library's own oracles.

Every check is judged at the operator's certified bound, never loosened:

* at a small validation n, against a dense eigendecomposition of the
  prolate matrix built entrywise here;
* at the timed n, by invariants that need no oracle (projector idempotence,
  the Tikhonov residual, the factorization round trip and B times the
  pseudoinverse, both against the projector), with B applied by this
  module's own circulant embedding;
* reloaded FSLT operators must apply bit-identically.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

VALIDATION_N = 512


class Checker:
    """Counts judged operations and names the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def judge(self, name, value, bound):
        """Pass when value <= bound; NaN never passes."""
        self.attempted += 1
        if not value <= bound:
            self.failures.append(f"{name}: {value:.3e} > bound {bound:.3e}")
            return False
        return True

    def require(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail or 'failed'}")
        return ok

    def error(self, name, exc):
        self.attempted += 1
        self.failures.append(f"{name}: {type(exc).__name__}: {exc}")


def prolate_column(n, w):
    col = np.empty(n)
    col[0] = 2.0 * w
    m = np.arange(1, n)
    col[1:] = np.sin(2.0 * np.pi * w * m) / (np.pi * m)
    return col


class ProlateMatvec:
    """B x for the n x n prolate matrix through a length-2n circulant embedding."""

    def __init__(self, n, w):
        col = prolate_column(n, w)
        circ = np.concatenate([col, [0.0], col[:0:-1]])
        self.n = n
        self.half = np.fft.rfft(circ)

    def __call__(self, x):
        if np.iscomplexobj(x):
            return self(x.real) + 1j * self(x.imag)
        return np.fft.irfft(np.fft.rfft(x, 2 * self.n) * self.half, 2 * self.n)[: self.n]


def dense_maps(n, w, k, alpha=None):
    """Dense projector, rank-k pseudoinverse and (optionally) Tikhonov map of the prolate matrix.

    Eigenvalues feeding the inverse maps are Rayleigh quotients against the
    entrywise matrix.
    """
    d = np.subtract.outer(np.arange(n), np.arange(n)).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        b = np.sin(2.0 * np.pi * w * d) / (np.pi * d)
    np.fill_diagonal(b, 2.0 * w)
    lams, vecs = np.linalg.eigh(b)
    lams, vecs = lams[::-1].copy(), vecs[:, ::-1].copy()
    refined = np.clip(np.einsum("ij,ij->j", vecs, b @ vecs), 0.0, 1.0)
    vk = vecs[:, :k]
    maps = {
        "projector": vk @ vk.T,
        "pinv": (vk / refined[:k]) @ vk.T,
        "lams": refined,
    }
    if alpha is not None:
        maps["tikhonov"] = (vecs * (refined / (refined**2 + alpha))) @ vecs.T
    return maps


def apply_kind(kind, op, x):
    """One request: apply, or decompress(compress(x)) for the factorization."""
    if kind == "factorization":
        return op.decompress(op.compress(x))
    return op.apply(x)


def check_against_dense(checker, label, kind, op, maps, x):
    """||op(x) - exact(x)|| <= error_bound ||x|| with the dense map as the exact one."""
    exact = maps["projector" if kind == "factorization" else kind]
    err = np.linalg.norm(apply_kind(kind, op, x) - exact @ x)
    checker.judge(f"{label} dense oracle", err, op.error_bound * np.linalg.norm(x))


def reload_reference(kind, op, data, xs):
    """What the reload check compares against: a digest of the bytes and op's outputs on xs.

    Taken before decoding, so the built operator and its bytes can be dropped
    and the process never holds more copies than the library itself does.
    """
    outputs = []
    for x in xs:
        if kind == "factorization":
            c = op.compress(x)
            outputs.append((c, op.decompress(c)))
        else:
            outputs.append((op.apply(x),))
    return hashlib.sha256(data).digest(), outputs


def check_reload(checker, label, kind, reloaded, reference, to_bytes, xs):
    """The reloaded operator re-encodes to the same bytes and applies bit-identically."""
    digest, outputs = reference
    checker.require(f"{label} reload re-encodes identically", hashlib.sha256(to_bytes(reloaded)).digest() == digest)
    for x, want in zip(xs, outputs):
        if kind == "factorization":
            same = np.array_equal(reloaded.compress(x), want[0]) and np.array_equal(reloaded.decompress(want[0]), want[1])
        else:
            same = np.array_equal(reloaded.apply(x), want[0])
        checker.require(f"{label} reload applies bit-identically ({x.dtype})", same)


def check_invariant(checker, label, kind, op, x, y, proj, matvec, alpha=None):
    """Oracle-free check of output y = op(x) at any n, at the certified bound.

    With ||E|| <= eps for the projector P~ = P + E and ||B|| <= 1:
    projector    ||P~ y - y||                <= (3 eps + eps^2) ||x||
    factorization ||y - P~ x||               <= (2 eps + eps) ||x||
    pinv         ||B y - P~ x||              <= (3 eps + eps) ||x||
    tikhonov     ||(B^2 + a I) y - B x||     <= (1 + a) eps ||x||
    """
    eps = op.params.epsilon
    norm = np.linalg.norm(x)
    if kind == "projector":
        err, bound = np.linalg.norm(op.apply(y) - y), (3 * eps + eps * eps) * norm
    elif kind == "factorization":
        err, bound = np.linalg.norm(y - proj.apply(x)), 3 * eps * norm
    elif kind == "pinv":
        err, bound = np.linalg.norm(matvec(y) - proj.apply(x)), 4 * eps * norm
    else:
        by = matvec(y)
        err = np.linalg.norm(matvec(by) + alpha * y - matvec(x))
        bound = (1.0 + alpha) * eps * norm
    return checker.judge(f"{label} invariant", err, bound)


def reconstruction_norm(m, half_period, points):
    """Largest singular value of the extension's evaluation map (coefficients -> grid values).

    The map sends coefficients c_j, j = -m..m, to sum_j c_j e^{i pi j t / T} / sqrt(2T)
    on ``points`` uniform nodes of [-1, 1].  Its Gram matrix is Toeplitz.
    """
    t = np.linspace(-1.0, 1.0, points)
    d = np.arange(-2 * m, 2 * m + 1)
    sums = np.exp(1j * np.pi * np.outer(d, t) / half_period).sum(axis=1) / (2.0 * half_period)
    idx = np.subtract.outer(np.arange(2 * m + 1), np.arange(2 * m + 1)) + 2 * m
    return math.sqrt(float(np.linalg.eigvalsh(sums[idx])[-1]))


def extension_agreement_bound(m, config, error_bound):
    """Bound on |rel_rms(fast) - rel_rms(exact)| for one extension method.

    The two reconstructions differ by R (g_fast - g_exact), with
    ||g_fast - g_exact|| <= error_bound ||yhat||.  By Bessel's inequality
    ||yhat||^2 <= integral of f^2 over [-1, 1], which the uniform grid of
    the relative-RMS norm estimates as (2 / (points - 1)) ||f_eval||^2.
    """
    sigma = reconstruction_norm(m, config.t_ext, config.eval_points)
    return sigma * error_bound * math.sqrt(2.0 / (config.eval_points - 1))
