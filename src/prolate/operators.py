"""User-facing fast operators: projector, compressed factorization, pseudoinverse, Tikhonov.

Each operator packages a fast Toeplitz (or partial Fourier) part with the
low-rank correction that turns it into the target spectral operator, plus
the certified operator-norm error bound of the construction.  A common
binary format persists any of them to disk and restores an operator whose
applications are bit-identical to the original.
"""

from __future__ import annotations

import io
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .dpss import (
    DENSE_GUARD,
    default_subspace_dim,
    transition_eigenpairs,
    transition_window,
)
from .fft_kernels import (
    PartialFourier,
    ToeplitzOperator,
    nearest_odd_integer,
    prolate_matrix_dense,
    prolate_symbol,
)
from .lowrank import (
    LowRankFactor,
    fourier_correction_factor,
    pinv_correction,
    projection_correction,
    tikhonov_correction,
    tikhonov_precision_floor,
)

__all__ = [
    "SlepianParams",
    "FastProjector",
    "FastFactorization",
    "FastPseudoinverse",
    "FastTikhonov",
    "PrecisionFloorWarning",
    "dense_reference",
    "matrix_2norm",
    "save_operator",
    "load_operator",
    "operator_from_bytes",
    "operator_to_bytes",
    "FactorFileError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedFileError",
]


@dataclass(frozen=True)
class SlepianParams:
    """Problem parameters (n, w, epsilon) plus the derived odd-count bandwidth and split.

    w_prime satisfies 2*n*w_prime = nearest odd integer to 2*n*w; k defaults
    to round(2nw) (half-up).  The eigenvalue condition on k is validated when
    an operator is built, where the transition eigenpairs are available.
    """

    n: int
    w: float
    epsilon: float
    w_prime: float
    num_fourier_cols: int
    k: int

    @classmethod
    def create(cls, n: int, w: float, epsilon: float, k: int | None = None) -> "SlepianParams":
        if n < 1:
            raise ValueError(f"signal length must be positive, got {n}")
        if not 0.0 < w < 0.5:
            raise ValueError(f"half-bandwidth must lie in (0, 1/2), got {w}")
        if not 0.0 < epsilon < 0.5:
            raise ValueError(f"tolerance must lie in (0, 1/2), got {epsilon}")
        q = nearest_odd_integer(2.0 * n * w)
        if k is None:
            k = default_subspace_dim(n, w)
        if not 0 <= k <= n:
            raise ValueError(f"subspace dimension k={k} outside [0, {n}]")
        return cls(n=n, w=w, epsilon=epsilon, w_prime=q / (2.0 * n), num_fourier_cols=q, k=k)


class PrecisionFloorWarning(UserWarning):
    """A requested tolerance lies below what the operator can reach in this floating-point environment.

    Issued when an operator is built; the operator is still returned, and
    its error may reach its precision_floor rather than its error_bound.
    """


def _as_vector(x, n):
    x = np.asarray(x)
    if x.shape != (n,):
        raise ValueError(f"expected a length-{n} vector, got shape {x.shape}")
    return x


class FastProjector:
    """Projector onto the leading-k Slepian subspace as Toeplitz plus low-rank.

    apply(x) deviates from the exact subspace projection by at most
    error_bound * ||x||; real input yields real output.
    """

    kind = 1

    def __init__(self, params: SlepianParams, b_op: ToeplitzOperator, correction: LowRankFactor):
        self.params = params
        self.b_op = b_op
        self.u = correction
        self.error_bound = params.epsilon

    @classmethod
    def build(cls, params: SlepianParams) -> "FastProjector":
        b_op = ToeplitzOperator(prolate_symbol(params.n, params.w))
        eigset = transition_eigenpairs(params.n, params.w, params.epsilon, k=params.k, b_op=b_op)
        return cls(params, b_op, projection_correction(eigset))

    def apply(self, x) -> np.ndarray:
        x = _as_vector(x, self.params.n)
        if np.iscomplexobj(x):
            y = self.b_op.apply(x)
        else:
            y = self.b_op.apply_real(x)
        return y + self.u.apply(x)

    def factors(self):
        return (self.u.left, self.u.right)


class FastPseudoinverse:
    """Rank-k truncated pseudoinverse of the prolate matrix as Toeplitz plus low-rank.

    apply(y) deviates from the exact truncated-pseudoinverse solve by at
    most error_bound * ||y|| with error_bound = 3 * epsilon.
    """

    kind = 3

    def __init__(self, params: SlepianParams, b_op: ToeplitzOperator, correction: LowRankFactor):
        self.params = params
        self.b_op = b_op
        self.u = correction
        self.error_bound = 3.0 * params.epsilon

    @classmethod
    def build(cls, params: SlepianParams) -> "FastPseudoinverse":
        b_op = ToeplitzOperator(prolate_symbol(params.n, params.w))
        eigset = transition_eigenpairs(params.n, params.w, params.epsilon, k=params.k, b_op=b_op)
        return cls(params, b_op, pinv_correction(eigset))

    @classmethod
    def build_with_cutoff(cls, n: int, w: float, epsilon: float, cutoff: float) -> "FastPseudoinverse":
        """Split chosen so the retained eigenvalues are those >= cutoff.

        cutoff must lie inside (epsilon, 1 - epsilon) for the split condition
        to hold automatically.
        """
        if not epsilon < cutoff < 1.0 - epsilon:
            raise ValueError(f"cutoff {cutoff} must lie inside ({epsilon}, {1 - epsilon})")
        b_op = ToeplitzOperator(prolate_symbol(n, w))
        start, lams, _ = transition_window(n, w, epsilon, 1.0 - epsilon, b_op=b_op)
        k = start + int(np.count_nonzero(lams >= cutoff))
        params = SlepianParams.create(n, w, epsilon, k=k)
        eigset = transition_eigenpairs(n, w, epsilon, k=k, b_op=b_op)
        return cls(params, b_op, pinv_correction(eigset))

    def apply(self, y) -> np.ndarray:
        y = _as_vector(y, self.params.n)
        if np.iscomplexobj(y):
            out = self.b_op.apply(y)
        else:
            out = self.b_op.apply_real(y)
        return out + self.u.apply(y)

    def factors(self):
        return (self.u.left, self.u.right)


class FastTikhonov:
    """Tikhonov solution map (B^2 + alpha I)^{-1} B as scaled Toeplitz plus low-rank.

    apply(y) deviates from the exact regularized solve by at most
    error_bound * ||y|| with error_bound = epsilon, provided epsilon is at
    least precision_floor.  The floor is the estimated accuracy that the
    transition eigenpairs reach in this floating-point environment,
    magnified by the spectral weight's slope (about 1/alpha) and size
    (about 1/(2 sqrt(alpha))); it grows with n.  build() issues a
    PrecisionFloorWarning when epsilon lies below it.
    """

    kind = 4

    def __init__(self, params: SlepianParams, alpha: float, b_op: ToeplitzOperator, correction: LowRankFactor):
        self.params = params
        self.alpha = alpha
        self.b_op = b_op
        self.u = correction
        self.error_bound = params.epsilon

    @property
    def precision_floor(self) -> float:
        return tikhonov_precision_floor(self.params.n, self.params.w, self.alpha)

    @classmethod
    def build(cls, params: SlepianParams, alpha: float) -> "FastTikhonov":
        b_op = ToeplitzOperator(prolate_symbol(params.n, params.w))
        u5 = tikhonov_correction(params.n, params.w, params.epsilon, alpha, b_op=b_op)
        op = cls(params, alpha, b_op, u5)
        if params.epsilon < op.precision_floor:
            warnings.warn(
                f"tolerance {params.epsilon:g} lies below the Tikhonov precision floor "
                f"{op.precision_floor:.2g} at n={params.n}, w={params.w:g}, alpha={alpha:g}; "
                "expect errors up to about the floor",
                PrecisionFloorWarning,
                stacklevel=2,
            )
        return op

    def apply(self, y) -> np.ndarray:
        y = _as_vector(y, self.params.n)
        if np.iscomplexobj(y):
            out = self.b_op.apply(y)
        else:
            out = self.b_op.apply_real(y)
        return out / (1.0 + self.alpha) + self.u.apply(y)

    def factors(self):
        return (self.u.left,)


class FastFactorization:
    """Compressed two-sided factorization of the Slepian subspace projector.

    compress(x) stacks the partial Fourier coefficients with the two
    low-rank coefficient blocks (k_prime numbers in total); decompress
    rebuilds a vector within 2 * epsilon * ||x|| of the exact projection.
    The round trip stays complex; callers needing real output take the real
    part, which stays within the same bound of the (real) exact projection.
    """

    kind = 2

    def __init__(self, params: SlepianParams, pf: PartialFourier, l: LowRankFactor, u: LowRankFactor):
        self.params = params
        self.pf = pf
        self.l = l
        self.u = u
        self.error_bound = 2.0 * params.epsilon

    @classmethod
    def build(cls, params: SlepianParams) -> "FastFactorization":
        b_op = ToeplitzOperator(prolate_symbol(params.n, params.w))
        pf = PartialFourier(params.n, params.w)
        l = fourier_correction_factor(params.n, params.w, params.epsilon)
        eigset = transition_eigenpairs(params.n, params.w, params.epsilon, k=params.k, b_op=b_op)
        return cls(params, pf, l, projection_correction(eigset))

    @property
    def k_prime(self) -> int:
        return self.pf.num_cols + self.l.rank + self.u.rank

    def k_prime_budget(self) -> float:
        """ceil(2nw) + (12/pi^2 log(8n) + 18) log(15/epsilon)."""
        p = self.params
        return math.ceil(2.0 * p.n * p.w) + (
            12.0 / math.pi**2 * math.log(8.0 * p.n) + 18.0
        ) * math.log(15.0 / p.epsilon)

    def compress(self, x) -> np.ndarray:
        x = _as_vector(x, self.params.n)
        return np.concatenate([self.pf.adjoint(x), self.l.adjoint_apply(x), self.u.adjoint_apply(x)])

    def decompress(self, c) -> np.ndarray:
        c = np.asarray(c)
        if c.shape != (self.k_prime,):
            raise ValueError(f"expected {self.k_prime} coefficients, got shape {c.shape}")
        nf, nl = self.pf.num_cols, self.l.rank
        return (
            self.pf.apply(c[:nf])
            + self.l.left @ c[nf:nf + nl]
            + self.u.left @ c[nf + nl:]
        )

    def apply(self, x) -> np.ndarray:
        return self.decompress(self.compress(x))

    def factors(self):
        return (self.l.left, self.l.right, self.u.left, self.u.right)


# ---------------------------------------------------------------------------
# Dense reference operators (test oracles)


def dense_reference(kind: str, params: SlepianParams, alpha: float | None = None) -> np.ndarray:
    """Dense S_k S_k', truncated pseudoinverse, or Tikhonov map via eigendecomposition.

    Eigenvalues feeding the pseudoinverse and Tikhonov maps are refined by a
    Rayleigh quotient against the exact dense matrix, which matters when
    alpha is small.  Guarded to n <= DENSE_GUARD.
    """
    n, w, k = params.n, params.w, params.k
    if n > DENSE_GUARD:
        raise ValueError(f"dense reference guarded to n <= {DENSE_GUARD}, got {n}")
    b = prolate_matrix_dense(n, w)
    lams, vecs = np.linalg.eigh(b)
    lams, vecs = lams[::-1].copy(), vecs[:, ::-1].copy()
    if kind == "projection":
        vk = vecs[:, :k]
        return vk @ vk.T
    refined = np.clip(np.einsum("ij,ij->j", vecs, b @ vecs), 0.0, 1.0)
    if kind == "pinv":
        vk = vecs[:, :k]
        return (vk / refined[:k]) @ vk.T
    if kind == "tikhonov":
        if alpha is None or alpha <= 0.0:
            raise ValueError("tikhonov reference needs a positive alpha")
        f = refined / (refined**2 + alpha)
        return (vecs * f) @ vecs.T
    raise ValueError(f"unknown reference kind {kind!r}")


def matrix_2norm(m: np.ndarray, seed: int = 0) -> float:
    """Spectral norm: exact singular values up to 1024, power iteration beyond.

    The power iteration is graded to 1e-3 relative accuracy within 200
    steps; the early-exit criterion is tighter than that because the
    per-step change understates the remaining error when the top singular
    values cluster.
    """
    m = np.asarray(m)
    if min(m.shape) <= 1024:
        return float(np.linalg.norm(m, 2))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(m.shape[1])
    v /= np.linalg.norm(v)
    prev = 0.0
    s = 0.0
    for _ in range(200):
        u = m @ v
        v = m.conj().T @ u
        g = np.linalg.norm(v)
        if g == 0.0:
            return 0.0
        s = math.sqrt(g)
        v /= g
        if abs(s - prev) <= 1e-6 * s:
            return s
        prev = s
    return s


# ---------------------------------------------------------------------------
# Persistence: magic "FSLT", version 1, little-endian


_MAGIC = b"FSLT"
_VERSION = 1
_KIND_NAMES = {1: "projector", 2: "factorization", 3: "pinv", 4: "tikhonov"}
_FACTOR_COUNT = {1: 2, 2: 4, 3: 2, 4: 1}


class FactorFileError(Exception):
    """Base error for the persisted-factor format."""


class BadMagicError(FactorFileError):
    pass


class UnsupportedVersionError(FactorFileError):
    pass


class TruncatedFileError(FactorFileError):
    pass


def operator_to_bytes(op) -> bytes:
    """Serialize an operator: header, error bound, per-factor (rank, flag), data blocks."""
    p = op.params
    alpha = getattr(op, "alpha", 0.0)
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", _VERSION))
    buf.write(struct.pack("<QdddQB", p.n, p.w, p.epsilon, alpha, p.k, op.kind))
    buf.write(struct.pack("<d", op.error_bound))
    factors = op.factors()
    for f in factors:
        flag = 1 if np.iscomplexobj(f) else 0
        buf.write(struct.pack("<QB", f.shape[1], flag))
    for f in factors:
        if np.iscomplexobj(f):
            data = np.asarray(f, dtype="<c16").ravel(order="F").view("<f8")
        else:
            data = np.asarray(f, dtype="<f8").ravel(order="F")
        buf.write(data.tobytes())
    return buf.getvalue()


def save_operator(op, path) -> None:
    with open(path, "wb") as fh:
        fh.write(operator_to_bytes(op))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, size: int, what: str) -> bytes:
        if self.pos + size > len(self.data):
            raise TruncatedFileError(f"file truncated while reading {what}")
        out = self.data[self.pos:self.pos + size]
        self.pos += size
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def operator_from_bytes(data: bytes):
    """Rebuild an operator; the fast transforms are reconstructed from (n, w)."""
    r = _Reader(data)
    if r.take(4, "magic") != _MAGIC:
        raise BadMagicError("bad magic: not a persisted-factor file")
    (version,) = r.unpack("<I", "version")
    if version != _VERSION:
        raise UnsupportedVersionError(f"unsupported format version {version}")
    n, w, epsilon, alpha, k, kind = r.unpack("<QdddQB", "header")
    if kind not in _FACTOR_COUNT:
        raise FactorFileError(f"unknown operator kind {kind}")
    (error_bound,) = r.unpack("<d", "error bound")
    heads = [r.unpack("<QB", "factor header") for _ in range(_FACTOR_COUNT[kind])]
    factors = []
    for rank, flag in heads:
        count = n * rank * (2 if flag else 1)
        raw = np.frombuffer(r.take(8 * count, "factor data"), dtype="<f8")
        if flag:
            mat = raw.view("<c16").reshape((n, rank), order="F")
        else:
            mat = raw.reshape((n, rank), order="F")
        factors.append(np.ascontiguousarray(mat))
    if r.pos != len(data):
        raise FactorFileError("trailing bytes after factor data")

    # a header that passes the format checks can still name an impossible
    # operator (w outside (0, 1/2), mismatched ranks) or one too large to rebuild
    try:
        params = SlepianParams.create(int(n), float(w), float(epsilon), k=int(k))
        if kind == 2:
            pf = PartialFourier(params.n, params.w)
            l = LowRankFactor(factors[0], factors[1])
            u = LowRankFactor(factors[2], factors[3])
            op = FastFactorization(params, pf, l, u)
        else:
            b_op = ToeplitzOperator(prolate_symbol(params.n, params.w))
            if kind == 1:
                op = FastProjector(params, b_op, LowRankFactor(factors[0], factors[1]))
            elif kind == 3:
                op = FastPseudoinverse(params, b_op, LowRankFactor(factors[0], factors[1]))
            else:
                op = FastTikhonov(params, float(alpha), b_op, LowRankFactor.symmetric(factors[0]))
    except ValueError as exc:
        raise FactorFileError(f"invalid operator header: {exc}") from exc
    except MemoryError:
        raise FactorFileError(f"header size n={n} is too large to rebuild") from None
    if abs(op.error_bound - error_bound) > 1e-15 * max(1.0, abs(error_bound)):
        raise FactorFileError("stored error bound disagrees with the reconstructed operator")
    return op


def load_operator(path):
    with open(path, "rb") as fh:
        return operator_from_bytes(fh.read())


def describe_operator(op) -> str:
    p = op.params
    ranks = ",".join(str(f.shape[1]) for f in op.factors())
    alpha = getattr(op, "alpha", None)
    alpha_txt = f" alpha={alpha:g}" if alpha is not None else ""
    return (
        f"{_KIND_NAMES[op.kind]} n={p.n} w={p.w:g} eps={p.epsilon:g} k={p.k}"
        f"{alpha_txt} ranks=[{ranks}] error_bound={op.error_bound:g}"
    )
