"""In-memory span tracer and the wrappers that put spans around the library's layers.

The library is left untouched: ``instrument`` replaces, for the length of a
traced run, the functions each calling module imported (and the methods of
the classes they call) with thin wrappers that record a span per call.
``restore`` puts the originals back.  Spans are kept in memory; ``dump``
writes them out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager, nullcontext

import numpy as np

LAYERS = ("bench", "dpss", "fft_kernels", "lowrank", "operators", "fourier_ext")
KINDS = ("projector", "factorization", "pinv", "tikhonov")  # in the order of the FSLT kind byte


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "request", "phase", "attrs")

    def __init__(self, sid, name, start, parent, request, phase):
        self.id = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.request = request
        self.phase = phase
        self.attrs = {}

    @property
    def dur(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "request": self.request, "phase": self.phase,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans while enabled and not paused; every method is a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.recording = enabled
        self.spans = []
        self.phase = "timed"
        self.request = None
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, time.perf_counter(), parent, self.request, self.phase)
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def end(self, sp):
        sp.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def _span(self, name, request, attrs):
        prev = self.request
        if request is not None:
            self.request = request
        sp = self.begin(name)
        sp.attrs.update(attrs)
        try:
            yield sp
        finally:
            self.end(sp)
            self.request = prev

    def span(self, name, request=None, **attrs):
        """A root or explicit span around benchmark code; no-op unless recording."""
        if not self.recording:
            return nullcontext()
        return self._span(name, request, attrs)

    @contextmanager
    def paused(self):
        """Checks and oracles run here: the wrappers still run but record nothing."""
        was = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = was

    def span_cost(self, reps=20000):
        """Measured cost of one recorded span (begin + end), in seconds."""
        if not self.enabled:
            return 0.0
        scratch = Tracer(True)
        t0 = time.perf_counter()
        for _ in range(reps):
            scratch.end(scratch.begin("x"))
        return (time.perf_counter() - t0) / reps

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.as_dict()) + "\n")


def _wrap(tracer, name, fn, attrs=None):
    """fn wrapped in a span; name may depend on the call, attrs on the call and result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.recording:
            return fn(*args, **kwargs)
        sp = tracer.begin(name(args) if callable(name) else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(sp)
        if attrs is not None:
            sp.attrs.update(attrs(args, out))
        return out

    return wrapper


class _Overlay:
    """A module seen through an overlay: the given attributes replaced, every other one delegated."""

    def __init__(self, real, **replaced):
        self._real = real
        self.__dict__.update(replaced)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def _dtype_name(x):
    return "complex" if np.iscomplexobj(x) else "real"


def _toeplitz_bytes(op, x, real):
    """Bytes the arrays of one circulant apply occupy, computed from fft_len and dtype.

    Input, transform, spectrum product and inverse transform each read or
    write one array; the FFT's internal passes are not counted.
    """
    length, n = op.fft_len, op.n
    if real:
        half = length // 2 + 1
        return 8 * n + half * (16 + 8 + 16 + 16 + 16) + 8 * length
    return np.asarray(x).itemsize * n + 16 * length * 5


def instrument(tracer):
    """Wrap the library's layer boundaries; returns the undo list for ``restore``."""
    import scipy
    import prolate.dpss as dpss
    import prolate.fft_kernels as fk
    import prolate.fourier_ext as fe
    import prolate.lowrank as lr
    import prolate.operators as ops

    undo = []

    def put(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def put_fn(owner, attr, name, attrs=None):
        put(owner, attr, _wrap(tracer, name, owner.__dict__[attr], attrs))

    def put_classmethod(cls, attr, name, attrs=None):
        put(cls, attr, classmethod(_wrap(tracer, name, cls.__dict__[attr].__func__, attrs)))

    # dpss: the windowed eigensolve, wherever it was imported, and the LAPACK call inside it
    window_attrs = lambda a, out: {"kept": int(out[1].size)}  # noqa: E731
    for mod in (dpss, lr, ops):
        put_fn(mod, "transition_window", "dpss.window", window_attrs)
    eigh = _wrap(
        tracer, "dpss.eigh_tridiagonal", scipy.linalg.eigh_tridiagonal,
        lambda a, out: {"pairs": int(out[1].shape[1])},
    )
    put(dpss, "scipy", _Overlay(scipy, linalg=_Overlay(scipy.linalg, eigh_tridiagonal=eigh)))

    # fft_kernels: the circulant plan and applies, and the partial Fourier frame
    top = fk.ToeplitzOperator
    put_fn(top, "__init__", "fft_kernels.plan")
    put_fn(top, "apply", "fft_kernels.apply", lambda a, out: {"bytes": _toeplitz_bytes(a[0], a[1], False)})
    put_fn(top, "apply_real", "fft_kernels.apply_real", lambda a, out: {"bytes": _toeplitz_bytes(a[0], a[1], True)})
    put_fn(top, "apply_block", "fft_kernels.apply_block", lambda a, out: {"cols": int(np.shape(a[1])[1])})
    put_fn(fk.PartialFourier, "adjoint", "fft_kernels.partial_fourier")
    put_fn(fk.PartialFourier, "apply", "fft_kernels.partial_fourier")

    # lowrank: the Fourier-correction builders, eigen-partition corrections, factor products
    put_fn(lr, "hilbert_factor", "lowrank.hilbert_factor")
    put_fn(lr, "sinc_alias_factor", "lowrank.taylor")
    put_fn(lr, "bandwidth_shift_factor", "lowrank.taylor")
    put_fn(ops, "fourier_correction_factor", "lowrank.fourier_assembly")
    for attr in ("projection_correction", "pinv_correction", "tikhonov_correction"):
        put_fn(ops, attr, "lowrank.eigen_correction")
    put_fn(lr.LowRankFactor, "apply", "lowrank.factor_apply")
    put_fn(lr.LowRankFactor, "adjoint_apply", "lowrank.factor_apply")

    # operators: build, apply, compress/decompress, FSLT encode/decode
    for cls in (ops.FastProjector, ops.FastFactorization, ops.FastPseudoinverse, ops.FastTikhonov):
        kind = KINDS[cls.kind - 1]
        put_classmethod(cls, "build", f"operators.build.{kind}", _build_attrs)
        if cls is ops.FastFactorization:
            put_fn(cls, "compress", "operators.compress")
            put_fn(cls, "decompress", "operators.decompress")
        else:
            put_fn(cls, "apply", lambda a, k=kind: f"operators.apply.{k}.{_dtype_name(a[1])}")
    put_classmethod(ops.FastPseudoinverse, "build_with_cutoff", "operators.build.pinv", _build_attrs)
    put_fn(ops, "operator_to_bytes", "operators.to_bytes", lambda a, out: {"bytes": len(out)})
    put_fn(ops, "operator_from_bytes", "operators.from_bytes")

    # fourier_ext: the pipeline and its target sampling
    put_fn(fe, "run_fourier_extension", "fourier_ext.run")
    put_fn(fe.SyntheticTarget, "__call__", "fourier_ext.target", lambda a, out: {"nodes": int(np.size(a[1]))})
    return undo


def _build_attrs(args, op):
    """Size, ranks against their budgets, and factor bytes of a freshly built operator."""
    from prolate.lowrank import correction_rank_budget, transition_count_budget

    p = op.params
    out = {
        "n": p.n, "w": p.w, "eps": p.epsilon,
        "factor_bytes": int(sum(f.nbytes for f in op.factors())),
    }
    if op.kind == 2:
        out.update(
            rank=op.k_prime, budget=op.k_prime_budget(),
            fourier_rank=op.l.rank, fourier_budget=correction_rank_budget(p.n, p.epsilon),
        )
    else:
        out.update(rank=op.u.rank, budget=transition_count_budget(p.n, p.epsilon))
    return out


def restore(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _layer_catalogue():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [(f"self_s.{layer}", "s", "lower") for layer in LAYERS]
    out += [(f"setup.self_s.{layer}", "s", "lower") for layer in LAYERS]
    out += [
        ("dpss.window.calls", "count", "lower"),
        ("dpss.window.s", "s", "lower"),
        ("dpss.window.pairs_kept", "count", "lower"),
        ("dpss.eigh_tridiagonal.calls", "count", "lower"),
        ("dpss.eigh_tridiagonal.s", "s", "lower"),
        ("dpss.eigh_tridiagonal.pairs", "count", "lower"),
        ("dpss.window_yield", "ratio", "higher"),
        ("fft_kernels.plan.s", "s", "lower"),
        ("fft_kernels.apply_block.s", "s", "lower"),
        ("fft_kernels.apply_block.cols", "count", "lower"),
        ("fft_kernels.apply_real.s", "s", "lower"),
        ("fft_kernels.apply.s", "s", "lower"),
        ("fft_kernels.partial_fourier.s", "s", "lower"),
        ("fft_kernels.bytes_per_apply", "B", "lower"),
        ("lowrank.hilbert_factor.s", "s", "lower"),
        ("lowrank.taylor.s", "s", "lower"),
        ("lowrank.fourier_assembly.s", "s", "lower"),
        ("lowrank.eigen_correction.s", "s", "lower"),
        ("lowrank.factor_apply.s", "s", "lower"),
    ]
    for kind in KINDS:
        out += [(f"lowrank.rank.{kind}", "count", "lower"), (f"lowrank.rank_budget.{kind}", "count", "lower")]
    out += [("lowrank.rank.fourier_correction", "count", "lower"),
            ("lowrank.rank_budget.fourier_correction", "count", "lower")]
    out += [(f"lowrank.factor_bytes.{kind}", "B", "lower") for kind in KINDS]
    out += [(f"operators.build.{kind}.s", "s", "lower") for kind in KINDS]
    out += [(f"operators.apply.{kind}.{dt}.p50_ms", "ms", "lower") for kind in KINDS for dt in ("real", "complex")]
    out += [
        ("operators.compress.p50_ms", "ms", "lower"),
        ("operators.decompress.p50_ms", "ms", "lower"),
        ("operators.to_bytes.s", "s", "lower"),
        ("operators.from_bytes.s", "s", "lower"),
        ("operators.file_mb", "MB", "lower"),
        ("fourier_ext.target.s", "s", "lower"),
        ("fourier_ext.target.nodes", "count", "lower"),
        ("fourier_ext.fast_ops.s", "s", "lower"),
        ("fourier_ext.rest.s", "s", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unattributed_share", "ratio", "lower"),
        ("trace.self_over_wall", "ratio", "higher"),
    ]
    return out


PER_LAYER = _layer_catalogue()

# spans whose inclusive time is reported as <name>.s; the two assembly spans report self time
_INCLUSIVE = {
    "dpss.window", "dpss.eigh_tridiagonal", "fft_kernels.plan", "fft_kernels.apply_block",
    "fft_kernels.apply_real", "fft_kernels.apply", "fft_kernels.partial_fourier",
    "lowrank.hilbert_factor", "lowrank.taylor", "lowrank.factor_apply",
    "operators.to_bytes", "operators.from_bytes", "fourier_ext.target",
}
_SELF = {"lowrank.fourier_assembly", "lowrank.eigen_correction"}
# spans that serve requests; in a set-up phase (a build calling dpss.rayleigh_lambda) they are left out
_APPLY_SIDE = {"fft_kernels.apply_real", "fft_kernels.apply", "fft_kernels.partial_fourier", "lowrank.factor_apply"}
# span name -> (metric, attribute) for counts summed per unit
_COUNTS = {
    "dpss.window": (("dpss.window.calls", None), ("dpss.window.pairs_kept", "kept")),
    "dpss.eigh_tridiagonal": (("dpss.eigh_tridiagonal.calls", None), ("dpss.eigh_tridiagonal.pairs", "pairs")),
    "fft_kernels.apply_block": (("fft_kernels.apply_block.cols", "cols"),),
    "fourier_ext.target": (("fourier_ext.target.nodes", "nodes"),),
}


def self_times(spans):
    """Span duration minus the part its direct children cover (children never overlap)."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.dur
    return [sp.dur - c for sp, c in zip(spans, child)]


def _median_ms(durations):
    return 1e3 * float(np.median(durations)) if durations else 0.0


def layer_metrics(spans, units, span_cost, measured_wall):
    """Every per-layer metric of PER_LAYER from the recorded spans (0 where a layer did no work).

    ``units`` maps a phase to the number of workload units it ran (passes,
    set-ups, requests or pipeline calls); times and counts are divided by
    it, so each value is per unit of the phase its spans fell in.  Phases
    never mix in one metric: self time in a set-up phase goes to
    ``setup.self_s.<layer>`` (per set-up) and the rest to ``self_s.<layer>``,
    and the apply-side metrics count no set-up span.  Latency metrics
    (``p50_ms``) are medians over single calls.
    """
    selfs = self_times(spans)
    m = {name: [0.0, unit] for name, unit, _ in PER_LAYER}

    def add(key, value):
        m[key][0] += value

    for sp, st in zip(spans, selfs):
        u = units.get(sp.phase) or 1
        name = sp.name
        parent = spans[sp.parent].name if sp.parent is not None else None
        setup = sp.phase == "setup"
        add(f"{'setup.' if setup else ''}self_s.{name.split('.')[0]}", st / u)
        if setup and name in _APPLY_SIDE:
            continue
        if name in _INCLUSIVE or name.startswith("operators.build."):
            add(f"{name}.s", sp.dur / u)
        if name in _SELF:
            add(f"{name}.s", st / u)
        for metric, attr in _COUNTS.get(name, ()):
            add(metric, (sp.attrs[attr] if attr else 1) / u)
        if name == "operators.to_bytes":
            add("operators.file_mb", sp.attrs["bytes"] / 1e6 / u)
        if name == "fourier_ext.run":
            add("fourier_ext.rest.s", st / u)
        if parent == "fourier_ext.run" and name.startswith("operators."):
            add("fourier_ext.fast_ops.s", sp.dur / u)

    solved = m["dpss.eigh_tridiagonal.pairs"][0]
    m["dpss.window_yield"][0] = m["dpss.window.pairs_kept"][0] / solved if solved else 0.0
    applies = [sp.attrs["bytes"] for sp in spans if sp.name in ("fft_kernels.apply", "fft_kernels.apply_real") and sp.phase != "setup"]
    m["fft_kernels.bytes_per_apply"][0] = float(np.mean(applies)) if applies else 0.0

    # operator time per request, by kind and input dtype (factorization: compress + decompress)
    per_request = {}
    for sp in spans:
        if sp.parent is not None and spans[sp.parent].name == "bench.request":
            per_request[sp.parent] = per_request.get(sp.parent, 0.0) + sp.dur
    by_class = {}
    for rid, t in per_request.items():
        root = spans[rid]
        by_class.setdefault(f"operators.apply.{root.attrs['kind']}.{root.attrs['dtype']}.p50_ms", []).append(t)
    for key, durations in by_class.items():
        m[key][0] = _median_ms(durations)
    for name in ("operators.compress", "operators.decompress"):
        m[f"{name}.p50_ms"][0] = _median_ms([sp.dur for sp in spans if sp.name == name])

    # ranks against their budgets and factor bytes, at the largest n built
    builds = [sp for sp in spans if sp.name.startswith("operators.build.")]
    top_n = max((sp.attrs["n"] for sp in builds), default=0)
    for kind in KINDS:
        at = [sp.attrs for sp in builds if sp.name == f"operators.build.{kind}" and sp.attrs["n"] == top_n]
        if not at:
            continue
        m[f"lowrank.rank.{kind}"][0] = float(at[0]["rank"])
        m[f"lowrank.rank_budget.{kind}"][0] = float(at[0]["budget"])
        m[f"lowrank.factor_bytes.{kind}"][0] = float(at[0]["factor_bytes"])
        if kind == "factorization":
            m["lowrank.rank.fourier_correction"][0] = float(at[0]["fourier_rank"])
            m["lowrank.rank_budget.fourier_correction"][0] = float(at[0]["fourier_budget"])

    total_self = sum(selfs)
    bench_self = sum(st for sp, st in zip(spans, selfs) if sp.name.startswith("bench."))
    m["trace.spans"][0] = float(len(spans))
    m["trace.overhead_s"][0] = len(spans) * span_cost
    m["trace.unattributed_share"][0] = bench_self / total_self if total_self else 0.0
    m["trace.self_over_wall"][0] = total_self / measured_wall if measured_wall else 0.0
    return {name: tuple(v) for name, v in m.items()}
