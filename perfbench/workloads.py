"""The benchmark's workloads: precompute, apply-stream and fourier-ext.

Each drives the library's public API from one process in a closed loop with
one client, makes its inputs from the seed, times only library calls, and
checks every output outside the timed region (and outside the traced spans).
"""

from __future__ import annotations

import time

import numpy as np

import checks
import prolate.fourier_ext as fe
import prolate.operators as ops
from tracing import KINDS

_CLASS = {
    "projector": "FastProjector",
    "factorization": "FastFactorization",
    "pinv": "FastPseudoinverse",
    "tikhonov": "FastTikhonov",
}
ALPHA = 1e-2  # Tikhonov weight of `prolate bench` and of the ROADMAP baseline
BASELINE = (2**16, 0.25, 1e-6)
# 2^16 at (1/16, 1e-9) is left out: it adds ~22 s per pass and a 2 GB peak (587 MB factor file)
PRECOMPUTE_POINTS = ((2**14, 0.25, 1e-6), (2**14, 1.0 / 16.0, 1e-9), BASELINE)
EXTENSION_LADDER = (40, 80)
# Work per run is fixed for a given --seconds, so two commits compared with the same
# setting do the same work; the rates below size a 20 s run on the machine of perfbench/NOTES.md.
PASS_SECONDS = 40.0  # one precompute pass, checks included
BLOCK_SECONDS = 1.6  # one apply-stream block of 16 requests, checks included
CALL_SECONDS = 10.0  # one fourier-ext pipeline call
TAIL_PERCENTILES = (50, 75, 90, 95, 98, 99, 99.5, 99.9)

clock = time.perf_counter


class Context:
    def __init__(self, seed, seconds, tracer, checker):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.checker = checker
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.units = {}
        self.measured_wall = 0.0


def build(kind, params):
    cls = getattr(ops, _CLASS[kind])
    return cls.build(params, ALPHA) if kind == "tikhonov" else cls.build(params)


def factor_bytes(op):
    return sum(f.nbytes for f in op.factors())


def tail(samples):
    """Highest listed percentile with at least ten samples beyond it; the maximum below 20 samples."""
    n = len(samples)
    fits = [p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10]
    if not fits:
        return float(np.max(samples)), "max"
    return float(np.percentile(samples, fits[-1])), f"p{fits[-1]:g}"


def seeded_inputs(rng, n):
    return [rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)]


def latency_metrics(metrics, samples, what):
    p = tail(samples)
    metrics["op_p50_ms"] = (1e3 * float(np.median(samples)), "ms", len(samples), f"median {what}")
    metrics["op_tail_ms"] = (1e3 * p[0], "ms", len(samples), f"{p[1]} {what}")
    metrics["ops_per_s"] = (len(samples) / float(np.sum(samples)), "1/s", len(samples), f"{what}s per busy second")


def validate_small(ctx, points, kinds):
    """Every kind at each (w, eps) point, at n = VALIDATION_N, against the dense oracle."""
    n = checks.VALIDATION_N
    with ctx.tracer.paused():
        for w, eps in points:
            params = ops.SlepianParams.create(n, w, eps)
            maps = checks.dense_maps(n, w, params.k, ALPHA)
            for kind in kinds:
                label = f"{kind} n={n} w={w:g} eps={eps:g}"
                try:
                    op = build(kind, params)
                    for x in seeded_inputs(ctx.rng, n):
                        checks.check_against_dense(ctx.checker, label, kind, op, maps, x)
                except Exception as exc:  # a failing operation is counted and named, never fatal
                    ctx.checker.error(label, exc)


def lifecycle(ctx, kind, params, request):
    """Build, encode and decode one operator; returns (reloaded, factor bytes, build_s, persist_s).

    The built operator is dropped before decoding, once the reload check has
    what it needs, so the peak memory counts no copy the benchmark keeps.
    """
    p = params
    xs = seeded_inputs(ctx.rng, p.n)
    with ctx.tracer.span("bench.lifecycle", request=request, kind=kind):
        t0 = clock()
        op = build(kind, params)
        t1 = clock()
        data = ops.operator_to_bytes(op)
        t2 = clock()
    nbytes = factor_bytes(op)
    with ctx.tracer.paused():
        reference = checks.reload_reference(kind, op, data, xs)
    del op
    with ctx.tracer.span("bench.lifecycle", request=request, kind=kind):
        t3 = clock()
        reloaded = ops.operator_from_bytes(data)
        t4 = clock()
    del data
    ctx.measured_wall += (t2 - t0) + (t4 - t3)
    with ctx.tracer.paused():
        checks.check_reload(ctx.checker, f"{kind} n={p.n} w={p.w:g} eps={p.epsilon:g}", kind, reloaded,
                            reference, ops.operator_to_bytes, xs)
    return reloaded, nbytes, t1 - t0, (t2 - t1) + (t4 - t3)


# ---------------------------------------------------------------------------


def precompute(ctx):
    """Whole passes of build + FSLT encode + decode over the configuration list; no applies."""
    validate_small(ctx, {(w, eps) for _, w, eps in PRECOMPUTE_POINTS}, KINDS)
    builds, persists, sizes, lifecycles = {}, {}, {}, []
    passes = max(1, round(ctx.seconds / PASS_SECONDS))
    request = 0
    for _ in range(passes):
        for gi in ctx.rng.permutation(len(PRECOMPUTE_POINTS)):
            n, w, eps = PRECOMPUTE_POINTS[gi]
            params = ops.SlepianParams.create(n, w, eps)
            matvec = checks.ProlateMatvec(n, w)
            # the projector goes first: the other kinds are checked against it
            order = ["projector"] + [KINDS[1:][i] for i in ctx.rng.permutation(3)]
            proj = None
            for kind in order:
                label = f"{kind} n={n} w={w:g} eps={eps:g}"
                try:
                    op, nbytes, b_s, p_s = lifecycle(ctx, kind, params, request)
                except Exception as exc:
                    ctx.checker.error(label, exc)
                    continue
                request += 1
                key = (kind, n, w, eps)
                builds.setdefault(key, []).append(b_s)
                persists.setdefault(key, []).append(p_s)
                sizes[key] = nbytes
                lifecycles.append(b_s + p_s)
                with ctx.tracer.paused():
                    x = ctx.rng.standard_normal(n)
                    if kind != "projector" and proj is None:
                        ctx.checker.require(f"{label} invariant", False, "no projector to check against")
                    else:
                        y = checks.apply_kind(kind, op, x)
                        checks.check_invariant(ctx.checker, label, kind, op, x, y, proj, matvec, ALPHA)
                if kind == "projector":
                    proj = op
                del op
    ctx.units = {"timed": passes}
    m = {
        "setup_s": (sum(float(np.median(v)) for v in builds.values()), "s", len(builds),
                    "build wall time, summed over the configuration list"),
        "factor_mb": (sum(sizes.values()) / 1e6, "MB", len(sizes), "factor bytes, summed over the list"),
    }
    latency_metrics(m, lifecycles, "lifecycle")
    reported = {
        "persist_s": (sum(float(np.median(v)) for v in persists.values()), "s", len(persists),
                      "FSLT encode + decode, summed over the configuration list"),
    }
    return m, {"passes": passes, "configurations": len(builds), "reported": reported}


def apply_stream(ctx, n=BASELINE[0]):
    """Four operators built once (set-up), reloaded from FSLT bytes, then a seeded request stream."""
    _, w, eps = BASELINE
    validate_small(ctx, [(w, eps)], KINDS)
    params = ops.SlepianParams.create(n, w, eps)
    ctx.tracer.phase = "setup"
    loaded, build_s, persist_s, nbytes = {}, 0.0, 0.0, 0
    for i, kind in enumerate(KINDS):
        loaded[kind], size, b_s, p_s = lifecycle(ctx, kind, params, request=-1 - i)
        build_s, persist_s, nbytes = build_s + b_s, persist_s + p_s, nbytes + size

    ctx.tracer.phase = "timed"
    matvec = checks.ProlateMatvec(n, w)
    # a block of 16 requests: every kind four times, one of the four complex
    block = [(kind, j == 0) for kind in KINDS for j in range(4)]
    samples, request = [], 0
    for _ in range(max(1, round(ctx.seconds / BLOCK_SECONDS))):
        for bi in ctx.rng.permutation(len(block)):
            kind, cplx = block[bi]
            x = ctx.rng.standard_normal(n)
            if cplx:
                x = x + 1j * ctx.rng.standard_normal(n)
            label = f"request {request} {kind} {'complex' if cplx else 'real'}"
            try:
                with ctx.tracer.span("bench.request", request=request, kind=kind,
                                     dtype="complex" if cplx else "real"):
                    t0 = clock()
                    y = checks.apply_kind(kind, loaded[kind], x)
                    t1 = clock()
            except Exception as exc:
                ctx.checker.error(label, exc)
                continue
            finally:
                request += 1
            samples.append(t1 - t0)
            with ctx.tracer.paused():
                checks.check_invariant(ctx.checker, label, kind, loaded[kind], x, y,
                                       loaded["projector"], matvec, ALPHA)
    ctx.units = {"setup": 1, "timed": len(samples)}
    ctx.measured_wall += float(np.sum(samples))
    m = {
        "setup_s": (build_s, "s", 4, "build wall time of the four operators"),
        "factor_mb": (nbytes / 1e6, "MB", 4, "factor bytes held by the four operators"),
    }
    latency_metrics(m, samples, "request")
    reported = {
        "persist_s": (persist_s, "s", 4, "FSLT encode + decode of the four operators"),
        "apply_p50_ms": m["op_p50_ms"], "apply_tail_ms": m["op_tail_ms"], "vectors_per_s": m["ops_per_s"],
    }
    return m, {"requests": len(samples), "n": n, "reported": reported}


def _extension_operators(config):
    """The fast operators run_fourier_extension builds, at each ladder size: (kind, op) pairs."""
    w = 1.0 / (2.0 * config.t_ext)
    built = []
    for m_order in EXTENSION_LADDER:
        n = 2 * m_order + 1
        built.append(("pinv", ops.FastPseudoinverse.build_with_cutoff(n, w, config.fast_eps, config.pinv_threshold)))
        built.append(("tikhonov", ops.FastTikhonov.build(ops.SlepianParams.create(n, w, config.fast_eps),
                                                         config.alpha)))
    return built


def _target_round(ctx, config, times):
    """Draw the seeded target as the pipeline does and sample it on one quadrature grid, timed.

    The grid is the extension family's at the smallest rung: transform length
    q = config.fft_length(m), spacing 2 t_ext / q, the nodes in [-1, 1]
    (174,763 at m = 40).
    """
    q = config.fft_length(EXTENSION_LADDER[0])
    h = 2.0 * config.t_ext / q
    nodes = -1.0 + h * np.arange(min(int(np.floor(2.0 / h)), q - 1) + 1)
    t0 = clock()
    fe.SyntheticTarget.draw(np.random.default_rng(np.random.SeedSequence(ctx.seed)))(nodes)
    times.append(clock() - t0)


def fourier_ext(ctx):
    """run_fourier_extension on the cut ladder.

    Set-up draws the seeded target and samples it on a quadrature grid, once
    before the pipeline calls and once after each, so its median spans the
    run as the calls do.  The operators the pipeline builds are built here
    once, untimed, and checked against the dense oracle.
    """
    config = fe.FourierExtensionConfig(m_values=EXTENSION_LADDER)
    w = 1.0 / (2.0 * config.t_ext)
    setup_times = []
    with ctx.tracer.paused():
        _target_round(ctx, config, setup_times)
        built = _extension_operators(config)
        for kind, op in built:
            n = op.params.n
            label = f"{kind} n={n} (extension)"
            maps = checks.dense_maps(n, w, op.params.k, config.alpha)
            if kind == "pinv":
                kept = int(np.count_nonzero(maps["lams"] >= config.pinv_threshold))
                ctx.checker.require(f"{label} cutoff split", kept == op.params.k, f"k={op.params.k}, dense {kept}")
            for x in seeded_inputs(ctx.rng, n):
                checks.check_against_dense(ctx.checker, label, kind, op, maps, x)
            xs = seeded_inputs(ctx.rng, n)
            data = ops.operator_to_bytes(op)
            reference = checks.reload_reference(kind, op, data, xs)
            checks.check_reload(ctx.checker, label, kind, ops.operator_from_bytes(data), reference,
                                ops.operator_to_bytes, xs)
        bounds = {
            m_order: {
                "pinv": checks.extension_agreement_bound(m_order, config, 3.0 * config.fast_eps),
                "tik": checks.extension_agreement_bound(m_order, config, config.fast_eps),
            }
            for m_order in EXTENSION_LADDER
        }

    times, first = [], None
    for _ in range(max(2, round(ctx.seconds / CALL_SECONDS))):  # two at least, so the median never rests on one
        label = f"pipeline call {len(times)}"
        try:
            with ctx.tracer.span("bench.pipeline", request=len(times)):
                t0 = clock()
                rows = fe.run_fourier_extension(config, seed=ctx.seed)
                dt = clock() - t0
        except Exception as exc:
            ctx.checker.error(label, exc)
            break
        times.append(dt)
        with ctx.tracer.paused():
            first = _check_rows(ctx.checker, label, rows, bounds, first)
            _target_round(ctx, config, setup_times)
    ctx.units = {"timed": len(times)}
    ctx.measured_wall += float(np.sum(times))
    m = {
        "setup_s": (float(np.median(setup_times)), "s", len(setup_times),
                    "seeded target drawn and sampled on the m = 40 extension quadrature grid, median"),
        "factor_mb": (sum(factor_bytes(op) for _, op in built) / 1e6, "MB", len(built),
                      "factor bytes of the pipeline's operators (pinv with cutoff + Tikhonov, n = 81 and 161)"),
    }
    latency_metrics(m, times, "pipeline call")
    return m, {"calls": len(times), "ladder": list(EXTENSION_LADDER),
               "reported": {"extension_s": (float(np.median(times)), "s", len(times), "median pipeline wall time")}}


def _check_rows(checker, label, rows, bounds, first):
    """Every (m, method) row present and finite; fast and exact agree; calls repeat exactly."""
    table = {(m, method): rel for m, method, rel, _ in rows}
    expected = {(m, method) for m in EXTENSION_LADDER for method in fe.METHODS}
    checker.require(f"{label} rows", set(table) == expected and len(rows) == len(expected),
                    f"got {sorted(table)}")
    checker.require(f"{label} finite", all(np.isfinite(v) and v > 0 for v in table.values()))
    for m_order, b in bounds.items():
        for fam in ("pinv", "tik"):
            fast, exact = table.get((m_order, f"ext_fast_{fam}")), table.get((m_order, f"ext_exact_{fam}"))
            if fast is not None and exact is not None:
                checker.judge(f"{label} m={m_order} fast vs exact {fam}", abs(fast - exact), b[fam])
    if first is not None:
        checker.require(f"{label} repeats the first call", table == first)
    return table if first is None else first


WORKLOADS = {"precompute": precompute, "apply-stream": apply_stream, "fourier-ext": fourier_ext}
