"""The benchmark's tracer still finds every library layer it wraps.

perfbench/tracing.py replaces library functions and methods by name for
the length of a traced run.  A rename, or a caller that stops going through
a wrapped name, would leave a traced run without that layer's spans; this
runs every operator kind through an instrumented library and checks that
each wrapped layer recorded at least one span, and that no span nests in a
span of its own name.
"""

import importlib.util
from pathlib import Path

import numpy as np

from prolate import fourier_ext as fe
from prolate import operators as ops

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

LAYER_SPANS = {
    "dpss.window",
    "dpss.eigh_tridiagonal",
    "fft_kernels.plan",
    "fft_kernels.apply",
    "fft_kernels.apply_real",
    "fft_kernels.apply_block",
    "fft_kernels.partial_fourier",
    "lowrank.hilbert_factor",
    "lowrank.taylor",
    "lowrank.fourier_assembly",
    "lowrank.eigen_correction",
    "lowrank.factor_apply",
    "operators.build.projector",
    "operators.build.factorization",
    "operators.build.pinv",
    "operators.build.tikhonov",
    "operators.compress",
    "operators.decompress",
    "operators.to_bytes",
    "operators.from_bytes",
    "fourier_ext.run",
    "fourier_ext.target",
} | {f"operators.apply.{kind}.{dtype}" for kind in ("projector", "pinv", "tikhonov") for dtype in ("real", "complex")}


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_records_a_span():
    tracing = _tracing_module()
    tracer = tracing.Tracer(True)
    rng = np.random.default_rng(7)
    n = 256
    x = rng.standard_normal(n)
    xc = x + 1j * rng.standard_normal(n)
    undo = tracing.instrument(tracer)
    try:
        params = ops.SlepianParams.create(n, 0.25, 1e-6)
        built = [
            ops.FastProjector.build(params),
            ops.FastFactorization.build(params),
            ops.FastPseudoinverse.build(params),
            ops.FastTikhonov.build(params, 1e-2),
        ]
        for op in built:
            for v in (x, xc):
                if isinstance(op, ops.FastFactorization):
                    op.decompress(op.compress(v))
                else:
                    op.apply(v)
            ops.operator_from_bytes(ops.operator_to_bytes(op))
        # called through its module, as the benchmark does; it builds its
        # pseudoinverse through build_with_cutoff
        fe.run_fourier_extension(fe.FourierExtensionConfig(m_values=(8,), eval_points=64), seed=1)
    finally:
        tracing.restore(undo)

    assert all(owner.__dict__[attr] is original for owner, attr, original in undo)
    names = [sp.name for sp in tracer.spans]
    missing = LAYER_SPANS - set(names)
    assert not missing, sorted(missing)
    assert names.count("operators.build.pinv") == 2
    # every time metric of the tracer is inclusive, so a wrapped layer that called its own wrapped name (a factor's
    # apply through its adjoint_apply) would count its time twice: no span has an ancestor of its own name
    def ancestors(sp):
        while sp.parent is not None:
            sp = tracer.spans[sp.parent]
            yield sp.name

    assert not [sp.name for sp in tracer.spans if sp.name in ancestors(sp)]
    # a reloaded factorization rebuilds its Fourier correction inside the decode
    assert any(sp.name == "lowrank.fourier_assembly" and sp.parent is not None
               and tracer.spans[sp.parent].name == "operators.from_bytes" for sp in tracer.spans)
