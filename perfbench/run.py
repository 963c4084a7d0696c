"""Benchmark of the prolate library: one workload, one seed, traced or not.

    python3 perfbench/run.py --workload apply-stream --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics untraced,
the per-layer metrics with ``--trace 1``.  The lines before it (prefixed
``#``) give the machine, each metric with its unit and sample count, and the
error rate with both counts.  The full result, and with ``--trace 1`` the
spans, are written under ``perfbench/out/``.  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _cap_threads():
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, cap))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(cap, current)))
    return cap


def _machine(cpus):
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": cpus,
        "cpu": platform.processor() or platform.machine(),
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "fft_threads": 1,  # numpy.fft (pocketfft) runs on the calling thread
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("precompute", "apply-stream", "fourier-ext"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None,
                        help="apply-stream only: operator size (default 65536); for the scaling witness")
    args = parser.parse_args(argv)
    if args.n is not None and args.workload != "apply-stream":
        parser.error("--n applies to apply-stream only")

    if not os.path.isfile(os.path.join(SRC, "prolate", "__init__.py")):
        print(f"perfbench: no library source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    cpus = _cap_threads()
    sys.path.insert(0, SRC)
    import prolate

    if os.path.dirname(os.path.abspath(prolate.__file__)) != os.path.join(SRC, "prolate"):
        print(f"perfbench: imported prolate from {prolate.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import checks
    import tracing
    import workloads

    tracer = tracing.Tracer(bool(args.trace))
    undo = tracing.instrument(tracer) if args.trace else []
    ctx = workloads.Context(args.seed, args.seconds, tracer, checks.Checker())
    try:
        kwargs = {"n": args.n} if args.n is not None else {}
        metrics, info = workloads.WORKLOADS[args.workload](ctx, **kwargs)
    finally:
        tracing.restore(undo)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
                              "peak resident memory of the process")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + (f"-n{args.n}" if args.n else "")
    layer = {}
    if args.trace:
        layer = tracing.layer_metrics(tracer.spans, ctx.units, tracer.span_cost(), ctx.measured_wall)
        tracer.dump(os.path.join(out_dir, stem + ".spans.jsonl"))

    machine = _machine(cpus)
    checker = ctx.checker
    rate = len(checker.failures) / checker.attempted if checker.attempted else 0.0
    print("# machine " + json.dumps(machine))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace} "
          + json.dumps({k: v for k, v in info.items() if k != "reported"}))
    for name, (value, unit, samples, note) in {**metrics, **info.get("reported", {})}.items():
        print(f"# {name} = {value:.6g} {unit} (samples {samples}; {note})")
    print(f"# error_rate = {rate:.6g} ({len(checker.failures)} failed of {checker.attempted} attempted)")
    for failure in checker.failures:
        print(f"# FAILED {failure}")
    for name, (value, unit) in layer.items():
        print(f"# layer {name} = {value:.6g} {unit}")

    chosen = layer if args.trace else {k: v[:2] for k, v in metrics.items()}
    result = {
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in chosen.items()},
    }
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"machine": machine, "workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "info": {k: v for k, v in info.items() if k != "reported"},
                   "end_to_end": {k: list(v) for k, v in metrics.items()},
                   "per_layer": {k: list(v) for k, v in layer.items()},
                   "failures": checker.failures, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
