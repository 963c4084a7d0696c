"""Batch experiment driver: eigenvalue gap counts, timings, extension demos, factor files.

The experiment subcommands emit RFC-4180-style CSV (UTF-8, LF, header row)
to --out (stdout by default), precompute writes a factor file there and
load-check prints one summary line.  Outputs are deterministic (fourier-ext's
for a fixed --seed) except the timing columns.  Exit codes: 0 success, 1
validation error, 2 IO or memory error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import math
import sys
import time
from dataclasses import fields

import numpy as np

from .dpss import FULL_BASIS_MAX_N, PreconditionViolated, slepian_plan, transition_window
from .fft_kernels import _real, _size, prolate_column
from .fourier_ext import FourierExtensionConfig, run_fourier_extension
from .lowrank import SpectralFactor, transition_count_budget
from .operators import (
    FactorFileError,
    FastFactorization,
    FastProjector,
    FastPseudoinverse,
    FastTikhonov,
    SlepianParams,
    describe_operator,
    operator_from_bytes,
    operator_to_bytes,
    save_operator,
)

__all__ = ["main"]

_MODES = {
    "project": FastProjector,
    "factorize": FastFactorization,
    "pinv": FastPseudoinverse,
    "tikhonov": FastTikhonov,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


def _float_list(text):
    return tuple(float(v) for v in text.split(","))


def _build_parser():
    parser = _Parser(
        prog="prolate",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-", help="output path, '-' for stdout (default)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gap-count",
        parents=[out],
        help="count eigenvalues between the cluster plateaus",
        description="CSV columns: n, w, eps, count (eigenvalues strictly inside "
        "(eps, 1-eps)), cor1_bound ((8/pi^2 log(8n)+12) log(15/eps)), asymptotic "
        "((2/pi^2) log(n) log(1/eps - 1)).",
    )
    p.add_argument("--n", type=_int_list, default=(256, 512, 1024, 2048, 4096))
    p.add_argument("--w", type=_float_list, default=(0.25,))
    p.add_argument("--eps", type=_float_list, default=(1e-3, 1e-6, 1e-9))

    p = sub.add_parser(
        "bench",
        parents=[out],
        help="setup/apply timings for the fast operators",
        description="CSV columns: n, w, eps, mode, setup_seconds (cold build), apply_seconds.  "
        "Medians over --trials; every apply takes one fixed random input.",
    )
    p.add_argument("--mode", choices=sorted(_MODES), action="append", default=None)
    p.add_argument("--n", type=_int_list, default=(1024, 4096, 16384))
    p.add_argument("--w", type=_float_list, default=(0.25,))
    p.add_argument("--eps", type=_float_list, default=(1e-6,))
    p.add_argument("--alpha", type=float, default=1e-2, help="tikhonov weight (default 1e-2)")
    p.add_argument("--trials", type=int, default=3, help="timing repetitions (default 3)")

    p = sub.add_parser(
        "fourier-ext",
        parents=[out],
        help="Gibbs-suppression comparison on the extension least-squares problem",
        description="CSV columns: m, method (fourier | ext_exact_pinv | ext_fast_pinv | "
        "ext_exact_tik | ext_fast_tik), rel_rms (relative RMS error on a uniform "
        "evaluation grid of [-1, 1]), seconds (coefficient pipeline time).",
    )
    p.add_argument("--seed", type=int, default=12345, help="RNG seed (default 12345)")
    ext = FourierExtensionConfig()  # every flag is named after a field and defaults to it
    p.add_argument("--m", dest="m_values", metavar="M", type=_int_list, default=ext.m_values)
    p.add_argument("--t-ext", type=float, default=ext.t_ext)
    p.add_argument("--pinv-threshold", type=float, default=ext.pinv_threshold)
    p.add_argument("--fast-eps", type=float, default=ext.fast_eps)
    p.add_argument("--alpha", type=float, default=ext.alpha)
    p.add_argument("--eval-points", type=int, default=ext.eval_points)
    p.add_argument("--constant", dest="constant_target", action="store_true", help="replace the target with f = 1")

    p = sub.add_parser(
        "linear-predict",
        parents=[out],
        help="one-step linear prediction of a bandlimited process",
        description="CSV columns: n, w, eps, coeff_l2, coeff_linf, topk_residual "
        f"(norm of B a - b on the leading-k Slepian vectors; blank above n = {FULL_BASIS_MAX_N}).",
    )
    p.add_argument("--n", type=_int_list, default=(512,))
    p.add_argument("--w", type=_float_list, default=(0.25,))
    p.add_argument("--eps", type=_float_list, default=(1e-6,))

    p = sub.add_parser(
        "precompute",
        parents=[out],
        help="build an operator and persist its factors",
        description="Writes the binary factor file to --out (required, not '-').",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--kind", choices=sorted(_MODES), required=True)
    p.add_argument("--alpha", type=float, default=1e-2)
    p.add_argument("--k", type=int, default=None)

    p = sub.add_parser(
        "load-check",
        help="load a factor file, verify it round-trips, print a summary",
    )
    p.add_argument("path")

    return parser


def _write_rows(path, header, rows):
    """The CSV of header and rows, to path or, at '-', to stdout."""
    with contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _grid(args):
    """The (n, w, eps) points of --n, --w and --eps, every value checked before the first point runs."""
    return list(itertools.product([_size(n, "signal lengths must be at least 2", least=2) for n in args.n],
                                  [_real(w, 0.0, 0.5, "half-bandwidths must lie in (0, 1/2)") for w in args.w],
                                  [_real(eps, 0.0, 0.5, "tolerances must lie in (0, 1/2)") for eps in args.eps]))


def _cmd_gap_count(args):
    rows = []
    for n, w, eps in _grid(args):
        count = transition_window(n, w, eps, 1.0 - eps)[1].size
        bound = transition_count_budget(n, eps)
        asym = 2.0 / math.pi**2 * math.log(n) * math.log(1.0 / eps - 1.0)
        rows.append((n, w, eps, count, bound, asym))
    _write_rows(args.out, ["n", "w", "eps", "count", "cor1_bound", "asymptotic"], rows)
    return 0


def _build_operator(mode, n, w, eps, alpha, k=None):
    params = SlepianParams.create(n, w, eps, k=k)
    if mode == "tikhonov":
        return FastTikhonov.build(params, alpha)
    return _MODES[mode].build(params)


def _median_time(fn, trials, reset=lambda: None):
    times = []
    for _ in range(trials):
        reset()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _cmd_bench(args):
    if args.trials < 1:
        raise ValueError("trials must be at least 1")
    points, modes = _grid(args), args.mode or sorted(_MODES)
    rng, rows = np.random.default_rng(0), []
    for n, w, eps in points:
        for mode in modes:
            x = rng.standard_normal(n)
            # a cold plan before each trial, so that no trial reuses another's solved pairs
            setup = _median_time(lambda: _build_operator(mode, n, w, eps, args.alpha), args.trials,
                                 slepian_plan.cache_clear)
            op = _build_operator(mode, n, w, eps, args.alpha)
            apply_s = _median_time(lambda: op.apply(x), args.trials)
            rows.append((n, w, eps, mode, setup, apply_s))
    _write_rows(args.out, ["n", "w", "eps", "mode", "setup_seconds", "apply_seconds"], rows)
    return 0


def _extension_config(args) -> FourierExtensionConfig:
    """The config of the parsed fourier-ext flags."""
    return FourierExtensionConfig(**{f.name: getattr(args, f.name) for f in fields(FourierExtensionConfig)})


def _cmd_fourier_ext(args):
    rows = run_fourier_extension(_extension_config(args), seed=args.seed)
    _write_rows(args.out, ["m", "method", "rel_rms", "seconds"], rows)
    return 0


def prediction_rhs(n: int, w: float) -> np.ndarray:
    """One-step prediction's b[m] = sin(2 pi w (n-m)) / (pi (n-m)): the prolate column's tail, reversed."""
    return prolate_column(n + 1, w)[:0:-1]


def _cmd_linear_predict(args):
    rows = []
    for n, w, eps in _grid(args):
        b = prediction_rhs(n, w)
        op = FastPseudoinverse.build(SlepianParams.create(n, w, eps))
        a = op.apply(b)
        resid = ""
        if n <= FULL_BASIS_MAX_N:
            plan, k = slepian_plan(n, w), op.params.k
            lead = SpectralFactor(n, 0, plan.pairs(0, k - 1)[0], np.ones(k))
            resid = float(np.linalg.norm(lead.adjoint_apply(plan.b_op.apply(a) - b)))
        rows.append((n, w, eps, float(np.linalg.norm(a)), float(np.max(np.abs(a))), resid))
    _write_rows(args.out, ["n", "w", "eps", "coeff_l2", "coeff_linf", "topk_residual"], rows)
    return 0


def _cmd_precompute(args):
    if args.out == "-":
        raise ValueError("precompute requires --out to be a file path")
    op = _build_operator(args.kind, args.n, args.w, args.eps, args.alpha, k=args.k)
    save_operator(op, args.out)
    print(describe_operator(op), file=sys.stderr)
    return 0


def _cmd_load_check(args):
    with open(args.path, "rb") as fh:
        original = fh.read()
    op = operator_from_bytes(original)
    if operator_to_bytes(op) != original:
        raise FactorFileError("file does not round-trip bit-identically")
    print(describe_operator(op))
    return 0


_COMMANDS = {
    "gap-count": _cmd_gap_count,
    "bench": _cmd_bench,
    "fourier-ext": _cmd_fourier_ext,
    "linear-predict": _cmd_linear_predict,
    "precompute": _cmd_precompute,
    "load-check": _cmd_load_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, PreconditionViolated, RuntimeError) as exc:
        print(f"prolate: {exc}", file=sys.stderr)
        return 1
    except (FactorFileError, OSError, MemoryError) as exc:
        print(f"prolate: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
