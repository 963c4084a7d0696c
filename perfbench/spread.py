"""Run-to-run spread of the benchmark: one run per seed, then each metric's quartiles.

    python3 perfbench/spread.py --workload apply-stream --seeds 1-10

Runs ``perfbench/run.py`` untraced once per seed, one run at a time, and prints for
every metric the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="range such as 1-10")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values, walls, bad = {}, [], []
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        walls.append(time.perf_counter() - t0)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            bad.append((seed, proc.returncode, proc.stderr[-500:], [ln for ln in lines if "FAILED" in ln]))
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: exit {proc.returncode} wall {walls[-1]:.1f} s", file=sys.stderr, flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "wall_s": walls, "failed_runs": bad, "metrics": {}}
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary["metrics"][name] = {"values": vals, "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bounds[name]:>6}")
    print(f"run wall: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s; failed runs: {len(bad)}")
    for item in bad:
        print("failed run:", item)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-{args.workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
