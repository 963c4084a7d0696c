"""Tables from traced runs: ROADMAP baseline comparison and the 2^14 -> 2^16 scaling witness.

    python3 perfbench/analyze.py baseline perfbench/out/apply-stream-seed1-trace1.spans.jsonl
    python3 perfbench/analyze.py scaling  perfbench/out/precompute-seed1-trace1.spans.jsonl \\
        perfbench/out/apply-stream-seed1-trace1.spans.jsonl perfbench/out/apply-stream-seed1-trace1-n16384.spans.jsonl

Reads span files written by ``run.py --trace 1`` and prints markdown tables.
Nothing here gates; the numbers are reported in perfbench/NOTES.md.
"""

from __future__ import annotations

import json
import math
import statistics
import sys

# ROADMAP "Baseline measured at this re-anchor" (w = 0.25, eps = 1e-6, n = 2^16 unless noted)
ROADMAP = {
    "projector build": 4.49,
    "eigh_tridiagonal in projector build": 2.76,
    "eigh_tridiagonal calls in projector build": 3,
    "apply_block in projector build": 1.48,
    "projector apply, real x (ms)": 8.4,
    "projector apply, complex x (ms)": 35.0,
    "compress (ms)": 87.0,
    "decompress (ms)": 24.0,
    "Fourier correction factor (MB)": 382.0,
}


def load(path):
    with open(path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    return spans


def build_root(spans):
    """For each span, the enclosing operators.build.* span (or None)."""
    root = [None] * len(spans)
    for sp in spans:  # parents precede children
        if sp["name"].startswith("operators.build."):
            root[sp["id"]] = sp["id"]
        elif sp["parent"] is not None:
            root[sp["id"]] = root[sp["parent"]]
    return root


def dur(sp):
    return sp["end"] - sp["start"]


def within_builds(spans, kind, n, w=0.25, eps=1e-6):
    """Per build of (kind, n, w, eps): the build time and its descendants' time by span name."""
    root = build_root(spans)
    out = []
    for sp in spans:
        a = sp["attrs"]
        if sp["name"] == f"operators.build.{kind}" and a.get("n") == n and a.get("w") == w and a.get("eps") == eps:
            parts = {}
            for child in spans:
                if root[child["id"]] == sp["id"] and child["id"] != sp["id"]:
                    got = parts.setdefault(child["name"], [0.0, 0])
                    got[0] += dur(child)
                    got[1] += 1
            out.append((dur(sp), parts, a))
    return out


def _median(values):
    return statistics.median(values) if values else float("nan")


def request_p50_ms(spans, name):
    return 1e3 * _median([dur(sp) for sp in spans if sp["name"] == name])


def children_p50_ms(spans, parent_name, child_name):
    per_parent = {}
    for sp in spans:
        if sp["name"] == parent_name:
            per_parent[sp["id"]] = 0.0
    for sp in spans:
        if sp["parent"] in per_parent and sp["name"] == child_name:
            per_parent[sp["parent"]] += dur(sp)
    return 1e3 * _median(list(per_parent.values()))


def baseline(path):
    spans = load(path)
    builds = within_builds(spans, "projector", 2**16)
    if not builds:
        sys.exit("no projector build at n = 2^16, w = 0.25, eps = 1e-6 in this span file")
    t, parts, _ = builds[0]
    fact = within_builds(spans, "factorization", 2**16)
    fourier_mb = float("nan")
    if fact:
        a = fact[0][2]
        fourier_mb = a["fourier_rank"] * 2**16 * 16 * 2 / 1e6
    ours = {
        "projector build": t,
        "eigh_tridiagonal in projector build": parts.get("dpss.eigh_tridiagonal", [0.0])[0],
        "eigh_tridiagonal calls in projector build": parts.get("dpss.eigh_tridiagonal", [0, 0])[1],
        "apply_block in projector build": parts.get("fft_kernels.apply_block", [0.0])[0],
        "projector apply, real x (ms)": request_p50_ms(spans, "operators.apply.projector.real"),
        "projector apply, complex x (ms)": request_p50_ms(spans, "operators.apply.projector.complex"),
        "compress (ms)": request_p50_ms(spans, "operators.compress"),
        "decompress (ms)": request_p50_ms(spans, "operators.decompress"),
        "Fourier correction factor (MB)": fourier_mb,
    }
    rfft = children_p50_ms(spans, "operators.apply.projector.real", "fft_kernels.apply_real")
    lowrank = children_p50_ms(spans, "operators.apply.projector.real", "lowrank.factor_apply")
    print("| row | ROADMAP | this benchmark | ratio (benchmark / ROADMAP) |")
    print("|---|---|---|---|")
    for key, ref in ROADMAP.items():
        print(f"| {key} | {ref:g} | {ours[key]:.4g} | {ours[key] / ref:.2f} |")
    print(f"| projector real apply: Toeplitz rfft / low-rank (ms) | 5.7 / 2.8 | {rfft:.3g} / {lowrank:.3g} | "
          f"{rfft / 5.7:.2f} / {lowrank / 2.8:.2f} |")


def scaling(precompute_path, stream_big, stream_small):
    pre = load(precompute_path)
    pred_build = 4 * (16 / 14) ** 2
    pred_apply = 4 * 16 / 14
    print(f"Build, w = 0.25, eps = 1e-6; prediction n log^2 n: {pred_build:.2f}x per 4x n")
    print("| kind | layer | 2^14 (s) | 2^16 (s) | ratio |")
    print("|---|---|---|---|---|")
    for kind in ("projector", "factorization", "pinv", "tikhonov"):
        small, big = within_builds(pre, kind, 2**14), within_builds(pre, kind, 2**16)
        if not small or not big:
            continue
        (ts, ps, _), (tb, pb, _) = small[0], big[0]
        print(f"| {kind} | whole build | {ts:.4g} | {tb:.4g} | {tb / ts:.2f} |")
        for name in sorted(set(ps) | set(pb)):
            a, b = ps.get(name, [0.0])[0], pb.get(name, [0.0])[0]
            if max(a, b) >= 0.01:
                ratio = f"{b / a:.2f}" if a > 0 else "n/a"
                print(f"| {kind} | {name} | {a:.4g} | {b:.4g} | {ratio} |")
    big, small = load(stream_big), load(stream_small)
    print()
    print(f"Apply, per-call medians; prediction n log n: {pred_apply:.2f}x per 4x n")
    print("| span | 2^14 (ms) | 2^16 (ms) | ratio |")
    print("|---|---|---|---|")
    names = sorted({sp["name"] for sp in big if sp["phase"] == "timed" and not sp["name"].startswith("bench.")})
    for name in names:
        a = 1e3 * _median([dur(sp) for sp in small if sp["name"] == name and sp["phase"] == "timed"])
        b = 1e3 * _median([dur(sp) for sp in big if sp["name"] == name and sp["phase"] == "timed"])
        if not math.isnan(a):
            print(f"| {name} | {a:.4g} | {b:.4g} | {b / a:.2f} |")


def main(argv):
    if len(argv) == 2 and argv[0] == "baseline":
        baseline(argv[1])
    elif len(argv) == 4 and argv[0] == "scaling":
        scaling(*argv[1:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])
