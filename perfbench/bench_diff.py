#!/usr/bin/env python3
"""Compare two sets of perfbench runs and name what moved.

    python3 perfbench/bench_diff.py BASE_DIR HEAD_DIR [--benchmark BENCHMARK.json]

Each directory holds one subdirectory per workload, and in it one file
per run: the run's stdout, or just its last line (the JSON result).
Untraced runs carry end-to-end metrics, traced runs per-layer metrics;
both may sit side by side.

For every workload present on both sides it lists
  * end-to-end metrics whose head median is worse than the base median
    by more than the metric's bound in BENCHMARK.json (REGRESSED), or
    better by more than it (improved);
  * per-layer metrics whose head median moved from the base median by
    more than the base runs' interquartile range (exact counts, whose
    range is 0, are flagged on any change).
Exits 1 when an end-to-end metric regressed, else 0.  Standard library
only.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(directory):
    """{workload: {metric: [values]}} from DIR/<workload>/<run files>."""
    runs = {}
    for wdir in sorted(p for p in Path(directory).iterdir() if p.is_dir()):
        metrics = {}
        for f in sorted(p for p in wdir.iterdir() if p.is_file()):
            lines = [l for l in f.read_text().splitlines() if l.strip()]
            if not lines:
                continue
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(float(m["value"]))
        if metrics:
            runs[wdir.name] = metrics
    return runs


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def compare(base, head, spec):
    """Rows of (workload, kind, metric, base_median, head_median, verdict)."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better.update({m["name"]: m.get("better", "lower") for m in spec["per_layer"]})
    rows = []
    for workload in sorted(set(base) & set(head)):
        b, h = base[workload], head[workload]
        for name in sorted(set(b) & set(h)):
            mb, mh = statistics.median(b[name]), statistics.median(h[name])
            if name in e2e:
                bound = e2e[name]["bound"] * abs(mb)
                worse = mh - mb if better[name] == "lower" else mb - mh
                if worse > bound:
                    rows.append((workload, "e2e", name, mb, mh, "REGRESSED"))
                elif -worse > bound:
                    rows.append((workload, "e2e", name, mb, mh, "improved"))
            elif abs(mh - mb) > iqr(b[name]):
                up = mh > mb
                good = up == (better.get(name) == "higher")
                rows.append((workload, "layer", name, mb, mh,
                             "moved %s (%s)" % ("up" if up else "down",
                                                "better" if good else "worse")))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--benchmark", default=str(
        Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = ap.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    base, head = load_runs(args.base), load_runs(args.head)
    rows = compare(base, head, spec)
    for workload in sorted(set(base) & set(head)):
        nb = max(len(v) for v in base[workload].values())
        nh = max(len(v) for v in head[workload].values())
        print("== %s (runs per metric: base %d, head %d)" % (workload, nb, nh))
        hits = [r for r in rows if r[0] == workload]
        for _, kind, name, mb, mh, verdict in hits:
            change = (mh - mb) / mb * 100 if mb else float("inf")
            print("  %-5s %-44s %14.6g -> %-14.6g %+8.2f%%  %s"
                  % (kind, name, mb, mh, change, verdict))
        if not hits:
            print("  nothing moved")
    return 1 if any(r[5] == "REGRESSED" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
