#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark (parent and change).

    python3 perfbench/compare.py PARENT CHANGE [--layers]

PARENT and CHANGE are result archives written by perfbench/run.py
(.perfbench/results.jsonl), or directories holding one. Runs are paired in
archive order, so alternate parent and change runs when collecting them.

For each workload and end-to-end metric it prints both sides' median and
quartiles, the fraction of pairs the change wins (ties count for neither),
and a verdict:
  gain        the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile distance;
  worse       the change's median is worse than the parent's by more than
              the metric's bound from BENCHMARK.json;
  same        neither;
  unresolved  a side's quartile distance exceeds the bound;
  better      as unresolved, but every change run beats every parent run.
It also reports whether the digests of the modelled outputs match on the
seeds both sets ran. --layers adds the per-layer medians of traced runs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    path = Path(path)
    if path.is_dir():
        path = path / "results.jsonl"
    records = []
    with open(path) as f:
        for line in f:
            if line.strip():
                records.append(json.loads(line))
    return records


def runs(records, trace):
    """{workload: [record, ...]} in archive order for one trace setting."""
    out = {}
    for r in records:
        if r["stamp"].get("trace") == trace:
            out.setdefault(r["stamp"]["workload"], []).append(r)
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    lower = better == "lower"
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    win_frac = wins / len(pairs) if pairs else 0.0
    all_better = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    spread = max((pq3 - pq1) / abs(pmed) if pmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    worse_by = ((cmed - pmed) if lower else (pmed - cmed)) / abs(pmed) if pmed else 0.0
    if win_frac >= 0.9 and abs(cmed - pmed) > (pq3 - pq1) and worse_by < 0:
        text = "gain"
    elif spread > bound:
        text = "better" if all_better else "unresolved"
    elif worse_by > bound:
        text = "worse"
    else:
        text = "same"
    return (pq1, pmed, pq3), (cq1, cmed, cq3), win_frac, worse_by, text


def describe(records):
    hosts = sorted({(r["stamp"].get("nproc"), r["stamp"].get("compiler"),
                     r["stamp"].get("build_type"), r["stamp"].get("git_sha"),
                     r["stamp"].get("source_digest")) for r in records})
    return "; ".join(f"nproc {n}, {c}, {b}, git {g}, source {s}" for n, c, b, g, s in hosts)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--layers", action="store_true", help="also print per-layer medians")
    args = parser.parse_args()

    bench = json.loads(BENCHMARK.read_text())
    parent_all, change_all = load(args.parent), load(args.change)
    print(f"parent: {describe(parent_all)}")
    print(f"change: {describe(change_all)}")

    parent, change = runs(parent_all, 0), runs(change_all, 0)
    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        print(f"\n{workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        print(f"  {'metric':24s} {'parent q1/med/q3':>34s} {'change q1/med/q3':>34s}"
              f" {'wins':>5s} {'worse':>7s}  verdict")
        for m in bench["end_to_end"]:
            p = [r["result"]["metrics"][m["name"]]["value"] for r in p_runs
                 if m["name"] in r["result"]["metrics"]]
            c = [r["result"]["metrics"][m["name"]]["value"] for r in c_runs
                 if m["name"] in r["result"]["metrics"]]
            if not p or not c:
                continue
            pq, cq, win_frac, worse_by, text = verdict(p, c, m["better"], m["bound"])
            regressions += text == "worse"
            print(f"  {m['name']:24s} {pq[0]:10.4g} {pq[1]:10.4g} {pq[2]:10.4g}   "
                  f"{cq[0]:10.4g} {cq[1]:10.4g} {cq[2]:10.4g}  {win_frac:4.0%} "
                  f"{worse_by:+7.1%}  {text} (bound {m['bound']:.0%}, {m['unit']})")
        failed = sum(r["result"]["failed"] for r in c_runs)
        if failed:
            print(f"  change failed {failed} operations")

    # Same seed, same modelled outputs: a speed-only change keeps every digest.
    both = [(r, s) for r in parent_all for s in change_all
            if (r["stamp"]["workload"], r["stamp"]["seed"]) ==
            (s["stamp"]["workload"], s["stamp"]["seed"])]
    if both:
        same = sum(1 for r, s in both if r["stamp"].get("digest") == s["stamp"].get("digest"))
        print(f"\nmodelled-output digests equal on {same} of {len(both)} same-seed run pairs")

    if args.layers:
        parent_t, change_t = runs(parent_all, 1), runs(change_all, 1)
        for workload in sorted(set(parent_t) & set(change_t)):
            print(f"\n{workload} per-layer medians (parent -> change):")
            for m in bench["per_layer"]:
                p = [r["result"]["metrics"].get(m["name"], {}).get("value") for r in parent_t[workload]]
                c = [r["result"]["metrics"].get(m["name"], {}).get("value") for r in change_t[workload]]
                p, c = [v for v in p if v is not None], [v for v in c if v is not None]
                if p and c:
                    print(f"  {m['name']:32s} {statistics.median(p):12.6g} -> "
                          f"{statistics.median(c):12.6g} {m['unit']}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
