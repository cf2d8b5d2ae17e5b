#!/usr/bin/env python3
"""Diff the two newest bench/results/BENCH_*.json archives.

Prints a per-benchmark table of real-time deltas between the previous and
the newest google-benchmark JSON archive written by bench/run_bench.sh.
Archives run with NTSERV_BENCH_REPS > 1 are compared by their per-benchmark
median, and each time carries the repetitions' coefficient of variation
(±cv), so a delta can be read against the spread.
Intended as a non-gating trend report (CI runs it when at least two
archives exist); it always exits 0 unless the files are unreadable.

When $GITHUB_STEP_SUMMARY is set (GitHub Actions), the same table is also
appended there as markdown, so the trend shows up on the workflow run
page without digging through logs.

Usage: bench/compare_bench.py [results_dir]   (default: bench/results)
"""

import glob
import json
import os
import sys


def load_benchmarks(path):
    """Map benchmark name -> (real_time, time_unit, cv).

    Repetitions of one benchmark share its name, so when the archive has
    a median aggregate row for a benchmark, that row stands for it and the
    matching cv row gives the spread. Single-run archives have plain
    iteration rows only; their cv is None.
    """
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rows = doc.get("benchmarks", [])
    out = {}
    for b in rows:
        if b.get("run_type", "iteration") == "iteration":
            out[b.get("run_name", b["name"])] = (float(b["real_time"]),
                                                 b.get("time_unit", "ns"), None)
    cvs = {b["run_name"]: float(b["real_time"]) for b in rows
           if b.get("aggregate_name") == "cv"}
    for b in rows:
        if b.get("aggregate_name") == "median":
            name = b["run_name"]
            out[name] = (float(b["real_time"]), b.get("time_unit", "ns"), cvs.get(name))
    return out


def run_label(path):
    """Human label for one archive from the context run_bench.sh embeds.

    google-benchmark copies --benchmark_context=key=value pairs into the
    JSON "context" object; older archives predate the stamping, so every
    key is optional.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            ctx = json.load(f).get("context", {})
    except (OSError, ValueError):
        ctx = {}
    parts = [os.path.basename(path)]
    if ctx.get("git_sha"):
        parts.append(f"sha {ctx['git_sha']}")
    for key in ("nproc", "compiler", "build_type"):
        if ctx.get(key):
            parts.append(f"{key} {ctx[key]}")
    if ctx.get("wakeup_list"):
        parts.append(f"wakeup_list={ctx['wakeup_list']}")
    return ", ".join(parts)


def time_text(t, unit, cv):
    """One archive's time for a benchmark, with its ±cv when repeated."""
    text = f"{t:.1f}{unit}"
    return text if cv is None else f"{text} ±{cv * 100.0:.1f}%"


def build_rows(old, new):
    """Rows of (name, old_text, new_text, delta_text)."""
    rows = []
    for name in sorted(new):
        t_new, unit, cv_new = new[name]
        new_text = time_text(t_new, unit, cv_new)
        if name not in old:
            rows.append((name, "—", new_text, "new"))
            continue
        t_old, old_unit, cv_old = old[name]
        old_text = time_text(t_old, old_unit, cv_old)
        if old_unit != unit or t_old == 0.0:
            rows.append((name, old_text, new_text, "n/a"))
            continue
        delta = (t_new - t_old) / t_old * 100.0
        rows.append((name, old_text, new_text, f"{delta:+.1f}%"))
    for name in sorted(set(old) - set(new)):
        rows.append((name, "(removed)", "", ""))
    return rows


def write_step_summary(title, rows):
    """Append a markdown table to $GITHUB_STEP_SUMMARY when present."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    lines = [f"### Bench trajectory: {title}", ""]
    lines.append("| benchmark | old | new | delta |")
    lines.append("|---|---:|---:|---:|")
    for name, t_old, t_new, delta in rows:
        lines.append(f"| `{name}` | {t_old} | {t_new} | {delta} |")
    lines.append("")
    with open(summary_path, "a", encoding="utf-8") as f:
        f.write("\n".join(lines))


def main():
    results_dir = sys.argv[1] if len(sys.argv) > 1 else "bench/results"
    archives = sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json")))
    if len(archives) < 2:
        print(f"compare_bench: fewer than two archives in {results_dir}; nothing to diff")
        return 0

    old_path, new_path = archives[-2], archives[-1]
    old = load_benchmarks(old_path)
    new = load_benchmarks(new_path)
    title = f"{os.path.basename(old_path)} -> {os.path.basename(new_path)}"
    print(f"compare_bench: {title}")
    print(f"  old: {run_label(old_path)}")
    print(f"  new: {run_label(new_path)}")

    rows = build_rows(old, new)
    name_w = max((len(r[0]) for r in rows), default=4)
    print(f"{'benchmark':<{name_w}}  {'old':>20}  {'new':>20}  {'delta':>8}")
    for name, t_old, t_new, delta in rows:
        print(f"{name:<{name_w}}  {t_old:>20}  {t_new:>20}  {delta:>8}")

    write_step_summary(title, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
