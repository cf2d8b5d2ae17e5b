#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: light-websearch, rack-loss, uips-sweep (see perfbench/NOTES.md).

Configures and builds perfbench/ (which compiles the simulator library from
the enclosing source tree) into .bench_build/perfbench, runs the driver,
prints its report, and appends the result with its host stamp to
.perfbench/results.jsonl. Traced runs (--trace 1) write their spans,
Perfetto trace and metrics under .perfbench/traces/. The last line of
standard output is the driver's JSON result. Exits non-zero without a
result line if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
STATE = ROOT / ".perfbench"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, timeout):
    """Run a build step; on failure show its output and stop."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        fail(f"failed: {' '.join(cmd)}")


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no simulator sources next to perfbench/ in {ROOT}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not (BUILD / "CMakeCache.txt").is_file():
        run_logged(["cmake", "-S", "perfbench", "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                   BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", str(BUILD), "-j", jobs], BUILD_TIMEOUT_S)
    return BUILD / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the sources the benchmark builds, so a result names its code
    even in a checkout that is not a git repository."""
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    h = hashlib.sha256()
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.trace == "1":
        cmd += ["--out", str(STATE / "traces" / f"{args.workload}-seed{args.seed}")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"driver exited with code {proc.returncode}")
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("driver printed no JSON result")

    # Units come from BENCHMARK.json; the driver must report exactly its list.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer" if args.trace == "1" else "end_to_end"]
    if [m["name"] for m in listed] != list(raw["metrics"]):
        fail(f"driver metrics {list(raw['metrics'])} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": raw["metrics"][m["name"]] or 0, "unit": m["unit"]}
               for m in listed}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}

    STATE.mkdir(exist_ok=True)
    with open(STATE / "results.jsonl", "a") as archive:
        archive.write(json.dumps({"stamp": raw["stamp"], "result": result}) + "\n")

    print("\n".join(lines[:-1]))
    print(f"\nstamp: {json.dumps(raw['stamp'])}")
    print("end-to-end metrics:" if args.trace == "0" else "per-layer metrics:")
    for m in listed:
        value = raw["metrics"][m["name"]]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {m['name']:30s} {shown:>14s} {m['unit']}")
    print(f"  failed operations: {raw['failed']} of {raw['attempted']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
