#!/usr/bin/env bash
# Run the perf microbench suite and archive the results as
# BENCH_<date>.json (google-benchmark JSON), so the perf trajectory of
# the simulator is tracked PR over PR.
#
# Archived runs are pinned for PR-over-PR comparability:
#   * NTSERV_THREADS=1 — sweep fan-out width must not depend on the host
#     (results are bit-identical anyway, but wall-clock is not);
#   * --benchmark_min_time is pinned (NTSERV_BENCH_MIN_TIME, seconds) so
#     iteration counts do not float with machine speed;
#   * NTSERV_BENCH_REPS (default 1) sets --benchmark_repetitions; with more
#     than one, the archive carries median/cv rows per benchmark, which
#     compare_bench.py uses.
# Compare the two newest archives with bench/compare_bench.py.
#
# Usage: bench/run_bench.sh [build_dir] [out_dir]
set -euo pipefail

build_dir="${1:-build}"
out_dir="${2:-bench/results}"
bin="${build_dir}/bench/perf_microbench"

if [[ ! -x "${bin}" ]]; then
  echo "error: ${bin} not found — build first:" >&2
  echo "  cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j" >&2
  exit 1
fi

mkdir -p "${out_dir}"
# Same-day archives auto-increment an "rN" suffix (BENCH_<date>.json,
# then BENCH_<date>r2.json, ...) so a second run never overwrites the
# first; NTSERV_BENCH_TAG still overrides the suffix explicitly. The
# suffix must sort lexicographically after ".json" strips, which plain
# alphanumerics do.
stamp="$(date +%Y-%m-%d)"
if [[ -n "${NTSERV_BENCH_TAG:-}" ]]; then
  out="${out_dir}/BENCH_${stamp}${NTSERV_BENCH_TAG}.json"
else
  out="${out_dir}/BENCH_${stamp}.json"
  n=2
  while [[ -e "${out}" ]]; do
    out="${out_dir}/BENCH_${stamp}r${n}.json"
    n=$((n + 1))
  done
fi

# Stamp the archive with what produced it: the commit, the host's CPU
# count, the compiler and the build dir's CMAKE_BUILD_TYPE land in the JSON
# "context" object, so a diff of two archives can say *which builds on
# which host* it is comparing (compare_bench.py prints these labels).
# google-benchmark's own "library_build_type" describes the benchmark
# library, not this build.
repo="$(dirname "$0")/.."
git_sha="$(git -C "${repo}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
# Sources that differ from HEAD are marked, so the stamp never names a
# commit whose code the run did not build.
if [[ "${git_sha}" != unknown ]] && ! git -C "${repo}" diff --quiet HEAD -- 2>/dev/null; then
  git_sha="${git_sha}-dirty"
fi
host_cpus="$(nproc 2>/dev/null || echo unknown)"
cache="${build_dir}/CMakeCache.txt"
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[A-Z]*=//p' "${cache}" 2>/dev/null || true)"
cxx="$(sed -n 's/^CMAKE_CXX_COMPILER:[A-Z]*=//p' "${cache}" 2>/dev/null || true)"
compiler="$("${cxx:-c++}" --version 2>/dev/null | head -n 1 || true)"

NTSERV_THREADS=1 "${bin}" \
  --benchmark_format=json \
  --benchmark_min_time="${NTSERV_BENCH_MIN_TIME:-0.25}" \
  --benchmark_repetitions="${NTSERV_BENCH_REPS:-1}" \
  --benchmark_context=git_sha="${git_sha}" \
  --benchmark_context=nproc="${host_cpus}" \
  --benchmark_context=compiler="${compiler:-unknown}" \
  --benchmark_context=build_type="${build_type:-unknown}" \
  --benchmark_out="${out}" \
  --benchmark_out_format=json

echo "wrote ${out}"
