#!/usr/bin/env bash
# Smoke test: a Release build of the budgeted benches must hold every budget.
#
#   ci/smoke.sh [build-dir]     (default: build-perf)
#
# Each budget is a bound on the bench row it checks (bench::Row in
# bench/bench_util.h): a bench prints a FAIL line per violated row and exits
# non-zero, as it does on its own checks. The seeded benches run a seed
# matrix, every seed held to the budgets. The script keeps going after a
# failure and exits non-zero if any run failed. It adds one check, against a
# committed file: "allocs" within 10% of bench/baselines/, skipped when
# either side is 0 (counting compiled out).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-perf}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$(nproc)" --target fault_chaos cluster_failover upgrade \
  robustness sim_core table1_queueing cluster_scale

out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
cd "$out_dir"

failed=()
run() {
  echo "--- $* ---"
  if ! "$build_dir/bench/$1" "${@:2}" | tee -a smoke.log; then
    failed+=("$*")
  fi
}

for bench in fault_chaos cluster_failover upgrade; do
  for seed in 0x5eed1 0x5eed2 0xfa017; do
    run "$bench" "$seed"
  done
done
run robustness
run sim_core
run table1_queueing
# The sharded thread ladder tops out at the host's core count, capped at 8.
cores="$(nproc)"
run cluster_scale "--threads=$(( cores > 8 ? 8 : cores ))"

allocs() { sed -n 's/^  "allocs": \([0-9]*\),$/\1/p' "$1" 2>/dev/null || true; }
for bench in table1_queueing sim_core cluster_scale; do
  base="$(allocs "$repo_root/bench/baselines/BENCH_$bench.json")"
  cur="$(allocs "BENCH_$bench.json")"
  if (( ${base:-0} == 0 || ${cur:-0} == 0 )); then
    echo "$bench: alloc ceiling skipped (baseline=${base:-0}, current=${cur:-0})"
  elif (( cur * 10 > base * 11 )); then
    echo "FAIL $bench: allocs $cur exceed baseline $base by more than 10%" | tee -a smoke.log
    failed+=("$bench allocs")
  fi
done

if (( ${#failed[@]} > 0 )); then
  echo "smoke FAILED in ${#failed[@]} run(s):"
  printf '  - %s\n' "${failed[@]}"
  grep '^FAIL' smoke.log || true
  exit 1
fi
echo "smoke OK: every bench held every budget"
