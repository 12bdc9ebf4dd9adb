#!/usr/bin/env bash
# Performance smoke test: a Release build must still reproduce Table 1
# within its tolerance bands and push simulation events at full speed.
#
#   ci/perf_smoke.sh [build-dir]     (default: build-perf)
#
# Checks, via the BENCH_*.json files the benches emit:
#   1. every bench/table1_queueing row within +/-15% of the paper value
#      (the repo's own EXPERIMENTS.md bands are tighter; this is a smoke
#      test, not the acceptance run);
#   2. bench/sim_core event-core throughput above checked-in floors,
#      including the sharded-engine rows (barrier overhead regression);
#   3. bench/cluster_scale's sharded section: bit-identical across thread
#      counts always, and — only on hosts with enough cores — the parallel
#      speedup above a floor;
#   4. heap allocations per run ("allocs", counted by bench/alloc_count.cc)
#      within 10% of the committed baseline — the pooled data path made the
#      steady state allocation-free, and this keeps it that way.
#
# The floors are ~1/3 of the development-box numbers (docs/perf.md) to
# leave room for slower CI machines while still catching a regression to
# the old priority-queue core (which would land well below them).
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-perf}"

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" -j "$(nproc)" --target table1_queueing sim_core cluster_scale

out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
cd "$out_dir"

# The sharded thread ladder tops out at the host's core count (capped at 8):
# oversubscribed workers can't demonstrate speedup, only determinism.
cores="$(nproc)"
threads=$(( cores > 8 ? 8 : cores ))
"$build_dir/bench/sim_core"
"$build_dir/bench/table1_queueing"
"$build_dir/bench/cluster_scale" "--threads=$threads"

# The observability layer is compiled in unless the build was configured
# with -DNPR_OBS=OFF; only then are the latency sections legitimately absent.
obs_enabled=1
if grep -q "^NPR_OBS:BOOL=OFF" "$build_dir/CMakeCache.txt"; then
  obs_enabled=0
fi

python3 - "$out_dir" "$obs_enabled" "$threads" "$repo_root" <<'EOF'
import json
import sys

out_dir = sys.argv[1]
obs_enabled = sys.argv[2] == "1"
sharded_threads = int(sys.argv[3])
repo_root = sys.argv[4]
failures = []

# --- Table 1: every row within +/-15% of the paper value ---
TABLE1_BAND_PCT = 15.0
with open(f"{out_dir}/BENCH_table1_queueing.json") as f:
    table1 = json.load(f)
for row in table1["rows"]:
    if abs(row["delta_pct"]) > TABLE1_BAND_PCT:
        failures.append(
            f"table1 row {row['label']!r}: measured {row['measured']:.3f} "
            f"{row['unit']} vs paper {row['paper']:.3f} "
            f"({row['delta_pct']:+.1f}%, band +/-{TABLE1_BAND_PCT:.0f}%)")

# --- event core: throughput floors, in M events/sec ---
CORE_FLOORS_MEV = {
    "self-rescheduling fixed deltas (hot path)": 15.0,
    "same-instant fan-out bursts of 32": 15.0,
    "coroutine suspend/resume": 15.0,
    "mixed wheel levels + far-future heap": 8.0,
    # Sharded rows: a single shard behind the window barrier must stay close
    # to the bare hot path, and windowing 8 shards on one thread must not
    # collapse throughput (barrier cost is per-window, not per-event).
    "sharded engines x1 aggregate": 12.0,
    "sharded engines x8, 1 thread": 10.0,
}
with open(f"{out_dir}/BENCH_sim_core.json") as f:
    core = json.load(f)
rates = {row["label"]: row["measured"] for row in core["rows"]}
for label, floor in CORE_FLOORS_MEV.items():
    measured = rates.get(label)
    if measured is None:
        failures.append(f"sim_core row {label!r} missing")
    elif measured < floor:
        failures.append(
            f"sim_core {label!r}: {measured:.1f} Mev/s below floor {floor:.1f}")

# --- observability: per-path latency percentiles (src/obs) ---
# table1's line-rate run attaches an Observer; the JSON must carry a sane
# path-A distribution: every forwarded packet counted, percentiles ordered.
if obs_enabled:
    paths = {row["label"]: row for row in table1.get("path_latency", [])}
    if "path_A" not in paths:
        failures.append("table1 path_latency missing path_A (observer not attached?)")
    for label, row in sorted(paths.items()):
        if row["count"] <= 0:
            failures.append(f"path_latency {label!r}: empty distribution")
        if not (0 < row["p50_ns"] <= row["p95_ns"] <= row["p99_ns"]):
            failures.append(
                f"path_latency {label!r}: percentiles not monotone "
                f"(p50={row['p50_ns']}, p95={row['p95_ns']}, p99={row['p99_ns']})")
        if row["max_ns"] <= 0:
            failures.append(f"path_latency {label!r}: max_ns {row['max_ns']} not positive")

# --- sharded cluster: determinism always, speedup when cores allow ---
# The bench already exits non-zero on a fingerprint divergence; re-checking
# the row here keeps the failure message in one place. The speedup floor is
# deliberately below the ~linear ideal: every short 2 us window ends in a
# barrier across all worker threads, and that per-window barrier (not the
# hub, which runs about 0.5% of the events) is what caps the speedup, so
# 8 threads landing 3x is the docs/perf.md target while 2-4 cores only have
# to beat half their core count.
with open(f"{out_dir}/BENCH_cluster_scale.json") as f:
    scale = json.load(f)
srows = {row["label"]: row["measured"] for row in scale["rows"]}
for label in ("sharded deterministic", "sharded speedup", "sharded threads"):
    if label not in srows:
        failures.append(f"cluster_scale row {label!r} missing")
if srows.get("sharded deterministic", 0.0) != 1.0:
    failures.append("cluster_scale: sharded runs diverged across thread counts")
if sharded_threads >= 2:
    speedup_floor = 3.0 if sharded_threads >= 8 else sharded_threads / 2.0
    speedup = srows.get("sharded speedup", 0.0)
    if speedup < speedup_floor:
        failures.append(
            f"cluster_scale: sharded speedup {speedup:.2f}x at "
            f"t={sharded_threads} below floor {speedup_floor:.2f}x")
else:
    print("perf smoke: single-core host, sharded speedup floor skipped "
          "(determinism still checked)")

# End-to-end sanity: table1 drives the full router model; anything below
# this means the core regression leaked into the real workload. The floor
# reflects the pooled/burst-coalesced data path (~13M events/sec on the
# development box); the old per-packet-allocating path lands under it.
TABLE1_EPS_FLOOR = 4.0e6
eps = table1["events_per_sec"]
if eps < TABLE1_EPS_FLOOR:
    failures.append(
        f"table1_queueing events/sec {eps:.0f} below floor {TABLE1_EPS_FLOOR:.0f}")

# --- allocation ceiling: "allocs" within 10% of the committed baseline ---
# alloc_count.cc reports 0 when the interposers are compiled out (Debug or
# sanitized builds); 0 on either side means "not counted", not "zero cost".
ALLOC_REGRESSION_PCT = 10.0
for bench_name in ("table1_queueing", "sim_core", "cluster_scale"):
    try:
        with open(f"{repo_root}/bench/baselines/BENCH_{bench_name}.json") as f:
            base_allocs = json.load(f).get("allocs", 0)
    except FileNotFoundError:
        base_allocs = 0
    with open(f"{out_dir}/BENCH_{bench_name}.json") as f:
        cur_allocs = json.load(f).get("allocs", 0)
    if base_allocs <= 0 or cur_allocs <= 0:
        print(f"perf smoke: {bench_name} alloc ceiling skipped "
              f"(baseline={base_allocs}, current={cur_allocs})")
        continue
    ceiling = base_allocs * (1.0 + ALLOC_REGRESSION_PCT / 100.0)
    if cur_allocs > ceiling:
        failures.append(
            f"{bench_name} allocs {cur_allocs} exceed baseline {base_allocs} "
            f"by more than {ALLOC_REGRESSION_PCT:.0f}% (ceiling {ceiling:.0f})")

# Steady state must stay allocation-free: the measurement windows of the
# whole Table 1 ladder together may not allocate more than this (pooled
# frames, inline event nodes, in-place MP segmentation — nothing per
# packet). Skipped when counting is compiled out.
STEADY_ALLOCS_CEILING = 10_000
steady = table1.get("steady_allocs", 0)
if table1.get("allocs", 0) > 0 and steady > STEADY_ALLOCS_CEILING:
    failures.append(
        f"table1_queueing steady-state allocs {steady} exceed "
        f"ceiling {STEADY_ALLOCS_CEILING}")

if failures:
    print("perf smoke FAILED:")
    for f in failures:
        print("  -", f)
    sys.exit(1)
print(f"perf smoke OK: table1 rows within +/-{TABLE1_BAND_PCT:.0f}%, "
      f"core floors met, sharded cluster deterministic "
      f"(speedup {srows.get('sharded speedup', 0.0):.2f}x at "
      f"t={sharded_threads}), table1 at {eps/1e6:.1f}M events/sec")
EOF
