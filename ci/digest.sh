#!/usr/bin/env bash
# Digest check: a change that must not move a simulated result leaves every
# perfbench workload's digest bit-identical to its parent's.
#
#   ci/digest.sh <parent-rev>
#
# Extracts <parent-rev> with `git archive` into a temporary directory, runs
# `perfbench/run.py --seconds 1 --trace 0` there and in this working tree for
# every workload at seeds 7, 11 and 90210, and diffs the `digest` lines
# (perfbench/README.md, "The digest"). Exits non-zero on any difference, on
# a run that fails, or on a run that prints no digest. Each tree builds its
# own Release npr_perfbench in its .bench_build/perfbench; the parent's goes
# away with the temporary directory.
set -euo pipefail

if (( $# != 1 )); then
  echo "usage: $0 <parent-rev>" >&2
  exit 2
fi
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
parent="$(git -C "$repo_root" rev-parse --verify "$1^{commit}")"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git -C "$repo_root" archive "$parent" | tar -x -C "$work/parent"

seeds=(7 11 90210)
workloads=(table1 service_mix cluster8 overload_chaos)
failed=0

# Writes one "seed <s> digest <workload> <fnv64>: <text>" line per run of
# tree $1 to file $2.
digests() {
  local tree="$1" out="$2"
  : > "$out"
  for seed in "${seeds[@]}"; do
    for workload in "${workloads[@]}"; do
      if ! (cd "$tree" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
              --seconds 1 --trace 0) > "$work/run.out" 2> "$work/run.err"; then
        echo "FAIL $tree: $workload seed $seed exited non-zero" >&2
        tail -n 20 "$work/run.err" >&2
        failed=1
      fi
      if ! grep -q '^digest ' "$work/run.out"; then
        echo "FAIL $tree: $workload seed $seed printed no digest" >&2
        failed=1
      fi
      sed -n "s/^digest /seed $seed digest /p" "$work/run.out" >> "$out"
    done
  done
}

echo "parent $parent" >&2
digests "$work/parent" "$work/parent.digests"
echo "change $repo_root" >&2
digests "$repo_root" "$work/change.digests"

if ! diff "$work/parent.digests" "$work/change.digests"; then
  echo "FAIL: digests differ from $parent" >&2
  failed=1
fi
if (( failed )); then
  exit 1
fi
cut -d: -f1 "$work/change.digests"
echo "digests identical to $parent: ${#workloads[@]} workloads x ${#seeds[@]} seeds"
