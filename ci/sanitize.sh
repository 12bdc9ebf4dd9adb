#!/usr/bin/env bash
# Builds and runs the test suite under sanitizers.
#
#   ci/sanitize.sh [address,undefined|thread] [extra ctest args...]
#
# The default is one combined ASan+UBSan tree, so undefined-behaviour checks
# run on every sweep that checks memory. Each setting gets its own build tree
# (build-address-undefined, build-thread) so switching between them never
# mixes instrumented and plain objects.
#
# `thread` exists for the sharded cluster engine (src/sim/shard_group.h):
# with no extra ctest args it runs the ParallelCluster*, Overload*, and
# Upgrade* suites — the tests that actually exercise cross-thread
# synchronization (the overload suite floods an 8-node sharded cluster with
# per-node governors; the upgrade suite rolls a hitless upgrade across one
# node by node) — so a TSan sweep stays minutes, not hours. Pass explicit
# ctest args to widen it.
set -euo pipefail

san="${1:-address,undefined}"
case "$san" in
  address,undefined|thread) ;;
  *)
    echo "usage: $0 [address,undefined|thread] [ctest args...]" >&2
    exit 2
    ;;
esac
shift || true

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="$repo_root/build-${san//,/-}"

cmake -B "$build_dir" -S "$repo_root" -DNPR_SANITIZE="$san"
if [ "$san" = thread ] && [ "$#" -eq 0 ]; then
  # PacketPool/Packet/IssueBurst ride along: FrameBuf refcounts are the one
  # atomic the packet path relies on (heap-backed frames cross shard
  # threads), so the pool suites belong in every TSan (and ASan) sweep.
  cmake --build "$build_dir" -j "$(nproc)" --target parallel_cluster_test --target overload_test --target upgrade_test --target net_test --target mem_test
  ctest --test-dir "$build_dir" --output-on-failure -R 'ParallelCluster|Overload|Upgrade|PacketPool|Packet\.|MacPort|IssueBurst'
else
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure "$@"
fi
