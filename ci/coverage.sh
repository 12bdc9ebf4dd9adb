#!/usr/bin/env bash
# Line-coverage gate over the test suite.
#
#   ci/coverage.sh [build-dir]     (default: build-cov)
#
# Builds with -DNPR_COVERAGE=ON (gcc --coverage), runs ctest, then walks the
# accumulated .gcda counters with `gcov --json-format` (no gcovr/lcov needed)
# and enforces two floors:
#   1. src/obs/ — the observability layer must stay >= 90% line coverage
#      (it is the evidence everything else relies on when something breaks);
#   2. src/ overall — a checked-in no-regression floor for the whole tree.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build-cov}"

cmake -B "$build_dir" -S "$repo_root" -DNPR_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug
cmake --build "$build_dir" -j "$(nproc)"
# Quiet when every test passes; a failing test prints ctest's log and stops.
ctest --test-dir "$build_dir" -j "$(nproc)" --output-on-failure >"$build_dir/ctest.log" 2>&1 ||
  { cat "$build_dir/ctest.log"; echo "coverage: ctest failed" >&2; exit 1; }

python3 - "$repo_root" "$build_dir" <<'EOF'
import collections
import glob
import gzip
import json
import os
import subprocess
import sys
import tempfile

repo_root, build_dir = sys.argv[1], sys.argv[2]

OBS_FLOOR_PCT = 90.0    # src/obs/: the layer this gate exists for
REPO_FLOOR_PCT = 80.0   # src/ overall: no-regression floor

# Walk every object's counters, test and bench executables included: inline
# functions are COMDAT-folded, so a header inline's counts land in whichever
# TU's copy the linker kept — often the test object. Lines are attributed by
# *source* path below, so only src/ code is measured either way.
gcda = sorted(glob.glob(f"{build_dir}/**/*.gcda", recursive=True))
if not gcda:
    sys.exit(f"coverage: no .gcda under {build_dir} (did ctest run?)")

# line -> hit, aggregated across every object that compiled the file.
hits = collections.defaultdict(lambda: collections.defaultdict(bool))
with tempfile.TemporaryDirectory() as tmp:
    for g in gcda:
        subprocess.run(["gcov", "--json-format", g], cwd=tmp, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        for out in glob.glob(f"{tmp}/*.gcov.json.gz"):
            with gzip.open(out, "rt") as f:
                data = json.load(f)
            for fi in data.get("files", []):
                path = os.path.normpath(os.path.join(repo_root, fi["file"]))
                rel = os.path.relpath(path, repo_root)
                if rel.startswith(".."):  # system/third-party headers
                    continue
                if not rel.startswith("src/"):
                    continue
                for line in fi.get("lines", []):
                    hits[rel][line["line_number"]] |= line["count"] > 0
            os.remove(out)

def cover(prefix):
    total = hit = 0
    files = {}
    for rel, lines in sorted(hits.items()):
        if not rel.startswith(prefix):
            continue
        t, h = len(lines), sum(lines.values())
        total += t
        hit += h
        files[rel] = (h, t)
    return (100.0 * hit / total if total else 0.0), files

obs_pct, obs_files = cover("src/obs/")
repo_pct, _ = cover("src/")

print(f"coverage: src/obs {obs_pct:.1f}% (floor {OBS_FLOOR_PCT:.0f}%), "
      f"src overall {repo_pct:.1f}% (floor {REPO_FLOOR_PCT:.0f}%)")
for rel, (h, t) in sorted(obs_files.items()):
    print(f"  {rel}: {100.0 * h / t:.1f}% ({h}/{t} lines)")

failures = []
if obs_pct < OBS_FLOOR_PCT:
    failures.append(f"src/obs line coverage {obs_pct:.1f}% below floor {OBS_FLOOR_PCT:.0f}%")
if repo_pct < REPO_FLOOR_PCT:
    failures.append(f"src overall coverage {repo_pct:.1f}% below floor {REPO_FLOOR_PCT:.0f}%")
if failures:
    print("coverage FAILED:")
    for f in failures:
        print("  -", f)
    sys.exit(1)
print("coverage OK")
EOF
