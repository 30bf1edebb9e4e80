#!/usr/bin/env bash
# Builds one bench in Release, runs it twice, and installs its BENCH_*.json
# at the repo root only if both runs passed every gate and wrote the same
# digest lines.
#
# Each bench enforces its own gates: it prints one
# `gate <name>: pass|FAIL (<value> vs <threshold>)` line per gate and exits
# 1 if any failed. Each run writes the bench's default --out file in its own
# temp directory. The JSON lines matching `digest|bit_identical` must exist
# and be identical across the two runs (timings may differ; outputs may not).
#
# Usage: scripts/run_bench.sh <target> [bench flags...]
#   e.g. scripts/run_bench.sh bench_streaming
#        scripts/run_bench.sh fault_sweep --seed=7
#   BUILD_DIR=<dir>   build directory (default: build-release)
set -euo pipefail

TARGET="${1:?usage: scripts/run_bench.sh <target> [bench flags...]}"
shift
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="$(realpath -m "${BUILD_DIR:-$ROOT/build-release}")"

cmake -B "$BUILD_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target "$TARGET" -j "$(nproc)"

RUNS="$(mktemp -d)"
trap 'rm -rf "$RUNS"' EXIT
failed=0
for run in a b; do
  mkdir "$RUNS/$run"
  echo "=== run $run: $TARGET $*"
  (cd "$RUNS/$run" && "$BUILD_DIR/bench/$TARGET" "$@") || failed=1
done

digests() { grep -hE 'digest|bit_identical' "$RUNS/$1"/BENCH_*.json || true; }
if [[ -z "$(digests a)" ]]; then
  echo "FAIL: $TARGET wrote no digest or bit_identical lines" >&2
  exit 1
fi
if ! diff <(digests a) <(digests b) >&2; then
  echo "FAIL: the two $TARGET runs wrote different digest lines" >&2
  exit 1
fi
if (( failed )); then
  echo "FAIL: a $TARGET run failed a gate; $ROOT left unchanged" >&2
  exit 1
fi
for out in "$RUNS/a"/BENCH_*.json; do
  cp "$out" "$ROOT/"
  echo "Digests identical across two runs; wrote $ROOT/$(basename "$out")"
done
