#!/usr/bin/env bash
# Seeded randomized simulation sweep (DESIGN.md §15, docs/FAULT_MODEL.md).
#
# Runs `csod sim` over a deterministic scenario set (seed0..seed0+N-1),
# twice, and diffs the combined digests: the sweep must be a pure function
# of the seeds, so any digest drift between the two runs is itself a bug
# (nondeterminism in a protocol, the engine, or the harness) even when
# every individual invariant held. Also replays the regression corpus.
#
# Exit is nonzero on any invariant violation, corpus failure, or
# double-run digest mismatch. A failing scenario prints a one-line
# `csod sim --replay SEED` recipe; add reproduced seeds to
# tests/sim_corpus/regressions.txt.
#
# Usage: scripts/run_simulation.sh [scenarios] [seed0]
#   scenarios  number of seeded scenarios (default 200, the CI floor)
#   seed0      first seed (default 1 — the pinned CI scenario set)
# Env:
#   BUILD_DIR  build tree to use (default: $ROOT/build)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SCENARIOS="${1:-200}"
SEED0="${2:-1}"
BUILD_DIR="${BUILD_DIR:-$ROOT/build}"
CSOD="$BUILD_DIR/tools/csod"

if [[ ! -x "$CSOD" ]]; then
  echo "run_simulation: building csod in $BUILD_DIR" >&2
  cmake -B "$BUILD_DIR" -S "$ROOT" >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target csod >/dev/null
fi

echo "== simulation sweep: $SCENARIOS scenarios from seed0=$SEED0 (run 1) =="
OUT1="$("$CSOD" sim --scenarios="$SCENARIOS" --seed0="$SEED0")"
echo "$OUT1"

echo "== run 2 (determinism check) =="
OUT2="$("$CSOD" sim --scenarios="$SCENARIOS" --seed0="$SEED0")"

DIGEST1="$(echo "$OUT1" | grep -o 'combined-digest=[0-9a-f]*')"
DIGEST2="$(echo "$OUT2" | grep -o 'combined-digest=[0-9a-f]*')"
echo "run1: $DIGEST1"
echo "run2: $DIGEST2"
if [[ "$DIGEST1" != "$DIGEST2" ]]; then
  echo "run_simulation: FAIL — combined digest differs between identical" \
       "runs; the sweep outcome is not a pure function of the seeds" >&2
  diff <(echo "$OUT1") <(echo "$OUT2") >&2 || true
  exit 1
fi

echo "== regression corpus =="
"$CSOD" sim --corpus="$ROOT/tests/sim_corpus/regressions.txt"

echo "run_simulation: OK ($SCENARIOS scenarios ×2, corpus, digest $DIGEST1)"
