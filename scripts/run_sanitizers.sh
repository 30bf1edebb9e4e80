#!/usr/bin/env bash
# Builds the tree under a sanitizer and runs the tier-1 test suite.
# ThreadSanitizer is the default: it is the one that exercises the
# persistent thread pool's dispatch/park/steal protocol.
#
# Usage: scripts/run_sanitizers.sh [thread|address] [ctest_filter_regex]
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SAN="${1:-thread}"
FILTER="${2:-}"
BUILD_DIR="${BUILD_DIR:-$ROOT/build-${SAN}san}"

cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSOD_SANITIZE="$SAN"
cmake --build "$BUILD_DIR" -j "$(nproc)"

cd "$BUILD_DIR"
if [[ -n "$FILTER" ]]; then
  ctest --output-on-failure -j "$(nproc)" -R "$FILTER"
else
  ctest --output-on-failure -j "$(nproc)"
fi

# The fault-injection suite exercises the Channel/retry path that the CS
# protocols now share; rerun it explicitly so a filtered invocation still
# gets sanitizer coverage of the failure-handling code.
ctest --output-on-failure -j "$(nproc)" -R 'Fault|Degraded|RetryPolicy'

# Parallel MapReduce engine pass: map tasks, shuffle build, and reduce
# tasks all run concurrently on the pool now, so the engine/jobs suites
# (including the cross-thread-limit bit-identity sweeps) and the columnar
# shuffle substrate (arena pages, column chunks, interner, radix scatter —
# placement-new/manual-destruction code that ASan, not just TSan, must
# see) get an explicit rerun even when the main invocation was filtered.
ENGINE_FILTER='EngineTest|EngineDeterminism|EngineStress|DefaultPartition'
ENGINE_FILTER+='|CostModel|JobTest|Jobs|ParallelFor'
ENGINE_FILTER+='|Arena|ColumnChunks|KeyInterner|ReduceGroups|ScatterPartitions'
ctest --output-on-failure -j "$(nproc)" -R "$ENGINE_FILTER"

# Streaming service pass: the serve suite is the one place where reader
# threads (snapshot queries) race the ingest/advance path by design —
# swap-on-advance snapshot publication, the atomics backing
# current_epoch/version, the tenant-handle lifetime (RemoveTenant racing
# in-flight queries), and the CLI demo's analyst thread all need TSan eyes
# even when the main invocation was filtered. The wire surface rides along:
# NetServer is shared across connections (atomic counters), ServeConnection
# runs on its own thread in the socket tests, and checkpoint/restore copies
# detector state under the ingest mutex.
SERVE_FILTER='StreamingDetector|StreamingService|WindowedDetector'
SERVE_FILTER+='|CliServe|CliStreamDemo'
SERVE_FILTER+='|NetCodec|NetServer|NetEndToEnd|NetBackpressure|NetTornFrame'
SERVE_FILTER+='|SnapshotFollower|Checkpoint|NetCraftedFrame'
SERVE_FILTER+='|AnswerProvenance|WireFormat|PayloadReader'
ctest --output-on-failure -j "$(nproc)" -R "$SERVE_FILTER"

# The same serve surface under the *other* sanitizer: the wire codecs do
# manual byte-level encode/decode (memcpy in and out of frames), the
# crafted-frame cases must fail without allocating from hostile counts, and
# the checkpoint path deep-copies epoch rings, so an address-safety pass is
# required even when this invocation asked for TSan (and vice versa).
SERVE_OTHER_SAN=$([[ "${1:-thread}" == thread ]] && echo address || echo thread)
SERVE_OTHER_BUILD_DIR="${SERVE_OTHER_BUILD_DIR:-$ROOT/build-${SERVE_OTHER_SAN}san-serve}"
cmake -B "$SERVE_OTHER_BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSOD_SANITIZE="$SERVE_OTHER_SAN"
cmake --build "$SERVE_OTHER_BUILD_DIR" -j "$(nproc)" --target \
  serve_test serve_net_test serve_checkpoint_test wire_format_test
(cd "$SERVE_OTHER_BUILD_DIR" &&
 ctest --output-on-failure -j "$(nproc)" -R "$SERVE_FILTER")

# The same engine suite under the *other* sanitizer: the arena hands out
# raw uninitialized pages and ColumnChunks runs element destructors by
# hand, so an address-safety pass is required even when this invocation
# asked for TSan (and vice versa — the engine is the one subsystem that
# always gets both).
OTHER_SAN=$([[ "$SAN" == thread ]] && echo address || echo thread)
OTHER_BUILD_DIR="${OTHER_BUILD_DIR:-$ROOT/build-${OTHER_SAN}san-engine}"
cmake -B "$OTHER_BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSOD_SANITIZE="$OTHER_SAN"
cmake --build "$OTHER_BUILD_DIR" -j "$(nproc)" --target \
  engine_test shuffle_test jobs_test cost_model_test parallel_test
(cd "$OTHER_BUILD_DIR" &&
 ctest --output-on-failure -j "$(nproc)" -R "$ENGINE_FILTER")

# SIMD kernel + batch sketching tests again under the same sanitizer, but
# with the portable dispatch path forced at compile time, so both sides of
# the AVX2/portable split get sanitizer coverage.
PORTABLE_BUILD_DIR="${PORTABLE_BUILD_DIR:-$ROOT/build-${SAN}san-portable}"
cmake -B "$PORTABLE_BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSOD_SANITIZE="$SAN" \
  -DCSOD_FORCE_PORTABLE_SIMD=ON
cmake --build "$PORTABLE_BUILD_DIR" -j "$(nproc)" --target \
  simd_test measurement_matrix_test compressor_test
(cd "$PORTABLE_BUILD_DIR" &&
 ctest --output-on-failure -j "$(nproc)" \
   -R 'Simd|MeasurementMatrix|Compressor|SparseSlice')

# Recovery-engine pass (DESIGN.md §14): the AMP kernel's ParallelFor
# matvecs, the cross-engine dispatch, the streaming DAMP protocol, and
# the two-phase sense-then-refine path all thread through the pool and
# the Channel — rerun their suites explicitly (and again with portable
# dispatch forced, mirroring the SIMD block above) so a filtered
# invocation still sanitizes both sides of every recovery engine.
RECOVERY_FILTER='AmpTest|BiasedAmpTest|SolverTest|SolverDifferential'
RECOVERY_FILTER+='|AmpProtocol|TwoPhaseProtocol|TelemetryIdentity'
ctest --output-on-failure -j "$(nproc)" -R "$RECOVERY_FILTER"
cmake --build "$PORTABLE_BUILD_DIR" -j "$(nproc)" --target \
  amp_test solver_differential_test
(cd "$PORTABLE_BUILD_DIR" &&
 ctest --output-on-failure -j "$(nproc)" \
   -R 'AmpTest|BiasedAmpTest|SolverTest|SolverDifferential')

# Simulation smoke pass: a small seeded sweep through the full harness
# (all nine scenario kinds, Buggify hooks hot, every scenario internally
# re-executed at a second thread limit) under the sanitizer. TSan is the
# interesting one — Buggify's section registry and the serve stall storm
# both poke shared state from pool threads. The sim_test suite and the
# regression corpus run as part of tier-1 above; this adds fresh seeds.
cmake --build "$BUILD_DIR" -j "$(nproc)" --target sim_driver
"$BUILD_DIR/tools/sim_driver" --scenarios=24 --seed0=4242

# The fault sweep's telemetry-vs-CollectionReport cross-check gates,
# against the sanitizer build so the instrumented hot paths also get race
# coverage even when the main invocation was filtered.
ctest --output-on-failure -R '^fault_sweep_quick$'

# Keep the documentation's cross-links honest while we're at it.
"$ROOT/scripts/check_docs_links.sh"
