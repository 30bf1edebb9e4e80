#!/usr/bin/env bash
# Builds the tree under a sanitizer and runs the tier-1 test suite.
# ThreadSanitizer is the default: it is the one that exercises the
# persistent thread pool's dispatch/park/steal protocol.
#
# Usage: scripts/run_sanitizers.sh
#   [thread|address|undefined|address,undefined] [ctest_filter_regex]
# UndefinedBehaviorSanitizer builds stop at the first report
# (-fno-sanitize-recover=undefined, set by CMakeLists.txt). An `address`
# run builds its main and portable passes with address,undefined: the two
# combine at no extra cost, and every other ASan pass below runs UBSan too.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SAN="${1:-thread}"
FILTER="${2:-}"
MAIN_SAN=$([[ "$SAN" == address ]] && echo address,undefined || echo "$SAN")
# Build directory names spell a sanitizer list with '-' for ','.
BUILD_DIR="${BUILD_DIR:-$ROOT/build-${MAIN_SAN//,/-}san}"

cmake -B "$BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSOD_SANITIZE="$MAIN_SAN"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# Runs `ctest -R FILTER` in DIR. Every |-separated alternative of FILTER
# must select at least one test there first: a suite that is renamed or
# deleted must fail this script, not silently drop out of its pass.
run_ctest() {
  local dir="$1" filter="$2" alt count
  local -a alts
  IFS='|' read -r -a alts <<< "$filter"
  for alt in "${alts[@]}"; do
    count=$(cd "$dir" && ctest -N -R "$alt" | sed -n 's/^Total Tests: //p')
    if [[ "${count:-0}" -eq 0 ]]; then
      echo "run_sanitizers.sh: '$alt' selects no test in $dir" >&2
      exit 1
    fi
  done
  (cd "$dir" && ctest --output-on-failure -j "$(nproc)" -R "$filter")
}

cd "$BUILD_DIR"
if [[ -n "$FILTER" ]]; then
  run_ctest "$BUILD_DIR" "$FILTER"
else
  ctest --output-on-failure -j "$(nproc)"
fi

# The fault-injection suite exercises the Channel/retry path that the CS
# protocols now share; rerun it explicitly so a filtered invocation still
# gets sanitizer coverage of the failure-handling code.
run_ctest "$BUILD_DIR" 'Fault|Degraded|RetryPolicy'

# Φ0 registry pass: cs::SharedMatrix is process-wide shared state (a weak
# map and a retained slot behind one mutex that also serializes builds)
# that every protocol run, detector, tenant and follower goes through, so
# the registry suite and its heaviest callers get an explicit rerun even
# when the main invocation was filtered.
run_ctest "$BUILD_DIR" 'SharedMatrix|CsProtocol|WindowedDetector'

# Parallel MapReduce engine pass: map tasks, shuffle build, and reduce
# tasks all run concurrently on the pool now, so the engine/jobs suites
# (including the cross-thread-limit bit-identity sweeps) and the columnar
# shuffle substrate (arena pages, column chunks, interner, radix scatter —
# placement-new/manual-destruction code that ASan, not just TSan, must
# see) get an explicit rerun even when the main invocation was filtered.
# The shuffle timing histograms are recorded after each parallel phase.
ENGINE_FILTER='EngineTest|EngineDeterminism|EngineStress|DefaultPartition'
ENGINE_FILTER+='|CostModel|JobTest|Jobs|ParallelFor|ThreadPool'
ENGINE_FILTER+='|MapReduceShuffleTimingHistograms'
ENGINE_FILTER+='|Arena|ColumnChunks|KeyInterner|ReduceGroups|ScatterPartitions'
run_ctest "$BUILD_DIR" "$ENGINE_FILTER"

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
SERVE_FILTER+='|NetCodec|NetServer|NetEndToEnd|NetTornFrame'
SERVE_FILTER+='|SnapshotFollower|Checkpoint|NetCraftedFrame|NetSnapshotFormat'
SERVE_FILTER+='|AnswerProvenance|WireFormat|PayloadReader'
run_ctest "$BUILD_DIR" "$SERVE_FILTER"

# The same serve surface under the *other* sanitizer: the wire codecs do
# manual byte-level encode/decode (memcpy in and out of frames), the
# crafted-frame cases must fail without allocating from hostile counts, and
# the checkpoint path deep-copies epoch rings, so an address-safety pass is
# required even when this invocation asked for TSan (and vice versa). The
# decoders also shift, narrow and bounds-check hostile integers (lengths,
# counts, format markers), so that pass runs UBSan alongside ASan.
SERVE_OTHER_SAN=$([[ "$SAN" == thread ]] && echo address,undefined || echo thread)
SERVE_OTHER_BUILD_DIR="${SERVE_OTHER_BUILD_DIR:-$ROOT/build-${SERVE_OTHER_SAN//,/-}san-serve}"
cmake -B "$SERVE_OTHER_BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSOD_SANITIZE="$SERVE_OTHER_SAN"
cmake --build "$SERVE_OTHER_BUILD_DIR" -j "$(nproc)" --target \
  serve_test serve_net_test serve_checkpoint_test wire_format_test \
  windowed_detector_test cli_commands_test
run_ctest "$SERVE_OTHER_BUILD_DIR" "$SERVE_FILTER"

# The same engine suite under the *other* sanitizer: the arena hands out
# raw uninitialized pages and ColumnChunks runs element destructors by
# hand, so an address-safety pass is required even when this invocation
# asked for TSan (and vice versa — the engine is the one subsystem that
# always gets both). The scatter and the cost model also narrow and shift
# sizes and hash values, so that pass runs UBSan alongside ASan, like the
# serve and Φ0 passes.
OTHER_SAN=$([[ "$SAN" == thread ]] && echo address,undefined || echo thread)
OTHER_BUILD_DIR="${OTHER_BUILD_DIR:-$ROOT/build-${OTHER_SAN//,/-}san-engine}"
cmake -B "$OTHER_BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSOD_SANITIZE="$OTHER_SAN"
cmake --build "$OTHER_BUILD_DIR" -j "$(nproc)" --target \
  engine_test shuffle_test jobs_test cost_model_test parallel_test \
  thread_pool_test obs_telemetry_test
run_ctest "$OTHER_BUILD_DIR" "$ENGINE_FILTER"

# Φ0 kernel pass under AddressSanitizer and UndefinedBehaviorSanitizer,
# whatever SAN is: Φ0 columns are int8, read four, eight, sixteen or 32 at
# a time with scalar or masked tails, and ASan is what proves no column read
# runs past its last entry. The tests allocate columns of exactly M entries
# for every tail length, on every SIMD level the host supports
# (SimdTest.Int8AxpyKernels* for the Axpy family). CorrelateTop's screen
# rounds the residual to int16 and sums int8 × int16 products in int32, one
# simd::ScreenColumns call per block of columns; the portable kernel sums
# in plain signed int32, so a residual past the overflow rule would be a
# signed overflow, which UBSan aborts on. The kernel's exactness tests (its loop boundaries and
# the largest admitted M), the block screen's edge test and the rounding
# tests are named in the filter so that renaming them fails this script. The generator rides along
# (simd::GaussianFill loads eight or sixteen row keys and stores as many
# entries per vector group, with scalar tails, and MeasurementMatrix builds
# its row key table lazily), with the Box–Muller and Rng suites of
# random_test; its cross-level tests are named in the filter too.
PHI0_BUILD_DIR="${PHI0_BUILD_DIR:-$ROOT/build-address-undefinedsan-phi0}"
cmake -B "$PHI0_BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSOD_SANITIZE=address,undefined
cmake --build "$PHI0_BUILD_DIR" -j "$(nproc)" --target \
  simd_test measurement_matrix_test random_test
PHI0_FILTER='CounterGaussian|BoxMuller|RngTest|Simd|MeasurementMatrix'
PHI0_FILTER+='|SharedMatrix|ScreenedArgmax|IntegerScreenDot|ScreenColumns'
PHI0_FILTER+='|BlockScreen|Quantize|Int8AxpyKernels|GaussianFill'
run_ctest "$PHI0_BUILD_DIR" "$PHI0_FILTER"

# SIMD kernel + batch sketching tests again under the same sanitizer, but
# with the portable dispatch path forced at compile time, so both sides of
# the AVX2/portable split get sanitizer coverage.
PORTABLE_BUILD_DIR="${PORTABLE_BUILD_DIR:-$ROOT/build-${MAIN_SAN//,/-}san-portable}"
cmake -B "$PORTABLE_BUILD_DIR" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCSOD_SANITIZE="$MAIN_SAN" \
  -DCSOD_FORCE_PORTABLE_SIMD=ON
cmake --build "$PORTABLE_BUILD_DIR" -j "$(nproc)" --target \
  simd_test measurement_matrix_test compressor_test
run_ctest "$PORTABLE_BUILD_DIR" 'Simd|MeasurementMatrix|Compressor|SparseSlice'

# Recovery pass (DESIGN.md §14): the one RecoverBiased dispatch (BOMP,
# whose Φ0 correlate runs on the pool) and the two-phase
# sense-then-refine path, which threads the Channel too — rerun their
# suites explicitly, and again with portable dispatch forced (mirroring
# the SIMD block above), so a filtered invocation still sanitizes both
# ISAs of the recovery path.
RECOVERY_FILTER='SolverTest|TwoPhaseProtocol|TelemetryIdentity'
run_ctest "$BUILD_DIR" "$RECOVERY_FILTER"
cmake --build "$PORTABLE_BUILD_DIR" -j "$(nproc)" --target \
  bomp_test adaptive_protocol_test telemetry_identity_test
run_ctest "$PORTABLE_BUILD_DIR" "$RECOVERY_FILTER"

# Simulation smoke pass: a small seeded sweep through the full harness
# (all six scenario kinds, Buggify hooks hot, every scenario internally
# re-executed at a second thread limit) under the sanitizer. TSan is the
# interesting one — Buggify's section registry is shared state that the
# hooks on pool threads (MapReduce re-execution, protocol rounds) poke. The sim_test suite and the
# regression corpus run as part of tier-1 above; this adds fresh seeds.
cmake --build "$BUILD_DIR" -j "$(nproc)" --target csod
"$BUILD_DIR/tools/csod" sim --scenarios=24 --seed0=4242

# The fault sweep's telemetry-vs-CollectionReport cross-check gates,
# against the sanitizer build so the instrumented hot paths also get race
# coverage even when the main invocation was filtered.
run_ctest "$BUILD_DIR" '^fault_sweep_quick$'

# Keep the documentation's cross-links honest while we're at it.
"$ROOT/scripts/check_docs_links.sh"
