# End-to-end smoke test of the actual `csod` CLI binary: generate a
# workload file, detect outliers over it, and cross-check against the
# exact reference. Invoked by CTest with -DCSOD_CLI=<path-to-binary>.

set(events "${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_events.txt")

execute_process(
  COMMAND "${CSOD_CLI}" generate --out=${events} --n=800 --sparsity=12
          --nodes=4 --seed=5
  RESULT_VARIABLE gen_result OUTPUT_VARIABLE gen_out)
if(NOT gen_result EQUAL 0)
  message(FATAL_ERROR "csod generate failed: ${gen_out}")
endif()

execute_process(
  COMMAND "${CSOD_CLI}" detect --in=${events} --m=250 --k=3 --iterations=20
  RESULT_VARIABLE detect_result OUTPUT_VARIABLE detect_out)
if(NOT detect_result EQUAL 0)
  message(FATAL_ERROR "csod detect failed: ${detect_out}")
endif()
if(NOT detect_out MATCHES "k-outliers via BOMP")
  message(FATAL_ERROR "detect output missing header: ${detect_out}")
endif()

execute_process(
  COMMAND "${CSOD_CLI}" exact --in=${events} --k=3
  RESULT_VARIABLE exact_result OUTPUT_VARIABLE exact_out)
if(NOT exact_result EQUAL 0)
  message(FATAL_ERROR "csod exact failed: ${exact_out}")
endif()

# The top detected key must appear in the exact reference output.
string(REGEX MATCH "key [0-9]+" top_key "${detect_out}")
if(NOT exact_out MATCHES "${top_key}")
  message(FATAL_ERROR
          "detect top key '${top_key}' not in exact reference:\n${exact_out}")
endif()

# Alternate recovery engine: --solver=amp must run, report its provenance,
# and agree with the exact reference on the top key.
execute_process(
  COMMAND "${CSOD_CLI}" detect --in=${events} --m=250 --k=3 --iterations=20
          --solver=amp
  RESULT_VARIABLE amp_result OUTPUT_VARIABLE amp_out)
if(NOT amp_result EQUAL 0)
  message(FATAL_ERROR "csod detect --solver=amp failed: ${amp_out}")
endif()
if(NOT amp_out MATCHES "solver: amp")
  message(FATAL_ERROR "detect output missing solver provenance: ${amp_out}")
endif()
string(REGEX MATCH "key [0-9]+" amp_top_key "${amp_out}")
if(NOT exact_out MATCHES "${amp_top_key}")
  message(FATAL_ERROR
          "amp top key '${amp_top_key}' not in exact reference:\n${exact_out}")
endif()

# An unknown solver name must fail loudly, not fall back silently. fista
# is one: FISTA left the --solver= dispatch (it lives on only as the
# basis-pursuit ablation).
foreach(bad_solver lasso fista)
  execute_process(
    COMMAND "${CSOD_CLI}" detect --in=${events} --solver=${bad_solver}
    RESULT_VARIABLE bad_solver_result OUTPUT_VARIABLE bad_solver_out
    ERROR_VARIABLE bad_solver_err)
  if(bad_solver_result EQUAL 0)
    message(FATAL_ERROR
            "csod detect --solver=${bad_solver} unexpectedly succeeded")
  endif()
  if(NOT bad_solver_err MATCHES "unknown solver '${bad_solver}'")
    message(FATAL_ERROR "csod detect --solver=${bad_solver} did not name "
                        "the unknown solver:\n${bad_solver_err}")
  endif()
endforeach()

# Streaming replay of the same file: must publish a snapshot and answer a
# window query, and the telemetry snapshot must land on disk.
set(telemetry "${CMAKE_CURRENT_BINARY_DIR}/cli_smoke_telemetry.json")
execute_process(
  COMMAND "${CSOD_CLI}" serve --in=${events} --m=250 --k=3 --iterations=20
          --epochs=4 --window=4 --shards=4 --telemetry-json=${telemetry}
  RESULT_VARIABLE serve_result OUTPUT_VARIABLE serve_out)
if(NOT serve_result EQUAL 0)
  message(FATAL_ERROR "csod serve failed: ${serve_out}")
endif()
if(NOT serve_out MATCHES "window k-outliers via BOMP")
  message(FATAL_ERROR "serve output missing header: ${serve_out}")
endif()
if(NOT serve_out MATCHES "staleness 1 epoch")
  message(FATAL_ERROR "serve output missing staleness: ${serve_out}")
endif()
if(NOT EXISTS "${telemetry}")
  message(FATAL_ERROR "serve did not write ${telemetry}")
endif()
# A full-file window must agree with the exact reference on the top key.
string(REGEX MATCH "key [0-9]+" serve_top_key "${serve_out}")
if(NOT exact_out MATCHES "${serve_top_key}")
  message(FATAL_ERROR
          "serve top key '${serve_top_key}' not in exact reference:"
          "\n${exact_out}")
endif()

# Self-generating stream demo with a concurrent analyst thread.
execute_process(
  COMMAND "${CSOD_CLI}" stream-demo --n=400 --m=100 --k=1 --iterations=8
          --epochs=3 --window=2 --shards=4 --events-per-epoch=800
  RESULT_VARIABLE demo_result OUTPUT_VARIABLE demo_out)
if(NOT demo_result EQUAL 0)
  message(FATAL_ERROR "csod stream-demo failed: ${demo_out}")
endif()
if(NOT demo_out MATCHES "window top-k via CS recovery")
  message(FATAL_ERROR "stream-demo output missing header: ${demo_out}")
endif()

# The usage text is generated from the subcommand table: every verb must be
# listed (a verb missing here means the table and dispatch diverged).
execute_process(
  COMMAND "${CSOD_CLI}" ERROR_VARIABLE usage_out RESULT_VARIABLE usage_result)
foreach(verb generate detect topk exact query serve stream-demo)
  if(NOT usage_out MATCHES "${verb}")
    message(FATAL_ERROR "usage text missing verb '${verb}':\n${usage_out}")
  endif()
endforeach()
if(NOT usage_out MATCHES "telemetry-json")
  message(FATAL_ERROR "usage text missing --telemetry-json:\n${usage_out}")
endif()

file(REMOVE "${events}" "${telemetry}")
message(STATUS "cli smoke test passed (${top_key})")
