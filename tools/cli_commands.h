#ifndef CSOD_TOOLS_CLI_COMMANDS_H_
#define CSOD_TOOLS_CLI_COMMANDS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "mapreduce/jobs.h"
#include "obs/telemetry.h"

namespace csod::tools {

/// \brief The testable core of the `csod` command-line tool.
///
/// Event files are plain text, one record per line:
///     <node-id> <key-index> <value>
/// with `#`-prefixed comment lines ignored. This is the thinnest
/// interchange format that exercises the full pipeline (per-node slices →
/// compression → aggregation → recovery) from the shell.

/// Options for the `generate` subcommand.
struct GenerateOptions {
  size_t n = 4000;
  size_t sparsity = 50;
  size_t num_nodes = 8;
  double mode = 1800.0;
  uint64_t seed = 1;
};

/// Generates a synthetic click-log workload, partitions it over
/// `num_nodes` with the skewed partitioner, and writes the event file.
/// Returns the number of records written.
Result<size_t> WriteSyntheticEvents(const std::string& path,
                                    const GenerateOptions& options);

/// Parsed event file: per-node event lists (index = dense node rank) and
/// the smallest key space that contains every key.
struct EventFile {
  std::vector<std::vector<mr::ScoreEvent>> splits;
  size_t key_space = 0;
  size_t num_records = 0;
};

/// Loads an event file; malformed lines yield InvalidArgument with the
/// line number.
Result<EventFile> LoadEvents(const std::string& path);

/// Options for the `detect` / `topk` subcommands.
struct DetectOptions {
  size_t m = 400;
  size_t k = 5;
  uint64_t seed = 42;
  size_t iterations = 0;  ///< 0 = the paper's f(k).
  /// Override the key space (0 = infer from the file).
  size_t n_override = 0;
  /// Telemetry sink threaded into the detector (sketch + recovery
  /// instrumentation; `--telemetry-json`). Null or disabled is free.
  obs::Telemetry* telemetry = nullptr;
};

/// Runs CS-based k-outlier detection over the event file's nodes and
/// renders a human-readable report (outliers, mode, communication).
Result<std::string> RunDetect(const EventFile& events,
                              const DetectOptions& options);

/// Runs CS-based top-k (zero-mode extension) and renders a report.
Result<std::string> RunTopK(const EventFile& events,
                            const DetectOptions& options);

/// Runs the exact centralized reference and renders the same report shape
/// (ground truth for eyeballing `detect` output).
Result<std::string> RunExact(const EventFile& events, size_t k);

/// Loads a CSV table file for the `query` subcommand. Format: a header
/// line naming the columns, one of which must be `node` (the owning
/// node); remaining columns become the LogTable. Cells must not contain
/// commas; `#` lines are ignored.
struct TableFile {
  std::vector<std::string> columns;  ///< Without the node column.
  /// One LogTable per node, dense node ranks in first-seen order.
  std::vector<std::vector<std::vector<std::string>>> node_rows;
};

Result<TableFile> LoadCsvTable(const std::string& path);

/// Parses and executes the paper's query template over the CSV table,
/// rendering a report (answer rows, mode, communication).
Result<std::string> RunQuery(const TableFile& table, const std::string& sql,
                             const DetectOptions& options);

/// Options for the `serve` subcommand: replay an event file through the
/// streaming detection service (src/serve) as an epoched stream and answer
/// a window outlier query from the final published snapshot.
struct ServeOptions {
  size_t m = 400;
  size_t k = 5;
  uint64_t seed = 42;
  size_t iterations = 0;   ///< 0 = the paper's f(k).
  size_t n_override = 0;   ///< 0 = infer the key space from the file.
  size_t window_epochs = 4;
  size_t epochs = 8;       ///< Epochs the replay is spread over.
  size_t num_shards = 8;
  size_t batch_events = 512;  ///< Events per ingest batch (or frame).
  obs::Telemetry* telemetry = nullptr;
};

/// Replays the event file as a stream (node-major, file order) and renders
/// a report: replay shape, snapshot provenance/staleness, and the window's
/// k-outliers recovered from the published sketch.
Result<std::string> RunServe(const EventFile& events,
                             const ServeOptions& options);

/// Options for the `serve-net` subcommand: the same replay as `serve`, but
/// driven end-to-end through the wire-facing deployment surface
/// (serve/net.h) — every ingest/advance/query travels as a checksummed
/// binary frame through a transport and back.
struct ServeNetOptions : ServeOptions {
  /// `--transport=socket` serves frames over a socketpair with a server
  /// thread; the default loopback calls the server in-process.
  bool socket = false;
};

/// Replays the event file through StreamingService behind a NetServer:
/// framed ingest/advance per epoch, a framed window-outlier query, a
/// checkpoint fetch → restore → republish bit-identity check, and a
/// snapshot-replicated follower answering the same query. Renders a report
/// with client/server frame counters and both verification verdicts; fails
/// if either bit-identity check does not hold.
Result<std::string> RunServeNet(const EventFile& events,
                                const ServeNetOptions& options);

/// Options for the `stream-demo` subcommand: a self-generating synthetic
/// stream with one planted hot key, ingested while a concurrent analyst
/// thread asks top-k queries against published snapshots.
struct StreamDemoOptions {
  size_t n = 4000;  ///< Key space of the synthetic stream.
  double mode = 1800.0;
  size_t m = 400;
  size_t k = 5;
  uint64_t seed = 42;
  size_t iterations = 0;
  size_t window_epochs = 4;
  size_t epochs = 12;
  size_t num_shards = 8;
  size_t events_per_epoch = 20000;
  obs::Telemetry* telemetry = nullptr;
};

/// Runs the demo and renders a report: ingest throughput, concurrent
/// queries answered, snapshot staleness, and the final window top-k (which
/// must surface the planted hot key).
Result<std::string> RunStreamDemo(const StreamDemoOptions& options);

}  // namespace csod::tools

#endif  // CSOD_TOOLS_CLI_COMMANDS_H_
