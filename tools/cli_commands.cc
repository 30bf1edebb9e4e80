#include "tools/cli_commands.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "core/detector.h"
#include "dist/comm.h"
#include "outlier/outlier.h"
#include "query/executor.h"
#include "query/query.h"
#include "serve/checkpoint.h"
#include "serve/net.h"
#include "serve/service.h"
#include "serve/streaming_detector.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace csod::tools {

namespace {

// Builds per-node sparse slices (with in-node aggregation) from the file.
std::vector<cs::SparseSlice> SlicesFromEvents(const EventFile& events) {
  std::vector<cs::SparseSlice> slices;
  slices.reserve(events.splits.size());
  for (const auto& split : events.splits) {
    std::map<uint64_t, double> sums;
    for (const mr::ScoreEvent& e : split) sums[e.key] += e.score;
    cs::SparseSlice slice;
    for (const auto& [key, value] : sums) {
      slice.indices.push_back(key);
      slice.values.push_back(value);
    }
    slices.push_back(std::move(slice));
  }
  return slices;
}

std::string RenderOutliers(const outlier::OutlierSet& set,
                           const char* header) {
  std::ostringstream out;
  out << header << " (mode " << set.mode << ")\n";
  char line[128];
  for (size_t i = 0; i < set.outliers.size(); ++i) {
    const auto& o = set.outliers[i];
    std::snprintf(line, sizeof(line),
                  "  %2zu. key %-10zu value %14.3f divergence %14.3f\n",
                  i + 1, o.key_index, o.value, o.divergence);
    out << line;
  }
  return out.str();
}

Result<std::unique_ptr<core::DistributedOutlierDetector>> BuildDetector(
    const EventFile& events, const DetectOptions& options) {
  core::DetectorOptions detector_options;
  detector_options.n =
      options.n_override ? options.n_override : events.key_space;
  detector_options.m = options.m;
  detector_options.seed = options.seed;
  detector_options.iterations = options.iterations;
  detector_options.telemetry = options.telemetry;
  CSOD_ASSIGN_OR_RETURN(auto detector,
                        core::DistributedOutlierDetector::Create(
                            detector_options));
  for (const auto& slice : SlicesFromEvents(events)) {
    CSOD_RETURN_NOT_OK(detector->AddSource(slice).status());
  }
  return detector;
}

std::string CommunicationFooter(const EventFile& events,
                                const DetectOptions& options, size_t n) {
  const uint64_t cs_bytes = static_cast<uint64_t>(events.splits.size()) *
                            options.m * dist::kMeasurementBytes;
  const uint64_t all_bytes =
      static_cast<uint64_t>(events.splits.size()) * n * dist::kValueBytes;
  char line[160];
  std::snprintf(line, sizeof(line),
                "communication: %llu bytes (%.2f%% of transmitting all "
                "%zu-key vectors from %zu nodes)\n",
                static_cast<unsigned long long>(cs_bytes),
                all_bytes ? 100.0 * static_cast<double>(cs_bytes) /
                                static_cast<double>(all_bytes)
                          : 0.0,
                n, events.splits.size());
  return line;
}

}  // namespace

Result<size_t> WriteSyntheticEvents(const std::string& path,
                                    const GenerateOptions& options) {
  workload::ClickLogOptions gen;
  gen.n_override = options.n;
  gen.sparsity_override = options.sparsity;
  gen.mode = options.mode;
  gen.seed = options.seed;
  CSOD_ASSIGN_OR_RETURN(workload::ClickLogData data,
                        workload::GenerateClickLog(gen));

  workload::PartitionOptions part;
  part.num_nodes = options.num_nodes;
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  part.cancellation_noise = 2.0 * options.mode;
  part.seed = options.seed + 1;
  CSOD_ASSIGN_OR_RETURN(auto slices,
                        workload::PartitionAdditive(data.global, part));

  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open for writing: " + path);
  }
  out << "# csod event file: <node-id> <key-index> <value>\n";
  out << "# N = " << options.n << ", planted outliers = " << options.sparsity
      << ", mode = " << options.mode << "\n";
  out.precision(17);
  size_t records = 0;
  for (size_t node = 0; node < slices.size(); ++node) {
    for (size_t j = 0; j < slices[node].indices.size(); ++j) {
      out << node << ' ' << slices[node].indices[j] << ' '
          << slices[node].values[j] << '\n';
      ++records;
    }
  }
  if (!out.good()) {
    return Status::Internal("write failed: " + path);
  }
  return records;
}

Result<EventFile> LoadEvents(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open: " + path);
  }
  EventFile file;
  std::map<uint64_t, size_t> node_rank;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    uint64_t node = 0;
    uint64_t key = 0;
    double value = 0.0;
    if (!(fields >> node >> key >> value)) {
      return Status::InvalidArgument("malformed record at " + path + ":" +
                                     std::to_string(line_number));
    }
    auto [it, inserted] = node_rank.try_emplace(node, file.splits.size());
    if (inserted) file.splits.emplace_back();
    file.splits[it->second].push_back(mr::ScoreEvent{key, value});
    file.key_space = std::max(file.key_space, static_cast<size_t>(key) + 1);
    ++file.num_records;
  }
  if (file.num_records == 0) {
    return Status::InvalidArgument("no records in: " + path);
  }
  return file;
}

Result<std::string> RunDetect(const EventFile& events,
                              const DetectOptions& options) {
  CSOD_ASSIGN_OR_RETURN(auto detector, BuildDetector(events, options));
  CSOD_ASSIGN_OR_RETURN(outlier::OutlierSet result,
                        detector->Detect(options.k));
  std::string report = RenderOutliers(result, "k-outliers via BOMP");
  report += CommunicationFooter(events, options, detector->options().n);
  return report;
}

Result<std::string> RunTopK(const EventFile& events,
                            const DetectOptions& options) {
  CSOD_ASSIGN_OR_RETURN(auto detector, BuildDetector(events, options));
  CSOD_ASSIGN_OR_RETURN(auto top, detector->DetectTopK(options.k));
  outlier::OutlierSet as_set;
  as_set.outliers = std::move(top);
  std::string report = RenderOutliers(as_set, "top-k via CS recovery");
  report += CommunicationFooter(events, options, detector->options().n);
  return report;
}

Result<TableFile> LoadCsvTable(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open: " + path);
  }
  TableFile table;
  std::map<std::string, size_t> node_rank;
  size_t node_column = 0;
  bool header_seen = false;
  std::string line;
  size_t line_number = 0;

  auto split = [](const std::string& text) {
    std::vector<std::string> cells;
    size_t start = 0;
    while (true) {
      const size_t comma = text.find(',', start);
      cells.push_back(text.substr(start, comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return cells;
  };

  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> cells = split(line);
    if (!header_seen) {
      header_seen = true;
      bool node_found = false;
      for (size_t i = 0; i < cells.size(); ++i) {
        if (cells[i] == "node") {
          node_column = i;
          node_found = true;
        } else {
          table.columns.push_back(cells[i]);
        }
      }
      if (!node_found) {
        return Status::InvalidArgument("header must contain a 'node' column");
      }
      continue;
    }
    if (cells.size() != table.columns.size() + 1) {
      return Status::InvalidArgument(
          "wrong cell count at " + path + ":" + std::to_string(line_number));
    }
    const std::string& node = cells[node_column];
    auto [it, inserted] = node_rank.try_emplace(node, table.node_rows.size());
    if (inserted) table.node_rows.emplace_back();
    std::vector<std::string> row;
    row.reserve(table.columns.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      if (i != node_column) row.push_back(std::move(cells[i]));
    }
    table.node_rows[it->second].push_back(std::move(row));
  }
  if (!header_seen || table.node_rows.empty()) {
    return Status::InvalidArgument("no data rows in: " + path);
  }
  return table;
}

Result<std::string> RunQuery(const TableFile& table, const std::string& sql,
                             const DetectOptions& options) {
  CSOD_ASSIGN_OR_RETURN(query::Query parsed, query::ParseQuery(sql));

  std::vector<query::LogTable> node_tables;
  node_tables.reserve(table.node_rows.size());
  for (const auto& rows : table.node_rows) {
    query::LogTable log_table;
    log_table.columns = table.columns;
    for (const auto& row : rows) {
      CSOD_RETURN_NOT_OK(log_table.AddRow(row));
    }
    node_tables.push_back(std::move(log_table));
  }

  query::ExecutionOptions exec;
  exec.m = options.m;
  exec.seed = options.seed;
  exec.iterations = options.iterations;
  CSOD_ASSIGN_OR_RETURN(query::QueryResult result,
                        query::ExecuteDistributed(parsed, node_tables, exec));

  std::ostringstream out;
  out << (parsed.kind == query::QueryKind::kOutlier ? "Outlier" : "Top")
      << "-" << parsed.k << " answer over " << result.key_space
      << " group keys (mode " << result.mode << ")\n";
  char line[192];
  for (size_t i = 0; i < result.rows.size(); ++i) {
    std::snprintf(line, sizeof(line), "  %2zu. %-40s value %14.3f\n", i + 1,
                  result.rows[i].group_key.c_str(), result.rows[i].value);
    out << line;
  }
  std::snprintf(line, sizeof(line),
                "communication: %llu bytes (%.2f%% of transmitting all "
                "aggregates)\n",
                static_cast<unsigned long long>(result.bytes_shipped),
                result.bytes_all
                    ? 100.0 * static_cast<double>(result.bytes_shipped) /
                          static_cast<double>(result.bytes_all)
                    : 0.0);
  out << line;
  return out.str();
}

Result<std::string> RunExact(const EventFile& events, size_t k) {
  std::vector<double> global(events.key_space, 0.0);
  for (const auto& slice : SlicesFromEvents(events)) {
    for (size_t j = 0; j < slice.indices.size(); ++j) {
      global[slice.indices[j]] += slice.values[j];
    }
  }
  outlier::OutlierSet truth = outlier::ExactKOutliers(global, k);
  return RenderOutliers(truth, "exact k-outliers (centralized reference)");
}

namespace {

std::string SnapshotProvenance(const serve::StreamingDetector& detector) {
  auto snapshot = detector.Snapshot();
  if (!snapshot) return "snapshot: none published\n";
  char line[192];
  std::snprintf(line, sizeof(line),
                "snapshot: v%llu covering epochs %llu..%llu (%zu of window), "
                "staleness %llu epoch(s), %llu events\n",
                static_cast<unsigned long long>(snapshot->version),
                static_cast<unsigned long long>(snapshot->first_epoch),
                static_cast<unsigned long long>(snapshot->last_epoch),
                snapshot->epochs_covered,
                static_cast<unsigned long long>(detector.current_epoch() -
                                                snapshot->last_epoch),
                static_cast<unsigned long long>(snapshot->events));
  return line;
}

// Checks the options `serve` and `serve-net` share and builds the stream
// geometry from them; `verb` prefixes the error messages.
Result<serve::StreamingDetectorOptions> StreamOptions(
    const char* verb, const EventFile& events, const ServeOptions& options) {
  if (options.epochs == 0) {
    return Status::InvalidArgument(std::string(verb) +
                                   ": --epochs must be > 0");
  }
  if (options.batch_events == 0) {
    return Status::InvalidArgument(std::string(verb) +
                                   ": --batch must be > 0");
  }
  serve::StreamingDetectorOptions stream;
  stream.n = options.n_override ? options.n_override : events.key_space;
  stream.m = options.m;
  stream.seed = options.seed;
  stream.iterations = options.iterations;
  stream.window_epochs = options.window_epochs;
  stream.num_shards = options.num_shards;
  stream.telemetry = options.telemetry;
  return stream;
}

struct ReplayShape {
  size_t events = 0;
  size_t batches = 0;
};

// The replay `serve` and `serve-net` share: the file flattened into one
// stream (node-major, file order within a node — a deterministic stand-in
// for arrival order), spread evenly over `options.epochs` epochs in
// batches of at most `options.batch_events`. Calls `ingest(keys, deltas,
// count)` per batch and `close(epoch)` after each epoch; stops at the
// first error either returns.
template <typename IngestFn, typename CloseFn>
Result<ReplayShape> Replay(const EventFile& events, const ServeOptions& options,
                           IngestFn ingest, CloseFn close) {
  std::vector<size_t> keys;
  std::vector<double> deltas;
  keys.reserve(events.num_records);
  deltas.reserve(events.num_records);
  for (const auto& split : events.splits) {
    for (const mr::ScoreEvent& e : split) {
      keys.push_back(static_cast<size_t>(e.key));
      deltas.push_back(e.score);
    }
  }

  ReplayShape shape;
  shape.events = keys.size();
  const size_t per_epoch =
      (shape.events + options.epochs - 1) / options.epochs;
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    const size_t begin = std::min(epoch * per_epoch, shape.events);
    const size_t end = std::min(begin + per_epoch, shape.events);
    for (size_t at = begin; at < end; at += options.batch_events) {
      const size_t count = std::min(options.batch_events, end - at);
      CSOD_RETURN_NOT_OK(ingest(keys.data() + at, deltas.data() + at, count));
      ++shape.batches;
    }
    CSOD_RETURN_NOT_OK(close(epoch));
  }
  return shape;
}

}  // namespace

Result<std::string> RunServe(const EventFile& events,
                             const ServeOptions& options) {
  CSOD_ASSIGN_OR_RETURN(const serve::StreamingDetectorOptions stream,
                        StreamOptions("serve", events, options));
  CSOD_ASSIGN_OR_RETURN(auto detector,
                        serve::StreamingDetector::Create(stream));

  detector->AdvanceEpoch();  // Open epoch 0.
  CSOD_ASSIGN_OR_RETURN(
      const ReplayShape shape,
      Replay(events, options,
             [&](const size_t* keys, const double* deltas, size_t count) {
               return detector->IngestBatch(keys, deltas, count);
             },
             [&](size_t) {
               detector->AdvanceEpoch();  // Close; publish the snapshot.
               return Status::OK();
             }));

  CSOD_ASSIGN_OR_RETURN(outlier::OutlierSet result,
                        detector->QueryOutliers(options.k));

  std::ostringstream out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "replayed %zu events as %zu epochs (%zu batches of <= %zu, "
                "%zu shards, window %zu)\n",
                shape.events, options.epochs, shape.batches,
                options.batch_events, options.num_shards,
                options.window_epochs);
  out << line;
  out << SnapshotProvenance(*detector);
  out << RenderOutliers(result, "window k-outliers via BOMP");
  return out.str();
}

namespace {

// Everything between transport construction and teardown: drives the whole
// replay through the NetClient so RunServeNet can join the server thread on
// every exit path.
Result<std::string> DriveServeNet(
    serve::StreamingService* service, serve::NetServer* server,
    serve::FrameTransport* transport, const EventFile& events,
    const ServeNetOptions& options,
    const serve::StreamingDetectorOptions& stream) {
  constexpr char kTenant[] = "stream";
  serve::NetClient client(transport);

  CSOD_RETURN_NOT_OK(client.AdvanceTo(kTenant, 0).status());  // Open epoch 0.
  std::vector<size_t> batch_keys;
  std::vector<double> batch_deltas;
  CSOD_ASSIGN_OR_RETURN(
      const ReplayShape shape,
      Replay(events, options,
             [&](const size_t* keys, const double* deltas, size_t count) {
               batch_keys.assign(keys, keys + count);
               batch_deltas.assign(deltas, deltas + count);
               return client.Ingest(kTenant, batch_keys, batch_deltas);
             },
             [&](size_t epoch) {
               return client.AdvanceTo(kTenant, epoch + 1).status();
             }));

  // The framed query, and the same query asked in-process: the deployment
  // surface must not perturb a single bit of the answer.
  char query_text[160];
  std::snprintf(query_text, sizeof(query_text),
                "SELECT Outlier %zu SUM(score), key FROM %s GROUP BY key",
                options.k, kTenant);
  CSOD_ASSIGN_OR_RETURN(serve::StreamingQueryResult framed,
                        client.Query(query_text));
  CSOD_ASSIGN_OR_RETURN(serve::StreamingQueryResult direct,
                        service->Query(query_text));
  bool exact = framed.rows.size() == direct.rows.size() &&
               framed.mode == direct.mode &&
               framed.snapshot_version == direct.snapshot_version;
  for (size_t i = 0; exact && i < framed.rows.size(); ++i) {
    exact = framed.rows[i].group_key == direct.rows[i].group_key &&
            framed.rows[i].value == direct.rows[i].value &&
            framed.rows[i].rank_score == direct.rows[i].rank_score;
  }
  if (!exact) {
    return Status::Internal(
        "serve-net: framed query diverged from the in-process answer");
  }

  // Checkpoint → restore: the restored detector must republish the
  // leader's snapshot bit-identically (version, epoch range, y bytes).
  CSOD_ASSIGN_OR_RETURN(std::string ckpt_frame,
                        client.FetchCheckpoint(kTenant));
  CSOD_ASSIGN_OR_RETURN(auto restored,
                        serve::RestoreDetector(ckpt_frame, stream));
  CSOD_ASSIGN_OR_RETURN(std::shared_ptr<serve::StreamingDetector> leader,
                        service->Tenant(kTenant));
  auto leader_snap = leader->Snapshot();
  auto restored_snap = restored->Snapshot();
  if (leader_snap == nullptr || restored_snap == nullptr ||
      restored_snap->version != leader_snap->version ||
      restored_snap->first_epoch != leader_snap->first_epoch ||
      restored_snap->last_epoch != leader_snap->last_epoch ||
      restored_snap->y != leader_snap->y) {
    return Status::Internal(
        "serve-net: restored checkpoint snapshot is not bit-identical");
  }

  // Follower replication: a replica fed only the published snapshot must
  // answer the window query bit-identically to the leader.
  serve::SnapshotFollowerOptions follower_options;
  follower_options.n = stream.n;
  follower_options.m = stream.m;
  follower_options.seed = stream.seed;
  follower_options.iterations = stream.iterations;
  CSOD_ASSIGN_OR_RETURN(auto follower,
                        serve::SnapshotFollower::Create(follower_options));
  CSOD_RETURN_NOT_OK(follower->ReplicateOnce(&client, kTenant));
  CSOD_ASSIGN_OR_RETURN(outlier::OutlierSet follower_set,
                        follower->QueryOutliers(options.k));
  CSOD_ASSIGN_OR_RETURN(outlier::OutlierSet leader_set,
                        leader->QueryOutliers(options.k));
  bool replica_exact = follower_set.mode == leader_set.mode &&
                       follower_set.outliers.size() ==
                           leader_set.outliers.size();
  for (size_t i = 0; replica_exact && i < follower_set.outliers.size(); ++i) {
    replica_exact =
        follower_set.outliers[i].key_index ==
            leader_set.outliers[i].key_index &&
        follower_set.outliers[i].value == leader_set.outliers[i].value &&
        follower_set.outliers[i].divergence ==
            leader_set.outliers[i].divergence;
  }
  if (!replica_exact) {
    return Status::Internal(
        "serve-net: follower answer diverged from the leader");
  }

  std::ostringstream out;
  char line[224];
  std::snprintf(line, sizeof(line),
                "replayed %zu events as %zu epochs over %s transport "
                "(%zu ingest frames of <= %zu events, %zu shards, "
                "window %zu)\n",
                shape.events, options.epochs,
                options.socket ? "socket" : "loopback", shape.batches,
                options.batch_events, options.num_shards,
                options.window_epochs);
  out << line;
  const serve::NetClient::Stats& cs = client.stats();
  std::snprintf(line, sizeof(line),
                "client: %llu frames sent (%llu B out, %llu B in), "
                "%llu retries\n",
                static_cast<unsigned long long>(cs.frames_sent),
                static_cast<unsigned long long>(cs.bytes_sent),
                static_cast<unsigned long long>(cs.bytes_received),
                static_cast<unsigned long long>(cs.retries));
  out << line;
  std::snprintf(line, sizeof(line),
                "server: %llu frames handled, %llu rejected\n",
                static_cast<unsigned long long>(server->frames_handled()),
                static_cast<unsigned long long>(server->frames_rejected()));
  out << line;
  std::snprintf(line, sizeof(line),
                "checkpoint: %zu B frame, restore republishes v%llu "
                "bit-identically\n",
                ckpt_frame.size(),
                static_cast<unsigned long long>(restored_snap->version));
  out << line;
  std::snprintf(line, sizeof(line),
                "follower: replicated v%llu, answers bit-identical to the "
                "leader\n",
                static_cast<unsigned long long>(
                    follower->Snapshot()->version));
  out << line;
  out << SnapshotProvenance(*leader);
  std::snprintf(line, sizeof(line),
                "window k-outliers via framed query (mode %.3f)\n",
                framed.mode);
  out << line;
  for (size_t i = 0; i < framed.rows.size(); ++i) {
    const query::ResultRow& row = framed.rows[i];
    std::snprintf(line, sizeof(line),
                  "  %2zu. key %-10s value %14.3f divergence %14.3f\n",
                  i + 1, row.group_key.c_str(), row.value, row.rank_score);
    out << line;
  }
  return out.str();
}

}  // namespace

Result<std::string> RunServeNet(const EventFile& events,
                                const ServeNetOptions& options) {
  CSOD_ASSIGN_OR_RETURN(const serve::StreamingDetectorOptions stream,
                        StreamOptions("serve-net", events, options));

  serve::StreamingService service(options.telemetry);
  CSOD_RETURN_NOT_OK(service.AddTenant("stream", stream));
  serve::NetServer server(&service);

  std::unique_ptr<serve::FrameTransport> transport;
  std::thread server_thread;
  if (options.socket) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      return Status::Internal("serve-net: socketpair failed");
    }
    server_thread = std::thread([fd = fds[1], &server] {
      Status served = serve::ServeConnection(fd, &server);
      (void)served;  // Clean EOF; a transport error only ends the replay.
      ::close(fd);
    });
    transport = std::make_unique<serve::SocketTransport>(fds[0]);
  } else {
    transport = std::make_unique<serve::LoopbackTransport>(&server);
  }

  Result<std::string> report =
      DriveServeNet(&service, &server, transport.get(), events, options,
                    stream);
  // Destroying the transport closes the client fd; the server thread sees
  // clean EOF and exits.
  transport.reset();
  if (server_thread.joinable()) server_thread.join();
  return report;
}

Result<std::string> RunStreamDemo(const StreamDemoOptions& options) {
  if (options.n == 0 || options.epochs == 0 || options.events_per_epoch == 0) {
    return Status::InvalidArgument(
        "stream-demo: --n, --epochs, --events-per-epoch must be > 0");
  }
  serve::StreamingDetectorOptions stream;
  stream.n = options.n;
  stream.m = options.m;
  stream.seed = options.seed;
  stream.iterations = options.iterations;
  stream.window_epochs = options.window_epochs;
  stream.num_shards = options.num_shards;
  stream.telemetry = options.telemetry;
  CSOD_ASSIGN_OR_RETURN(auto detector,
                        serve::StreamingDetector::Create(stream));

  // One planted hot key receives a large spike at the head of every batch;
  // every other event is baseline noise around the mode.
  const size_t hot_key = options.n / 3;
  std::minstd_rand rng(
      static_cast<std::minstd_rand::result_type>(options.seed ? options.seed
                                                              : 1));
  detector->AdvanceEpoch();  // Open epoch 0.

  // The analyst thread: asks top-k queries against whatever snapshot is
  // published while ingestion runs. Queries before the first publication
  // fail by contract and are not counted.
  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries_answered{0};
  std::thread analyst([&] {
    while (!done.load(std::memory_order_relaxed)) {
      if (detector->QueryTopK(options.k).ok()) {
        queries_answered.fetch_add(1, std::memory_order_relaxed);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  constexpr size_t kBatchEvents = 512;
  std::vector<size_t> keys(kBatchEvents);
  std::vector<double> deltas(kBatchEvents);
  uint64_t events = 0;
  Status ingest_status;
  const auto start = std::chrono::steady_clock::now();
  for (size_t epoch = 0; epoch < options.epochs && ingest_status.ok();
       ++epoch) {
    size_t remaining = options.events_per_epoch;
    while (remaining > 0 && ingest_status.ok()) {
      const size_t count = std::min(kBatchEvents, remaining);
      for (size_t i = 0; i < count; ++i) {
        keys[i] = static_cast<size_t>(rng()) % options.n;
        deltas[i] =
            options.mode * (0.5 + static_cast<double>(rng() % 1000) / 1000.0);
      }
      keys[0] = hot_key;
      deltas[0] = options.mode * 50.0;
      ingest_status = detector->IngestBatch(keys.data(), deltas.data(), count);
      events += count;
      remaining -= count;
    }
    detector->AdvanceEpoch();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  done.store(true, std::memory_order_relaxed);
  analyst.join();
  CSOD_RETURN_NOT_OK(ingest_status);

  CSOD_ASSIGN_OR_RETURN(auto top, detector->QueryTopK(options.k));

  std::ostringstream out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "stream demo: N=%zu M=%zu window=%zu shards=%zu hot key %zu\n",
                options.n, options.m, options.window_epochs,
                options.num_shards, hot_key);
  out << line;
  std::snprintf(line, sizeof(line),
                "ingested %llu events over %zu epochs in %.3f s "
                "(%.0f events/sec)\n",
                static_cast<unsigned long long>(events), options.epochs,
                seconds,
                seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0);
  out << line;
  std::snprintf(line, sizeof(line),
                "concurrent queries answered: %llu\n",
                static_cast<unsigned long long>(
                    queries_answered.load(std::memory_order_relaxed)));
  out << line;
  out << SnapshotProvenance(*detector);
  outlier::OutlierSet as_set;
  as_set.outliers = std::move(top);
  out << RenderOutliers(as_set, "window top-k via CS recovery");
  return out.str();
}

}  // namespace csod::tools
