// csod_ledger — the repository benchmark: four user paths driven through
// public entry points only, every answer checked, every metric printed as
// "<workload> <metric> <value> <unit>".
//
//   ingest        closed-loop framed ingest: the write path's capacity.
//   query-repeat  closed-loop analyst; one epoch closes per 60 queries, so
//                 most queries hit a snapshot version already answered.
//   mixed         open-loop writer plus open-loop analyst: ingest and
//                 recovery share the cores.
//   batch-detect  the paper's single-round protocol (Fig. 2) on the Fig. 7
//                 core-search stand-in.
//
// Service path: NetClient -> SocketTransport over a socketpair ->
// ServeConnection thread -> NetServer -> StreamingService.
// Batch path: dist::CsOutlierProtocol::Run on a dist::Cluster.
//
// Usage: csod_ledger --workload=<name|all> --seed=S [--seconds=T]
//                    [--trace=FILE] [--quick]
//
// --trace=FILE adds a traced pass after the untraced one: every client call
// becomes a span, the system under test records into the repository's own
// obs::Telemetry, and each traced batch, query or detect is replayed through
// the layers that telemetry does not split, on replicas that must agree bit
// for bit. The spans are written to FILE and the per-layer metrics printed.
// --quick runs
// toy sizes for one second per workload. Each workload of --workload=all
// runs in its own process. csod_ledger --probe runs the host-speed probe
// once (the ledger spawns it itself). Exit codes: 0 ok, 1 a check failed
// (metrics are still printed), 2 usage, 3 runtime error. ledger/LEDGER.md
// documents the workloads and every metric.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/flags.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/windowed_detector.h"
#include "cs/compressor.h"
#include "cs/measurement_matrix.h"
#include "cs/solver.h"
#include "dist/cluster.h"
#include "dist/comm.h"
#include "dist/cs_protocol.h"
#include "mapreduce/shuffle.h"
#include "obs/telemetry.h"
#include "outlier/metrics.h"
#include "outlier/outlier.h"
#include "query/query.h"
#include "serve/net.h"
#include "serve/service.h"
#include "serve/streaming_detector.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

extern char** environ;

namespace {

using namespace csod;
using Clock = std::chrono::steady_clock;

constexpr char kTenant[] = "t";
constexpr const char* kWorkloads[] = {"ingest", "query-repeat", "mixed",
                                      "batch-detect"};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

// One geometry for the three serve workloads: bench/bench_streaming.cc's
// defaults (N, M, W, shards, batch size, k, and 250,000 events per epoch,
// i.e. 122 batches). The query and mixed rates are assumptions that put each
// workload in one regime; LEDGER.md gives the reasoning.
struct ServeConfig {
  size_t n = 50000;
  size_t m = 256;  // Φ0 is 102 MB, inside the dense-cache budget.
  uint64_t phi_seed = 7;
  size_t shards = 8;
  size_t window = 4;  // Sliding window of W closed epochs.
  size_t batch = 2048;
  size_t pool_batches = 512;
  size_t k = 5;  // Queries ask for k rows; k outliers are planted.
  size_t ingest_batches_per_epoch = 122;
  size_t prefill_epochs = 5;      // query-repeat set-up.
  size_t queries_per_epoch = 60;  // query-repeat: one batch + advance after.
  size_t mixed_batches_per_epoch = 20;
  double mixed_epoch_ms = 20.0;         // 2.048M updates/s offered.
  size_t mixed_query_every_epochs = 10;  // 5 queries/s offered.
  // mixed, traced pass: replay one batch in this many, so the replays do not
  // push the open-loop writer off its schedule.
  size_t mixed_trace_every = 4;
};

// The Fig. 7 core-search stand-in: a skewed split over L nodes with zero-sum
// cancellation noise, so local rankings mislead and only the sketch sum
// recovers the global outliers.
struct DetectConfig {
  size_t n = 10400;
  size_t sparsity = 300;
  size_t nodes = 8;
  double cancellation_noise = 30000.0;
  size_t m = 600;
  size_t k = 10;
  size_t datasets = 10;
  size_t phi_seeds = 10;
  uint64_t phi_seed_base = 1000;
};

struct Config {
  ServeConfig serve;
  DetectConfig detect;
  uint64_t seed = 1;
  double seconds = 10.0;
  // Set-ups per run; the median is reported and the last one is measured.
  size_t setup_repeats = 3;
};

Config QuickConfig() {
  Config c;
  c.serve.n = 5000;
  c.serve.m = 128;  // Fewer rows no longer recover all k planted keys.
  c.serve.batch = 256;
  c.serve.pool_batches = 32;
  c.serve.ingest_batches_per_epoch = 12;
  c.serve.queries_per_epoch = 10;
  c.detect.n = 2600;
  c.detect.sparsity = 75;
  c.detect.m = 150;
  c.detect.datasets = 2;
  c.detect.phi_seeds = 2;
  c.seconds = 1.0;
  c.setup_repeats = 1;
  return c;
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double MsSince(Clock::time_point start) {
  return MsBetween(start, Clock::now());
}

// CPU time of every thread of the process. On a virtual machine whose
// kernel accounts paravirtual steal time, it leaves out the time the host
// took the vCPUs away, which wall time cannot.
double ProcessCpuMs() {
  struct timespec ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

// The host's speed: CPU time also grows while other tenants share the
// vCPUs' cores, caches and memory, by up to 37% between runs minutes
// apart, so the gated timings are scaled by kProbeReferenceMs over the
// run's median probe (LEDGER.md). The probe is a fixed kernel that shares
// no code with the system under test, run in a child process (--probe) so
// that its buffers stay out of the ledger's peak RSS and its CPU time out
// of the ledger's clocks.
constexpr double kProbeReferenceMs = 70.0;  // The probe on the reference host.
constexpr double kProbeEveryMs = 500.0;     // Closed loops: phase time.
constexpr size_t kProbesAfterPhase = 3;
constexpr size_t kProbeDoubles = size_t{1} << 20;  // 8 MiB per thread.
constexpr int kProbePasses = 24;

// One probe thread: fill its buffer from a xorshift stream, then sum it
// kProbePasses times, the generate-then-stream mix of building Φ0 and
// recovering.
double ProbeThread(uint64_t seed) {
  std::vector<double> buffer(kProbeDoubles);
  uint64_t x = seed;
  for (double& v : buffer) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  double total = 0.0;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (size_t j = 0; j < buffer.size(); j += 4) {
      s0 += buffer[j];
      s1 += buffer[j + 1];
      s2 += buffer[j + 2];
      s3 += buffer[j + 3];
    }
    total += s0 + s1 + s2 + s3;
  }
  return total;
}

// --probe: one ProbeThread per hardware thread, as wide as the system's
// worker pool; prints the process CPU time they took, in ms, and their sum
// (so that it is computed).
int RunProbe() {
  std::vector<double> sums(std::max(1u, std::thread::hardware_concurrency()));
  const double start = ProcessCpuMs();
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < sums.size(); ++t) {
      threads.emplace_back([&sums, t] { sums[t] = ProbeThread(t + 1); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double ms = ProcessCpuMs() - start;
  double total = 0.0;
  for (double sum : sums) total += sum;
  std::printf("%.17g %.17g\n", ms, total);
  return 0;
}

// Runs `csod_ledger --probe` and returns the CPU time it reports, or 0 if
// it could not run.
double ProbeMs() {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return 0.0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  char arg0[] = "csod_ledger";
  char arg1[] = "--probe";
  char* argv[] = {arg0, arg1, nullptr};
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string text;
  char chunk[256];
  ssize_t n = 0;
  while (spawned == 0 &&
         ((n = ::read(fds[0], chunk, sizeof(chunk))) > 0 ||
          (n < 0 && errno == EINTR))) {
    if (n > 0) text.append(chunk, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  if (spawned != 0) return 0.0;
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) return 0.0;
  return std::strtod(text.c_str(), nullptr);
}

// The clocks of a measured phase: wall and process CPU time since it
// started, minus the checks, replays and probes run through Exclude.
class Phase {
 public:
  // Only for closed loops, where nothing else in the process runs while
  // `fn` does.
  template <typename Fn>
  void Exclude(Fn&& fn) {
    const Clock::time_point start = Clock::now();
    const double cpu = ProcessCpuMs();
    fn();
    excluded_cpu_ms_ += ProcessCpuMs() - cpu;
    excluded_wall_ms_ += MsSince(start);
  }

  // Closed loops, between ops: whether a probe is due, once per
  // kProbeEveryMs of phase time.
  bool ProbeDue() {
    if (WallMs() < next_probe_ms_) return false;
    next_probe_ms_ = WallMs() + kProbeEveryMs;
    return true;
  }

  double WallMs() const { return MsSince(start_) - excluded_wall_ms_; }
  double CpuMs() const {
    return ProcessCpuMs() - cpu_start_ - excluded_cpu_ms_;
  }

 private:
  Clock::time_point start_ = Clock::now();
  double cpu_start_ = ProcessCpuMs();
  double excluded_wall_ms_ = 0.0;
  double excluded_cpu_ms_ = 0.0;
  double next_probe_ms_ = 0.0;
};

// Linear interpolation between closest ranks; 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return Ratio(sum, static_cast<double>(values.size()));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double PeakRssMb() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

std::string QueryText(const char* kind, size_t k) {
  return std::string("SELECT ") + kind + " " + std::to_string(k) +
         " SUM(score), key FROM " + kTenant + " GROUP BY key";
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

// Total time and count of a set of spans (or of a telemetry span).
struct Layer {
  double total_ms = 0.0;
  double count = 0.0;
  double MeanMs() const { return Ratio(total_ms, count); }
};

// In-memory span recorder of the traced pass, written out at exit. A span is
// one timed call; `parent` is the span it decomposes and `request` the client
// operation it belongs to. Replays run after the client call they decompose,
// so the tree is logical rather than nested in time.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  uint64_t NewRequest() { return next_request_.fetch_add(1) + 1; }

  // Returns the span's id; ids are 1-based, 0 means "no parent".
  uint64_t Record(const char* name, uint64_t parent, uint64_t request,
                  Clock::time_point start, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{parent, request, name, start, end});
    return spans_.size();
  }

  // The spans named `name`; with `parent`, only those whose parent span is
  // named `parent`.
  Layer Sum(const char* name, const char* parent = nullptr) const {
    std::lock_guard<std::mutex> lock(mu_);
    Layer layer;
    for (const Span& s : spans_) {
      if (std::strcmp(s.name, name) != 0) continue;
      if (parent != nullptr &&
          (s.parent == 0 ||
           std::strcmp(spans_[s.parent - 1].name, parent) != 0)) {
        continue;
      }
      layer.total_ms += MsBetween(s.start, s.end);
      layer.count += 1.0;
    }
    return layer;
  }

  // The spans named `name` that some replay decomposes (have a child).
  Layer Replayed(const char* name) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<bool> has_child(spans_.size() + 1, false);
    for (const Span& s : spans_) has_child[s.parent] = true;
    Layer layer;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (!has_child[i + 1] || std::strcmp(spans_[i].name, name) != 0) {
        continue;
      }
      layer.total_ms += MsBetween(spans_[i].start, spans_[i].end);
      layer.count += 1.0;
    }
    return layer;
  }

  Status Write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return Status::InvalidArgument("cannot write trace file " + path);
    }
    std::fprintf(out, "{\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s{\"id\": %zu, \"parent\": %llu, \"request\": %llu, "
                   "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}",
                   i == 0 ? "" : ",\n", i + 1,
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request), s.name,
                   1e3 * MsBetween(origin_, s.start),
                   1e3 * MsBetween(origin_, s.end));
    }
    std::fprintf(out, "\n]}\n");
    if (std::fclose(out) != 0) {
      return Status::Internal("short write to trace file " + path);
    }
    return Status::OK();
  }

 private:
  struct Span {
    uint64_t parent;
    uint64_t request;
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };

  Clock::time_point origin_;
  std::atomic<uint64_t> next_request_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

struct Timing {
  uint64_t span = 0;
  double ms = 0.0;
};

// Times `fn`, recording it as a span when a tracer is attached.
template <typename Fn>
Timing Timed(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  Timing timing;
  timing.ms = MsBetween(start, end);
  if (tracer != nullptr) {
    timing.span = tracer->Record(name, parent, request, start, end);
  }
  return timing;
}

// What the traced pass records: the client and replay spans, the telemetry
// of the system under test (`live`), and that of the replica NetServer
// (`replica`), whose inner time is taken out of its HandleFrame spans.
struct Trace {
  explicit Trace(Clock::time_point origin) : spans(origin) {}

  // Set-up traffic is not part of the measured phase.
  void ResetTelemetry() {
    live.Reset();
    replica.Reset();
  }

  Tracer spans;
  obs::Telemetry live;
  obs::Telemetry replica;
};

Layer TelemetrySpan(const obs::Telemetry& telemetry, const char* name) {
  const obs::SpanStats stats = telemetry.span(name);
  return Layer{1e3 * stats.total_seconds, static_cast<double>(stats.count)};
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

// What one pass over a workload measured. An op is the workload's unit of
// work (LEDGER.md): a batch, a query, an epoch of mixed traffic, or a
// detect; the latency sample is that of its primary call. The rest feeds
// the per-layer metrics.
struct PhaseResult {
  std::vector<double> setup_s;  // Process CPU seconds per set-up.
  std::vector<double> probe_ms;  // ProbeMs samples (Probe).
  std::vector<double> latency_ms;
  double ops = 0.0;
  double cpu_ms = 0.0;      // Phase process CPU time minus replays, checks.
  double wire_bytes = 0.0;  // Bytes the ops put on the wire.
  double work_units = 0.0;  // Updates, queries or detects completed.
  double measured_s = 0.0;  // Phase wall time minus replays and checks.
  // Read when the measured phase ends, before any check builds a reference.
  double peak_rss_mb = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t checks = 0;
  std::vector<std::string> failed_checks;

  std::vector<double> publish_ms, write_ack_ms, lag_ms, result_age_ms;
  uint64_t ingest_events = 0;
  uint64_t ingest_bytes = 0;
  uint64_t retries = 0;
  uint64_t pushbacks = 0;
  uint64_t queries = 0;
  uint64_t repeated_queries = 0;
  std::vector<double> detect_ek;

  // Folds in the mixed workload's writer thread.
  void MergeWriter(const PhaseResult& w) {
    attempted += w.attempted;
    failed += w.failed;
    checks += w.checks;
    failed_checks.insert(failed_checks.end(), w.failed_checks.begin(),
                         w.failed_checks.end());
    publish_ms = w.publish_ms;
    write_ack_ms = w.write_ack_ms;
    lag_ms = w.lag_ms;
    ingest_events += w.ingest_events;
    ingest_bytes += w.ingest_bytes;
  }
};

void Check(PhaseResult* out, bool ok, const std::string& what) {
  ++out->checks;
  if (!ok && out->failed_checks.size() < 64) out->failed_checks.push_back(what);
}

void Expect(PhaseResult* out, const Status& status, const std::string& what) {
  Check(out, status.ok(), what + ": " + status.ToString());
}

// One host-speed sample, taken before each set-up, between ops and after
// the phase; a probe that could not run fails a check.
void Probe(PhaseResult* out) {
  const double ms = ProbeMs();
  Check(out, ms > 0.0, "the host-speed probe ran");
  if (ms > 0.0) out->probe_ms.push_back(ms);
}

// Closed loops, between ops, left out of the phase's clocks.
void MaybeProbe(Phase* phase, PhaseResult* out) {
  if (phase->ProbeDue()) phase->Exclude([&] { Probe(out); });
}

// After the phase's clocks are read; the only samples `mixed` has besides
// the set-up ones, since its open loops cannot be paused.
void ProbeAfterPhase(PhaseResult* out) {
  for (size_t i = 0; i < kProbesAfterPhase; ++i) Probe(out);
}

// ---------------------------------------------------------------------------
// Inputs (pre-generated from --seed, excluded from every timing)
// ---------------------------------------------------------------------------

struct Batch {
  std::vector<size_t> keys;
  std::vector<double> deltas;
};

// Planted outlier i (0 the hottest): key N/3 + i·N/10. At N = 50,000 every
// planted key has five digits, so answers, which carry keys as decimal
// strings, have the same size on every seed.
size_t PlantedKey(const ServeConfig& c, size_t i) {
  return c.n / 3 + i * (c.n / 10);
}

// A seeded pool of batches; every batch opens with the k planted keys, with
// deltas 5e5, 4.5e5, ... far above the uniform background. Batch b of a
// stream is pool[b % pool size].
std::vector<Batch> MakeBatchPool(const ServeConfig& c, uint64_t seed) {
  Rng rng(SplitMix64(seed));
  std::vector<Batch> pool(c.pool_batches);
  for (Batch& batch : pool) {
    batch.keys.resize(c.batch);
    batch.deltas.resize(c.batch);
    for (size_t i = 0; i < c.batch; ++i) {
      batch.keys[i] = static_cast<size_t>(rng.NextBounded(c.n));
      batch.deltas[i] = 100.0 * (0.5 + rng.NextDouble());
    }
    for (size_t i = 0; i < c.k; ++i) {
      batch.keys[i] = PlantedKey(c, i);
      batch.deltas[i] = 5.0e5 - 5.0e4 * static_cast<double>(i);
    }
  }
  return pool;
}

struct Dataset {
  std::vector<cs::SparseSlice> slices;
  outlier::OutlierSet truth;
};

Result<std::vector<Dataset>> MakeDatasets(const DetectConfig& c,
                                          uint64_t seed) {
  std::vector<Dataset> datasets(c.datasets);
  for (size_t d = 0; d < c.datasets; ++d) {
    workload::ClickLogOptions gen;
    gen.score_type = workload::ClickScoreType::kCoreSearch;
    gen.n_override = c.n;
    gen.sparsity_override = c.sparsity;
    gen.seed = HashCombine(seed, d);
    CSOD_ASSIGN_OR_RETURN(workload::ClickLogData data,
                          workload::GenerateClickLog(gen));
    workload::PartitionOptions part;
    part.num_nodes = c.nodes;
    part.strategy = workload::PartitionStrategy::kSkewedSplit;
    part.cancellation_noise = c.cancellation_noise;
    part.seed = HashCombine(seed, d) + 1;
    CSOD_ASSIGN_OR_RETURN(datasets[d].slices,
                          workload::PartitionAdditive(data.global, part));
    datasets[d].truth = outlier::ExactKOutliers(data.global, c.k);
  }
  return datasets;
}

// ---------------------------------------------------------------------------
// The service under test and its connections
// ---------------------------------------------------------------------------

serve::StreamingDetectorOptions DetectorOptions(const ServeConfig& c) {
  serve::StreamingDetectorOptions options;
  options.n = c.n;
  options.m = c.m;
  options.seed = c.phi_seed;
  options.window_epochs = c.window;
  options.num_shards = c.shards;
  return options;
}

// `telemetry` (null: disabled) receives the service's own spans and counters.
struct ServeStack {
  explicit ServeStack(obs::Telemetry* telemetry) : service(telemetry) {}

  serve::StreamingService service;
  serve::NetServer server{&service};
  std::shared_ptr<serve::StreamingDetector> detector;
};

Result<std::unique_ptr<ServeStack>> MakeServeStack(const ServeConfig& c,
                                                   obs::Telemetry* telemetry) {
  auto stack = std::make_unique<ServeStack>(telemetry);
  CSOD_RETURN_NOT_OK(stack->service.AddTenant(kTenant, DetectorOptions(c)));
  CSOD_ASSIGN_OR_RETURN(stack->detector, stack->service.Tenant(kTenant));
  return stack;
}

// Forwards to the socket and, while `recording`, keeps the last request and
// response frames so the replays can be compared with them byte for byte.
class RecordingTransport final : public serve::FrameTransport {
 public:
  explicit RecordingTransport(serve::FrameTransport* inner) : inner_(inner) {}

  Result<std::string> RoundTrip(const std::string& frame) override {
    Result<std::string> response = inner_->RoundTrip(frame);
    if (recording) {
      last_request = frame;
      last_response = response.ok() ? response.Value() : std::string();
    }
    return response;
  }

  bool recording = false;
  std::string last_request;
  std::string last_response;

 private:
  serve::FrameTransport* inner_;
};

// One client connection: a socketpair whose server end a ServeConnection
// thread serves, and a NetClient on the other end.
class Connection {
 public:
  static Result<std::unique_ptr<Connection>> Open(serve::NetServer* server) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      return Status::Internal(std::string("socketpair: ") +
                              std::strerror(errno));
    }
    return std::unique_ptr<Connection>(new Connection(fds[0], fds[1], server));
  }

  ~Connection() {
    ::shutdown(client_fd_, SHUT_RDWR);  // ServeConnection sees a clean EOF.
    thread_.join();
    ::close(server_fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  serve::NetClient& client() { return client_; }
  RecordingTransport& recorder() { return recorder_; }

 private:
  Connection(int client_fd, int server_fd, serve::NetServer* server)
      : client_fd_(client_fd),
        server_fd_(server_fd),
        socket_(client_fd),
        recorder_(&socket_),
        client_(&recorder_),
        thread_([this, server] {
          (void)serve::ServeConnection(server_fd_, server);
        }) {}

  int client_fd_;
  int server_fd_;
  serve::SocketTransport socket_;  // Owns client_fd_.
  RecordingTransport recorder_;
  serve::NetClient client_;
  std::thread thread_;
};

bool ReadFull(int fd, char* data, size_t size) {
  while (size > 0) {
    const ssize_t got = ::read(fd, data, size);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    data += got;
    size -= static_cast<size_t>(got);
  }
  return true;
}

bool WriteFull(int fd, const char* data, size_t size) {
  while (size > 0) {
    const ssize_t put = ::send(fd, data, size, MSG_NOSIGNAL);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    data += put;
    size -= static_cast<size_t>(put);
  }
  return true;
}

// The transport layer on its own: a SocketTransport whose peer thread
// answers every length-prefixed frame with `reply_bytes` bytes, unhandled.
class EchoPeer {
 public:
  static Result<std::unique_ptr<EchoPeer>> Open() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      return Status::Internal(std::string("socketpair: ") +
                              std::strerror(errno));
    }
    return std::unique_ptr<EchoPeer>(new EchoPeer(fds[0], fds[1]));
  }

  ~EchoPeer() {
    ::shutdown(client_fd_, SHUT_RDWR);
    thread_.join();
    ::close(peer_fd_);
  }
  EchoPeer(const EchoPeer&) = delete;
  EchoPeer& operator=(const EchoPeer&) = delete;

  Status RoundTrip(const std::string& frame, size_t reply_bytes) {
    reply_bytes_.store(reply_bytes);
    CSOD_ASSIGN_OR_RETURN(std::string reply, socket_.RoundTrip(frame));
    if (reply.size() != reply_bytes) {
      return Status::Internal("echo reply of unexpected size");
    }
    return Status::OK();
  }

 private:
  EchoPeer(int client_fd, int peer_fd)
      : client_fd_(client_fd),
        peer_fd_(peer_fd),
        socket_(client_fd),
        thread_([this] { Serve(); }) {}

  void Serve() {
    std::string frame;
    std::string reply;
    while (true) {
      uint32_t length = 0;
      if (!ReadFull(peer_fd_, reinterpret_cast<char*>(&length), 4)) return;
      frame.resize(length);
      if (!ReadFull(peer_fd_, frame.data(), length)) return;
      const uint32_t reply_length = static_cast<uint32_t>(reply_bytes_.load());
      reply.assign(reply_length, '\0');
      const char* prefix = reinterpret_cast<const char*>(&reply_length);
      if (!WriteFull(peer_fd_, prefix, 4) ||
          !WriteFull(peer_fd_, reply.data(), reply.size())) {
        return;
      }
    }
  }

  int client_fd_;
  int peer_fd_;
  serve::SocketTransport socket_;  // Owns client_fd_.
  std::atomic<size_t> reply_bytes_{0};
  std::thread thread_;
};

// The system under test for one serve run. Connections are declared after
// the stack so they close (and join their server threads) first.
struct ServeSession {
  std::unique_ptr<ServeStack> stack;
  std::vector<std::unique_ptr<Connection>> connections;
};

// The service, `connections` client connections, and epoch 0 opened.
Result<std::unique_ptr<ServeSession>> OpenSession(const ServeConfig& c,
                                                  size_t connections,
                                                  obs::Telemetry* telemetry) {
  auto session = std::make_unique<ServeSession>();
  CSOD_ASSIGN_OR_RETURN(session->stack, MakeServeStack(c, telemetry));
  for (size_t i = 0; i < connections; ++i) {
    CSOD_ASSIGN_OR_RETURN(std::unique_ptr<Connection> connection,
                          Connection::Open(&session->stack->server));
    session->connections.push_back(std::move(connection));
  }
  CSOD_RETURN_NOT_OK(
      session->connections[0]->client().AdvanceTo(kTenant, 0).status());
  return session;
}

// ---------------------------------------------------------------------------
// Replays: the layers the service's telemetry does not split, on replicas
// ---------------------------------------------------------------------------

// Two replicas, fed the same frames and batches as the server: `h` is a
// NetServer (frames through HandleFrame; its telemetry gives the time spent
// below HandleFrame), and `l` the fold primitives composed by hand
// (ScatterPartitions -> MultiplySparseBatch -> IngestMeasurement) on a
// WindowedOutlierDetector whose ring is W + 1 deep like the detector's.
struct Replicas {
  size_t shards = 0;
  size_t m = 0;
  std::unique_ptr<ServeStack> h;
  std::unique_ptr<core::WindowedOutlierDetector> l;
  std::vector<double> per_slice;
  std::vector<double> shard_y;
};

Result<std::unique_ptr<Replicas>> MakeReplicas(const ServeConfig& c,
                                               obs::Telemetry* telemetry) {
  auto r = std::make_unique<Replicas>();
  r->shards = c.shards;
  r->m = c.m;
  CSOD_ASSIGN_OR_RETURN(r->h, MakeServeStack(c, telemetry));
  core::WindowedDetectorOptions options;
  options.n = c.n;
  options.m = c.m;
  options.seed = c.phi_seed;
  options.window_epochs = c.window + 1;
  CSOD_ASSIGN_OR_RETURN(r->l, core::WindowedOutlierDetector::Create(options));
  // Open epoch 0, as the client's first AdvanceTo does on the server.
  CSOD_RETURN_NOT_OK(r->h->service.AdvanceTo(kTenant, 0).status());
  r->l->AdvanceEpoch();
  return r;
}

// Where replays go. A null tracer mirrors operations into the replicas
// untimed (set-up). The `sent`/`received` arguments below are the client's
// frames, empty when not recorded.
struct ReplayContext {
  Tracer* tracer = nullptr;
  EchoPeer* echo = nullptr;
  Replicas* replicas = nullptr;
  PhaseResult* out = nullptr;
};

// The wire half of a replay: encodes the request (compared with the frame
// the client sent), times the bare transport, and has the replica NetServer
// handle it (compared with the server's response). Returns the handle span.
template <typename Encode>
uint64_t ReplayFrame(const ReplayContext& ctx, Encode&& encode,
                     const std::string& sent, const std::string& received,
                     uint64_t parent, uint64_t request) {
  Result<std::string> frame = Status::Internal("not encoded");
  Timed(ctx.tracer, "serve.net.encode", parent, request,
        [&] { frame = encode(); });
  Expect(ctx.out, frame.status(), "encode request frame");
  if (!frame.ok()) return 0;
  if (!sent.empty()) {
    Check(ctx.out, frame.Value() == sent, "replayed frame == client frame");
  }
  if (ctx.echo != nullptr) {
    Status status;
    Timed(ctx.tracer, "serve.net.transport", parent, request, [&] {
      status = ctx.echo->RoundTrip(frame.Value(), received.size());
    });
    Expect(ctx.out, status, "echo transport");
  }
  std::string response;
  const Timing handle =
      Timed(ctx.tracer, "serve.net.handle", parent, request, [&] {
        response = ctx.replicas->h->server.HandleFrame(frame.Value());
      });
  if (!received.empty()) {
    Check(ctx.out, response == received,
          "replica NetServer response == server response");
  }
  return handle.span;
}

void ReplayIngest(const ReplayContext& ctx, const Batch& batch,
                  const std::string& sent, const std::string& received,
                  uint64_t parent, uint64_t request) {
  Replicas& r = *ctx.replicas;
  const uint64_t handle = ReplayFrame(
      ctx,
      [&] {
        cs::SparseSlice slice;  // NetClient::Ingest copies the batch too.
        slice.indices = batch.keys;
        slice.values = batch.deltas;
        return serve::EncodeIngestRequest(kTenant, slice);
      },
      sent, received, parent, request);

  // The pieces of StreamingDetector::IngestBatch, children of HandleFrame.
  // ScatterPartitions moves values out of its input run, so it gets a copy.
  std::vector<double> values = batch.deltas;
  Arena arena;
  std::vector<ColumnChunks<size_t>> key_store;
  std::vector<ColumnChunks<double>> value_store;
  std::vector<mr::PartitionBlock<size_t, double>> blocks;
  std::vector<cs::SparseVectorView> views(r.shards);
  Timed(ctx.tracer, "mapreduce.scatter", handle, request, [&] {
    auto one_run = [&](auto&& fn) {
      fn(batch.keys.data(), values.data(), values.size());
    };
    mr::ScatterPartitions(
        values.size(), r.shards, &arena,
        [](size_t key) { return SplitMix64(static_cast<uint64_t>(key)); },
        one_run, &key_store, &value_store, &blocks);
    for (size_t p = 0; p < r.shards; ++p) {
      if (key_store[p].size() == 0) continue;
      views[p] = cs::SparseVectorView{key_store[p].chunk_data(0),
                                      value_store[p].chunk_data(0),
                                      key_store[p].size()};
    }
  });
  Status status;
  Timed(ctx.tracer, "cs.multiply_sparse_batch", handle, request, [&] {
    status = r.l->matrix().MultiplySparseBatch(views, nullptr, &r.per_slice);
  });
  Expect(ctx.out, status, "MultiplySparseBatch replay");
  Timed(ctx.tracer, "core.fold", handle, request, [&] {
    for (size_t p = 0; p < r.shards && status.ok(); ++p) {
      const double* segment = r.per_slice.data() + p * r.m;
      r.shard_y.assign(segment, segment + r.m);
      status = r.l->IngestMeasurement(r.shard_y);
    }
  });
  Expect(ctx.out, status, "IngestMeasurement replay");
}

// `server` is the detector under test when the replicas mirror every write
// (its window must then match too), null when they see a sample.
void ReplayAdvance(const ReplayContext& ctx, uint64_t tick,
                   const std::string& sent, const std::string& received,
                   const serve::StreamingDetector* server, uint64_t parent,
                   uint64_t request) {
  Replicas& r = *ctx.replicas;
  ReplayFrame(
      ctx, [&] { return serve::EncodeAdvanceRequest(kTenant, tick); }, sent,
      received, parent, request);
  r.l->AdvanceEpoch();
  const Result<std::vector<double>> window = r.l->ClosedWindowMeasurement();
  const auto from_h = r.h->detector->Snapshot();
  bool same = window.ok() && from_h != nullptr &&
              SameBits(from_h->y, window.Value());
  if (server != nullptr) {
    const auto published = server->Snapshot();
    same = same && published != nullptr && SameBits(published->y, from_h->y);
  }
  Check(ctx.out, same,
        "replica windows agree bit for bit at tick " + std::to_string(tick));
}

// The rank step of StreamingService::QueryTenant: Outlier rows from
// KOutliersFromRecovery; Top rows by value descending, ties toward the
// lower key, as StreamingDetector::QueryTopK orders them.
std::vector<query::ResultRow> RankRows(const query::Query& q,
                                       const cs::BompResult& recovery,
                                       double* mode) {
  std::vector<query::ResultRow> rows;
  *mode = 0.0;
  if (q.kind == query::QueryKind::kOutlier) {
    const outlier::OutlierSet set =
        outlier::KOutliersFromRecovery(recovery, q.k);
    *mode = set.mode;
    for (const outlier::Outlier& o : set.outliers) {
      rows.push_back({std::to_string(o.key_index), o.value, o.divergence});
    }
    return rows;
  }
  std::vector<cs::RecoveredEntry> top = recovery.entries;
  std::sort(top.begin(), top.end(),
            [](const cs::RecoveredEntry& a, const cs::RecoveredEntry& b) {
              if (a.value != b.value) return a.value > b.value;
              return a.index < b.index;
            });
  if (top.size() > q.k) top.resize(q.k);
  for (const cs::RecoveredEntry& e : top) {
    rows.push_back({std::to_string(e.index), e.value, e.value});
  }
  return rows;
}

bool SameRows(const std::vector<query::ResultRow>& rows, double mode,
              const serve::StreamingQueryResult& framed) {
  if (rows.size() != framed.rows.size() || !SameBits(mode, framed.mode)) {
    return false;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].group_key != framed.rows[i].group_key ||
        !SameBits(rows[i].value, framed.rows[i].value) ||
        !SameBits(rows[i].rank_score, framed.rows[i].rank_score)) {
      return false;
    }
  }
  return true;
}

bool SameResult(const serve::StreamingQueryResult& a,
                const serve::StreamingQueryResult& b) {
  return SameRows(a.rows, a.mode, b) && a.key_space == b.key_space &&
         a.snapshot_version == b.snapshot_version &&
         a.snapshot_first_epoch == b.snapshot_first_epoch &&
         a.snapshot_last_epoch == b.snapshot_last_epoch &&
         a.staleness_epochs == b.staleness_epochs &&
         a.stalled_shards == b.stalled_shards;
}

// The query path composed from public calls: ParseQuery -> Snapshot ->
// RecoverBiased -> rank, against `pinned` when given (else the snapshot the
// detector returns). True when it equals `framed` bit for bit. Recovery is
// timed by the service's telemetry, so here it only feeds the check.
bool ComposedQuery(const ReplayContext& ctx, const std::string& text,
                   const serve::StreamingDetector& detector,
                   std::shared_ptr<const serve::SketchSnapshot> pinned,
                   const serve::StreamingQueryResult& framed, uint64_t parent,
                   uint64_t request) {
  Result<query::Query> parsed = Status::Internal("not parsed");
  Timed(ctx.tracer, "query.parse", parent, request,
        [&] { parsed = query::ParseQuery(text); });
  std::shared_ptr<const serve::SketchSnapshot> snapshot =
      pinned != nullptr ? std::move(pinned) : detector.Snapshot();
  if (!parsed.ok() || snapshot == nullptr) return false;
  const query::Query& q = parsed.Value();
  cs::SolverOptions solve;
  solve.solver = detector.options().solver;
  solve.iterations = detector.options().iterations == 0
                         ? cs::DefaultIterationsForK(q.k)
                         : detector.options().iterations;
  const Result<cs::BompResult> recovery =
      cs::RecoverBiased(detector.matrix(), snapshot->y, solve);
  if (!recovery.ok()) return false;
  std::vector<query::ResultRow> rows;
  double mode = 0.0;
  Timed(ctx.tracer, "outlier.rank", parent, request,
        [&] { rows = RankRows(q, recovery.Value(), &mode); });
  if (ctx.tracer != nullptr) {
    // The kernel of one BOMP iteration on the same y, which no telemetry
    // span isolates; a root span, so it is not part of the query.
    Timed(ctx.tracer, "cs.correlate_argmax", 0, request,
          [&] { (void)detector.matrix().CorrelateArgmax(snapshot->y); });
  }
  return SameRows(rows, mode, framed);
}

// A framed query again through the replica NetServer, whose composed
// children run on the replica's detector.
void ReplayQuery(const ReplayContext& ctx, const std::string& text,
                 const std::string& sent, const std::string& received,
                 const serve::StreamingQueryResult& framed, uint64_t parent,
                 uint64_t request) {
  const uint64_t handle = ReplayFrame(
      ctx, [&] { return serve::EncodeQueryRequest(text); }, sent, received,
      parent, request);
  Check(ctx.out,
        ComposedQuery(ctx, text, *ctx.replicas->h->detector, nullptr, framed,
                      handle, request),
        "composed query == framed answer: " + text);
}

// ---------------------------------------------------------------------------
// Client calls of the serve workloads
// ---------------------------------------------------------------------------

uint64_t WireBytes(const serve::NetClient& client) {
  return client.stats().bytes_sent + client.stats().bytes_received;
}

// Replicas and the echo peer exist only in the traced pass.
struct TraceRig {
  std::unique_ptr<Replicas> replicas;
  std::unique_ptr<EchoPeer> echo;

  static Result<TraceRig> Make(const ServeConfig& c, Trace* trace) {
    TraceRig rig;
    if (trace == nullptr) return rig;
    // Φ0 construction, the bulk of a serve set-up, timed on its own.
    Timed(&trace->spans, "cs.matrix_build", 0, trace->spans.NewRequest(),
          [&] { cs::MeasurementMatrix matrix(c.m, c.n, c.phi_seed); });
    CSOD_ASSIGN_OR_RETURN(rig.replicas, MakeReplicas(c, &trace->replica));
    CSOD_ASSIGN_OR_RETURN(rig.echo, EchoPeer::Open());
    return rig;
  }
  ReplayContext Context(Tracer* tracer, PhaseResult* out) const {
    return ReplayContext{tracer, echo.get(), replicas.get(), out};
  }
  // Set-up writes reach the replicas untimed.
  ReplayContext Mirror(PhaseResult* out) const {
    return ReplayContext{nullptr, nullptr, replicas.get(), out};
  }
};

// The write side of a serve run: framed ingest and advance calls on one
// connection, counted in `ctx.out` and, in the traced pass, replayed.
struct Writer {
  Connection* conn;
  ReplayContext ctx;
  // The server, when the replicas see every write (their windows must then
  // equal its window); null when they see a sample.
  const serve::StreamingDetector* mirrored = nullptr;
  // The phase to leave replays out of; null keeps them in.
  Phase* phase = nullptr;

  // Returns the call's timing, or nothing if the server refused the batch.
  std::optional<Timing> Ingest(const Batch& batch, bool replay) {
    serve::NetClient& client = conn->client();
    const uint64_t request = ctx.tracer ? ctx.tracer->NewRequest() : 0;
    const uint64_t sent_before = client.stats().bytes_sent;
    Status status;
    const Timing call = Timed(ctx.tracer, "client.ingest", 0, request, [&] {
      status = client.Ingest(kTenant, batch.keys, batch.deltas);
    });
    if (!Count(status)) return std::nullopt;
    ctx.out->ingest_events += batch.keys.size();
    ctx.out->ingest_bytes += client.stats().bytes_sent - sent_before;
    if (ctx.tracer != nullptr && replay) {
      Replay([&] {
        ReplayIngest(ctx, batch, conn->recorder().last_request,
                     conn->recorder().last_response, call.span, request);
      });
    }
    return call;
  }

  // Moves the virtual clock to `tick`, closing and publishing one epoch.
  bool Advance(uint64_t tick) {
    const uint64_t request = ctx.tracer ? ctx.tracer->NewRequest() : 0;
    Status status;
    const Timing call = Timed(ctx.tracer, "client.advance", 0, request, [&] {
      status = conn->client().AdvanceTo(kTenant, tick).status();
    });
    if (!Count(status)) return false;
    ctx.out->publish_ms.push_back(call.ms);
    if (ctx.tracer != nullptr) {
      Replay([&] {
        ReplayAdvance(ctx, tick, conn->recorder().last_request,
                      conn->recorder().last_response, mirrored, call.span,
                      request);
      });
    }
    return true;
  }

  template <typename Fn>
  void Replay(Fn&& fn) {
    if (phase != nullptr) {
      phase->Exclude(fn);
    } else {
      fn();
    }
  }

  bool Count(const Status& status) {
    ++ctx.out->attempted;
    if (!status.ok()) ++ctx.out->failed;
    return status.ok();
  }
};

// One framed query, counted in `out`.
Result<serve::StreamingQueryResult> SendQuery(Tracer* tracer,
                                              serve::NetClient& client,
                                              const std::string& text,
                                              uint64_t request, Timing* call,
                                              PhaseResult* out) {
  Result<serve::StreamingQueryResult> framed = Status::Internal("not run");
  *call = Timed(tracer, "client.query", 0, request,
                [&] { framed = client.Query(text); });
  ++out->attempted;
  if (!framed.ok()) ++out->failed;
  return framed;
}

// ---------------------------------------------------------------------------
// Output checks of the serve workloads
// ---------------------------------------------------------------------------

// The serve determinism contract: a published window is bit-identical to a
// WindowedOutlierDetector fed the same per-(batch, shard) slices in shard
// order.
Result<std::vector<double>> ReferenceWindow(const ServeConfig& c,
                                            const std::vector<Batch>& pool,
                                            uint64_t first_batch,
                                            size_t batches_per_epoch,
                                            size_t epochs) {
  core::WindowedDetectorOptions options;
  options.n = c.n;
  options.m = c.m;
  options.seed = c.phi_seed;
  options.window_epochs = epochs + 1;
  CSOD_ASSIGN_OR_RETURN(auto reference,
                        core::WindowedOutlierDetector::Create(options));
  reference->AdvanceEpoch();
  std::vector<cs::SparseSlice> slices(c.shards);
  for (size_t e = 0; e < epochs; ++e) {
    for (size_t j = 0; j < batches_per_epoch; ++j) {
      const Batch& batch =
          pool[(first_batch + e * batches_per_epoch + j) % pool.size()];
      for (cs::SparseSlice& slice : slices) {
        slice.indices.clear();
        slice.values.clear();
      }
      for (size_t i = 0; i < batch.keys.size(); ++i) {
        cs::SparseSlice& slice = slices[serve::StreamingDetector::ShardOfKey(
            batch.keys[i], c.shards)];
        slice.indices.push_back(batch.keys[i]);
        slice.values.push_back(batch.deltas[i]);
      }
      for (const cs::SparseSlice& slice : slices) {
        CSOD_RETURN_NOT_OK(reference->Ingest(slice));
      }
    }
    reference->AdvanceEpoch();
  }
  return reference->ClosedWindowMeasurement();
}

// Fetches the window over the wire and compares it with the reference fed
// the stream's last W epochs, after `epochs_closed` epochs of
// `batches_per_epoch` batches each, batch ids counting from 0.
Status CheckFinalWindow(const ServeConfig& c, const std::vector<Batch>& pool,
                        serve::NetClient* client, uint64_t epochs_closed,
                        size_t batches_per_epoch, PhaseResult* out) {
  CSOD_ASSIGN_OR_RETURN(serve::SketchSnapshot snapshot,
                        client->FetchSnapshot(kTenant));
  const size_t covered = snapshot.epochs_covered;
  Check(out, covered == std::min<uint64_t>(epochs_closed, c.window),
        "final snapshot covers the last W closed epochs");
  if (covered == 0 || covered > epochs_closed) return Status::OK();
  CSOD_ASSIGN_OR_RETURN(
      std::vector<double> reference,
      ReferenceWindow(c, pool, (epochs_closed - covered) * batches_per_epoch,
                      batches_per_epoch, covered));
  Check(out, SameBits(snapshot.y, reference),
        "final snapshot == reference window, bit for bit");
  return Status::OK();
}

// The answer's k rows are the k planted keys, the hottest first.
bool PlantedAnswer(const ServeConfig& c, const serve::StreamingQueryResult& r) {
  if (r.rows.size() != c.k ||
      r.rows[0].group_key != std::to_string(PlantedKey(c, 0))) {
    return false;
  }
  std::set<std::string> planted;
  for (size_t i = 0; i < c.k; ++i) {
    planted.insert(std::to_string(PlantedKey(c, i)));
  }
  for (const query::ResultRow& row : r.rows) {
    if (planted.erase(row.group_key) == 0) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Workload: ingest
// ---------------------------------------------------------------------------

Status RunIngest(const Config& cfg, const std::vector<Batch>& pool,
                 Trace* trace, PhaseResult* out) {
  const ServeConfig& c = cfg.serve;
  Tracer* tracer = trace ? &trace->spans : nullptr;
  CSOD_ASSIGN_OR_RETURN(TraceRig rig, TraceRig::Make(c, trace));
  std::unique_ptr<ServeSession> session;
  for (size_t rep = 0; rep < cfg.setup_repeats; ++rep) {
    session.reset();
    Probe(out);
    const double cpu = ProcessCpuMs();
    CSOD_ASSIGN_OR_RETURN(session,
                          OpenSession(c, 1, trace ? &trace->live : nullptr));
    out->setup_s.push_back((ProcessCpuMs() - cpu) / 1e3);
  }
  if (trace != nullptr) trace->ResetTelemetry();
  Connection& conn = *session->connections[0];
  serve::NetClient& client = conn.client();
  conn.recorder().recording = tracer != nullptr;
  Phase phase;
  Writer writer{&conn, rig.Context(tracer, out),
                session->stack->detector.get(), &phase};

  // An op is one batch, with its share of the epoch closes.
  const size_t bpe = c.ingest_batches_per_epoch;
  const uint64_t wire_before = WireBytes(client);
  uint64_t epoch = 0;
  while (phase.WallMs() < cfg.seconds * 1e3) {
    MaybeProbe(&phase, out);
    for (size_t j = 0; j < bpe; ++j) {
      const Batch& batch = pool[(epoch * bpe + j) % pool.size()];
      const std::optional<Timing> call = writer.Ingest(batch, true);
      if (!call) continue;
      out->latency_ms.push_back(call->ms);
      out->work_units += static_cast<double>(batch.keys.size());
      out->ops += 1.0;
    }
    writer.Advance(++epoch);
  }
  out->cpu_ms = phase.CpuMs();
  out->measured_s = phase.WallMs() / 1e3;
  out->wire_bytes = static_cast<double>(WireBytes(client) - wire_before);
  out->peak_rss_mb = PeakRssMb();
  ProbeAfterPhase(out);
  out->retries = client.stats().retries;
  out->pushbacks =
      client.stats().pushbacks + session->stack->server.pushbacks();

  // The window over the wire equals the reference fed the last W epochs;
  // the answer is the planted keys; the framed answer equals the in-process
  // one (and, traced, the composed one).
  CSOD_RETURN_NOT_OK(CheckFinalWindow(c, pool, &client, epoch, bpe, out));
  const std::string text = QueryText("Top", c.k);
  const uint64_t request = tracer ? tracer->NewRequest() : 0;
  Timing call;
  CSOD_ASSIGN_OR_RETURN(serve::StreamingQueryResult framed,
                        SendQuery(tracer, client, text, request, &call, out));
  CSOD_ASSIGN_OR_RETURN(serve::StreamingQueryResult local,
                        session->stack->service.Query(text));
  Check(out, PlantedAnswer(c, framed), "ingest: Top-k is the planted keys");
  Check(out, SameResult(framed, local),
        "ingest: framed answer == in-process answer");
  if (tracer != nullptr) {
    ReplayQuery(writer.ctx, text, conn.recorder().last_request,
                conn.recorder().last_response, framed, call.span, request);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Workload: query-repeat
// ---------------------------------------------------------------------------

Status RunQueryRepeat(const Config& cfg, const std::vector<Batch>& pool,
                      Trace* trace, PhaseResult* out) {
  const ServeConfig& c = cfg.serve;
  Tracer* tracer = trace ? &trace->spans : nullptr;
  CSOD_ASSIGN_OR_RETURN(TraceRig rig, TraceRig::Make(c, trace));
  const size_t bpe = c.ingest_batches_per_epoch;
  std::unique_ptr<ServeSession> session;
  for (size_t rep = 0; rep < cfg.setup_repeats; ++rep) {
    session.reset();
    Probe(out);
    const double cpu = ProcessCpuMs();
    CSOD_ASSIGN_OR_RETURN(session,
                          OpenSession(c, 1, trace ? &trace->live : nullptr));
    serve::NetClient& client = session->connections[0]->client();
    for (uint64_t e = 0; e < c.prefill_epochs; ++e) {
      for (size_t j = 0; j < bpe; ++j) {
        const Batch& batch = pool[(e * bpe + j) % pool.size()];
        CSOD_RETURN_NOT_OK(client.Ingest(kTenant, batch.keys, batch.deltas));
        if (tracer) ReplayIngest(rig.Mirror(out), batch, "", "", 0, 0);
      }
      CSOD_RETURN_NOT_OK(client.AdvanceTo(kTenant, e + 1).status());
      if (tracer) {
        ReplayAdvance(rig.Mirror(out), e + 1, "", "",
                      session->stack->detector.get(), 0, 0);
      }
    }
    out->setup_s.push_back((ProcessCpuMs() - cpu) / 1e3);
  }
  if (trace != nullptr) trace->ResetTelemetry();
  Connection& conn = *session->connections[0];
  serve::NetClient& client = conn.client();
  conn.recorder().recording = tracer != nullptr;
  Phase phase;
  Writer writer{&conn, rig.Context(tracer, out),
                session->stack->detector.get(), &phase};

  const std::string texts[2] = {QueryText("Outlier", c.k),
                                QueryText("Top", c.k)};
  // In-process answers per (snapshot version, query), computed once each.
  std::map<std::pair<uint64_t, int>, serve::StreamingQueryResult> expected;
  std::set<uint64_t> answered;  // Solver and R are fixed: the version decides.
  uint64_t epoch = c.prefill_epochs;
  // An op is one query, with its share of the epoch closes. The phase ends
  // after a whole Outlier/Top pair, so both texts weigh the same in the
  // bytes per query.
  for (uint64_t q = 0; q % 2 == 1 || phase.WallMs() < cfg.seconds * 1e3;
       ++q) {
    MaybeProbe(&phase, out);
    if (q > 0 && q % c.queries_per_epoch == 0) {
      // The analyst polls faster than epochs close.
      writer.Ingest(pool[(epoch * bpe) % pool.size()], true);
      writer.Advance(++epoch);
    }
    const int kind = static_cast<int>(q % 2);
    const uint64_t request = tracer ? tracer->NewRequest() : 0;
    const uint64_t wire_before = WireBytes(client);
    Timing call;
    Result<serve::StreamingQueryResult> framed =
        SendQuery(tracer, client, texts[kind], request, &call, out);
    if (!framed.ok()) continue;
    out->latency_ms.push_back(call.ms);
    out->work_units += 1.0;
    out->ops += 1.0;
    out->wire_bytes += static_cast<double>(WireBytes(client) - wire_before);

    Status status;
    phase.Exclude([&] {
      const uint64_t version = framed.Value().snapshot_version;
      ++out->queries;
      if (!answered.insert(version).second) ++out->repeated_queries;
      auto it = expected.find({version, kind});
      if (it == expected.end()) {
        Result<serve::StreamingQueryResult> local =
            session->stack->service.Query(texts[kind]);
        status = local.status();
        if (!status.ok()) return;
        it = expected.emplace(std::make_pair(version, kind), local.MoveValue())
                 .first;
      }
      Check(out, SameResult(framed.Value(), it->second),
            "query-repeat: framed answer == in-process answer, version " +
                std::to_string(version));
      Check(out, PlantedAnswer(c, framed.Value()),
            "query-repeat: the answer is the planted keys");
      if (tracer != nullptr) {
        ReplayQuery(writer.ctx, texts[kind], conn.recorder().last_request,
                    conn.recorder().last_response, framed.Value(), call.span,
                    request);
      }
    });
    CSOD_RETURN_NOT_OK(status);
  }
  out->cpu_ms = phase.CpuMs();
  out->measured_s = phase.WallMs() / 1e3;
  out->peak_rss_mb = PeakRssMb();
  ProbeAfterPhase(out);
  out->retries = client.stats().retries;
  out->pushbacks =
      client.stats().pushbacks + session->stack->server.pushbacks();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Workload: mixed
// ---------------------------------------------------------------------------

// What the writer thread publishes for the analyst.
struct MixedShared {
  std::mutex mu;
  // Per epoch: ms after t0 at which its last batch was acknowledged.
  std::vector<double> epoch_last_ack_ms;
  // Traced pass: every published snapshot by version, for the replays.
  std::map<uint64_t, std::shared_ptr<const serve::SketchSnapshot>> snapshots;
};

// The open-loop writer: batch b is due at t0 + (b - bpe) * period whatever
// the system's pace, and epoch e (batches [e * bpe, (e + 1) * bpe)) closes
// right after its last batch. Epoch 0 was written during set-up.
void MixedWriter(const ServeConfig& c, const std::vector<Batch>& pool,
                 size_t epochs, Clock::time_point t0,
                 const serve::StreamingDetector& server, Writer* writer,
                 MixedShared* shared) {
  PhaseResult* out = writer->ctx.out;
  const size_t bpe = c.mixed_batches_per_epoch;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(c.mixed_epoch_ms / bpe));
  for (uint64_t e = 1; e <= epochs; ++e) {
    double last_ack_ms = 0.0;
    for (size_t j = 0; j < bpe; ++j) {
      const uint64_t b = e * bpe + j;
      const Clock::time_point due = t0 + period * static_cast<int64_t>(b - bpe);
      std::this_thread::sleep_until(due);
      out->lag_ms.push_back(MsSince(due));
      const bool replay = b % c.mixed_trace_every == 0;
      if (!writer->Ingest(pool[b % pool.size()], replay)) continue;
      // Timed from the due time, so a stall also delays later batches.
      const Clock::time_point ack = Clock::now();
      out->write_ack_ms.push_back(MsBetween(due, ack));
      last_ack_ms = MsBetween(t0, ack);
    }
    {
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->epoch_last_ack_ms.push_back(last_ack_ms);
    }
    if (writer->Advance(e + 1) && writer->ctx.tracer != nullptr) {
      std::shared_ptr<const serve::SketchSnapshot> snapshot = server.Snapshot();
      std::lock_guard<std::mutex> lock(shared->mu);
      shared->snapshots[snapshot->version] = std::move(snapshot);
    }
  }
}

Status RunMixed(const Config& cfg, const std::vector<Batch>& pool,
                Trace* trace, PhaseResult* out) {
  const ServeConfig& c = cfg.serve;
  Tracer* tracer = trace ? &trace->spans : nullptr;
  CSOD_ASSIGN_OR_RETURN(TraceRig rig, TraceRig::Make(c, trace));
  PhaseResult writer_out;
  const size_t bpe = c.mixed_batches_per_epoch;
  std::unique_ptr<ServeSession> session;
  Clock::time_point setup_last_ack;
  for (size_t rep = 0; rep < cfg.setup_repeats; ++rep) {
    session.reset();
    Probe(out);
    const double cpu = ProcessCpuMs();
    CSOD_ASSIGN_OR_RETURN(session,
                          OpenSession(c, 2, trace ? &trace->live : nullptr));
    // Epoch 0 is written and closed here so that a snapshot exists before
    // the analyst's first query.
    serve::NetClient& client = session->connections[0]->client();
    for (size_t b = 0; b < bpe; ++b) {
      const Batch& batch = pool[b % pool.size()];
      CSOD_RETURN_NOT_OK(client.Ingest(kTenant, batch.keys, batch.deltas));
      setup_last_ack = Clock::now();
      if (tracer && b % c.mixed_trace_every == 0) {
        ReplayIngest(rig.Mirror(&writer_out), batch, "", "", 0, 0);
      }
    }
    CSOD_RETURN_NOT_OK(client.AdvanceTo(kTenant, 1).status());
    if (tracer) {
      ReplayAdvance(rig.Mirror(&writer_out), 1, "", "", nullptr, 0, 0);
    }
    out->setup_s.push_back((ProcessCpuMs() - cpu) / 1e3);
  }
  if (trace != nullptr) trace->ResetTelemetry();
  Connection& writer_conn = *session->connections[0];
  serve::NetClient& analyst = session->connections[1]->client();
  writer_conn.recorder().recording = tracer != nullptr;
  const ServeStack& stack = *session->stack;
  Writer writer{&writer_conn, rig.Context(tracer, &writer_out)};

  // An op is one epoch of traffic: its batches, its close, and its share of
  // the queries. Whole query periods only, so every run carries the same
  // traffic per epoch.
  const size_t every = c.mixed_query_every_epochs;
  const size_t epochs =
      std::max<size_t>(1, static_cast<size_t>(cfg.seconds * 1e3 /
                                              c.mixed_epoch_ms) /
                              every) *
      every;
  const uint64_t wire_before = WireBytes(writer_conn.client()) +
                               WireBytes(analyst);
  Phase phase;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
  MixedShared shared;
  shared.epoch_last_ack_ms.push_back(MsBetween(t0, setup_last_ack));
  Clock::time_point writer_end;
  std::thread writer_thread([&] {
    MixedWriter(c, pool, epochs, t0, *stack.detector, &writer, &shared);
    writer_end = Clock::now();
  });

  // The open-loop analyst: query i is due at t0 + i query periods, and its
  // latency is timed from then, so a slow answer also delays later ones.
  const ReplayContext ctx = rig.Context(tracer, out);
  const std::string text = QueryText("Top", c.k);
  const auto query_period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(c.mixed_epoch_ms * every));
  std::set<uint64_t> answered;
  // Traced pass: the answers to replay once the schedule is over, so the
  // replays (a recovery each) do not make later queries late.
  struct Answer {
    std::shared_ptr<const serve::SketchSnapshot> sent_at;
    serve::StreamingQueryResult framed;
    uint64_t span;
    uint64_t request;
  };
  std::vector<Answer> to_replay;
  for (size_t i = 0; i < epochs / every; ++i) {
    const Clock::time_point due = t0 + query_period * static_cast<int64_t>(i);
    std::this_thread::sleep_until(due);
    // The answer names the snapshot current when the server finished, not
    // the one it answered from (QueryTenant re-reads it; LEDGER.md), and
    // epochs close faster than a query completes. The snapshot current when
    // the query is sent is the one the server grabs, unless an epoch closes
    // in the microseconds between: then it is the next one.
    const std::shared_ptr<const serve::SketchSnapshot> sent_at =
        stack.detector->Snapshot();
    const uint64_t request = tracer ? tracer->NewRequest() : 0;
    Timing call;
    Result<serve::StreamingQueryResult> framed =
        SendQuery(tracer, analyst, text, request, &call, out);
    const double answered_ms = MsSince(t0);
    if (!framed.ok()) continue;
    out->latency_ms.push_back(answered_ms - MsBetween(t0, due));
    Check(out, PlantedAnswer(c, framed.Value()),
          "mixed: the answer is the planted keys");
    ++out->queries;
    if (!answered.insert(sent_at->version).second) ++out->repeated_queries;
    {
      std::lock_guard<std::mutex> lock(shared.mu);
      out->result_age_ms.push_back(
          answered_ms - shared.epoch_last_ack_ms[sent_at->last_epoch]);
    }
    if (tracer != nullptr) {
      to_replay.push_back({sent_at, framed.MoveValue(), call.span, request});
    }
  }
  writer_thread.join();
  out->cpu_ms = phase.CpuMs();
  out->peak_rss_mb = PeakRssMb();
  ProbeAfterPhase(out);
  out->ops = static_cast<double>(epochs);
  out->wire_bytes = static_cast<double>(WireBytes(writer_conn.client()) +
                                        WireBytes(analyst) - wire_before);
  for (const Answer& a : to_replay) {
    bool same = ComposedQuery(ctx, text, *stack.detector, a.sent_at, a.framed,
                              a.span, a.request);
    auto next = shared.snapshots.find(a.sent_at->version + 1);
    if (!same && next != shared.snapshots.end()) {
      same = ComposedQuery(rig.Mirror(out), text, *stack.detector,
                           next->second, a.framed, 0, 0);
    }
    Check(out, same, "mixed: composed query == framed answer");
  }
  out->MergeWriter(writer_out);
  out->measured_s = MsBetween(t0, writer_end) / 1e3;
  out->work_units = static_cast<double>(out->ingest_events);
  out->retries = writer_conn.client().stats().retries + analyst.stats().retries;
  out->pushbacks = writer_conn.client().stats().pushbacks +
                   analyst.stats().pushbacks + stack.server.pushbacks();

  // Quiesced: epochs 0..epochs are closed and nothing is in flight.
  return CheckFinalWindow(c, pool, &writer_conn.client(), epochs + 1, bpe,
                          out);
}

// ---------------------------------------------------------------------------
// Workload: batch-detect
// ---------------------------------------------------------------------------

bool SameOutliers(const outlier::OutlierSet& a, const outlier::OutlierSet& b) {
  if (!SameBits(a.mode, b.mode) || a.outliers.size() != b.outliers.size()) {
    return false;
  }
  for (size_t i = 0; i < a.outliers.size(); ++i) {
    if (a.outliers[i].key_index != b.outliers[i].key_index ||
        !SameBits(a.outliers[i].value, b.outliers[i].value) ||
        !SameBits(a.outliers[i].divergence, b.outliers[i].divergence)) {
      return false;
    }
  }
  return true;
}

// Run's phases again from public calls: MeasurementMatrix ->
// CompressAccumulate -> RecoverBiased -> KOutliersFromRecovery. Run's
// telemetry times compression and recovery, so only the pieces it does not
// split are timed here.
void ReplayDetect(const DetectConfig& c, const dist::Cluster& cluster,
                  uint64_t phi_seed, const outlier::OutlierSet& answer,
                  uint64_t parent, uint64_t request, Tracer* tracer,
                  PhaseResult* out) {
  std::vector<const cs::SparseSlice*> slices;
  for (dist::NodeId id : cluster.NodeIds()) {
    slices.push_back(cluster.Slice(id).Value());
  }
  std::unique_ptr<cs::MeasurementMatrix> matrix;
  Timed(tracer, "cs.matrix_build", parent, request, [&] {
    matrix = std::make_unique<cs::MeasurementMatrix>(
        c.m, cluster.key_space_size(), phi_seed);
  });
  std::vector<double> y;
  Expect(out, cs::Compressor(matrix.get()).CompressAccumulate(slices, &y),
         "CompressAccumulate replay");
  cs::SolverOptions solve;
  solve.iterations = cs::DefaultIterationsForK(c.k);
  const Result<cs::BompResult> recovery = cs::RecoverBiased(*matrix, y, solve);
  Expect(out, recovery.status(), "RecoverBiased replay");
  if (!recovery.ok()) return;
  outlier::OutlierSet set;
  Timed(tracer, "outlier.rank", parent, request, [&] {
    set = outlier::KOutliersFromRecovery(recovery.Value(), c.k);
  });
  Timed(tracer, "cs.correlate_argmax", 0, request,
        [&] { (void)matrix->CorrelateArgmax(y); });
  Check(out, SameOutliers(set, answer), "composed detect == Run's answer");
}

Status RunBatchDetect(const Config& cfg, const std::vector<Dataset>& datasets,
                      Trace* trace, PhaseResult* out) {
  const DetectConfig& c = cfg.detect;
  Tracer* tracer = trace ? &trace->spans : nullptr;
  auto options_for = [&](size_t j) {
    dist::CsProtocolOptions options;
    options.m = c.m;
    options.seed = c.phi_seed_base + j;
    return options;
  };
  // Set-up: the clusters, then one Run so that lazy initialisation (the
  // worker pool, first-touch allocations) is paid before the measured phase.
  std::vector<std::unique_ptr<dist::Cluster>> clusters;
  for (size_t rep = 0; rep < cfg.setup_repeats; ++rep) {
    clusters.clear();
    Probe(out);
    const double cpu = ProcessCpuMs();
    for (const Dataset& dataset : datasets) {
      auto cluster = std::make_unique<dist::Cluster>(c.n);
      for (const cs::SparseSlice& slice : dataset.slices) {
        CSOD_RETURN_NOT_OK(cluster->AddNode(slice).status());
      }
      clusters.push_back(std::move(cluster));
    }
    dist::CsOutlierProtocol warm(options_for(0));
    dist::CommStats comm;
    CSOD_RETURN_NOT_OK(warm.Run(*clusters[0], c.k, &comm).status());
    out->setup_s.push_back((ProcessCpuMs() - cpu) / 1e3);
  }

  // An op is one detect. Detect i runs dataset i % D under Φ0 seed
  // (i / D) % S; a pair seen before must give the same answer bit for bit.
  const size_t pairs = c.datasets * c.phi_seeds;
  std::vector<outlier::OutlierSet> first_answers;
  Phase phase;
  for (size_t i = 0; phase.WallMs() < cfg.seconds * 1e3; ++i) {
    MaybeProbe(&phase, out);
    const size_t d = i % c.datasets;
    const size_t j = (i / c.datasets) % c.phi_seeds;
    dist::CsOutlierProtocol protocol(options_for(j));
    if (trace != nullptr) protocol.set_telemetry(&trace->live);
    dist::CommStats comm;
    const uint64_t request = tracer ? tracer->NewRequest() : 0;
    Result<outlier::OutlierSet> answer = Status::Internal("not run");
    const Timing call = Timed(tracer, "client.detect", 0, request, [&] {
      answer = protocol.Run(*clusters[d], c.k, &comm);
    });
    ++out->attempted;
    if (!answer.ok()) {
      ++out->failed;
      continue;
    }
    out->latency_ms.push_back(call.ms);
    out->work_units += 1.0;
    out->ops += 1.0;
    out->wire_bytes += static_cast<double>(comm.bytes_total());

    phase.Exclude([&] {
      Check(out,
            comm.bytes_total() == c.nodes * c.m * dist::kMeasurementBytes,
            "batch-detect: each node ships exactly M measurements");
      out->detect_ek.push_back(
          outlier::ErrorOnKey(datasets[d].truth, answer.Value()));
      if (i < pairs) {
        first_answers.push_back(answer.Value());
      } else {
        Check(out, SameOutliers(first_answers[i % pairs], answer.Value()),
              "batch-detect: a repeated (dataset, seed) gives the same "
              "answer");
      }
      if (tracer != nullptr) {
        ReplayDetect(c, *clusters[d], options_for(j).seed, answer.Value(),
                     call.span, request, tracer, out);
      }
    });
  }
  out->cpu_ms = phase.CpuMs();
  out->measured_s = phase.WallMs() / 1e3;
  out->peak_rss_mb = PeakRssMb();
  ProbeAfterPhase(out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// The gated metrics: costs the host's stolen CPU time cannot inflate, with
// the timings in CPU time at the reference host's speed. The wall-clock
// latency and throughput are client-layer metrics.
std::vector<Metric> EndToEndMetrics(const PhaseResult& r) {
  const double speed = Ratio(kProbeReferenceMs, Quantile(r.probe_ms, 0.5));
  return {
      {"setup_s", speed * Quantile(r.setup_s, 0.5), "s"},
      {"cpu_ms_per_op", speed * Ratio(r.cpu_ms, r.ops), "ms"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
      {"wire_bytes_per_op", Ratio(r.wire_bytes, r.ops), "B"},
  };
}

// The client call whose latency a workload reports.
const char* PrimaryCall(const std::string& workload) {
  if (workload == "ingest") return "client.ingest";
  if (workload == "batch-detect") return "client.detect";
  return "client.query";
}

// Per-layer metrics of the traced pass, as means per call. Layers the
// repository's telemetry times come from the system under test (`live`);
// the rest from the replay spans. Workload readings come from the untraced
// pass.
std::vector<Metric> LayerMetrics(const Trace& trace, const char* primary,
                                 const PhaseResult& traced,
                                 const PhaseResult& base) {
  const Tracer& spans = trace.spans;
  const obs::Telemetry& live = trace.live;
  auto mean_ms = [&](const char* name) { return spans.Sum(name).MeanMs(); };
  auto live_ms = [&](const char* name) {
    return TelemetrySpan(live, name).MeanMs();
  };
  auto replica_ms = [&](const char* name) {
    return TelemetrySpan(trace.replica, name).total_ms;
  };

  // The detector flushes its IngestBatch time once per epoch close, with the
  // number of batches beside it.
  const double ingest_ms =
      Ratio(TelemetrySpan(live, "serve.ingest").total_ms,
            static_cast<double>(live.counter("serve.ingest.batches")));
  const double fold_pieces_ms = mean_ms("mapreduce.scatter") +
                                mean_ms("cs.multiply_sparse_batch") +
                                mean_ms("core.fold");
  // HandleFrame minus the time the replica service spent below it.
  const Layer handle = spans.Sum("serve.net.handle");
  const double handle_inner_ms = replica_ms("serve.ingest") +
                                 replica_ms("serve.epoch.advance") +
                                 replica_ms("serve.query");
  const Layer advance = TelemetrySpan(live, "serve.epoch.advance");
  const Layer publish = TelemetrySpan(live, "serve.snapshot.publish");
  const Layer runs = TelemetrySpan(live, "protocol.cs");
  const obs::ValueStats iterations = live.value("bomp.iterations");
  const double matrix_ms = mean_ms("cs.matrix_build");
  const double compress_ms = live_ms("sketch.batch");
  const double recover_ms = live_ms("bomp.recover");
  const double rank_ms = mean_ms("outlier.rank");
  const double detect_pieces_ms =
      matrix_ms + compress_ms + recover_ms + rank_ms;

  // Coverage: over the replayed primary calls, the share of client time
  // that the frame layers plus the service's own time below them explain.
  double inner_ms = detect_pieces_ms;
  double replica_inner_ms = 0.0;
  if (std::strcmp(primary, "client.ingest") == 0) {
    inner_ms = ingest_ms;
    replica_inner_ms = replica_ms("serve.ingest");
  } else if (std::strcmp(primary, "client.query") == 0) {
    inner_ms = live_ms("serve.query");
    replica_inner_ms = replica_ms("serve.query");
  }
  const Layer client = spans.Replayed(primary);
  const double covered_ms = spans.Sum("serve.net.encode", primary).total_ms +
                            spans.Sum("serve.net.transport", primary).total_ms +
                            spans.Sum("serve.net.handle", primary).total_ms -
                            replica_inner_ms + client.count * inner_ms;

  const double overhead =
      Ratio(Quantile(traced.latency_ms, 0.5), Quantile(base.latency_ms, 0.5));
  return {
      {"serve.net.encode_us", 1e3 * mean_ms("serve.net.encode"), "us"},
      {"serve.net.handle_self_us",
       1e3 * Ratio(handle.total_ms - handle_inner_ms, handle.count), "us"},
      {"serve.net.transport_us", 1e3 * mean_ms("serve.net.transport"), "us"},
      {"serve.net.bytes_per_event",
       Ratio(static_cast<double>(base.ingest_bytes),
             static_cast<double>(base.ingest_events)),
       "B/event"},
      {"serve.net.retries", static_cast<double>(base.retries), "count"},
      {"serve.net.pushbacks", static_cast<double>(base.pushbacks), "count"},
      {"serve.ingest_self_us", 1e3 * (ingest_ms - fold_pieces_ms), "us"},
      {"serve.advance_us",
       1e3 * Ratio(advance.total_ms - publish.total_ms, advance.count), "us"},
      {"serve.snapshot_us", 1e3 * publish.MeanMs(), "us"},
      {"mapreduce.scatter_us", 1e3 * mean_ms("mapreduce.scatter"), "us"},
      {"cs.multiply_sparse_batch_us",
       1e3 * mean_ms("cs.multiply_sparse_batch"), "us"},
      {"cs.recover_ms", recover_ms, "ms"},
      {"cs.recover_iterations",
       Ratio(iterations.sum, static_cast<double>(iterations.count)), "count"},
      {"cs.correlate_argmax_ms", mean_ms("cs.correlate_argmax"), "ms"},
      {"cs.matrix_build_ms", matrix_ms, "ms"},
      {"cs.compress_accumulate_ms", compress_ms, "ms"},
      {"core.fold_us", 1e3 * mean_ms("core.fold"), "us"},
      {"query.parse_us", 1e3 * mean_ms("query.parse"), "us"},
      {"outlier.rank_us", 1e3 * rank_ms, "us"},
      {"outlier.detect_ek", Mean(base.detect_ek), "ratio"},
      {"dist.protocol_self_ms",
       runs.count == 0.0 ? 0.0 : runs.MeanMs() - detect_pieces_ms, "ms"},
      {"dist.comm_bytes",
       Ratio(static_cast<double>(live.counter("comm.bytes.measurements")),
             runs.count),
       "B"},
      {"client.latency_p50_ms", Quantile(base.latency_ms, 0.5), "ms"},
      {"client.latency_p90_ms", Quantile(base.latency_ms, 0.9), "ms"},
      {"client.throughput_per_s", Ratio(base.work_units, base.measured_s),
       "1/s"},
      {"client.publish_p50_ms", Quantile(base.publish_ms, 0.5), "ms"},
      {"client.write_ack_p50_ms", Quantile(base.write_ack_ms, 0.5), "ms"},
      {"client.write_ack_p99_ms", Quantile(base.write_ack_ms, 0.99), "ms"},
      {"client.result_age_p50_ms", Quantile(base.result_age_ms, 0.5), "ms"},
      {"client.generator_lag_p99_ms", Quantile(base.lag_ms, 0.99), "ms"},
      {"host.probe_ms", Quantile(base.probe_ms, 0.5), "ms"},
      {"trace.coverage_pct", 100.0 * Ratio(covered_ms, client.total_ms), "%"},
      {"trace_overhead_pct", overhead == 0.0 ? 0.0 : 100.0 * (overhead - 1.0),
       "%"},
  };
}

void Emit(const std::string& workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %s %.17g %s\n", workload.c_str(), m.name.c_str(), m.value,
                m.unit);
  }
  std::fflush(stdout);
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    const std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    if (first != std::string::npos) return model.substr(first);
  }
#endif
  return "unknown";
}

// Runs one workload in this process: the untraced pass (end-to-end
// metrics), then, with a trace path, the traced pass (per-layer metrics).
int RunOne(const std::string& name, Config cfg, const std::string& trace_path) {
  std::printf("# host nproc=%u simd=%s cpu=\"%s\" compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(),
              simd::LevelName(simd::ActiveLevel()), CpuModel().c_str(),
              __VERSION__, CSOD_LEDGER_BUILD_TYPE);
  std::vector<Batch> pool;
  std::vector<Dataset> datasets;
  if (name == "batch-detect") {
    Result<std::vector<Dataset>> made = MakeDatasets(cfg.detect, cfg.seed);
    if (!made.ok()) {
      std::fprintf(stderr, "csod_ledger: %s\n",
                   made.status().ToString().c_str());
      return 3;
    }
    datasets = made.MoveValue();
  } else {
    pool = MakeBatchPool(cfg.serve, cfg.seed);
  }
  auto run = [&](Trace* trace, PhaseResult* out) {
    if (name == "ingest") return RunIngest(cfg, pool, trace, out);
    if (name == "query-repeat") return RunQueryRepeat(cfg, pool, trace, out);
    if (name == "mixed") return RunMixed(cfg, pool, trace, out);
    return RunBatchDetect(cfg, datasets, trace, out);
  };

  // With tracing, one set-up per pass, so the replicas mirror it once.
  if (!trace_path.empty()) cfg.setup_repeats = 1;
  PhaseResult base;
  Status status = run(nullptr, &base);
  if (!status.ok()) {
    std::fprintf(stderr, "csod_ledger: %s: %s\n", name.c_str(),
                 status.ToString().c_str());
    return 3;
  }
  Emit(name, EndToEndMetrics(base));
  if (base.queries > 0) {
    // A property of the workload's traffic, not a metric: the share of
    // queries whose (snapshot version, solver, R) was already answered.
    std::printf("# %s repeat_share %.4f of %llu queries\n", name.c_str(),
                Ratio(static_cast<double>(base.repeated_queries),
                      static_cast<double>(base.queries)),
                static_cast<unsigned long long>(base.queries));
  }
  uint64_t attempted = base.attempted;
  uint64_t failed = base.failed;
  size_t checks = base.checks;
  std::vector<std::string> failed_checks = base.failed_checks;
  if (!trace_path.empty()) {
    Trace trace(Clock::now());
    PhaseResult traced;
    status = run(&trace, &traced);
    if (status.ok()) status = trace.spans.Write(trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "csod_ledger: %s (traced): %s\n", name.c_str(),
                   status.ToString().c_str());
      return 3;
    }
    Emit(name, LayerMetrics(trace, PrimaryCall(name), traced, base));
    attempted += traced.attempted;
    failed += traced.failed;
    checks += traced.checks;
    failed_checks.insert(failed_checks.end(), traced.failed_checks.begin(),
                         traced.failed_checks.end());
  }
  std::printf("%s attempted %llu ops\n%s failed %llu ops\n", name.c_str(),
              static_cast<unsigned long long>(attempted), name.c_str(),
              static_cast<unsigned long long>(failed));
  for (const std::string& what : failed_checks) {
    std::printf("# FAILED %s: %s\n", name.c_str(), what.c_str());
  }
  std::printf("# %s: %zu checks, %zu failed\n", name.c_str(), checks,
              failed_checks.size());
  std::fflush(stdout);
  return failed_checks.empty() ? 0 : 1;
}

// --workload=all: each workload in its own process, so set-up time and
// peak memory are per workload.
int RunAll(uint64_t seed, double seconds, bool quick,
           const std::string& trace_path) {
  int worst = 0;
  for (const char* name : kWorkloads) {
    char seconds_text[32];
    std::snprintf(seconds_text, sizeof(seconds_text), "%.17g", seconds);
    std::vector<std::string> args = {
        "csod_ledger", std::string("--workload=") + name,
        "--seed=" + std::to_string(seed),
        std::string("--seconds=") + seconds_text};
    if (quick) args.push_back("--quick");
    if (!trace_path.empty()) {
      args.push_back("--trace=" + trace_path + "." + name);
    }
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_t pid = 0;
    if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv.data(),
                    environ) != 0) {
      std::perror("csod_ledger: posix_spawn");
      return 3;
    }
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
    worst = std::max(worst, WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : 3);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const char* usage =
      "usage: csod_ledger --workload=<ingest|query-repeat|mixed|batch-detect|"
      "all> --seed=S [--seconds=T] [--trace=FILE] [--quick]\n";
  FlagParser flags;
  const bool parsed = flags.Parse(argc, argv).ok();
  if (parsed && flags.GetBool("probe", false)) return RunProbe();
  if (!parsed || !flags.Has("workload")) {
    std::fputs(usage, stderr);
    return 2;
  }
  const bool quick = flags.GetBool("quick", false);
  Config cfg = quick ? QuickConfig() : Config();
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  cfg.seconds = flags.GetDouble("seconds", cfg.seconds);
  const std::string workload = flags.GetString("workload", "");
  const std::string trace_path = flags.GetString("trace", "");
  const bool known = std::find(std::begin(kWorkloads), std::end(kWorkloads),
                               workload) != std::end(kWorkloads);
  if ((!known && workload != "all") || cfg.seconds <= 0.0) {
    std::fputs(usage, stderr);
    return 2;
  }
  if (workload == "all") {
    return RunAll(cfg.seed, cfg.seconds, quick, trace_path);
  }
  return RunOne(workload, cfg, trace_path);
}
