#include "core/detector.h"

#include <algorithm>
#include <charconv>
#include <set>
#include <string>

#include "dist/wire_format.h"
#include "la/vector_ops.h"

namespace csod::core {

DistributedOutlierDetector::DistributedOutlierDetector(
    const DetectorOptions& options)
    : options_(options),
      matrix_(cs::SharedMatrix(options.m, options.n, options.seed)),
      compressor_(std::make_unique<cs::Compressor>(matrix_.get())),
      global_y_(options.m, 0.0) {
  compressor_->set_telemetry(options.telemetry);
}

Result<std::unique_ptr<DistributedOutlierDetector>>
DistributedOutlierDetector::Create(const DetectorOptions& options) {
  if (options.n == 0) {
    return Status::InvalidArgument("DetectorOptions.n must be > 0");
  }
  if (options.m == 0) {
    return Status::InvalidArgument("DetectorOptions.m must be > 0");
  }
  return std::unique_ptr<DistributedOutlierDetector>(
      new DistributedOutlierDetector(options));
}

Result<SourceId> DistributedOutlierDetector::AddSource(
    const cs::SparseSlice& slice) {
  CSOD_ASSIGN_OR_RETURN(std::vector<double> y_l,
                        compressor_->Compress(slice));
  return AddSourceMeasurement(std::move(y_l));
}

Result<SourceId> DistributedOutlierDetector::AddSourceMeasurement(
    std::vector<double> y_l) {
  if (y_l.size() != options_.m) {
    return Status::InvalidArgument(
        "AddSourceMeasurement: measurement size " +
        std::to_string(y_l.size()) + " != M " + std::to_string(options_.m));
  }
  la::Axpy(1.0, y_l, &global_y_);
  const SourceId id = next_id_++;
  sketches_.emplace(id, std::move(y_l));
  return id;
}

Status DistributedOutlierDetector::RemoveSource(SourceId id) {
  auto it = sketches_.find(id);
  if (it == sketches_.end()) {
    return Status::NotFound("RemoveSource: no source " + std::to_string(id));
  }
  la::Axpy(-1.0, it->second, &global_y_);
  sketches_.erase(it);
  return Status::OK();
}

Status DistributedOutlierDetector::ApplyDelta(SourceId id,
                                              const cs::SparseSlice& delta) {
  auto it = sketches_.find(id);
  if (it == sketches_.end()) {
    return Status::NotFound("ApplyDelta: no source " + std::to_string(id));
  }
  CSOD_ASSIGN_OR_RETURN(std::vector<double> dy, compressor_->Compress(delta));
  la::Axpy(1.0, dy, &it->second);
  la::Axpy(1.0, dy, &global_y_);
  return Status::OK();
}

Result<outlier::OutlierSet> DistributedOutlierDetector::Detect(
    size_t k) const {
  if (k == 0) {
    return Status::InvalidArgument("Detect: k must be > 0");
  }
  CSOD_ASSIGN_OR_RETURN(cs::BompResult recovery,
                        Recover(cs::IterationBudget(options_.iterations, k)));
  return outlier::KOutliersFromRecovery(recovery, k);
}

Result<outlier::OutlierSet> DistributedOutlierDetector::DetectExcluding(
    const std::vector<SourceId>& excluded, size_t k) const {
  if (k == 0) {
    return Status::InvalidArgument("DetectExcluding: k must be > 0");
  }
  std::vector<double> partial_y = global_y_;
  size_t remaining = sketches_.size();
  std::set<SourceId> seen;
  for (SourceId id : excluded) {
    if (!seen.insert(id).second) {
      return Status::InvalidArgument("DetectExcluding: duplicate source " +
                                     std::to_string(id));
    }
    auto it = sketches_.find(id);
    if (it == sketches_.end()) {
      return Status::NotFound("DetectExcluding: no source " +
                              std::to_string(id));
    }
    la::Axpy(-1.0, it->second, &partial_y);
    --remaining;
  }
  if (remaining == 0) {
    return Status::FailedPrecondition(
        "DetectExcluding: every source excluded — nothing to aggregate");
  }
  cs::SolverOptions solver_options;
  solver_options.solver = options_.solver;
  solver_options.iterations = cs::IterationBudget(options_.iterations, k);
  solver_options.telemetry = options_.telemetry;
  CSOD_ASSIGN_OR_RETURN(
      cs::BompResult recovery,
      cs::RecoverBiased(*matrix_, partial_y, solver_options));
  return outlier::KOutliersFromRecovery(recovery, k);
}

Result<std::vector<outlier::Outlier>> DistributedOutlierDetector::DetectTopK(
    size_t k) const {
  if (k == 0) {
    return Status::InvalidArgument("DetectTopK: k must be > 0");
  }
  CSOD_ASSIGN_OR_RETURN(cs::BompResult recovery,
                        Recover(cs::IterationBudget(options_.iterations, k)));
  return outlier::TopKFromRecovery(recovery, k);
}

Status DistributedOutlierDetector::Save(std::ostream& out) const {
  // Text header (versioned) followed by one length-prefixed wire-format
  // measurement message per source. The version is the Φ0 format the
  // sketches were measured under: v4 is cs::kPhi0Format 4.
  out << "csod-detector v" << cs::kPhi0Format << '\n';
  out << options_.n << ' ' << options_.m << ' ' << options_.seed << ' '
      << options_.iterations << ' ' << sketches_.size() << '\n';
  for (const auto& [id, sketch] : sketches_) {
    CSOD_ASSIGN_OR_RETURN(const std::string message,
                          dist::EncodeMeasurement(sketch));
    out << id << ' ' << message.size() << '\n';
    out.write(message.data(), static_cast<std::streamsize>(message.size()));
    out << '\n';
  }
  if (!out.good()) {
    return Status::Internal("Save: stream write failed");
  }
  return Status::OK();
}

Result<std::unique_ptr<DistributedOutlierDetector>>
DistributedOutlierDetector::Load(std::istream& in,
                                 const DetectorOptions& expected) {
  std::string magic;
  std::string version;
  if (!(in >> magic) || magic != "csod-detector" || !(in >> version)) {
    return Status::InvalidArgument("Load: not a csod-detector checkpoint");
  }
  // The version is the Φ0 format of the sketches. Another format's Φ0
  // differs from this build's in every entry, so its sketches would
  // recover garbage.
  uint32_t format = 0;
  const char* digits = version.data() + 1;
  const char* end = version.data() + version.size();
  const auto parsed = std::from_chars(digits, end, format);
  if (version.size() < 2 || version[0] != 'v' || parsed.ec != std::errc() ||
      parsed.ptr != end) {
    return Status::InvalidArgument("Load: unknown csod-detector version " +
                                   version);
  }
  if (format != cs::kPhi0Format) {
    return Status::InvalidArgument(
        "Load: csod-detector " + version +
        " checkpoint holds sketches measured with Φ0 format " +
        std::to_string(format) + "; this build uses Φ0 format " +
        std::to_string(cs::kPhi0Format) + ", so they cannot be restored");
  }
  DetectorOptions options = expected;
  size_t n = 0, m = 0, num_sources = 0;
  uint64_t seed = 0;
  if (!(in >> n >> m >> seed >> options.iterations >> num_sources)) {
    return Status::InvalidArgument("Load: malformed checkpoint header");
  }
  if (n != expected.n || m != expected.m || seed != expected.seed) {
    return Status::InvalidArgument(
        "Load: checkpoint geometry (n=" + std::to_string(n) +
        " m=" + std::to_string(m) + " seed=" + std::to_string(seed) +
        ") does not match the detector options");
  }
  CSOD_ASSIGN_OR_RETURN(auto detector, Create(options));

  const size_t payload_size = dist::MeasurementWireSize(options.m);
  for (size_t i = 0; i < num_sources; ++i) {
    SourceId id = 0;
    size_t size = 0;
    if (!(in >> id >> size)) {
      return Status::InvalidArgument("Load: malformed source header");
    }
    if (size != payload_size) {
      return Status::InvalidArgument(
          "Load: sketch payload of " + std::to_string(size) +
          " bytes, expected " + std::to_string(payload_size));
    }
    in.get();  // The newline after the header.
    std::string message(size, '\0');
    in.read(message.data(), static_cast<std::streamsize>(size));
    if (!in.good()) {
      return Status::InvalidArgument("Load: truncated sketch payload");
    }
    in.get();  // The trailing newline.
    if (detector->sketches_.count(id) != 0) {
      return Status::InvalidArgument("Load: duplicate source id " +
                                     std::to_string(id));
    }
    CSOD_ASSIGN_OR_RETURN(std::vector<double> sketch,
                          dist::DecodeMeasurement(message));
    CSOD_ASSIGN_OR_RETURN(SourceId assigned,
                          detector->AddSourceMeasurement(std::move(sketch)));
    // Preserve the original ids so RemoveSource/ApplyDelta keep working
    // across a checkpoint.
    if (assigned != id) {
      auto node = detector->sketches_.extract(assigned);
      node.key() = id;
      detector->sketches_.insert(std::move(node));
      detector->next_id_ = std::max(detector->next_id_, id + 1);
    }
  }
  return detector;
}

Result<cs::BompResult> DistributedOutlierDetector::Recover(
    size_t iterations) const {
  if (sketches_.empty()) {
    return Status::FailedPrecondition("Recover: no sources registered");
  }
  cs::SolverOptions solver_options;
  solver_options.solver = options_.solver;
  solver_options.iterations = iterations;
  solver_options.telemetry = options_.telemetry;
  return cs::RecoverBiased(*matrix_, global_y_, solver_options);
}

}  // namespace csod::core
