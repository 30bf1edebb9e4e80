#ifndef CSOD_SKETCH_SKETCH_PROTOCOLS_H_
#define CSOD_SKETCH_SKETCH_PROTOCOLS_H_

#include <cstdint>
#include <vector>

#include "dist/protocol.h"
#include "outlier/outlier.h"
#include "sketch/count_sketch.h"

namespace csod::sketch {

/// Rows of every CountSketch the protocols below build (the median of 5
/// estimates per key).
inline constexpr size_t kCountSketchDepth = 5;

/// Configuration of the CountSketch-based protocols. The per-node
/// communication is width * kCountSketchDepth counters of 8 bytes —
/// directly comparable to the CS protocol's M measurements.
struct CountSketchProtocolOptions {
  size_t width = 0;
  uint64_t seed = 1;
};

/// \brief Traditional-sketch baseline for the distributed outlier problem
/// (Section 7.2's "lossy compression / sketches" discussion).
///
/// Every node builds a local CountSketch of its slice; sketches are linear
/// so the aggregator merges them exactly, then estimates every key,
/// takes the median estimate as the mode, and ranks keys by divergence.
/// On mode-dominated data the estimates carry ~ |b|·sqrt(N/width) noise,
/// which buries moderate outliers — the failure mode that motivates the
/// paper's CS approach.
class CountSketchOutlierProtocol final : public dist::OutlierProtocol {
 public:
  explicit CountSketchOutlierProtocol(CountSketchProtocolOptions options)
      : options_(options) {}

  Result<outlier::OutlierSet> Run(const dist::Cluster& cluster, size_t k,
                                  dist::CommStats* comm) override;
  std::string name() const override { return "CountSketch"; }

 private:
  CountSketchProtocolOptions options_;
};

/// Distributed top-k via merged CountSketches: estimates every key of the
/// key space from the merged sketch and returns the k largest estimates,
/// ranked by value (divergence == value). Valid for any-signed data;
/// approximate.
Result<std::vector<outlier::Outlier>> RunCountSketchTopK(
    const dist::Cluster& cluster, size_t k,
    const CountSketchProtocolOptions& options, dist::CommStats* comm);

}  // namespace csod::sketch

#endif  // CSOD_SKETCH_SKETCH_PROTOCOLS_H_
