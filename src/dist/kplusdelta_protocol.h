#ifndef CSOD_DIST_KPLUSDELTA_PROTOCOL_H_
#define CSOD_DIST_KPLUSDELTA_PROTOCOL_H_

#include <cstdint>

#include "dist/protocol.h"

namespace csod::dist {

/// Configuration of the K+δ baseline.
struct KPlusDeltaOptions {
  /// Extra per-node reporting budget beyond k. The per-node budget is
  /// k + delta keyid-value tuples across rounds 1 and 3; round 1 samples
  /// g = half of it (the paper's choice: "we always choose g to be 50% of
  /// the communication cost").
  size_t delta = 0;
  /// Seed for the common sampled-key set.
  uint64_t seed = 1;
};

/// \brief The three-round K+δ approximate baseline of Section 6.1.2,
/// built on the TPUT-style framework of Cao & Wang [10]:
///
/// 1. every node reports its local values for `g` common sampled keys; the
///    aggregator sums them (exact for those keys) and estimates the mode b
///    as their average;
/// 2. the aggregator broadcasts b;
/// 3. every node reports its `k + δ - g` locally-most-divergent keys
///    (w.r.t. b) as keyid-value pairs; the aggregator sums what it
///    received per key and outputs the k keys furthest from b.
///
/// On skewed partitions the local divergence ranking disagrees with the
/// global one and the per-key sums are incomplete, which is exactly the
/// large-error behaviour the paper reports for this baseline.
class KPlusDeltaProtocol final : public OutlierProtocol {
 public:
  explicit KPlusDeltaProtocol(KPlusDeltaOptions options)
      : options_(options) {}

  Result<outlier::OutlierSet> Run(const Cluster& cluster, size_t k,
                                  CommStats* comm) override;
  std::string name() const override { return "K+delta"; }

 private:
  KPlusDeltaOptions options_;
};

}  // namespace csod::dist

#endif  // CSOD_DIST_KPLUSDELTA_PROTOCOL_H_
