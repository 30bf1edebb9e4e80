// Figures 7 and 8 (and the Section 6.1.2 communication-cost discussion):
// EK / EV vs communication cost (normalized by transmitting ALL) on the
// three production click-score workloads, comparing BOMP against the K+δ
// three-round baseline at equal budgets.
//
// The paper's proprietary Bing logs are replaced by the calibrated
// synthetic click-log generator (see DESIGN.md): same key-space sizes
// (10.4K / 9K / 10K), same sparsities (300 / 650 / 610), geo-partitioned
// over 8 data centers with skew and zero-sum cancellation noise.
//
// Default is a quarter-scale run (N/4, s/4); use --full for paper scale.
// --telemetry-json=FILE attaches one obs::Telemetry sink to every protocol
// run and writes the deterministic snapshot (DESIGN.md §9).
//
// Gates (one `gate ...` line each; exit 1 if any fails): for every
// workload and k, when 10% is among the budgets, BOMP's wrong keys there
// over all T trials are at most BinomialUpperQuantile(k·T, 10%, 95%), the
// count a per-key error rate of 10% exceeds with probability ≤ 5%
// (treating a trial's k keys as independent draws). That is the paper's
// "EK reaches ~0 within a few % of ALL" loosened to what the stand-in ads
// workload supports: its k = 5 curve levels off near 8%.
// Flags: --trials --k-list --full --scale=4 --percent-list --telemetry-json

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/format.h"
#include "dist/all_protocol.h"
#include "dist/cs_protocol.h"
#include "dist/kplusdelta_protocol.h"
#include "obs/telemetry.h"
#include "outlier/metrics.h"
#include "workload/generators.h"
#include "workload/partitioner.h"

namespace {

using namespace csod;

struct Workload {
  workload::ClickScoreType type;
  size_t n;
  size_t sparsity;
  std::unique_ptr<dist::Cluster> cluster;
  outlier::OutlierSet truth5;  // Recomputed per k below.
  std::vector<double> global;
};

Workload MakeWorkload(workload::ClickScoreType type, size_t scale,
                      uint64_t seed) {
  const auto cal = workload::CalibrationFor(type);
  Workload w;
  w.type = type;
  w.n = cal.n / scale;
  w.sparsity = cal.sparsity / scale;

  workload::ClickLogOptions gen;
  gen.score_type = type;
  gen.n_override = w.n;
  gen.sparsity_override = w.sparsity;
  gen.seed = seed;
  auto data = workload::GenerateClickLog(gen).MoveValue();
  w.global = std::move(data.global);

  workload::PartitionOptions part;
  part.num_nodes = 8;  // The paper's 8 geo-distributed data centers.
  part.strategy = workload::PartitionStrategy::kSkewedSplit;
  // Zero-sum noise comparable to the outlier scale: locally, ordinary keys
  // look like enormous outliers (the Figure 1 k5 phenomenon), which is
  // what defeats local-ranking baselines on the paper's production data.
  // The CS protocol is immune by linearity — the noise cancels in y.
  part.cancellation_noise = 30000.0;
  part.seed = seed + 1;
  auto slices = workload::PartitionAdditive(w.global, part).MoveValue();

  w.cluster = std::make_unique<dist::Cluster>(w.n);
  for (auto& slice : slices) w.cluster->AddNode(std::move(slice)).Value();
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv).Check();
  const size_t scale = flags.GetBool("full", false)
                           ? 1
                           : static_cast<size_t>(flags.GetInt("scale", 4));
  const size_t trials = static_cast<size_t>(
      flags.GetInt("trials", flags.GetBool("quick", false) ? 2 : 5));
  const std::vector<int64_t> k_list = flags.GetIntList("k-list", {5, 10, 20});
  // Communication budget as % of ALL (the Figures' x axis).
  const std::vector<int64_t> percent_list =
      flags.GetIntList("percent-list", {1, 2, 3, 4, 5, 6, 7, 8, 10, 15});
  const std::string telemetry_path = flags.GetString("telemetry-json", "");
  obs::Telemetry telemetry;
  obs::Telemetry* sink = telemetry_path.empty() ? nullptr : &telemetry;
  constexpr int64_t kGatedPercent = 10;
  struct GatedCurve {
    std::string name;
    double wrong_keys;
    size_t allowed;
  };
  std::vector<GatedCurve> gated;

  bench::Banner("Figures 7 & 8",
                "EK / EV vs communication cost (normalized by ALL), "
                "production workloads, BOMP vs K+delta");
  std::printf("scale = 1/%zu of paper key space, trials = %zu, L = 8 data "
              "centers\n",
              scale, trials);

  for (auto type :
       {workload::ClickScoreType::kCoreSearch, workload::ClickScoreType::kAds,
        workload::ClickScoreType::kAnswer}) {
    Workload w = MakeWorkload(type, scale, 300 + static_cast<int>(type));
    const size_t num_nodes = w.cluster->num_nodes();

    // Section 6.1.2 cost comparison: vectorized ALL vs kv-pair ALL.
    dist::AllTransmitProtocol all_vec(dist::AllEncoding::kVectorized);
    dist::AllTransmitProtocol all_kv(dist::AllEncoding::kKeyValue);
    all_vec.set_telemetry(sink);
    all_kv.set_telemetry(sink);
    dist::CommStats vec_comm, kv_comm;
    auto truth_any = all_vec.Run(*w.cluster, 5, &vec_comm).MoveValue();
    all_kv.Run(*w.cluster, 5, &kv_comm).Value();
    (void)truth_any;

    std::printf("\n=== workload: %s (N = %zu, s = %zu) ===\n",
                workload::ClickScoreTypeName(type), w.n, w.sparsity);
    std::printf("ALL(vector) = %s, ALL(kv) = %s (kv/vector = %.2fx)\n",
                FormatBytes(vec_comm.bytes_total()).c_str(),
                FormatBytes(kv_comm.bytes_total()).c_str(),
                static_cast<double>(kv_comm.bytes_total()) /
                    static_cast<double>(vec_comm.bytes_total()));

    for (int64_t k64 : k_list) {
      const size_t k = static_cast<size_t>(k64);
      const auto truth = outlier::ExactKOutliers(w.global, k);

      std::printf("\nk = %zu%50s\n", k, "(columns: %% of ALL cost)");
      bench::PrintHeader("cost =", percent_list);

      std::vector<double> bomp_ek_avg, bomp_ek_max, bomp_ek_min;
      std::vector<double> bomp_ev_avg, bomp_ev_max, bomp_ev_min;
      std::vector<double> kd_ek, kd_ev;

      for (int64_t pct : percent_list) {
        const size_t m = std::max<size_t>(4, w.n * pct / 100);
        std::vector<double> eks, evs;
        for (size_t t = 0; t < trials; ++t) {
          dist::CsProtocolOptions options;
          options.m = m;
          options.seed = 4000 + t * 977 + m;
          dist::CsOutlierProtocol protocol(options);
          protocol.set_telemetry(sink);
          dist::CommStats comm;
          auto estimate = protocol.Run(*w.cluster, k, &comm).MoveValue();
          eks.push_back(outlier::ErrorOnKey(truth, estimate));
          evs.push_back(outlier::ErrorOnValue(truth, estimate));
        }
        const auto ek = outlier::ErrorStats::FromSamples(eks);
        const auto ev = outlier::ErrorStats::FromSamples(evs);
        if (pct == kGatedPercent) {
          double wrong_keys = 0.0;
          for (const double e : eks) wrong_keys += e * static_cast<double>(k);
          std::string name = workload::ClickScoreTypeName(type);
          name += "_k" + std::to_string(k);
          name += "_wrong_keys_at_" + std::to_string(pct) + "pct";
          gated.push_back(
              {name, std::round(wrong_keys),
               bench::BinomialUpperQuantile(k * trials, 0.10, 0.95)});
        }
        bomp_ek_avg.push_back(ek.avg);
        bomp_ek_max.push_back(ek.max);
        bomp_ek_min.push_back(ek.min);
        bomp_ev_avg.push_back(ev.avg);
        bomp_ev_max.push_back(ev.max);
        bomp_ev_min.push_back(ev.min);

        // K+δ at the same byte budget: L*(k+δ)*12 ≈ L*N*8*pct/100.
        const size_t budget_tuples =
            std::max<size_t>(k + 1, w.n * pct * 8 / (100 * 12));
        dist::KPlusDeltaOptions kd_options;
        kd_options.delta = budget_tuples - k;
        kd_options.seed = 600 + pct;
        dist::KPlusDeltaProtocol kd(kd_options);
        kd.set_telemetry(sink);
        dist::CommStats kd_comm;
        auto kd_estimate = kd.Run(*w.cluster, k, &kd_comm).MoveValue();
        kd_ek.push_back(outlier::ErrorOnKey(truth, kd_estimate));
        kd_ev.push_back(outlier::ErrorOnValue(truth, kd_estimate));
        (void)num_nodes;
      }

      bench::PrintPercentRow("EK BOMP avg", bomp_ek_avg);
      bench::PrintPercentRow("EK BOMP max", bomp_ek_max);
      bench::PrintPercentRow("EK BOMP min", bomp_ek_min);
      bench::PrintPercentRow("EK K+delta", kd_ek);
      bench::PrintPercentRow("EV BOMP avg", bomp_ev_avg);
      bench::PrintPercentRow("EV BOMP max", bomp_ev_max);
      bench::PrintPercentRow("EV BOMP min", bomp_ev_min);
      bench::PrintPercentRow("EV K+delta", kd_ev);
    }
  }

  std::printf(
      "\nChecked shape (the gate lines below): at %d%% of ALL's cost, "
      "BOMP's wrong keys over all trials stay within the count a 10%% "
      "per-key error rate exceeds with probability <= 5%%, for every "
      "workload and k. K+delta's rows are printed for comparison only: on "
      "this stand-in data they can read lower than BOMP's at small "
      "budgets.\n",
      static_cast<int>(kGatedPercent));

  if (sink != nullptr) {
    const Status written = obs::WriteSnapshotJsonFile(*sink, telemetry_path);
    if (!written.ok()) {
      std::fprintf(stderr, "telemetry write failed: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("Wrote %s\n", telemetry_path.c_str());
  }

  bench::Gates gates;
  for (const GatedCurve& curve : gated) {
    gates.AtMost(curve.name.c_str(), curve.wrong_keys,
                 static_cast<double>(curve.allowed));
  }
  return gates.exit_code();
}
