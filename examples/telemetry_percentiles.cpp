// Service-telemetry monitoring with one sketch, many queries: latency
// sums per endpoint are collected at regional gateways; from a single
// merged M-sized measurement the operator gets the k worst endpoints, the
// fleet-wide mean, and tail percentiles — the "similar aggregation
// queries (mean, top-k, percentile)" extension the paper points to.
//
// Also demonstrates the wire format: the gateways' measurements go
// through encode/decode as they would on a real network.
//
// Build & run:  ./build/examples/telemetry_percentiles

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/format.h"
#include "core/csod.h"

int main() {
  using namespace csod;

  const size_t kNumEndpoints = 6000;
  const size_t kNumGateways = 6;

  // Endpoint latency scores concentrate around a healthy 120ms baseline;
  // a few endpoints misbehave in both directions (overloaded / dead).
  workload::ClickLogOptions gen;
  gen.n_override = kNumEndpoints;
  gen.sparsity_override = 60;
  gen.mode = 120.0;
  gen.jitter = 1.5;
  gen.min_divergence = 40.0;
  gen.max_divergence = 5000.0;
  gen.seed = 7;
  auto data = workload::GenerateClickLog(gen).MoveValue();

  workload::PartitionOptions part;
  part.num_nodes = kNumGateways;
  part.strategy = workload::PartitionStrategy::kUniformSplit;
  part.seed = 8;
  auto slices = workload::PartitionAdditive(data.global, part).MoveValue();

  // Each gateway compresses locally and ships its measurement over the
  // wire; the monitor decodes and merges.
  core::DetectorOptions options;
  options.n = kNumEndpoints;
  options.m = 512;
  options.seed = 99;
  options.iterations = 90;
  auto monitor = core::DistributedOutlierDetector::Create(options).MoveValue();

  cs::MeasurementMatrix gateway_matrix(options.m, options.n, options.seed);
  cs::Compressor gateway_compressor(&gateway_matrix);
  uint64_t wire_bytes = 0;
  for (const auto& slice : slices) {
    auto y = gateway_compressor.Compress(slice).MoveValue();
    // On the wire.
    const std::string message = dist::EncodeMeasurement(y).MoveValue();
    wire_bytes += message.size();
    auto decoded = dist::DecodeMeasurement(message).MoveValue();
    monitor->AddSourceMeasurement(std::move(decoded)).Value();
  }

  auto recovery = monitor->Recover(options.iterations).MoveValue();

  std::printf("Fleet: %zu endpoints, %zu gateways, %s on the wire total\n\n",
              kNumEndpoints, kNumGateways, FormatBytes(wire_bytes).c_str());
  std::printf("Recovered baseline latency: %.1f ms (true %.1f ms)\n",
              recovery.mode, data.mode);

  auto worst = outlier::KOutliersFromRecovery(recovery, 5);
  std::printf("\nWorst endpoints by divergence from baseline:\n");
  for (const auto& o : worst.outliers) {
    std::printf("  endpoint %-6zu latency %9.1f ms\n", o.key_index, o.value);
  }

  // The recovery is the whole latency vector (the baseline everywhere
  // but the recovered entries), so any aggregate is a query over it.
  std::vector<double> latency(kNumEndpoints, recovery.mode);
  for (const cs::RecoveredEntry& e : recovery.entries) {
    latency[e.index] = e.value;
  }
  double sum = 0.0;
  for (double v : latency) sum += v;
  std::sort(latency.begin(), latency.end());
  std::printf("\nAggregates from the same sketch:\n");
  std::printf("  mean latency:   %8.2f ms\n", sum / kNumEndpoints);
  for (double p : {50.0, 95.0, 99.0, 99.9}) {
    // Nearest rank: the ceil(p% · n)-th smallest value.
    const size_t rank =
        static_cast<size_t>(std::ceil(p / 100.0 * kNumEndpoints));
    std::printf("  p%-5.1f:         %8.2f ms\n", p, latency[rank - 1]);
  }

  const double all_bytes =
      static_cast<double>(kNumGateways) * kNumEndpoints * 8;
  std::printf("\nCommunication: %.1f%% of shipping every endpoint value.\n",
              100.0 * static_cast<double>(wire_bytes) / all_bytes);
  return 0;
}
