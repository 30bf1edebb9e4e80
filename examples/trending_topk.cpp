// Distributed top-k via compressive sensing (the Section 6.2 extension):
// when the data's mode is zero, the recovered components rank directly as
// top-k. Compares the single-round CS answer with the exact top-k and its
// bytes with the ALL baseline's (every node ships its whole slice) on
// power-law "trending topic" counts.
//
// Build & run:  ./build/examples/trending_topk

#include <cstdio>

#include "common/format.h"
#include "core/csod.h"

int main() {
  using namespace csod;

  const size_t kNumTopics = 20000;
  const size_t kNumNodes = 10;
  const size_t kK = 10;

  // Power-law topic counts (alpha chosen heavy so trends stand out).
  workload::PowerLawOptions gen;
  gen.n = kNumTopics;
  gen.alpha = 0.8;
  gen.scale = 10.0;
  gen.seed = 2015;
  auto counts = workload::GeneratePowerLaw(gen).MoveValue();

  workload::PartitionOptions part;
  part.num_nodes = kNumNodes;
  part.strategy = workload::PartitionStrategy::kUniformSplit;
  part.seed = 4;
  auto slices = workload::PartitionAdditive(counts, part).MoveValue();

  dist::Cluster cluster(kNumTopics);
  for (auto& slice : slices) cluster.AddNode(std::move(slice)).Value();

  const auto truth = outlier::TopK(counts, kK);

  // --- CS-based single round. ---
  core::DetectorOptions options;
  options.n = kNumTopics;
  options.m = 700;
  options.seed = 21;
  options.iterations = 64;
  auto detector =
      core::DistributedOutlierDetector::Create(options).MoveValue();
  for (dist::NodeId id : cluster.NodeIds()) {
    detector->AddSource(*cluster.Slice(id).Value()).Value();
  }
  auto cs_top = detector->DetectTopK(kK).MoveValue();
  const uint64_t cs_bytes = kNumNodes * options.m * dist::kMeasurementBytes;

  // --- ALL baseline (exact, every node ships its dense slice). ---
  dist::CommStats all_comm;
  dist::AllTransmitProtocol().Run(cluster, kK, &all_comm).Value();

  // --- Report. ---
  size_t cs_hits = 0;
  for (size_t i = 0; i < kK; ++i) {
    for (size_t j = 0; j < kK; ++j) {
      if (cs_top[i].key_index == truth[j].key_index) {
        ++cs_hits;
        break;
      }
    }
  }

  std::printf("True top-%zu trending topics vs CS recovery:\n", kK);
  std::printf("%-6s %-14s %-14s\n", "rank", "true key", "CS key");
  for (size_t i = 0; i < kK; ++i) {
    std::printf("%-6zu %-14zu %-14zu\n", i + 1, truth[i].key_index,
                cs_top[i].key_index);
  }

  std::printf("\n%-8s %12s %8s %12s\n", "method", "bytes", "rounds",
              "top-k hits");
  std::printf("%-8s %12s %8d %9zu/%zu\n", "BOMP",
              FormatBytes(cs_bytes).c_str(), 1, cs_hits, kK);
  std::printf("%-8s %12s %8llu %9s\n", "ALL",
              FormatBytes(all_comm.bytes_total()).c_str(),
              static_cast<unsigned long long>(all_comm.rounds()), "exact");
  std::printf("\nThe CS sketch ships %.1f%% of ALL's bytes in one round.\n",
              100.0 * static_cast<double>(cs_bytes) /
                  static_cast<double>(all_comm.bytes_total()));
  return 0;
}
