#include "sim/scenario.h"

#include <cstdio>
#include <string>

#include "common/random.h"

namespace csod::sim {

namespace {

// Fixed-precision double formatting for the one-line scenario string.
std::string Fmt(double value, int precision) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

// Domain tag separating scenario derivation from every other consumer of
// the seed (matrix generation, workload generation, fault decisions).
constexpr uint64_t kScenarioTag = 0x7363656e6172696fULL;  // "scenario"

// Kind weights: the CS-family protocols (the ones with a real fault
// plan) get most of the budget; the perfect-network K+δ baseline, the
// engine, and the serve layer share the rest. The table length is part
// of every seed's derivation, so it stays at 16 entries. kAdaptiveGrow
// holds four slots because it draws nothing after the CS-family block,
// and kKPlusDelta three because a baseline draws nothing after the kind,
// so giving either a freed slot moves no other seed's draws.
constexpr ScenarioKind kKindTable[] = {
    ScenarioKind::kCs,           ScenarioKind::kCs,
    ScenarioKind::kCs,           ScenarioKind::kAdaptiveGrow,
    ScenarioKind::kAdaptiveGrow, ScenarioKind::kTwoPhase,
    ScenarioKind::kTwoPhase,     ScenarioKind::kAdaptiveGrow,
    ScenarioKind::kAdaptiveGrow, ScenarioKind::kKPlusDelta,
    ScenarioKind::kKPlusDelta,   ScenarioKind::kKPlusDelta,
    ScenarioKind::kMapReduce,    ScenarioKind::kMapReduce,
    ScenarioKind::kServe,        ScenarioKind::kServe,
};

bool IsCsFamily(ScenarioKind kind) {
  return kind == ScenarioKind::kCs || kind == ScenarioKind::kAdaptiveGrow ||
         kind == ScenarioKind::kTwoPhase;
}

}  // namespace

const char* ScenarioKindName(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kCs: return "cs";
    case ScenarioKind::kAdaptiveGrow: return "adaptive";
    case ScenarioKind::kTwoPhase: return "twophase";
    case ScenarioKind::kKPlusDelta: return "kplusdelta";
    case ScenarioKind::kMapReduce: return "mapreduce";
    case ScenarioKind::kServe: return "serve";
  }
  return "unknown";
}

Scenario ScenarioFromSeed(uint64_t seed) {
  Rng rng(SplitMix64(HashCombine(seed, kScenarioTag)));
  Scenario s;
  s.seed = seed;
  s.kind = kKindTable[rng.NextBounded(
      sizeof(kKindTable) / sizeof(kKindTable[0]))];

  constexpr size_t kThreadLimits[] = {1, 2, 8};
  s.thread_limit = kThreadLimits[rng.NextBounded(3)];

  // Problem shape. m = 16·s keeps the fault-free CS recoveries exact, so
  // the zero-fault bit-identity invariant is a hard assertion rather than
  // a statistical one.
  s.n = 384 + 128 * rng.NextBounded(4);            // 384..768
  s.sparsity = 8 + 2 * rng.NextBounded(5);         // 8..16
  s.num_nodes = 3 + rng.NextBounded(8);            // 3..10
  s.k = 2 + rng.NextBounded(5);                    // 2..6
  s.m = 16 * s.sparsity;

  if (IsCsFamily(s.kind)) {
    // Each fault process is independently present, with rates inside the
    // regime the retry budget can sometimes (not always) beat — both the
    // recovered and the degraded paths get coverage.
    if (rng.NextDouble() < 0.5) {
      s.faults.drop_rate = 0.05 + 0.3 * rng.NextDouble();
    }
    if (rng.NextDouble() < 0.5) {
      s.faults.straggler_rate = 0.05 + 0.35 * rng.NextDouble();
      s.faults.straggler_delay_ticks = rng.NextDouble() < 0.5 ? 6 : 12;
    }
    if (rng.NextDouble() < 0.5) {
      s.faults.duplicate_rate = 0.05 + 0.25 * rng.NextDouble();
    }
    // Crashes target the canary node (appended by the runner as the
    // highest node id), so the excluded slice is sparse and the §6
    // envelope is exactly checkable. Base nodes still get excluded via
    // drop/straggler exhaustion.
    if (s.kind == ScenarioKind::kCs && rng.NextDouble() < 0.4) {
      s.canary_crash = true;
      s.faults.crash_nodes = {static_cast<dist::NodeId>(s.num_nodes)};
    }
    if (rng.NextDouble() < 0.4) s.cancellation_noise = 200.0;
    s.faults.seed = SplitMix64(seed ^ 0xfa171ULL);
    s.retry.max_retries = 1 + rng.NextBounded(3);
    s.retry.timeout_ticks = 4;
    s.retry.backoff = rng.NextDouble() < 0.5 ? 1.5 : 2.0;
  }

  if (s.kind == ScenarioKind::kTwoPhase) {
    // Discarded: this draw once picked the query solver among four. BOMP
    // is the only engine now; the draw stays so that every later draw,
    // and so every scenario that ran BOMP, replays unchanged.
    rng.NextBounded(4);
  }

  // Buggify: armed on most runs; the unarmed rest pin the zero-overhead /
  // bit-identity side. Probabilities sweep the sparse-to-dense fault
  // spectrum.
  s.buggify = rng.NextDouble() < 0.7;
  s.buggify_options.seed = SplitMix64(seed ^ 0xb166ULL);
  constexpr double kActivation[] = {0.25, 0.5, 1.0};
  constexpr double kFire[] = {0.1, 0.25, 0.5};
  s.buggify_options.activation_probability = kActivation[rng.NextBounded(3)];
  s.buggify_options.fire_probability = kFire[rng.NextBounded(3)];

  if (s.kind == ScenarioKind::kServe) {
    s.n = 512 + 256 * rng.NextBounded(3);  // 512..1024
    s.m = 192;
    s.k = 4;
    s.window_epochs = 2 + rng.NextBounded(2);
    s.epochs = 6 + rng.NextBounded(4);
    s.num_shards = rng.NextDouble() < 0.5 ? 4 : 8;
    s.batches_per_epoch = 2 + rng.NextBounded(3);
    s.events_per_batch = 200 + 100 * rng.NextBounded(4);
    rng.NextBounded(4);  // Discarded solver draw, as for kTwoPhase above.
  }

  if (s.kind == ScenarioKind::kMapReduce) {
    s.num_splits = 2 + rng.NextBounded(6);
    s.records_per_split = 200 + 100 * rng.NextBounded(5);
    constexpr size_t kReduceTasks[] = {1, 3, 8};
    s.num_reduce_tasks = kReduceTasks[rng.NextBounded(3)];
    s.use_combiner = rng.NextDouble() < 0.5;
  }

  return s;
}

std::string ScenarioToString(const Scenario& s) {
  std::string out = "kind=";
  out += ScenarioKindName(s.kind);
  out += " limit=" + std::to_string(s.thread_limit);
  switch (s.kind) {
    case ScenarioKind::kServe:
      out += " n=" + std::to_string(s.n) + " m=" + std::to_string(s.m) +
             " shards=" + std::to_string(s.num_shards) +
             " window=" + std::to_string(s.window_epochs) +
             " epochs=" + std::to_string(s.epochs) +
             " batches=" + std::to_string(s.batches_per_epoch) + "x" +
             std::to_string(s.events_per_batch);
      break;
    case ScenarioKind::kMapReduce:
      out += " splits=" + std::to_string(s.num_splits) + "x" +
             std::to_string(s.records_per_split) +
             " reducers=" + std::to_string(s.num_reduce_tasks) +
             (s.use_combiner ? " combiner" : "");
      break;
    default:
      out += " n=" + std::to_string(s.n) + " s=" +
             std::to_string(s.sparsity) + " L=" +
             std::to_string(s.num_nodes) + " k=" + std::to_string(s.k) +
             " m=" + std::to_string(s.m);
      if (s.faults.any()) {
        out += " faults[";
        bool first = true;
        auto add = [&](const std::string& part) {
          if (!first) out += ",";
          out += part;
          first = false;
        };
        if (s.faults.drop_rate > 0.0) {
          add("drop=" + Fmt(s.faults.drop_rate, 3));
        }
        if (s.faults.straggler_rate > 0.0) {
          add("slow=" + Fmt(s.faults.straggler_rate, 3) + "@" +
              std::to_string(s.faults.straggler_delay_ticks));
        }
        if (s.faults.duplicate_rate > 0.0) {
          add("dup=" + Fmt(s.faults.duplicate_rate, 3));
        }
        if (!s.faults.crash_nodes.empty()) add("crash=canary");
        out += "]";
        out += " retry[r=" + std::to_string(s.retry.max_retries) +
               ",b=" + Fmt(s.retry.backoff, 1) + "]";
      }
      break;
  }
  if (s.buggify) {
    out += " buggify[act=" +
           Fmt(s.buggify_options.activation_probability, 2) +
           ",fire=" + Fmt(s.buggify_options.fire_probability, 2) +
           "]";
  } else {
    out += " buggify=off";
  }
  return out;
}

}  // namespace csod::sim
