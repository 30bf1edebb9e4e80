// csod — command-line front end for the CSOD library.
//
// Run `csod` with no arguments for the subcommand table; every verb, its
// flags, and its one-line summary are generated from kSubcommands below —
// add new verbs there, never to hand-maintained usage strings.

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "obs/telemetry.h"
#include "sim/runner.h"
#include "tools/cli_commands.h"

namespace {

using namespace csod;

// The single source of truth for the CLI surface: name, flag synopsis, and
// one-line summary per verb. Usage(), command validation and flag
// validation all read this table, so a verb or flag it does not document
// is refused.
struct Subcommand {
  const char* name;
  const char* args;
  const char* summary;
};

constexpr Subcommand kSubcommands[] = {
    {"generate", "--out=FILE [--n= --sparsity= --nodes= --mode= --seed=]",
     "write a synthetic distributed click-log event file"},
    {"detect",
     "--in=FILE [--m= --k= --seed= --iterations= --n= "
     "--telemetry-json=FILE]",
     "CS-based distributed k-outlier detection over the file's nodes"},
    {"topk",
     "--in=FILE [--m= --k= --seed= --iterations= --n= "
     "--telemetry-json=FILE]",
     "zero-mode top-k extension via CS recovery"},
    {"exact", "--in=FILE [--k=]",
     "centralized exact reference answer"},
    {"query", "--in=CSV --sql=QUERY [--m= --seed= --iterations=]",
     "run the paper's query template over a CSV table"},
    {"serve",
     "--in=FILE [--epochs= --window= --shards= --batch= --m= --k= --seed= "
     "--iterations= --n= --telemetry-json=FILE]",
     "replay the event file through the streaming service and answer a "
     "window outlier query"},
    {"serve-net",
     "--in=FILE [--transport={loopback|socket} --epochs= --window= --shards= "
     "--batch= --m= --k= --seed= --iterations= --n= --backlog-bytes= "
     "--telemetry-json=FILE]",
     "replay the event file through the wire-facing deployment surface "
     "(framed ingest/query, checkpoint restore, follower replication)"},
    {"stream-demo",
     "[--n= --mode= --epochs= --events-per-epoch= --window= --shards= --m= "
     "--k= --seed= --iterations= --telemetry-json=FILE]",
     "self-generating stream with a concurrent top-k analyst thread"},
    {"sim", "[--scenarios= --seed0= --replay=SEED --verbose]",
     "seeded randomized simulation sweep (or bit-identical single-seed "
     "replay) with invariant checking"},
};

int Usage() {
  std::string verbs;
  for (const Subcommand& sub : kSubcommands) {
    if (!verbs.empty()) verbs += '|';
    verbs += sub.name;
  }
  std::fprintf(stderr, "usage: csod <%s> [flags]\n", verbs.c_str());
  for (const Subcommand& sub : kSubcommands) {
    std::fprintf(stderr, "  %-12s %s\n", sub.name, sub.args);
    std::fprintf(stderr, "  %-12s   %s\n", "", sub.summary);
  }
  return 2;
}

const Subcommand* FindCommand(const std::string& name) {
  for (const Subcommand& sub : kSubcommands) {
    if (name == sub.name) return &sub;
  }
  return nullptr;
}

// True when `sub`'s synopsis lists `--name` (followed by '=', ' ', ']' or
// the end, so that `--n` does not match `--nodes=`).
bool ListsFlag(const Subcommand& sub, const std::string& name) {
  const std::string args = sub.args;
  const std::string token = "--" + name;
  for (size_t pos = args.find(token); pos != std::string::npos;
       pos = args.find(token, pos + 1)) {
    const size_t end = pos + token.size();
    if (end == args.size() || args[end] == '=' || args[end] == ' ' ||
        args[end] == ']') {
      return true;
    }
  }
  return false;
}

tools::DetectOptions DetectOptionsFromFlags(const FlagParser& flags) {
  tools::DetectOptions options;
  options.m = static_cast<size_t>(flags.GetInt("m", 400));
  options.k = static_cast<size_t>(flags.GetInt("k", 5));
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  options.iterations = static_cast<size_t>(flags.GetInt("iterations", 0));
  options.n_override = static_cast<size_t>(flags.GetInt("n", 0));
  return options;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "csod: %s\n", status.ToString().c_str());
  return 1;
}

// Prints the report, then writes the telemetry snapshot if a live sink was
// attached (`--telemetry-json=FILE`).
int Finish(const Result<std::string>& report, const std::string& telemetry_path,
           const obs::Telemetry& telemetry) {
  if (!report.ok()) return Fail(report.status());
  std::fputs(report.Value().c_str(), stdout);
  if (!telemetry_path.empty()) {
    const Status written =
        obs::WriteSnapshotJsonFile(telemetry, telemetry_path);
    if (!written.ok()) return Fail(written);
    std::printf("telemetry: %s\n", telemetry_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.Parse(argc, argv).Check();
  if (flags.positional().empty()) return Usage();
  const std::string command = flags.positional().front();
  const Subcommand* sub = FindCommand(command);
  if (sub == nullptr) return Usage();
  // A flag the verb does not read is refused, not ignored: a misspelling
  // would otherwise run silently with every default.
  for (const std::string& name : flags.Names()) {
    if (name != "telemetry-json" && !ListsFlag(*sub, name)) {
      std::fprintf(stderr, "csod %s: unknown flag --%s (run csod for usage)\n",
                   command.c_str(), name.c_str());
      return 2;
    }
  }

  // --telemetry-json=FILE attaches a live sink to the run and writes the
  // deterministic snapshot (DESIGN.md §9) after the report.
  const std::string telemetry_path = flags.GetString("telemetry-json", "");
  obs::Telemetry telemetry;
  obs::Telemetry* sink = telemetry_path.empty() ? nullptr : &telemetry;

  if (command == "generate") {
    const std::string out = flags.GetString("out", "");
    if (out.empty()) return Usage();
    tools::GenerateOptions options;
    options.n = static_cast<size_t>(flags.GetInt("n", 4000));
    options.sparsity = static_cast<size_t>(flags.GetInt("sparsity", 50));
    options.num_nodes = static_cast<size_t>(flags.GetInt("nodes", 8));
    options.mode = flags.GetDouble("mode", 1800.0);
    options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
    auto written = tools::WriteSyntheticEvents(out, options);
    if (!written.ok()) return Fail(written.status());
    std::printf("wrote %zu records to %s (%zu keys, %zu nodes, %zu planted "
                "outliers)\n",
                written.Value(), out.c_str(), options.n, options.num_nodes,
                options.sparsity);
    return 0;
  }

  if (command == "sim") {
    if (flags.Has("replay")) {
      const uint64_t seed = static_cast<uint64_t>(flags.GetInt("replay", 0));
      std::string line;
      const sim::ScenarioOutcome outcome = sim::ReplaySeed(seed, &line);
      std::printf("seed=%llu %s\n", static_cast<unsigned long long>(seed),
                  line.c_str());
      std::printf("digest=%016llx %s\n",
                  static_cast<unsigned long long>(outcome.digest),
                  outcome.ok() ? "ok" : "FAIL");
      for (const std::string& violation : outcome.violations) {
        std::printf("  violation: %s\n", violation.c_str());
      }
      return outcome.ok() ? 0 : 1;
    }
    sim::SweepOptions options;
    options.seed0 = static_cast<uint64_t>(flags.GetInt("seed0", 1));
    options.scenarios = static_cast<size_t>(flags.GetInt("scenarios", 200));
    options.verbose = flags.GetBool("verbose", false);
    const sim::SweepResult result = sim::RunSweep(options);
    std::fputs(result.report.c_str(), stdout);
    for (const std::string& failure : result.failures) {
      std::printf("%s\n", failure.c_str());
    }
    std::printf("combined-digest=%016llx\n",
                static_cast<unsigned long long>(result.combined_digest));
    return result.ok() ? 0 : 1;
  }

  if (command == "stream-demo") {
    tools::StreamDemoOptions options;
    options.n = static_cast<size_t>(flags.GetInt("n", 4000));
    options.mode = flags.GetDouble("mode", 1800.0);
    options.m = static_cast<size_t>(flags.GetInt("m", 400));
    options.k = static_cast<size_t>(flags.GetInt("k", 5));
    options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    options.iterations = static_cast<size_t>(flags.GetInt("iterations", 0));
    options.window_epochs = static_cast<size_t>(flags.GetInt("window", 4));
    options.epochs = static_cast<size_t>(flags.GetInt("epochs", 12));
    options.num_shards = static_cast<size_t>(flags.GetInt("shards", 8));
    options.events_per_epoch =
        static_cast<size_t>(flags.GetInt("events-per-epoch", 20000));
    options.telemetry = sink;
    return Finish(tools::RunStreamDemo(options), telemetry_path, telemetry);
  }

  const std::string in = flags.GetString("in", "");
  if (in.empty()) return Usage();

  if (command == "query") {
    const std::string sql = flags.GetString("sql", "");
    if (sql.empty()) return Usage();
    auto table = tools::LoadCsvTable(in);
    if (!table.ok()) return Fail(table.status());
    auto report =
        tools::RunQuery(table.Value(), sql, DetectOptionsFromFlags(flags));
    return Finish(report, telemetry_path, telemetry);
  }

  auto events = tools::LoadEvents(in);
  if (!events.ok()) return Fail(events.status());

  Result<std::string> report = Status::Unimplemented("unknown command");
  if (command == "detect" || command == "topk") {
    tools::DetectOptions options = DetectOptionsFromFlags(flags);
    options.telemetry = sink;
    report = command == "detect" ? tools::RunDetect(events.Value(), options)
                                 : tools::RunTopK(events.Value(), options);
  } else if (command == "exact") {
    report = tools::RunExact(events.Value(),
                             static_cast<size_t>(flags.GetInt("k", 5)));
  } else if (command == "serve") {
    tools::ServeOptions options;
    options.m = static_cast<size_t>(flags.GetInt("m", 400));
    options.k = static_cast<size_t>(flags.GetInt("k", 5));
    options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    options.iterations = static_cast<size_t>(flags.GetInt("iterations", 0));
    options.n_override = static_cast<size_t>(flags.GetInt("n", 0));
    options.window_epochs = static_cast<size_t>(flags.GetInt("window", 4));
    options.epochs = static_cast<size_t>(flags.GetInt("epochs", 8));
    options.num_shards = static_cast<size_t>(flags.GetInt("shards", 8));
    options.batch_events = static_cast<size_t>(flags.GetInt("batch", 512));
    options.telemetry = sink;
    report = tools::RunServe(events.Value(), options);
  } else if (command == "serve-net") {
    tools::ServeNetOptions options;
    options.m = static_cast<size_t>(flags.GetInt("m", 400));
    options.k = static_cast<size_t>(flags.GetInt("k", 5));
    options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    options.iterations = static_cast<size_t>(flags.GetInt("iterations", 0));
    options.n_override = static_cast<size_t>(flags.GetInt("n", 0));
    options.window_epochs = static_cast<size_t>(flags.GetInt("window", 4));
    options.epochs = static_cast<size_t>(flags.GetInt("epochs", 8));
    options.num_shards = static_cast<size_t>(flags.GetInt("shards", 8));
    options.batch_events = static_cast<size_t>(flags.GetInt("batch", 512));
    options.max_backlog_bytes = static_cast<size_t>(
        flags.GetInt("backlog-bytes", 64 << 20));
    const std::string transport = flags.GetString("transport", "loopback");
    if (transport != "loopback" && transport != "socket") {
      return Fail(Status::InvalidArgument(
          "serve-net: --transport must be loopback or socket"));
    }
    options.socket = transport == "socket";
    options.telemetry = sink;
    report = tools::RunServeNet(events.Value(), options);
  }
  return Finish(report, telemetry_path, telemetry);
}
