// csod — command-line front end for the CSOD library.
//
// Run `csod` with no arguments for the subcommand table; every verb, its
// flags, and its one-line summary are generated from kSubcommands below —
// add new verbs there, never to hand-maintained usage strings.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "obs/telemetry.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "tools/cli_commands.h"

namespace {

using namespace csod;

// The single source of truth for the CLI surface: name, flag synopsis, and
// one-line summary per verb. Usage(), command validation and flag
// validation all read this table, so a verb or flag it does not document
// is refused. `--telemetry-json=FILE` is listed only by the verbs whose
// run ends in Finish, which writes the file.
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
    {"exact", "--in=FILE [--k= --telemetry-json=FILE]",
     "centralized exact reference answer"},
    {"query",
     "--in=CSV --sql=QUERY [--m= --seed= --iterations= --telemetry-json=FILE]",
     "run the paper's query template over a CSV table"},
    {"serve",
     "--in=FILE [--epochs= --window= --shards= --batch= --m= --k= --seed= "
     "--iterations= --n= --telemetry-json=FILE]",
     "replay the event file through the streaming service and answer a "
     "window outlier query"},
    {"serve-net",
     "--in=FILE [--transport={loopback|socket} --epochs= --window= --shards= "
     "--batch= --m= --k= --seed= --iterations= --n= --telemetry-json=FILE]",
     "replay the event file through the wire-facing deployment surface "
     "(framed ingest/query, checkpoint restore, follower replication)"},
    {"stream-demo",
     "[--n= --mode= --epochs= --events-per-epoch= --window= --shards= --m= "
     "--k= --seed= --iterations= --telemetry-json=FILE]",
     "self-generating stream with a concurrent top-k analyst thread"},
    {"sim",
     "[--scenarios= --seed0= --verbose --list --replay=SEED --corpus=FILE]",
     "seeded randomized simulation sweep with invariant checking (--list "
     "only prints each seed's scenario; --replay and --corpus re-run one "
     "seed or a regression corpus bit-identically)"},
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

// Prints each invariant a replayed seed violated, one per line.
void PrintViolations(const sim::ScenarioOutcome& outcome) {
  for (const std::string& violation : outcome.violations) {
    std::printf("  violation: %s\n", violation.c_str());
  }
}

// Seeds from a regression-corpus file: one decimal seed per line,
// whitespace trimmed, '#' to end of line is a comment, blank lines skipped.
bool LoadCorpus(const std::string& path, std::vector<uint64_t>* seeds) {
  std::ifstream in(path);
  if (!in.is_open()) {
    std::fprintf(stderr, "csod sim: cannot open corpus %s\n", path.c_str());
    return false;
  }
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const size_t last = line.find_last_not_of(" \t\r");
    const std::string token = line.substr(first, last - first + 1);
    char* end = nullptr;
    const unsigned long long seed = std::strtoull(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0') {
      std::fprintf(stderr, "csod sim: %s:%zu: bad seed '%s'\n", path.c_str(),
                   lineno, token.c_str());
      return false;
    }
    seeds->push_back(static_cast<uint64_t>(seed));
  }
  return true;
}

// `csod sim`: a sweep, a listing, one replayed seed, or a replayed corpus.
// Exits nonzero iff a scenario violated an invariant (2 on an unreadable
// corpus); every failure line is followed by its replay recipe.
int RunSim(const FlagParser& flags) {
  if (flags.Has("replay")) {
    const uint64_t seed = static_cast<uint64_t>(flags.GetInt("replay", 0));
    std::string line;
    const sim::ScenarioOutcome outcome = sim::ReplaySeed(seed, &line);
    std::printf("seed=%llu %s\n", static_cast<unsigned long long>(seed),
                line.c_str());
    std::printf("digest=%016llx %s\n",
                static_cast<unsigned long long>(outcome.digest),
                outcome.ok() ? "ok" : "FAIL");
    PrintViolations(outcome);
    return outcome.ok() ? 0 : 1;
  }

  const std::string corpus = flags.GetString("corpus", "");
  if (!corpus.empty()) {
    std::vector<uint64_t> seeds;
    if (!LoadCorpus(corpus, &seeds)) return 2;
    size_t failed = 0;
    for (uint64_t seed : seeds) {
      std::string line;
      const sim::ScenarioOutcome outcome = sim::ReplaySeed(seed, &line);
      std::printf("seed=%llu digest=%016llx %s %s\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(outcome.digest),
                  outcome.ok() ? "ok " : "FAIL", line.c_str());
      if (!outcome.ok()) {
        ++failed;
        PrintViolations(outcome);
        std::printf("  replay: csod sim --replay %llu\n",
                    static_cast<unsigned long long>(seed));
      }
    }
    std::printf("corpus: %zu seeds, %zu failed\n", seeds.size(), failed);
    return failed == 0 ? 0 : 1;
  }

  sim::SweepOptions options;
  options.seed0 = static_cast<uint64_t>(flags.GetInt("seed0", 1));
  options.scenarios = static_cast<size_t>(flags.GetInt("scenarios", 200));
  options.verbose = flags.GetBool("verbose", false);
  if (flags.GetBool("list", false)) {
    for (size_t i = 0; i < options.scenarios; ++i) {
      const uint64_t seed = options.seed0 + i;
      std::printf("seed=%llu %s\n", static_cast<unsigned long long>(seed),
                  sim::ScenarioToString(sim::ScenarioFromSeed(seed)).c_str());
    }
    return 0;
  }
  const sim::SweepResult result = sim::RunSweep(options);
  std::fputs(result.report.c_str(), stdout);
  for (const std::string& failure : result.failures) {
    std::printf("%s\n", failure.c_str());
  }
  std::printf("combined-digest=%016llx\n",
              static_cast<unsigned long long>(result.combined_digest));
  return result.ok() ? 0 : 1;
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
    if (!ListsFlag(*sub, name)) {
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

  if (command == "sim") return RunSim(flags);

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
  } else if (command == "serve" || command == "serve-net") {
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
    options.telemetry = sink;
    if (command == "serve") {
      report = tools::RunServe(events.Value(), options);
    } else {
      const std::string transport = flags.GetString("transport", "loopback");
      if (transport != "loopback" && transport != "socket") {
        return Fail(Status::InvalidArgument(
            "serve-net: --transport must be loopback or socket"));
      }
      options.socket = transport == "socket";
      report = tools::RunServeNet(events.Value(), options);
    }
  }
  return Finish(report, telemetry_path, telemetry);
}
