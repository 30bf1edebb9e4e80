#ifndef CSOD_COMMON_FLAGS_H_
#define CSOD_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace csod {

/// \brief Minimal `--flag=value` / `--flag value` command-line parser for
/// the benchmark harnesses and examples.
///
/// Supported forms: `--name=value`, `--name value`, and bare `--name`
/// (boolean true). Unrecognized positional arguments are collected.
class FlagParser {
 public:
  /// Parses argv. Returns InvalidArgument on malformed input.
  Status Parse(int argc, char** argv);

  /// True if `--name` appeared on the command line.
  bool Has(const std::string& name) const;

  /// Typed getters: return `fallback` when the flag is absent. Malformed
  /// numeric values abort (benchmark harness misuse, not user data).
  std::string GetString(const std::string& name,
                        const std::string& fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  double GetDouble(const std::string& name, double fallback) const;
  bool GetBool(const std::string& name, bool fallback) const;

  /// Comma-separated list of integers, e.g. `--m=100,200,300`.
  std::vector<int64_t> GetIntList(const std::string& name,
                                  std::vector<int64_t> fallback) const;

  /// Every flag name on the command line, sorted, without the dashes.
  std::vector<std::string> Names() const;

  /// Positional (non-flag) arguments in order of appearance.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace csod

#endif  // CSOD_COMMON_FLAGS_H_
