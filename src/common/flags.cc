#include "common/flags.h"

#include <cstdlib>

namespace csod {

namespace {

// Returns true if `arg` looks like "--name" or "--name=value" and extracts
// the pieces.
bool SplitFlag(const std::string& arg, std::string* name, std::string* value,
               bool* has_value) {
  if (arg.size() < 3 || arg[0] != '-' || arg[1] != '-') return false;
  std::string body = arg.substr(2);
  auto eq = body.find('=');
  if (eq == std::string::npos) {
    *name = body;
    *has_value = false;
  } else {
    *name = body.substr(0, eq);
    *value = body.substr(eq + 1);
    *has_value = true;
  }
  return !name->empty();
}

}  // namespace

Status FlagParser::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string name;
    std::string value;
    bool has_value = false;
    if (!SplitFlag(arg, &name, &value, &has_value)) {
      positional_.push_back(arg);
      continue;
    }
    if (!has_value) {
      // "--name value" when the next token is not itself a flag, else a
      // boolean "--name".
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    values_[name] = value;
  }
  return Status::OK();
}

bool FlagParser::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::vector<std::string> FlagParser::Names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  return names;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int64_t FlagParser::GetInt(const std::string& name, int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

double FlagParser::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return std::strtod(it->second.c_str(), nullptr);
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<int64_t> FlagParser::GetIntList(
    const std::string& name, std::vector<int64_t> fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<int64_t> out;
  const std::string& s = it->second;
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::strtoll(s.substr(pos, comma - pos).c_str(), nullptr, 10));
    pos = comma + 1;
  }
  return out;
}

}  // namespace csod
