#ifndef CSOD_WORKLOAD_KEY_DICTIONARY_H_
#define CSOD_WORKLOAD_KEY_DICTIONARY_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace csod::workload {

/// \brief The paper's "global key dictionary" (Section 3.1, Vectorization).
///
/// Assigns every key a fixed dense index so that all nodes arrange their
/// local values into vectors with identical key positions; looking up the
/// dictionary with a vector position recovers the key. Keys are strings
/// (e.g. "2015-05-01|en-US|web|url123").
class GlobalKeyDictionary {
 public:
  GlobalKeyDictionary() = default;

  /// Returns the index of `key`, interning it if new.
  size_t Intern(const std::string& key);

  /// Index of an existing key, or NotFound.
  Result<size_t> Lookup(const std::string& key) const;

  /// Key at `index`, or OutOfRange.
  Result<std::string> KeyOf(size_t index) const;

  /// Number of interned keys N.
  size_t size() const { return keys_.size(); }

 private:
  std::unordered_map<std::string, size_t> index_;
  std::vector<std::string> keys_;
};

}  // namespace csod::workload

#endif  // CSOD_WORKLOAD_KEY_DICTIONARY_H_
