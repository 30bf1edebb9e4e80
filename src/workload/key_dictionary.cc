#include "workload/key_dictionary.h"

namespace csod::workload {

size_t GlobalKeyDictionary::Intern(const std::string& key) {
  auto [it, inserted] = index_.try_emplace(key, keys_.size());
  if (inserted) keys_.push_back(key);
  return it->second;
}

Result<size_t> GlobalKeyDictionary::Lookup(const std::string& key) const {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound("key not in dictionary: " + key);
  }
  return it->second;
}

Result<std::string> GlobalKeyDictionary::KeyOf(size_t index) const {
  if (index >= keys_.size()) {
    return Status::OutOfRange("key index " + std::to_string(index) +
                              " out of dictionary size " +
                              std::to_string(keys_.size()));
  }
  return keys_[index];
}

}  // namespace csod::workload
