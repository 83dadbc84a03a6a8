#include "runtime/method_registry.h"

#include <iterator>

#include "common/macros.h"

namespace phoenix {

void MethodRegistry::Register(
    const std::string& name,
    std::function<Result<Value>(const ArgList&)> handler,
    MethodTraits traits) {
  auto [it, inserted] =
      entries_.emplace(name, MethodEntry{std::move(handler), traits});
  PHX_CHECK(inserted);
  // The new name shifts every later name one rank up.
  uint32_t rank = it == entries_.begin() ? 0 : std::prev(it)->second.rank + 1;
  for (; it != entries_.end(); ++it) it->second.rank = rank++;
}

const MethodEntry* MethodRegistry::Find(const std::string& name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

const std::string* MethodRegistry::NameOfRank(uint32_t rank) const {
  if (rank >= entries_.size()) return nullptr;
  return &std::next(entries_.begin(), rank)->first;
}

}  // namespace phoenix
