#ifndef PHOENIX_RUNTIME_METHOD_REGISTRY_H_
#define PHOENIX_RUNTIME_METHOD_REGISTRY_H_

#include <functional>
#include <map>
#include <string>

#include "common/result.h"
#include "serde/value.h"

namespace phoenix {

// Declarative attributes on a method, the analogue of the paper's custom
// .NET attributes (§3.3: a read-only method neither changes any field nor
// makes a non-read-only outgoing call; callers need not force, servers need
// not log).
struct MethodTraits {
  bool read_only = false;
};

struct MethodEntry {
  std::function<Result<Value>(const ArgList&)> handler;
  MethodTraits traits;
  // Position of the method in its registry's name order. Method sets are
  // static per type, so a rank names the same method in every instance of
  // the type, whatever order it registered its methods in; incoming-call
  // log records carry it instead of the name.
  uint32_t rank = 0;
};

// Dispatch table a component fills in from RegisterMethods(). This replaces
// CLR metadata/dynamic dispatch: cross-context calls name their method and
// are dispatched through this table after unmarshalling.
class MethodRegistry {
 public:
  MethodRegistry() = default;

  MethodRegistry(MethodRegistry&&) = default;
  MethodRegistry& operator=(MethodRegistry&&) = default;
  MethodRegistry(const MethodRegistry&) = delete;
  MethodRegistry& operator=(const MethodRegistry&) = delete;

  // Registers `handler` (typically a lambda capturing the component) under
  // `name`. Re-registering a name aborts: method sets are static per type.
  void Register(const std::string& name,
                std::function<Result<Value>(const ArgList&)> handler,
                MethodTraits traits = {});

  // nullptr when absent.
  const MethodEntry* Find(const std::string& name) const;

  // Name of the method at `rank` (MethodEntry::rank); nullptr past the
  // table.
  const std::string* NameOfRank(uint32_t rank) const;

  const std::map<std::string, MethodEntry>& entries() const {
    return entries_;
  }

 private:
  std::map<std::string, MethodEntry> entries_;
};

}  // namespace phoenix

#endif  // PHOENIX_RUNTIME_METHOD_REGISTRY_H_
