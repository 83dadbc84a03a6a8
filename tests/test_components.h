#ifndef PHOENIX_TESTS_TEST_COMPONENTS_H_
#define PHOENIX_TESTS_TEST_COMPONENTS_H_

// Small components shared by the runtime / recovery / exactly-once tests.

#include <map>
#include <string>

#include "core/phoenix.h"
#include "wal/log_reader.h"
#include "wal/shard_router.h"

namespace phoenix::testing {

// Global (non-recovered!) execution counter. Lets tests distinguish "the
// method body ran again" (replay, duplicate mis-detection) from "the state
// changed again" — exactly-once is a guarantee about state, replays do
// re-execute bodies.
class ExecutionLog {
 public:
  static std::map<std::string, int>& counts() {
    static auto& counts = *new std::map<std::string, int>();
    return counts;
  }
  static void Reset() { counts().clear(); }
  static void Bump(const std::string& key) { ++counts()[key]; }
  static int Of(const std::string& key) {
    auto it = counts().find(key);
    return it == counts().end() ? 0 : it->second;
  }
};

// Persistent counter. Add(n) -> new count; Get() read-only; Fail(code) ->
// an application error reply (tests reply-status plumbing).
class Counter : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Add", [this](const ArgList& a) -> Result<Value> {
      ExecutionLog::Bump(name() + ".Add");
      count_ += a[0].AsInt();
      return Value(count_);
    });
    methods.Register(
        "Get", [this](const ArgList&) -> Result<Value> { return Value(count_); },
        MethodTraits{.read_only = true});
    methods.Register("Fail", [](const ArgList&) -> Result<Value> {
      return Status::FailedPrecondition("requested failure");
    });
  }
  void RegisterFields(FieldRegistry& fields) override {
    fields.RegisterInt("count", &count_);
  }

 private:
  int64_t count_ = 0;
};

// Persistent middle tier: Bump(n) adds locally, then forwards n to the
// downstream component (exercises message 3/4 and the Figure 2 failure
// points). Ctor args: [downstream_uri, forward_method?]; downstream_uri may
// be "" for a leafless chain, forward_method defaults to "Add" so chains of
// Chains use "Bump".
class Chain : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Bump", [this](const ArgList& a) -> Result<Value> {
      ExecutionLog::Bump(name() + ".Bump");
      count_ += a[0].AsInt();
      if (!downstream_.empty()) {
        PHX_RETURN_IF_ERROR(
            CallRef(downstream_, forward_method_, {a[0]}).status());
      }
      return Value(count_);
    });
    methods.Register(
        "Get", [this](const ArgList&) -> Result<Value> { return Value(count_); },
        MethodTraits{.read_only = true});
    methods.Register("SetDownstream",
                     [this](const ArgList& a) -> Result<Value> {
                       downstream_.uri = a[0].AsString();
                       if (a.size() > 1) forward_method_ = a[1].AsString();
                       return Value(true);
                     });
  }
  void RegisterFields(FieldRegistry& fields) override {
    fields.RegisterInt("count", &count_);
    fields.RegisterComponentRef("downstream", &downstream_);
    fields.RegisterString("forward_method", &forward_method_);
  }
  Status Initialize(const ArgList& args) override {
    if (!args.empty()) downstream_.uri = args[0].AsString();
    if (args.size() > 1) forward_method_ = args[1].AsString();
    return Status::OK();
  }

 private:
  int64_t count_ = 0;
  std::string forward_method_ = "Add";
  ComponentRefField downstream_;
};

// Functional: Square(n) -> n*n (pure).
class Squarer : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Square", [](const ArgList& a) -> Result<Value> {
      return Value(a[0].AsInt() * a[0].AsInt());
    });
  }
};

// Read-only: Probe(counter_uri) -> the counter's current value.
class Prober : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Probe", [this](const ArgList& a) -> Result<Value> {
      return Call(a[0].AsString(), "Get", {});
    });
  }
};

// Persistent parent owning a subordinate Counter. BumpSub(n) calls the
// subordinate's Add — a plain in-context local call (§3.2.1).
class ParentWithSub : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("BumpSub", [this](const ArgList& a) -> Result<Value> {
      return CallRef(sub_, "Add", {a[0]});
    });
    methods.Register(
        "GetSub", [this](const ArgList&) { return CallRef(sub_, "Get", {}); },
        MethodTraits{.read_only = true});
  }
  void RegisterFields(FieldRegistry& fields) override {
    fields.RegisterComponentRef("sub", &sub_);
  }
  Status Initialize(const ArgList&) override {
    PHX_ASSIGN_OR_RETURN(sub_.uri,
                         CreateSubordinate("Counter", name() + "_sub", {}));
    return Status::OK();
  }

 private:
  ComponentRefField sub_;
};

// Persistent caller with no state of its own: RunBatch(n) calls Add(1) on
// its server n times from inside one method execution. Ctor args:
// [server_uri].
class Batcher : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("RunBatch", [this](const ArgList& a) -> Result<Value> {
      int64_t n = a[0].AsInt();
      for (int64_t i = 0; i < n; ++i) {
        PHX_RETURN_IF_ERROR(
            CallRef(server_, "Add", MakeArgs(int64_t{1})).status());
      }
      return Value(n);
    });
  }
  void RegisterFields(FieldRegistry& fields) override {
    fields.RegisterComponentRef("server", &server_);
  }
  Status Initialize(const ArgList& args) override {
    server_.uri = args[0].AsString();
    return Status::OK();
  }

 private:
  ComponentRefField server_;
};

// Where a test rots the record whose frame starts at composite `lsn` on
// `log`: the shard-local LSN of its payload, past the variable-length frame
// header, so the header stays intact and only the CRC can catch the rot.
inline uint64_t PayloadLsn(const LogManager& log, uint64_t lsn) {
  return FramePayloadLsn(log.ShardStableView(ShardOfLsn(lsn)), LocalOfLsn(lsn))
      .value();
}

inline void RegisterTestComponents(ComponentFactoryRegistry& factories) {
  factories.Register<Counter>("Counter");
  factories.Register<Chain>("Chain");
  factories.Register<Squarer>("Squarer");
  factories.Register<Prober>("Prober");
  factories.Register<ParentWithSub>("ParentWithSub");
  factories.Register<Batcher>("Batcher");
}

}  // namespace phoenix::testing

#endif  // PHOENIX_TESTS_TEST_COMPONENTS_H_
