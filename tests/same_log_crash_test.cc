// Exactly-once over sends that are not forced because sender and receiver
// share a log. A persistent driver on another machine (which never
// crashes) calls RunBatch(n) on a Batcher, which calls Add(1) n times on a
// Counter in the same process: crash_recover's caller -> server pair. On
// an unsharded log those calls and replies are not forced; on a sharded
// log they still are, and the pair sits on two shards, the placement whose
// independent durable horizons make the force necessary. A crash of the
// pair's process at every failure point must leave the counter at exactly
// the total the driver acknowledged.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/strings.h"
#include "recovery/recovery_manager.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"
#include "wal/shard_router.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

enum class Layout { kSingleLog, kCrossShard };

const char* LayoutName(Layout layout) {
  return layout == Layout::kSingleLog ? "single_log" : "cross_shard";
}

// The driver -> Batcher -> Counter deployment. On a sharded log the Batcher
// is re-created under fresh names (and so fresh context ids) until the
// shard router puts it on the other shard from the Counter.
struct Rig {
  std::unique_ptr<Simulation> sim;
  Process* pair = nullptr;  // hosts the Batcher and the Counter
  std::string driver;
  std::string caller;
  std::string server;

  Rig(Layout layout, RuntimeOptions opts) {
    opts.wal_shards = layout == Layout::kSingleLog ? 1 : 2;
    sim = std::make_unique<Simulation>(opts);
    RegisterTestComponents(sim->factories());
    pair = &sim->AddMachine("alpha").CreateProcess();
    Process& driver_proc = sim->AddMachine("beta").CreateProcess();

    ExternalClient admin(sim.get(), "alpha");
    server = admin
                 .CreateComponent(*pair, "Counter", "server",
                                  ComponentKind::kPersistent, {})
                 .value();
    const ShardRouter router = pair->log().router();
    uint32_t server_shard =
        router.ShardForContext(pair->FindContextOfComponent("server")->id());
    for (int k = 0;; ++k) {
      std::string name = StrCat("caller", k);
      caller = admin
                   .CreateComponent(*pair, "Batcher", name,
                                    ComponentKind::kPersistent,
                                    MakeArgs(server))
                   .value();
      if (layout == Layout::kSingleLog ||
          router.ShardForContext(pair->FindContextOfComponent(name)->id()) !=
              server_shard) {
        break;
      }
    }
    driver = admin
                 .CreateComponent(driver_proc, "Chain", "driver",
                                  ComponentKind::kPersistent,
                                  MakeArgs(caller, "RunBatch"))
                 .value();
  }

  uint64_t SameLogSends(const char* message) {
    return sim->metrics()
        .GetCounter("phoenix.intercept.same_log_sends",
                    obs::LabelSet{{"process", StrCat("alpha/", pair->pid())},
                                  {"message", message}})
        .value();
  }
};

RuntimeOptions CheckpointingOptions() {
  RuntimeOptions opts;
  opts.save_context_state_every = 3;
  opts.process_checkpoint_every = 5;
  opts.auto_truncate_log = true;
  return opts;
}

constexpr Layout kLayouts[] = {Layout::kSingleLog, Layout::kCrossShard};

// --- which sends the shared log exempts ---

TEST(SameLogSendTest, OnlySameLogLegsGoUnforced) {
  for (Layout layout : kLayouts) {
    SCOPED_TRACE(LayoutName(layout));
    Rig rig(layout, RuntimeOptions{});
    ExternalClient program(rig.sim.get(), "beta");
    ASSERT_TRUE(program.Call(rig.driver, "Bump", MakeArgs(4)).ok());
    uint64_t want = layout == Layout::kSingleLog ? 4 : 0;
    EXPECT_EQ(rig.SameLogSends("call"), want);
    EXPECT_EQ(rig.SameLogSends("reply"), want);
  }
}

TEST(SameLogSendTest, BaselineForcesSameLogLegs) {
  RuntimeOptions opts;
  opts.logging_mode = LoggingMode::kBaseline;
  opts.use_specialized_kinds = false;
  Rig rig(Layout::kSingleLog, opts);
  ExternalClient program(rig.sim.get(), "beta");
  ASSERT_TRUE(program.Call(rig.driver, "Bump", MakeArgs(4)).ok());
  EXPECT_EQ(rig.SameLogSends("call"), 0u);
  EXPECT_EQ(rig.SameLogSends("reply"), 0u);
}

// --- crashes of the pair's process ---

struct Scenario {
  Layout layout;
  FailurePoint point;
  uint64_t hit;
};

std::string ScenarioName(const ::testing::TestParamInfo<Scenario>& info) {
  return StrCat(LayoutName(info.param.layout), "_",
                FailurePointName(info.param.point), "_hit", info.param.hit);
}

bool IsRecoveryPoint(FailurePoint point) {
  return static_cast<int>(point) >=
         static_cast<int>(FailurePoint::kDuringRecoveryAnalysis);
}

class SameLogCrashTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SameLogCrashTest, CounterMatchesAcknowledgedTotal) {
  const Scenario& s = GetParam();
  RuntimeOptions opts = CheckpointingOptions();
  // A recovery-phase point needs a recovery to crash: the process first
  // dies before its second reply, then its recovery dies at the point.
  opts.inject_failures_during_recovery = IsRecoveryPoint(s.point);
  // Group-commit flushes exist only with group commit on, under a session
  // scheduler. A chain's durability wait flushes its shards one at a time,
  // so a crash in the second flush keeps the first shard's tail and drops
  // the other's — the case that makes cross-shard sends force.
  bool group = s.point == FailurePoint::kDuringGroupFlush;
  opts.group_commit = group;
  Rig rig(s.layout, opts);
  const std::string& machine = rig.pair->machine_name();
  uint32_t pid = rig.pair->pid();
  if (IsRecoveryPoint(s.point)) {
    rig.sim->injector().AddTrigger(machine, pid, FailurePoint::kBeforeReplySend,
                                   2);
  }
  rig.sim->injector().AddTrigger(machine, pid, s.point, s.hit);

  ExternalClient program(rig.sim.get(), "beta");
  int64_t acked = 0;
  auto drive = [&] {
    for (int64_t n : {3, 1, 4, 1, 5, 2, 6, 3}) {
      Result<Value> r = program.Call(rig.driver, "Bump", MakeArgs(n));
      ASSERT_TRUE(r.ok()) << "Bump(" << n << "): " << r.status().ToString();
      acked += n;
      ASSERT_EQ(r->AsInt(), acked);
    }
  };
  if (group) {
    rig.sim->RunSessions({drive});
  } else {
    drive();
  }
  EXPECT_GE(rig.sim->injector().crashes_fired(), 1u)
      << "the schedule must actually fire";
  EXPECT_EQ(program.Call(rig.server, "Get", {})->AsInt(), acked);
  EXPECT_EQ(program.Call(rig.driver, "Get", {})->AsInt(), acked);
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> scenarios;
  for (Layout layout : kLayouts) {
    for (int p = 0; p < kNumFailurePoints; ++p) {
      auto point = static_cast<FailurePoint>(p);
      for (uint64_t hit : {uint64_t{1}, uint64_t{2}, uint64_t{5}}) {
        scenarios.push_back(Scenario{layout, point, hit});
      }
    }
  }
  return scenarios;
}

INSTANTIATE_TEST_SUITE_P(EveryFailurePoint, SameLogCrashTest,
                         ::testing::ValuesIn(AllScenarios()), ScenarioName);

// --- the §3.5 multi-call optimization around a same-log call ---

// Run(n): Add(1) on a server of another process (the execution's forced
// call), v = Add(1) on a counter in this process, then Add(v) on a second
// server of the other process; keeps the sum of the v it sent, so it must
// equal that last server's total. Ctor args: [first_uri, near_uri,
// last_uri].
class Relay : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Run", [this](const ArgList&) -> Result<Value> {
      PHX_RETURN_IF_ERROR(
          CallRef(first_, "Add", MakeArgs(int64_t{1})).status());
      PHX_ASSIGN_OR_RETURN(Value v,
                           CallRef(near_, "Add", MakeArgs(int64_t{1})));
      PHX_RETURN_IF_ERROR(CallRef(last_, "Add", {v}).status());
      sum_ += v.AsInt();
      return Value(sum_);
    });
    methods.Register(
        "Sum", [this](const ArgList&) -> Result<Value> { return Value(sum_); },
        MethodTraits{.read_only = true});
  }
  void RegisterFields(FieldRegistry& fields) override {
    fields.RegisterComponentRef("first", &first_);
    fields.RegisterComponentRef("near", &near_);
    fields.RegisterComponentRef("last", &last_);
    fields.RegisterInt("sum", &sum_);
  }
  Status Initialize(const ArgList& args) override {
    first_.uri = args[0].AsString();
    near_.uri = args[1].AsString();
    last_.uri = args[2].AsString();
    return Status::OK();
  }

 private:
  ComponentRefField first_;
  ComponentRefField near_;
  ComponentRefField last_;
  int64_t sum_ = 0;
};

struct MultiCallScenario {
  uint64_t seed;
  int lead;  // calls the Batcher's session makes before its batches
  uint64_t hit;
};

// Two sessions share the same-log counter: one drives the Relay, the other
// a Batcher adding to the counter. A crash of their process in a group
// flush loses both sessions' unforced records. The Batcher's session first
// makes a few calls to a spare counter of the servers' process, which moves
// its parks against the Relay's, so in some schedules its adds land between
// the Relay's first call and its same-log one. The Relay's call to the
// last server came after its unforced same-log call, so it must force:
// otherwise that server keeps an argument the replayed Relay, finding the
// counter without the other session's add, no longer sends, and its
// duplicate check hides the difference.
class SameLogMultiCallTest
    : public ::testing::TestWithParam<MultiCallScenario> {};

TEST_P(SameLogMultiCallTest, RelaySumMatchesItsLastServer) {
  RuntimeOptions opts;
  opts.multi_call_optimization = true;
  opts.group_commit = true;
  SimulationParams params;
  params.seed = GetParam().seed;
  Simulation sim(opts, params);
  RegisterTestComponents(sim.factories());
  sim.factories().Register<Relay>("Relay");
  Process& pair = sim.AddMachine("alpha").CreateProcess();
  Process& remote = sim.AddMachine("beta").CreateProcess();
  Process& drivers = sim.AddMachine("gamma").CreateProcess();

  ExternalClient admin(&sim, "gamma");
  auto create = [&](Process& proc, const char* type, const char* name,
                    ArgList args) {
    return admin
        .CreateComponent(proc, type, name, ComponentKind::kPersistent,
                         std::move(args))
        .value();
  };
  std::string first = create(remote, "Counter", "first", {});
  std::string last = create(remote, "Counter", "last", {});
  std::string near = create(pair, "Counter", "near", {});
  std::string relay =
      create(pair, "Relay", "relay", MakeArgs(first, near, last));
  std::string batcher = create(pair, "Batcher", "batcher", MakeArgs(near));
  std::string d1 = create(drivers, "Chain", "d1", MakeArgs(relay, "Run"));
  // The Batcher's driver parks on the servers' log, so the scheduler can
  // wake it inside the Relay's execution.
  std::string d2 =
      create(remote, "Chain", "d2", MakeArgs(batcher, "RunBatch"));
  std::string spare = create(remote, "Counter", "spare", {});
  sim.injector().AddTrigger("alpha", pair.pid(),
                            FailurePoint::kDuringGroupFlush,
                            GetParam().hit);

  ExternalClient program(&sim, "gamma");
  int64_t runs = 0;
  int64_t adds = 0;
  auto drive = [&](const std::string& driver, int64_t n, int lead,
                   int64_t* acked) {
    return [&program, &spare, &driver, n, lead, acked] {
      for (int i = 0; i < lead; ++i) {
        ASSERT_TRUE(program.Call(spare, "Add", MakeArgs(int64_t{1})).ok());
      }
      for (int i = 0; i < 6; ++i) {
        Result<Value> r = program.Call(driver, "Bump", MakeArgs(n));
        ASSERT_TRUE(r.ok()) << driver << ": " << r.status().ToString();
        *acked += n;
      }
    };
  };
  sim.RunSessions(
      {drive(d1, 1, 0, &runs), drive(d2, 2, GetParam().lead, &adds)});
  EXPECT_EQ(sim.injector().crashes_fired(), 1u)
      << "the schedule must actually fire";
  EXPECT_EQ(program.Call(relay, "Sum", {})->AsInt(),
            program.Call(last, "Get", {})->AsInt());
  EXPECT_EQ(program.Call(first, "Get", {})->AsInt(), runs);
  EXPECT_EQ(program.Call(near, "Get", {})->AsInt(), runs + adds);
}

std::vector<MultiCallScenario> MultiCallScenarios() {
  std::vector<MultiCallScenario> scenarios;
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    for (int lead = 0; lead <= 3; ++lead) {
      for (uint64_t hit = 1; hit <= 12; ++hit) {
        scenarios.push_back(MultiCallScenario{seed, lead, hit});
      }
    }
  }
  return scenarios;
}

INSTANTIATE_TEST_SUITE_P(
    EveryFlush, SameLogMultiCallTest, ::testing::ValuesIn(MultiCallScenarios()),
    [](const ::testing::TestParamInfo<MultiCallScenario>& info) {
      return StrCat("seed", info.param.seed, "_lead", info.param.lead,
                    "_hit", info.param.hit);
    });

// --- a context failure right after an unforced exchange ---

TEST(SameLogContextFailureTest, ServerRecoversFromTheUnforcedTail) {
  for (Layout layout : kLayouts) {
    SCOPED_TRACE(LayoutName(layout));
    Rig rig(layout, CheckpointingOptions());
    ExternalClient program(rig.sim.get(), "beta");
    ASSERT_TRUE(program.Call(rig.driver, "Bump", MakeArgs(3)).ok());

    // One Add from the Batcher's context straight to the Counter, outside
    // any forcing call: on a shared log nothing of it is stable yet.
    Process& proc = *rig.pair;
    Context* caller_ctx = proc.FindContextOfComponent(
        ParseComponentUri(rig.caller)->component_name);
    Context* server_ctx = proc.FindContextOfComponent("server");
    ASSERT_TRUE(caller_ctx->OutgoingCall(caller_ctx->parent(), rig.server,
                                         "Add", MakeArgs(int64_t{1}))
                    .ok());
    uint64_t server_id = server_ctx->id();
    uint32_t shard = proc.log().router().ShardForContext(server_id);
    bool unforced =
        proc.log().shard_next_lsn(shard) > proc.log().shard_stable_end(shard);
    EXPECT_EQ(unforced, layout == Layout::kSingleLog);

    server_ctx->ClearMembers();
    ASSERT_TRUE(RecoverContextFailure(&proc, server_id).ok());
    EXPECT_TRUE(proc.alive());
    EXPECT_EQ(program.Call(rig.server, "Get", {})->AsInt(), 4);

    // The next batch's forced reply makes the exchange stable with it; a
    // process crash after that keeps both.
    ASSERT_TRUE(program.Call(rig.driver, "Bump", MakeArgs(2)).ok());
    proc.Kill();
    ASSERT_TRUE(proc.machine()->recovery_service().EnsureProcessAlive(
                    proc.pid()).ok());
    EXPECT_EQ(program.Call(rig.server, "Get", {})->AsInt(), 6);
    EXPECT_EQ(program.Call(rig.driver, "Get", {})->AsInt(), 5);
  }
}

}  // namespace
}  // namespace phoenix
