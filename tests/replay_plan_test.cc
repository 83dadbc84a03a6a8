// Replay planner properties: deterministic plans across same-seed runs,
// DAG shape (acyclicity, forward-only edges), cross-context edges at local
// call boundaries with replies feeding the open unit, and salvage-aware
// eligibility (only chains whose record extents intersect a salvage gap are
// demoted; a torn tail demotes nothing). Then the replay engine end to end:
// four lanes end where one lane does and at the state the workload implies
// — on salvaged logs, decimated plans and single-chain plans too, and when
// a lost reply sends a complete unit's call out live — and the one-lane
// schedule is the order an independent walk of the log gives.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/replay_plan.h"
#include "tests/test_components.h"
#include "wal/shard_router.h"

namespace phoenix {
namespace {

using phoenix::testing::PayloadLsn;
using phoenix::testing::RegisterTestComponents;

// The workload every test plans against: two Chain->Counter edges plus an
// independent counter, all separate contexts of one process, so the log
// carries cross-context call boundaries AND an unrelated chain.
struct Workload {
  std::string leaf;
  std::string mid;
  std::string solo;
};

Workload BuildWorkload(Simulation* sim, Process* proc) {
  ExternalClient client(sim, "alpha");
  auto leaf = client.CreateComponent(*proc, "Counter", "leaf",
                                     ComponentKind::kPersistent, {});
  auto mid = client.CreateComponent(*proc, "Chain", "mid",
                                    ComponentKind::kPersistent,
                                    MakeArgs(*leaf, "Add"));
  auto solo = client.CreateComponent(*proc, "Counter", "solo",
                                     ComponentKind::kPersistent, {});
  EXPECT_TRUE(leaf.ok() && mid.ok() && solo.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(client.Call(*mid, "Bump", MakeArgs(i + 1)).ok());
  }
  EXPECT_TRUE(client.Call(*solo, "Add", MakeArgs(5)).ok());
  EXPECT_TRUE(client.Call(*solo, "Add", MakeArgs(7)).ok());
  return Workload{*leaf, *mid, *solo};
}

// The plan phoenix_trace --plan shows: what a crash recovery of the
// process's stable log would replay right now.
ReplayPlan PlanFor(Process& proc) {
  ReplayPlanInputs inputs;
  inputs.machine = proc.machine_name();
  inputs.process_id = proc.pid();
  return PlanLogReplay(proc.log(), std::move(inputs));
}

// Structural fingerprint: everything that determines parallel execution.
std::string Describe(const ReplayPlan& plan) {
  std::string out = StrCat("cross_edges=", plan.cross_edges, "\n");
  for (const ReplayChain& chain : plan.chains) {
    out += StrCat("ctx ", chain.context_id, ":");
    for (const PlannedUnit& unit : chain.units) {
      out += StrCat(" [lsn ", unit.start_lsn(),
                    unit.is_creation() ? " create" : "",
                    " replies=", unit.records.size() - 1);
      for (const UnitRef& dep : unit.deps) {
        out += StrCat(" <-", dep.chain, ".", dep.index);
      }
      out += "]";
    }
    out += "\n";
  }
  return out;
}

class ReplayPlanTest : public ::testing::Test {
 protected:
  ReplayPlanTest() {
    SimulationParams params;
    params.seed = 42;
    sim_ = std::make_unique<Simulation>(RuntimeOptions{}, params);
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
};

// The workload's plan on a fresh seed-42 simulation with `shards` WAL
// shards.
std::string PlanOfWorkload(uint32_t shards) {
  RuntimeOptions options;
  options.wal_shards = shards;
  SimulationParams params;
  params.seed = 42;
  Simulation sim(options, params);
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& proc = alpha.CreateProcess();
  BuildWorkload(&sim, &proc);
  return Describe(PlanFor(proc));
}

TEST_F(ReplayPlanTest, SameSeedRunsProduceIdenticalPlans) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    std::string first = PlanOfWorkload(shards);
    EXPECT_EQ(first, PlanOfWorkload(shards)) << shards << " shard(s)";
    EXPECT_NE(first.find("cross_edges="), std::string::npos);
  }
}

TEST_F(ReplayPlanTest, PlanIsAnAcyclicForwardDag) {
  BuildWorkload(sim_.get(), proc_);
  ReplayPlan plan = PlanFor(*proc_);
  ASSERT_GE(plan.chains.size(), 3u);  // leaf, mid, solo (+ activator edges)
  EXPECT_GT(plan.cross_edges, 0u);

  // Every edge points from a smaller start LSN to a larger one.
  for (const ReplayChain& chain : plan.chains) {
    for (size_t u = 0; u < chain.units.size(); ++u) {
      const PlannedUnit& unit = chain.units[u];
      if (u > 0) {
        EXPECT_GT(unit.start_lsn(),
                  chain.units[u - 1].start_lsn());
      }
      for (const UnitRef& dep : unit.deps) {
        EXPECT_LT(plan.unit(dep).start_lsn(), unit.start_lsn());
      }
    }
  }

  // Kahn's algorithm over chain order + cross edges consumes every unit.
  std::map<std::pair<uint32_t, uint32_t>, size_t> indegree;
  std::map<UnitRef, std::vector<UnitRef>> dependents;  // reversed deps
  std::vector<UnitRef> ready;
  size_t total = 0;
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    for (uint32_t u = 0; u < plan.chains[c].units.size(); ++u) {
      const std::vector<UnitRef>& deps = plan.chains[c].units[u].deps;
      size_t in = deps.size() + (u > 0 ? 1 : 0);
      indegree[{c, u}] = in;
      if (in == 0) ready.push_back(UnitRef{c, u});
      for (const UnitRef& dep : deps) dependents[dep].push_back({c, u});
      ++total;
    }
  }
  size_t popped = 0;
  while (!ready.empty()) {
    UnitRef ref = ready.back();
    ready.pop_back();
    ++popped;
    auto release = [&](UnitRef next) {
      if (--indegree[{next.chain, next.index}] == 0) ready.push_back(next);
    };
    if (ref.index + 1 < plan.chains[ref.chain].units.size()) {
      release(UnitRef{ref.chain, ref.index + 1});
    }
    for (const UnitRef& dependent : dependents[ref]) release(dependent);
  }
  EXPECT_EQ(popped, total);
}

TEST_F(ReplayPlanTest, CrossContextCallsProduceEdgesAndReplyFeeds) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(StrCat(shards, " shard(s)"));
    RuntimeOptions options;
    options.wal_shards = shards;
    SimulationParams params;
    params.seed = 42;
    Simulation sim(options, params);
    RegisterTestComponents(sim.factories());
    Process& proc = sim.AddMachine("alpha").CreateProcess();
    BuildWorkload(&sim, &proc);
    ReplayPlan plan = PlanFor(proc);

    uint64_t mid_ctx = proc.FindContextOfComponent("mid")->id();
    uint64_t leaf_ctx = proc.FindContextOfComponent("leaf")->id();
    uint64_t solo_ctx = proc.FindContextOfComponent("solo")->id();
    const ReplayChain* mid_chain = nullptr;
    const ReplayChain* leaf_chain = nullptr;
    const ReplayChain* solo_chain = nullptr;
    for (const ReplayChain& chain : plan.chains) {
      if (chain.context_id == mid_ctx) mid_chain = &chain;
      if (chain.context_id == leaf_ctx) leaf_chain = &chain;
      if (chain.context_id == solo_ctx) solo_chain = &chain;
    }
    ASSERT_NE(mid_chain, nullptr);
    ASSERT_NE(leaf_chain, nullptr);
    ASSERT_NE(solo_chain, nullptr);

    // Each of leaf's three Add units depends on the mid unit whose Bump
    // issued the call — an edge at every cross-context call boundary. That
    // unit is mid's last one ordered below the call. On a sharded log mid
    // and leaf sit on different shards, and composite LSNs of different
    // shards compare by shard id (every mid LSN above every leaf LSN on two
    // shards, below it on four): only the replay order finds the unit.
    size_t leaf_deps_on_mid = 0;
    for (const PlannedUnit& unit : leaf_chain->units) {
      for (const UnitRef& dep : unit.deps) {
        if (plan.chains[dep.chain].context_id != mid_ctx) continue;
        ++leaf_deps_on_mid;
        const PlannedUnit& source = plan.unit(dep);
        EXPECT_FALSE(source.is_creation());
        EXPECT_LT(source.order(), unit.order());
        if (dep.index + 1 < mid_chain->units.size()) {
          EXPECT_GT(mid_chain->units[dep.index + 1].order(), unit.order());
        }
        if (shards > 1) {
          EXPECT_NE(ShardOfLsn(source.start_lsn()),
                    ShardOfLsn(unit.start_lsn()));
        }
      }
    }
    EXPECT_EQ(leaf_deps_on_mid, 3u);

    // The reply boundary: each Bump unit holds exactly the one downstream
    // reply its execution consumed, after its incoming call.
    for (const PlannedUnit& unit : mid_chain->units) {
      if (unit.is_creation()) continue;
      ASSERT_EQ(unit.records.size(), 2u);
      EXPECT_TRUE(std::holds_alternative<ReplyReceivedRecord>(
          unit.records[1].record));
    }

    // The independent counter never waits on another chain.
    for (const PlannedUnit& unit : solo_chain->units) {
      EXPECT_TRUE(unit.deps.empty());
    }
  }
}

ReplayPlan PlanForDamaged(Process& proc, const std::vector<uint8_t>& bytes,
                          uint64_t base) {
  LogView view{&bytes, base};
  ReplayPlanInputs inputs;
  inputs.machine = proc.machine_name();
  inputs.process_id = proc.pid();
  inputs.origins = DeriveReplayOrigins(view, proc.log().head_base());
  return BuildReplayPlan(view, proc.log().head_base(), inputs);
}

TEST_F(ReplayPlanTest, SalvagedInteriorGapDemotesOnlyTouchedChains) {
  BuildWorkload(sim_.get(), proc_);
  LogView stable = proc_->log().StableView();
  ASSERT_GT(stable.bytes->size(), 128u);

  // Smash a mid-log region. The planner must not guess inside the gap, but
  // chains whose record extents never cross it are still provably safe to
  // replay in parallel — only the touched chains serialize.
  std::vector<uint8_t> damaged = *stable.bytes;
  size_t middle = damaged.size() / 2;
  for (size_t i = 0; i < 64 && middle + i < damaged.size(); ++i) {
    damaged[middle + i] = 0xFF;
  }
  ReplayPlan plan = PlanForDamaged(*proc_, damaged, stable.base);
  EXPECT_TRUE(plan.salvaged);
  EXPECT_GE(plan.skipped_ranges, 1u);
  EXPECT_GE(plan.chains.size() - plan.demoted_chains, 2u);
  // The demotion count is exactly the chains the eligibility bit excludes.
  size_t ineligible = 0;
  for (const ReplayChain& chain : plan.chains) {
    if (!chain.parallel_eligible) ++ineligible;
  }
  EXPECT_EQ(plan.demoted_chains, ineligible);
}

TEST_F(ReplayPlanTest, SalvagedTornTailDemotesNothing) {
  BuildWorkload(sim_.get(), proc_);
  LogView stable = proc_->log().StableView();
  ASSERT_GT(stable.bytes->size(), 16u);

  // A torn tail is a gap past the last readable record: it intersects no
  // surviving unit's extent, so every chain stays parallel-eligible. The
  // ROADMAP case — a torn tail must no longer serialize the whole replay.
  std::vector<uint8_t> torn(*stable.bytes);
  torn.resize(torn.size() - 3);
  ReplayPlan plan = PlanForDamaged(*proc_, torn, stable.base);
  EXPECT_TRUE(plan.salvaged);
  EXPECT_EQ(plan.demoted_chains, 0u);
  EXPECT_EQ(plan.serialization_edges, 0u);
}

// First record LSN strictly inside (start, end) — some *other* record
// interleaved within a unit's extent, e.g. the callee's incoming record
// between a Bump's incoming record and its reply.
uint64_t FindRecordBetween(Process& proc, uint64_t start, uint64_t end) {
  LogView view = proc.log().StableView();
  LogReader reader(view, proc.log().head_base());
  while (auto parsed = reader.Next()) {
    if (parsed->lsn > start && parsed->lsn < end) return parsed->lsn;
  }
  return kInvalidLsn;
}

// First LSN strictly inside any reply-bearing unit's extent in the plan.
uint64_t FindAnyInteriorLsn(Process& proc, const ReplayPlan& plan) {
  for (const ReplayChain& chain : plan.chains) {
    for (const PlannedUnit& unit : chain.units) {
      if (unit.extent_end_lsn() <= unit.start_lsn()) continue;
      uint64_t lsn = FindRecordBetween(proc, unit.start_lsn(),
                                       unit.extent_end_lsn());
      if (lsn != kInvalidLsn) return lsn;
    }
  }
  return kInvalidLsn;
}

TEST_F(ReplayPlanTest, GapInsideUnitExtentDemotesTheChain) {
  BuildWorkload(sim_.get(), proc_);
  LogView stable = proc_->log().StableView();

  // Corrupt a record interleaved inside a reply-bearing unit's extent (the
  // callee's record between a Bump's incoming record and its buffered
  // reply): exactly the owning chain must demote, and leaf/solo stay
  // eligible.
  ReplayPlan intact = PlanFor(*proc_);
  uint64_t interior = FindAnyInteriorLsn(*proc_, intact);
  ASSERT_NE(interior, kInvalidLsn);
  std::vector<uint8_t> damaged = *stable.bytes;
  damaged[PayloadLsn(proc_->log(), interior) - stable.base] ^= 0xFF;
  ReplayPlan plan = PlanForDamaged(*proc_, damaged, stable.base);
  EXPECT_TRUE(plan.salvaged);
  EXPECT_GE(plan.demoted_chains, 1u);
  EXPECT_GE(plan.chains.size() - plan.demoted_chains, 2u);
}

// End to end: the same crashed workload recovered on one lane and on four.
int64_t GetCount(Simulation* sim, const std::string& uri) {
  ExternalClient client(sim, "alpha");
  auto value = client.Call(uri, "Get", {});
  EXPECT_TRUE(value.ok());
  return value.ok() ? value->AsInt() : -1;
}

// LSNs of the replies `context_id` logged for its outgoing calls, in log
// order.
std::vector<uint64_t> ReplyReceivedLsns(Process& proc, uint64_t context_id) {
  std::vector<uint64_t> lsns;
  LogView view = proc.log().StableView();
  LogReader reader(view, proc.log().head_base());
  while (auto parsed = reader.Next()) {
    const auto* reply = std::get_if<ReplyReceivedRecord>(&parsed->record);
    if (reply != nullptr && reply->context_id == context_id) {
      lsns.push_back(parsed->lsn);
    }
  }
  return lsns;
}

// Which record of the crashed log bit-rots before recovery.
enum class Rot {
  kNone,
  // A record interleaved inside one of mid's Bump extents.
  kInterior,
  // Mid's logged reply from leaf's Add(1), so mid's Bump(1) calls leaf
  // live while replaying.
  kCallerReply,
};

std::vector<int64_t> RunCrashRecover(uint32_t lanes, Rot rot = Rot::kNone) {
  RuntimeOptions options;
  options.parallel_replay = lanes > 1;
  options.parallel_replay_sessions = lanes;
  SimulationParams params;
  params.seed = 42;
  Simulation sim(options, params);
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& proc = alpha.CreateProcess();
  Workload w = BuildWorkload(&sim, &proc);

  uint64_t rotted = kInvalidLsn;
  if (rot == Rot::kInterior) {
    // The gap demotes mid's chain while leaf/solo stay parallel-eligible;
    // every schedule is identically blind to the lost record. (A torn tail
    // would be amputated by salvage assessment before planning ever sees
    // it.)
    rotted = FindAnyInteriorLsn(proc, PlanFor(proc));
  } else if (rot == Rot::kCallerReply) {
    std::vector<uint64_t> replies =
        ReplyReceivedLsns(proc, proc.FindContextOfComponent("mid")->id());
    if (!replies.empty()) rotted = replies.front();
  }
  proc.Kill();
  bool corrupt = rot != Rot::kNone;
  if (corrupt) {
    EXPECT_NE(rotted, kInvalidLsn);
    sim.storage().CorruptLog(proc.log_name(), PayloadLsn(proc.log(), rotted),
                             /*flip_count=*/2);
  }
  EXPECT_TRUE(alpha.recovery_service().EnsureProcessAlive(proc.pid()).ok());

  std::vector<int64_t> state{GetCount(&sim, w.leaf), GetCount(&sim, w.mid),
                             GetCount(&sim, w.solo)};
  // Both runs replay the plan on the engine, on as many lanes as asked.
  EXPECT_GT(sim.metrics().CounterTotal("phoenix.recovery.replay.chains"), 0u);
  EXPECT_EQ(sim.metrics().GaugeTotal("phoenix.recovery.replay.parallelism"),
            static_cast<double>(lanes));
  EXPECT_EQ(sim.metrics().CounterTotal(
                "phoenix.recovery.replay.salvaged_parallel"),
            corrupt ? 1u : 0u);
  if (rot == Rot::kInterior) {
    EXPECT_GE(sim.metrics().CounterTotal(
                  "phoenix.recovery.replay.chains_demoted"),
              1u);
  } else if (rot == Rot::kCallerReply) {
    // The lost record ends mid's extent, so no chain demotes; the live
    // call is answered as a duplicate.
    EXPECT_EQ(sim.metrics().CounterTotal(
                  "phoenix.recovery.replay.chains_demoted"),
              0u);
    EXPECT_GE(sim.metrics().CounterTotal("phoenix.intercept.dedupe_hits"),
              1u);
  }
  return state;
}

TEST(ParallelReplayTest, EndStateMatchesSequentialReplay) {
  std::vector<int64_t> one_lane = RunCrashRecover(1);
  std::vector<int64_t> four_lanes = RunCrashRecover(4);
  EXPECT_EQ(one_lane, four_lanes);
  // The workload adds 1+2+3 through mid into leaf, 5+7 into solo.
  EXPECT_EQ(one_lane, (std::vector<int64_t>{6, 6, 12}));
}

// The salvage equivalence argument end to end: with an interior gap every
// schedule loses the same record — leaf's Add(1), which sits inside mid's
// first Bump — and mid's Bump is answered from its feed, so leaf ends one
// short whatever the lane count.
TEST(ParallelReplayTest, SalvagedEndStateMatchesSequentialReplay) {
  std::vector<int64_t> one_lane = RunCrashRecover(1, Rot::kInterior);
  std::vector<int64_t> four_lanes = RunCrashRecover(4, Rot::kInterior);
  EXPECT_EQ(one_lane, four_lanes);
  EXPECT_EQ(one_lane, (std::vector<int64_t>{5, 6, 12}));
}

// A complete unit that lost a logged reply goes live in the engine phase:
// mid's Bump(1) calls leaf's Add(1) again. Leaf's own logged Add(1) waits
// behind mid's unit in the plan, so the demand flusher replays it before
// the live call enters, and the live call is answered from the last-call
// table rather than adding twice.
TEST(ParallelReplayTest, LostReplyLiveCallFindsItsCalleeReplayed) {
  for (uint32_t lanes : {1u, 4u}) {
    SCOPED_TRACE(StrCat(lanes, " lane(s)"));
    EXPECT_EQ(RunCrashRecover(lanes, Rot::kCallerReply),
              (std::vector<int64_t>{6, 6, 12}));
  }
}

// As above, with the callee's logged unit for the live call its final one:
// mid logs one more call after Bump(3), and Bump(3)'s reply from leaf's
// Add(3) rots. The demand flusher replays leaf's final unit before the live
// call, and the end-of-log flush does not replay it again.
TEST(ParallelReplayTest, LostReplyLiveCallReplaysTheCalleesFinalUnit) {
  for (uint32_t lanes : {1u, 4u}) {
    SCOPED_TRACE(StrCat(lanes, " lane(s)"));
    RuntimeOptions options;
    options.parallel_replay = lanes > 1;
    options.parallel_replay_sessions = lanes;
    Simulation sim(options);
    RegisterTestComponents(sim.factories());
    Machine& alpha = sim.AddMachine("alpha");
    Process& proc = alpha.CreateProcess();
    ExternalClient client(&sim, "alpha");
    auto leaf = client.CreateComponent(proc, "Counter", "leaf",
                                       ComponentKind::kPersistent, {});
    auto mid = client.CreateComponent(proc, "Chain", "mid",
                                      ComponentKind::kPersistent,
                                      MakeArgs(*leaf));
    ASSERT_TRUE(leaf.ok() && mid.ok());
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(client.Call(*mid, "Bump", MakeArgs(i)).ok());
    }
    ASSERT_TRUE(client.Call(*mid, "SetDownstream", MakeArgs(*leaf)).ok());
    std::vector<uint64_t> replies =
        ReplyReceivedLsns(proc, proc.FindContextOfComponent("mid")->id());
    ASSERT_EQ(replies.size(), 3u);
    proc.Kill();
    sim.storage().CorruptLog(proc.log_name(),
                             PayloadLsn(proc.log(), replies.back()),
                             /*flip_count=*/2);
    ASSERT_TRUE(alpha.recovery_service().EnsureProcessAlive(proc.pid()).ok());
    EXPECT_GE(sim.metrics().CounterTotal("phoenix.intercept.dedupe_hits"),
              1u);
    EXPECT_EQ(GetCount(&sim, *leaf), 6);
    EXPECT_EQ(GetCount(&sim, *mid), 6);
  }
}

// A process whose leaf and mid saved their states before mid's Bumps, with
// the checkpoint after them: the Bumps lie between the origins and the
// cut, where pass 1's back-fill reads them, and the activator has no chain.
struct CutWorkload {
  std::unique_ptr<Simulation> sim;
  Process* proc = nullptr;
  std::string leaf;
  std::string mid;
};

CutWorkload BuildCutWorkload(uint32_t lanes) {
  RuntimeOptions options;
  options.parallel_replay = lanes > 1;
  options.parallel_replay_sessions = lanes;
  CutWorkload w;
  w.sim = std::make_unique<Simulation>(options);
  RegisterTestComponents(w.sim->factories());
  w.proc = &w.sim->AddMachine("alpha").CreateProcess();
  ExternalClient client(w.sim.get(), "alpha");
  w.leaf = client
               .CreateComponent(*w.proc, "Counter", "leaf",
                                ComponentKind::kPersistent, {})
               .value();
  w.mid = client
              .CreateComponent(*w.proc, "Chain", "mid",
                               ComponentKind::kPersistent, MakeArgs(w.leaf))
              .value();
  for (const char* name : {"leaf", "mid"}) {
    EXPECT_TRUE(w.proc->checkpoints()
                    .SaveContextState(*w.proc->FindContextOfComponent(name))
                    .ok());
  }
  for (int i = 1; i <= 3; ++i) {
    EXPECT_TRUE(client.Call(w.mid, "Bump", MakeArgs(i)).ok());
  }
  EXPECT_TRUE(w.proc->checkpoints().TakeProcessCheckpoint().ok());
  EXPECT_TRUE(client.Call(w.mid, "Bump", MakeArgs(4)).ok());  // publishes
  return w;
}

// LSN of the first incoming call `context_id` logged with argument `arg`.
uint64_t FindIncoming(Process& proc, uint64_t context_id, int64_t arg) {
  LogView view = proc.log().StableView();
  LogReader reader(view, proc.log().head_base());
  while (auto parsed = reader.Next()) {
    const auto* incoming = std::get_if<IncomingCallRecord>(&parsed->record);
    if (incoming != nullptr && incoming->context_id == context_id &&
        !incoming->args.empty() && incoming->args[0].AsInt() == arg) {
      return parsed->lsn;
    }
  }
  return kInvalidLsn;
}

TEST(ParallelReplayTest, DecimatedPlanReplaysToTheExpectedState) {
  // Rot leaf's Add(1), below the cut and inside mid's Bump(1): the
  // back-fill salvages past it and demotes mid, which leaves leaf the only
  // eligible chain. The plan still runs, on any lane count: mid's Bumps
  // replay (Bump(1)'s call answered from its feed), and leaf replays the
  // Adds that survive.
  for (uint32_t lanes : {1u, 4u}) {
    SCOPED_TRACE(StrCat(lanes, " lane(s)"));
    CutWorkload w = BuildCutWorkload(lanes);
    uint64_t leaf_ctx = w.proc->FindContextOfComponent("leaf")->id();
    uint64_t rotted = FindIncoming(*w.proc, leaf_ctx, 1);
    ASSERT_NE(rotted, kInvalidLsn);
    w.proc->Kill();
    w.sim->storage().CorruptLog(w.proc->log_name(),
                                PayloadLsn(w.proc->log(), rotted),
                                /*flip_count=*/2);
    ASSERT_TRUE(w.proc->machine()
                    ->recovery_service()
                    .EnsureProcessAlive(w.proc->pid())
                    .ok());
    const obs::MetricsRegistry& m = w.sim->metrics();
    EXPECT_EQ(m.CounterTotal("phoenix.recovery.replay.chains"), 2u);
    EXPECT_EQ(m.CounterTotal("phoenix.recovery.replay.chains_demoted"), 1u);
    EXPECT_EQ(m.CounterTotal("phoenix.recovery.replay.fallbacks"), 0u);
    EXPECT_EQ(GetCount(w.sim.get(), w.mid), 10);
    EXPECT_EQ(GetCount(w.sim.get(), w.leaf), 9);
  }
}

TEST(ParallelReplayTest, SingleChainPlanReplaysToTheExpectedState) {
  // Without a checkpoint one component already makes two chains: the
  // activator's Create calls form a chain of their own.
  RuntimeOptions options;
  options.parallel_replay = true;
  options.parallel_replay_sessions = 4;
  Simulation sim(options);
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& proc = alpha.CreateProcess();
  ExternalClient client(&sim, "alpha");
  auto only = client.CreateComponent(proc, "Counter", "only",
                                     ComponentKind::kPersistent, {});
  ASSERT_TRUE(only.ok());
  ASSERT_TRUE(client.Call(*only, "Add", MakeArgs(1)).ok());
  EXPECT_EQ(PlanFor(proc).chains.size(), 2u);

  // Behind a checkpoint its calls are the only chain, and an empty log has
  // none; both replay on four lanes.
  ASSERT_TRUE(proc.checkpoints()
                  .SaveContextState(*proc.FindContextOfComponent("only"))
                  .ok());
  ASSERT_TRUE(proc.checkpoints().TakeProcessCheckpoint().ok());
  for (int i = 2; i <= 4; ++i) {
    ASSERT_TRUE(client.Call(*only, "Add", MakeArgs(i)).ok());
  }
  Process& empty = alpha.CreateProcess();
  proc.Kill();
  empty.Kill();
  ASSERT_TRUE(alpha.recovery_service().EnsureProcessAlive(proc.pid()).ok());
  ASSERT_TRUE(alpha.recovery_service().EnsureProcessAlive(empty.pid()).ok());
  EXPECT_EQ(sim.metrics().CounterTotal("phoenix.recovery.replay.chains"), 1u);
  EXPECT_EQ(client.Call(*only, "Get", {})->AsInt(), 10);
}

// Two chains: context 1 with units at orders 1, 3, 5 and context 2 with
// units at 2, 4, where 2's second unit waits for 1's second and 1's last
// unit waits for 2's last.
ReplayPlan TwoChainPlan() {
  ReplayPlan plan;
  auto chain = [](uint64_t context_id, std::vector<uint64_t> orders) {
    ReplayChain c;
    c.context_id = context_id;
    for (uint64_t order : orders) {
      PlannedUnit unit;
      unit.records.push_back(OrderedRecord{
          .lsn = order, .order = order, .shard = 0, .record = {}});
      c.units.push_back(std::move(unit));
    }
    return c;
  };
  plan.chains.push_back(chain(1, {1, 3, 5}));
  plan.chains.push_back(chain(2, {2, 4}));
  plan.chains[1].units[1].deps.push_back(UnitRef{0, 1});
  plan.chains[0].units[2].deps.push_back(UnitRef{1, 1});
  return plan;
}

TEST(CriticalPathTest, FromTimeZeroCoversEveryUnit) {
  // 1.0 -> 1.1 -> 2.1 -> 1.2: four units.
  EXPECT_DOUBLE_EQ(CriticalPathMs(TwoChainPlan(), 1.0, {}, false), 4.0);
}

TEST(CriticalPathTest, ReadyTimesHoldChainsBack) {
  // Context 2 is restored at 10: its chain, and 1's last unit behind it,
  // start no earlier.
  std::map<uint64_t, double> ready = {{1, 0.0}, {2, 10.0}};
  EXPECT_DOUBLE_EQ(CriticalPathMs(TwoChainPlan(), 1.0, ready, false), 13.0);
  // The lanes leave each chain's last unit to the tail, with the edges out
  // of it: 2.0 alone from context 2 (ends at 11), 1.0 -> 1.1 from 1.
  EXPECT_DOUBLE_EQ(CriticalPathMs(TwoChainPlan(), 1.0, ready, true), 11.0);
  ready[2] = 0.0;
  EXPECT_DOUBLE_EQ(CriticalPathMs(TwoChainPlan(), 1.0, ready, true), 2.0);
}

}  // namespace
}  // namespace phoenix
