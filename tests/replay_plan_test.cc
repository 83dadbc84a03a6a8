// Replay planner properties: deterministic plans across same-seed runs,
// DAG shape (acyclicity, forward-only edges), cross-context edges at local
// call boundaries with replies feeding the open unit, salvage-aware
// eligibility (only chains whose record extents intersect a salvage gap are
// demoted; a torn tail demotes nothing), and parallel end state identical
// to sequential replay — including on salvaged logs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/strings.h"
#include "recovery/replay_plan.h"
#include "tests/test_components.h"

namespace phoenix {
namespace {

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
  std::string out = StrCat("fallback=", PlanFallbackName(plan.fallback),
                           " cross_edges=", plan.cross_edges, "\n");
  for (const ReplayChain& chain : plan.chains) {
    out += StrCat("ctx ", chain.context_id, ":");
    for (const PlannedUnit& unit : chain.units) {
      out += StrCat(" [lsn ", unit.replay.start_lsn,
                    unit.replay.is_creation ? " create" : "",
                    " replies=", unit.replay.feed.replies.size());
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
  ASSERT_TRUE(plan.parallel_eligible());
  ASSERT_GE(plan.chains.size(), 3u);  // leaf, mid, solo (+ activator edges)
  EXPECT_GT(plan.cross_edges, 0u);

  // Every edge points from a smaller start LSN to a larger one.
  for (const ReplayChain& chain : plan.chains) {
    for (size_t u = 0; u < chain.units.size(); ++u) {
      const PlannedUnit& unit = chain.units[u];
      if (u > 0) {
        EXPECT_GT(unit.replay.start_lsn,
                  chain.units[u - 1].replay.start_lsn);
      }
      for (const UnitRef& dep : unit.deps) {
        EXPECT_LT(plan.unit(dep).replay.start_lsn, unit.replay.start_lsn);
      }
    }
  }

  // Kahn's algorithm over chain order + cross edges consumes every unit.
  std::map<std::pair<uint32_t, uint32_t>, size_t> indegree;
  std::vector<UnitRef> ready;
  size_t total = 0;
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    for (uint32_t u = 0; u < plan.chains[c].units.size(); ++u) {
      size_t in = plan.chains[c].units[u].deps.size() + (u > 0 ? 1 : 0);
      indegree[{c, u}] = in;
      if (in == 0) ready.push_back(UnitRef{c, u});
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
    for (const UnitRef& dependent : plan.unit(ref).dependents) {
      release(dependent);
    }
  }
  EXPECT_EQ(popped, total);
}

TEST_F(ReplayPlanTest, CrossContextCallsProduceEdgesAndReplyFeeds) {
  BuildWorkload(sim_.get(), proc_);
  ReplayPlan plan = PlanFor(*proc_);
  ASSERT_TRUE(plan.parallel_eligible());

  uint64_t mid_ctx = proc_->FindContextOfComponent("mid")->id();
  uint64_t leaf_ctx = proc_->FindContextOfComponent("leaf")->id();
  uint64_t solo_ctx = proc_->FindContextOfComponent("solo")->id();
  const ReplayChain* mid_chain = nullptr;
  const ReplayChain* leaf_chain = nullptr;
  const ReplayChain* solo_chain = nullptr;
  std::map<uint64_t, uint32_t> chain_of;
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    chain_of[plan.chains[c].context_id] = c;
    if (plan.chains[c].context_id == mid_ctx) mid_chain = &plan.chains[c];
    if (plan.chains[c].context_id == leaf_ctx) leaf_chain = &plan.chains[c];
    if (plan.chains[c].context_id == solo_ctx) solo_chain = &plan.chains[c];
  }
  ASSERT_NE(mid_chain, nullptr);
  ASSERT_NE(leaf_chain, nullptr);
  ASSERT_NE(solo_chain, nullptr);

  // Each of leaf's three Add units depends on the mid unit whose Bump issued
  // the call — an edge at every cross-context call boundary.
  size_t leaf_deps_on_mid = 0;
  for (const PlannedUnit& unit : leaf_chain->units) {
    for (const UnitRef& dep : unit.deps) {
      if (plan.chains[dep.chain].context_id == mid_ctx) {
        ++leaf_deps_on_mid;
        EXPECT_FALSE(plan.unit(dep).replay.is_creation);
      }
    }
  }
  EXPECT_EQ(leaf_deps_on_mid, 3u);

  // The reply boundary: each Bump unit buffered exactly the one downstream
  // reply its execution consumed, keyed by outgoing seq.
  for (const PlannedUnit& unit : mid_chain->units) {
    if (unit.replay.is_creation) continue;
    EXPECT_EQ(unit.replay.feed.replies.size(), 1u);
  }

  // The independent counter never waits on another chain.
  for (const PlannedUnit& unit : solo_chain->units) {
    EXPECT_TRUE(unit.deps.empty());
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
  EXPECT_EQ(plan.fallback, PlanFallback::kNone);
  EXPECT_TRUE(plan.parallel_eligible());
  EXPECT_GE(plan.eligible_chains(), 2u);
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
  EXPECT_EQ(plan.fallback, PlanFallback::kNone);
  EXPECT_TRUE(plan.parallel_eligible());
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
      if (unit.extent_end_lsn <= unit.replay.start_lsn) continue;
      uint64_t lsn = FindRecordBetween(proc, unit.replay.start_lsn,
                                       unit.extent_end_lsn);
      if (lsn != kInvalidLsn) return lsn;
    }
  }
  return kInvalidLsn;
}

TEST_F(ReplayPlanTest, DecimatedLogFallsBackToSequential) {
  BuildWorkload(sim_.get(), proc_);
  LogView stable = proc_->log().StableView();
  ASSERT_GT(stable.bytes->size(), 64u);

  // Smash everything but the first few records: fewer than two chains keep
  // eligible units, so nothing is left worth overlapping and the salvaged
  // plan falls back to sequential replay.
  std::vector<uint8_t> damaged = *stable.bytes;
  for (size_t i = 32; i < damaged.size(); ++i) {
    damaged[i] = 0xFF;
  }
  ReplayPlan plan = PlanForDamaged(*proc_, damaged, stable.base);
  EXPECT_TRUE(plan.salvaged);
  EXPECT_EQ(plan.fallback, PlanFallback::kSalvagedLog);
  EXPECT_FALSE(plan.parallel_eligible());
  EXPECT_LT(plan.eligible_chains(), 2u);
}

TEST_F(ReplayPlanTest, GapInsideUnitExtentDemotesTheChain) {
  BuildWorkload(sim_.get(), proc_);
  LogView stable = proc_->log().StableView();

  // Corrupt a record interleaved inside a reply-bearing unit's extent (the
  // callee's record between a Bump's incoming record and its buffered
  // reply): exactly the owning chain must demote, and with leaf/solo still
  // eligible the plan stays parallel with serialization edges over the
  // demoted units.
  ReplayPlan intact = PlanFor(*proc_);
  uint64_t interior = FindAnyInteriorLsn(*proc_, intact);
  ASSERT_NE(interior, kInvalidLsn);
  std::vector<uint8_t> damaged = *stable.bytes;
  // +8 lands in the payload, past the length/CRC header.
  damaged[interior - stable.base + 8] ^= 0xFF;
  ReplayPlan plan = PlanForDamaged(*proc_, damaged, stable.base);
  EXPECT_TRUE(plan.salvaged);
  EXPECT_GE(plan.demoted_chains, 1u);
  EXPECT_EQ(plan.fallback, PlanFallback::kNone);
  EXPECT_TRUE(plan.parallel_eligible());
  EXPECT_GE(plan.eligible_chains(), 2u);
}

TEST_F(ReplayPlanTest, TooFewChainsFallsBackToSequential) {
  // An empty log has nothing to overlap.
  ReplayPlan empty = PlanFor(*proc_);
  EXPECT_EQ(empty.fallback, PlanFallback::kTooFewChains);

  // One component is already two chains: the activator's Create calls form
  // a chain of their own (and its edge orders creation before first call).
  ExternalClient client(sim_.get(), "alpha");
  auto only = client.CreateComponent(*proc_, "Counter", "only",
                                     ComponentKind::kPersistent, {});
  ASSERT_TRUE(only.ok());
  ASSERT_TRUE(client.Call(*only, "Add", MakeArgs(1)).ok());
  ReplayPlan plan = PlanFor(*proc_);
  EXPECT_EQ(plan.fallback, PlanFallback::kNone);
  EXPECT_EQ(plan.chains.size(), 2u);
}

// End-to-end: recovering the same crashed workload with the parallel engine
// leaves exactly the state sequential replay leaves.
int64_t GetCount(Simulation* sim, const std::string& uri) {
  ExternalClient client(sim, "alpha");
  auto value = client.Call(uri, "Get", {});
  EXPECT_TRUE(value.ok());
  return value.ok() ? value->AsInt() : -1;
}

std::vector<int64_t> RunCrashRecover(bool parallel,
                                     bool corrupt_interior = false) {
  RuntimeOptions options;
  options.parallel_replay = parallel;
  options.parallel_replay_sessions = 4;
  SimulationParams params;
  params.seed = 42;
  Simulation sim(options, params);
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& proc = alpha.CreateProcess();
  Workload w = BuildWorkload(&sim, &proc);

  proc.Kill();
  if (corrupt_interior) {
    // Bit-rot a record interleaved inside one of mid's Bump extents. The
    // gap demotes mid's chain while leaf/solo stay parallel-eligible; both
    // engines are identically blind to the lost record. (A torn tail would
    // be amputated by salvage assessment before planning ever sees it.)
    uint64_t interior = FindAnyInteriorLsn(proc, PlanFor(proc));
    EXPECT_NE(interior, kInvalidLsn);
    sim.storage().CorruptLog(proc.log_name(), interior + 8,
                             /*flip_count=*/2);
  }
  EXPECT_TRUE(alpha.recovery_service().EnsureProcessAlive(proc.pid()).ok());

  std::vector<int64_t> state{GetCount(&sim, w.leaf), GetCount(&sim, w.mid),
                             GetCount(&sim, w.solo)};
  // The parallel run must actually have taken the parallel path.
  uint64_t chains =
      sim.metrics().CounterTotal("phoenix.recovery.replay.chains");
  if (parallel) {
    EXPECT_GT(chains, 0u);
  } else {
    EXPECT_EQ(chains, 0u);
  }
  EXPECT_EQ(sim.metrics().CounterTotal(
                "phoenix.recovery.replay.salvaged_parallel"),
            parallel && corrupt_interior ? 1u : 0u);
  if (parallel && corrupt_interior) {
    EXPECT_GE(sim.metrics().CounterTotal(
                  "phoenix.recovery.replay.chains_demoted"),
              1u);
  }
  return state;
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
      unit.replay.order = order;
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

TEST(ParallelReplayTest, EndStateMatchesSequentialReplay) {
  std::vector<int64_t> sequential = RunCrashRecover(/*parallel=*/false);
  std::vector<int64_t> parallel = RunCrashRecover(/*parallel=*/true);
  EXPECT_EQ(sequential, parallel);
  // Sanity: the workload above adds 1+2+3 through mid into leaf, 5+7 solo.
  EXPECT_EQ(sequential, (std::vector<int64_t>{6, 6, 12}));
}

// The salvage-parallel equivalence argument end to end: with an interior
// gap both engines lose the same record, so the parallel path — which now
// stays engaged on salvaged logs, serializing only the demoted chain —
// must land on the sequential state.
TEST(ParallelReplayTest, SalvagedEndStateMatchesSequentialReplay) {
  std::vector<int64_t> sequential =
      RunCrashRecover(/*parallel=*/false, /*corrupt_interior=*/true);
  std::vector<int64_t> parallel =
      RunCrashRecover(/*parallel=*/true, /*corrupt_interior=*/true);
  EXPECT_EQ(sequential, parallel);
}

}  // namespace
}  // namespace phoenix
