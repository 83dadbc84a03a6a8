// Finer-grained recovery-manager behavior: pass statistics, table
// restoration, id continuity, the lost-creation-record path, the recovery
// lanes restores and replay share, and the one-lane schedule.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_manager.h"
#include "recovery/recovery_service.h"
#include "recovery/replay_plan.h"
#include "tests/test_components.h"
#include "wal/log_reader.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

class RecoveryManagerTest : public ::testing::Test {
 protected:
  RecoveryManagerTest() {
    sim_ = std::make_unique<Simulation>();
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
};

TEST_F(RecoveryManagerTest, StatsReflectWork) {
  ExternalClient client(sim_.get(), "alpha");
  auto a = client.CreateComponent(*proc_, "Counter", "a",
                                  ComponentKind::kPersistent, {});
  auto b = client.CreateComponent(*proc_, "Counter", "b",
                                  ComponentKind::kPersistent, {});
  ASSERT_TRUE(b.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(*a, "Add", MakeArgs(1)).ok());
  }
  ASSERT_TRUE(client.Call(*b, "Add", MakeArgs(1)).ok());

  proc_->Kill();
  proc_->Start();
  proc_->set_recovering(true);
  RecoveryManager recovery(proc_);
  ASSERT_TRUE(recovery.Recover().ok());
  proc_->set_recovering(false);

  // Contexts on the log: a + b (the activator is implicit); replays: 2
  // activator Creates + 4 calls.
  EXPECT_EQ(recovery.stats().contexts_found, 2u);
  EXPECT_EQ(recovery.stats().contexts_restored_from_state, 0u);
  EXPECT_EQ(recovery.stats().calls_replayed, 6u);
  EXPECT_GT(recovery.stats().records_scanned, 6u);
}

TEST_F(RecoveryManagerTest, RemoteTypeTableRestoredFromCheckpoint) {
  ExternalClient client(sim_.get(), "alpha");
  Process& server_proc = alpha_->CreateProcess();
  auto fn = client.CreateComponent(server_proc, "Squarer", "sq",
                                   ComponentKind::kFunctional, {});
  auto chain = client.CreateComponent(*proc_, "Chain", "driver",
                                      ComponentKind::kPersistent,
                                      MakeArgs(*fn, "Square"));
  ASSERT_TRUE(chain.ok());
  ASSERT_TRUE(client.Call(*chain, "Bump", MakeArgs(2)).ok());
  ASSERT_NE(proc_->remote_types().Lookup(*fn), nullptr);

  proc_->checkpoints().TakeProcessCheckpoint();
  ASSERT_TRUE(client.Call(*chain, "Bump", MakeArgs(2)).ok());  // flush

  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  const RemoteTypeInfo* info = proc_->remote_types().Lookup(*fn);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->kind, ComponentKind::kFunctional);
  EXPECT_EQ(info->type_name, "Squarer");
}

TEST_F(RecoveryManagerTest, NewComponentsAfterRecoveryGetFreshIds) {
  ExternalClient client(sim_.get(), "alpha");
  auto a = client.CreateComponent(*proc_, "Counter", "a",
                                  ComponentKind::kPersistent, {});
  ASSERT_TRUE(a.ok());
  uint64_t id_a = proc_->FindContextOfComponent("a")->id();

  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());

  auto b = client.CreateComponent(*proc_, "Counter", "b",
                                  ComponentKind::kPersistent, {});
  ASSERT_TRUE(b.ok());
  EXPECT_GT(proc_->FindContextOfComponent("b")->id(), id_a);
}

TEST_F(RecoveryManagerTest, LostCreationRecordRecreatedByActivatorReplay) {
  // A component whose creation record never became stable is re-created by
  // the replayed activator call — with the same deterministic context id,
  // so its earlier outgoing calls still dedupe correctly downstream.
  ExternalClient client(sim_.get(), "alpha");
  Process& downstream_proc = alpha_->CreateProcess();
  auto leaf = client.CreateComponent(downstream_proc, "Counter", "leaf",
                                     ComponentKind::kPersistent, {});
  ASSERT_TRUE(leaf.ok());

  // Create mid through a PERSISTENT creator whose Create call gets logged
  // and forced at the activator: kill the process right after the creation
  // (before mid does anything that would force its creation record).
  auto mid = client.CreateComponent(*proc_, "Chain", "mid",
                                    ComponentKind::kPersistent,
                                    MakeArgs(*leaf));
  ASSERT_TRUE(mid.ok());
  uint64_t mid_ctx = proc_->FindContextOfComponent("mid")->id();
  // The external Create forced the activator's records (Algorithm 3) and
  // with them everything earlier — including mid's creation record. To get
  // a LOST creation record, append more and kill before any force: create
  // another component directly (bypassing forces).
  auto late = proc_->CreateComponent("Counter", "late",
                                     ComponentKind::kPersistent, {});
  ASSERT_TRUE(late.ok());
  proc_->Kill();  // "late"'s creation record dies in the buffer

  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  // mid survived (its creation was forced), late did not — and that's
  // correct: nothing committed referenced it.
  EXPECT_NE(proc_->FindComponent("mid"), nullptr);
  EXPECT_EQ(proc_->FindContextOfComponent("mid")->id(), mid_ctx);
  EXPECT_EQ(proc_->FindComponent("late"), nullptr);

  // Re-creating late reuses the id space without colliding.
  auto late2 = proc_->CreateComponent("Counter", "late",
                                      ComponentKind::kPersistent, {});
  ASSERT_TRUE(late2.ok());
  EXPECT_TRUE(client.Call(*late2, "Add", MakeArgs(1)).ok());
}

TEST_F(RecoveryManagerTest, RecoveryIsIdempotent) {
  ExternalClient client(sim_.get(), "alpha");
  auto a = client.CreateComponent(*proc_, "Counter", "a",
                                  ComponentKind::kPersistent, {});
  ASSERT_TRUE(client.Call(*a, "Add", MakeArgs(5)).ok());

  for (int round = 0; round < 3; ++round) {
    proc_->Kill();
    ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  }
  EXPECT_EQ(client.Call(*a, "Get", {})->AsInt(), 5);
}

TEST_F(RecoveryManagerTest, LiveCallDuringRecoveryFlushesPendingFirst) {
  // Two processes on one machine call each other; while A recovers, B's
  // retry arrives mid-pass and must see A's contexts recovered to their
  // last send. Exercised via the pending-flusher hook: kill A mid-call
  // from B, then B's retry drives A's recovery inline.
  ExternalClient client(sim_.get(), "alpha");
  Process& b_proc = alpha_->CreateProcess();
  auto target = client.CreateComponent(*proc_, "Counter", "target",
                                       ComponentKind::kPersistent, {});
  auto driver = client.CreateComponent(b_proc, "Chain", "driver",
                                       ComponentKind::kPersistent,
                                       MakeArgs(*target));
  ASSERT_TRUE(driver.ok());
  ASSERT_TRUE(client.Call(*driver, "Bump", MakeArgs(1)).ok());

  sim_->injector().AddTrigger("alpha", proc_->pid(),
                              FailurePoint::kBeforeReplySend, 1);
  auto r = client.Call(*driver, "Bump", MakeArgs(2));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(client.Call(*target, "Get", {})->AsInt(), 3);
}

// Sim time of the redo phase of `sim`'s only recovery.
double RestoreMakespanMs(const Simulation& sim) {
  obs::Histogram h =
      sim.metrics().MergedHistogram("phoenix.recovery.restore.makespan_ms");
  EXPECT_EQ(h.count(), 1u);
  return h.sum();
}

TEST(RestoreLanesTest, CreationOnlyContextsRestoreOnLanes) {
  // Eight creation-only contexts restore independently: with parallel
  // replay at 4 sessions their create costs are list-scheduled on 4 lanes
  // (two rounds); sequentially they are the serial sum.
  for (uint32_t sessions : {1u, 4u}) {
    RuntimeOptions opts;
    opts.parallel_replay = sessions > 1;
    opts.parallel_replay_sessions = sessions;
    Simulation sim(opts);
    RegisterTestComponents(sim.factories());
    Machine& alpha = sim.AddMachine("alpha");
    Process& proc = alpha.CreateProcess();
    ExternalClient client(&sim, "alpha");
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(client
                      .CreateComponent(proc, "Counter", StrCat("c", i),
                                       ComponentKind::kPersistent, {})
                      .ok());
    }

    proc.Kill();
    ASSERT_TRUE(alpha.recovery_service().EnsureProcessAlive(proc.pid()).ok());
    double rounds = sessions > 1 ? 2.0 : 8.0;
    EXPECT_DOUBLE_EQ(RestoreMakespanMs(sim),
                     rounds * sim.costs().recovery_create_ms)
        << "sessions=" << sessions;
  }
}

TEST(RestoreLanesTest, RecoveryInsideAnotherReplayRunsOnCallersLane) {
  // A's parallel replay re-executes mid's calls to a functional Squarer in
  // B, which is down: B recovers from inside A's replay lane. B's restores
  // must charge that lane instead of opening a nested clock region.
  RuntimeOptions opts;
  opts.parallel_replay = true;
  opts.parallel_replay_sessions = 4;
  Simulation sim(opts);
  RegisterTestComponents(sim.factories());
  Machine& alpha = sim.AddMachine("alpha");
  Process& a = alpha.CreateProcess();
  Process& b = alpha.CreateProcess();
  ExternalClient client(&sim, "alpha");
  auto sq = client.CreateComponent(b, "Squarer", "sq",
                                   ComponentKind::kFunctional, {});
  auto keep = client.CreateComponent(b, "Counter", "keep",
                                     ComponentKind::kPersistent, {});
  auto mid = client.CreateComponent(a, "Chain", "mid",
                                    ComponentKind::kPersistent,
                                    MakeArgs(*sq, "Square"));
  auto solo = client.CreateComponent(a, "Counter", "solo",
                                     ComponentKind::kPersistent, {});
  ASSERT_TRUE(sq.ok() && keep.ok() && mid.ok() && solo.ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.Call(*mid, "Bump", MakeArgs(i)).ok());
  }
  ASSERT_TRUE(client.Call(*solo, "Add", MakeArgs(5)).ok());
  ASSERT_TRUE(client.Call(*solo, "Add", MakeArgs(7)).ok());
  ASSERT_TRUE(client.Call(*keep, "Add", MakeArgs(4)).ok());

  b.Kill();
  a.Kill();
  ASSERT_TRUE(alpha.recovery_service().EnsureProcessAlive(a.pid()).ok());
  EXPECT_FALSE(sim.clock().in_parallel());
  EXPECT_EQ(sim.metrics().CounterTotal("phoenix.recovery.recoveries"), 2u);
  const obs::Counter* nested = sim.metrics().FindCounter(
      "phoenix.recovery.replay.fallbacks",
      obs::LabelSet{{"process", StrCat("alpha/", b.pid())},
                    {"reason", "nested_scheduler"}});
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->value(), 1u);
  // B ran its plan inline on A's lane: on one lane, with no sessions of its
  // own.
  obs::LabelSet b_label{{"process", StrCat("alpha/", b.pid())}};
  EXPECT_EQ(sim.metrics()
                .GetGauge("phoenix.recovery.replay.parallelism", b_label)
                .value(),
            1.0);
  const obs::Counter* b_chains =
      sim.metrics().FindCounter("phoenix.recovery.replay.chains", b_label);
  ASSERT_NE(b_chains, nullptr);
  EXPECT_GT(b_chains->value(), 0u);
  EXPECT_EQ(client.Call(*mid, "Get", {})->AsInt(), 6);
  EXPECT_EQ(client.Call(*solo, "Get", {})->AsInt(), 12);
  EXPECT_EQ(client.Call(*keep, "Get", {})->AsInt(), 4);
}

// Deploys five contexts for the shared-lane tests, context ids 1-5 in
// creation order: a Chain `mid` and Counters c0..c2, then either a fourth
// Counter c3 or, with `squarer`, a functional Squarer that mid forwards its
// Bumps to. Three rounds of calls give every stateful context non-final
// replay units.
struct LaneWorkload {
  std::string mid;
  std::vector<std::string> counters;
};

LaneWorkload DeployLaneWorkload(Simulation& sim, Process& proc,
                                bool squarer) {
  ExternalClient client(&sim, proc.machine_name());
  LaneWorkload w;
  w.mid = client
              .CreateComponent(proc, "Chain", "mid",
                               ComponentKind::kPersistent, {})
              .value();
  for (int i = 0; i < (squarer ? 3 : 4); ++i) {
    w.counters.push_back(client
                             .CreateComponent(proc, "Counter", StrCat("c", i),
                                              ComponentKind::kPersistent, {})
                             .value());
  }
  if (squarer) {
    std::string sq = client
                         .CreateComponent(proc, "Squarer", "sq",
                                          ComponentKind::kFunctional, {})
                         .value();
    EXPECT_TRUE(
        client.Call(w.mid, "SetDownstream", MakeArgs(sq, "Square")).ok());
  }
  for (int round = 1; round <= 3; ++round) {
    EXPECT_TRUE(client.Call(w.mid, "Bump", MakeArgs(round)).ok());
    for (const std::string& counter : w.counters) {
      EXPECT_TRUE(client.Call(counter, "Add", MakeArgs(round)).ok());
    }
  }
  return w;
}

// Crashes and recovers the lane workload with parallel replay on `lanes`
// lanes and tracing on; returns the simulation.
std::unique_ptr<Simulation> RecoverLaneWorkload(uint32_t lanes, bool squarer,
                                                LaneWorkload* w) {
  RuntimeOptions opts;
  opts.parallel_replay = true;
  opts.parallel_replay_sessions = lanes;
  auto sim = std::make_unique<Simulation>(opts);
  RegisterTestComponents(sim->factories());
  Machine& alpha = sim->AddMachine("alpha");
  Process& proc = alpha.CreateProcess();
  *w = DeployLaneWorkload(*sim, proc, squarer);
  proc.Kill();
  sim->tracer().set_enabled(true);
  EXPECT_TRUE(alpha.recovery_service().EnsureProcessAlive(proc.pid()).ok());
  return sim;
}

// Timestamp of the first `phase` event of the recovery span `name`.
double RecoverySpanTs(Simulation& sim, const std::string& name,
                      obs::TracePhase phase) {
  for (const obs::TraceEvent& e : sim.tracer().events()) {
    if (e.category == "recovery" && e.name == name && e.phase == phase) {
      return e.ts_ms;
    }
  }
  ADD_FAILURE() << "no recovery/" << name << " event";
  return 0;
}

// Lane start of every replayed incoming call, by context: a replay span
// opens right after its unit's replay cost is charged.
std::multimap<uint64_t, double> ReplayStarts(Simulation& sim) {
  std::multimap<uint64_t, double> starts;
  for (const obs::TraceEvent& e : sim.tracer().events()) {
    if (e.category != "intercept" || e.phase != obs::TracePhase::kBegin ||
        e.name.rfind("replay:", 0) != 0) {
      continue;
    }
    for (const obs::TraceArg& arg : e.args) {
      if (arg.key != "context") continue;
      starts.emplace(std::stoull(arg.value),
                     e.ts_ms - sim.costs().recovery_replay_call_ms);
    }
  }
  return starts;
}

TEST(RestoreLanesTest, ReplayStartsOnceTheRestoresItNeedsAreDone) {
  LaneWorkload w;
  std::unique_ptr<Simulation> sim = RecoverLaneWorkload(4, false, &w);

  // Five creation-only restores in context-id order on four lanes, all
  // ready at the redo start: contexts 1-4 finish one create in, context 5
  // a create later on the lane that freed first.
  double redo = RecoverySpanTs(*sim, "redo", obs::TracePhase::kBegin);
  double create = sim->costs().recovery_create_ms;
  double last_restore = redo + 2 * create;
  const double kSlack = 1e-9;

  std::multimap<uint64_t, double> starts = ReplayStarts(*sim);
  ASSERT_EQ(starts.count(0), 5u);  // the replayed Creates
  bool overlapped = false;
  for (const auto& [context, start] : starts) {
    if (context == 0) {
      // Replayed Creates look every context up by name.
      EXPECT_GE(start + kSlack, last_restore) << "activator unit";
    } else if (context == 5) {
      EXPECT_GE(start + kSlack, last_restore) << "context 5";
    } else {
      EXPECT_GE(start + kSlack, redo + create) << "context " << context;
      overlapped = overlapped || start < last_restore;
    }
  }
  // Contexts 1-4 replay on the lanes their restores freed while context 5
  // still restores.
  EXPECT_TRUE(overlapped);

  ExternalClient client(sim.get(), "alpha");
  EXPECT_EQ(client.Call(w.mid, "Get", {})->AsInt(), 6);
  for (const std::string& counter : w.counters) {
    EXPECT_EQ(client.Call(counter, "Get", {})->AsInt(), 6);
  }
}

TEST(RestoreLanesTest, ReplayWaitsForLocalStatelessRestores) {
  // mid calls the local functional Squarer (context 5, restored last) live
  // during replay, and no logged record says which units do: every unit
  // waits for that restore.
  LaneWorkload w;
  std::unique_ptr<Simulation> sim = RecoverLaneWorkload(4, true, &w);
  double last_restore = RecoverySpanTs(*sim, "redo", obs::TracePhase::kBegin) +
                        2 * sim->costs().recovery_create_ms;
  std::multimap<uint64_t, double> starts = ReplayStarts(*sim);
  EXPECT_EQ(starts.size(), 18u);  // 5 Creates, SetDownstream, 3 rounds x 4
  for (const auto& [context, start] : starts) {
    EXPECT_GE(start + 1e-9, last_restore) << "context " << context;
  }
  ExternalClient client(sim.get(), "alpha");
  EXPECT_EQ(client.Call(w.mid, "Get", {})->AsInt(), 6);
}

TEST(RestoreLanesTest, CriticalPathBoundsTheReplayMakespan) {
  // Replay shares the lanes with the restores, and both figures count only
  // what runs past the restores, so the path the lanes had to respect
  // never exceeds the time they took.
  for (bool squarer : {false, true}) {
    LaneWorkload w;
    std::unique_ptr<Simulation> sim = RecoverLaneWorkload(4, squarer, &w);
    obs::Histogram critical = sim->metrics().MergedHistogram(
        "phoenix.recovery.replay.critical_path_ms");
    obs::Histogram makespan =
        sim->metrics().MergedHistogram("phoenix.recovery.replay.makespan_ms");
    ASSERT_EQ(critical.count(), 1u);
    ASSERT_EQ(makespan.count(), 1u);
    EXPECT_GT(critical.sum(), 0.0) << "squarer=" << squarer;
    EXPECT_LE(critical.sum(), makespan.sum() + 1e-9) << "squarer=" << squarer;
  }
}

TEST(RestoreLanesTest, PhaseSpansSumToTheRecoveryDuration) {
  for (uint32_t lanes : {1u, 4u}) {
    LaneWorkload w;
    std::unique_ptr<Simulation> sim = RecoverLaneWorkload(lanes, false, &w);
    double phases = 0;
    for (const char* phase : {"analysis", "redo", "replay"}) {
      phases += RecoverySpanTs(*sim, phase, obs::TracePhase::kEnd) -
                RecoverySpanTs(*sim, phase, obs::TracePhase::kBegin);
    }
    obs::Histogram duration =
        sim->metrics().MergedHistogram("phoenix.recovery.duration_ms");
    ASSERT_EQ(duration.count(), 1u);
    EXPECT_NEAR(phases, duration.sum(), 1e-6) << "lanes=" << lanes;
    // The restores keep reporting their own makespan.
    EXPECT_DOUBLE_EQ(RestoreMakespanMs(*sim),
                     (lanes > 1 ? 2.0 : 5.0) * sim->costs().recovery_create_ms)
        << "lanes=" << lanes;
  }
}

TEST(OneLaneScheduleTest, NonFinalUnitsInLogOrderThenFinalsOldestFirst) {
  // On one lane the non-final units replay in log order; on four they may
  // interleave. Either way every final replays after every non-final unit,
  // oldest first, in the engine's final phase.
  for (uint32_t lanes : {1u, 4u}) {
    SCOPED_TRACE(StrCat("lanes=", lanes));
    RuntimeOptions opts;
    opts.parallel_replay = lanes > 1;
    opts.parallel_replay_sessions = lanes;
    // No trigger: the crash points only count their hits.
    opts.inject_failures_during_recovery = true;
    Simulation sim(opts);
    RegisterTestComponents(sim.factories());
    Machine& alpha = sim.AddMachine("alpha");
    Process& proc = alpha.CreateProcess();
    DeployLaneWorkload(sim, proc, /*squarer=*/true);
    proc.Kill();

    // An independent walk of the stable log: every logged incoming call,
    // and per context the last one, its final unit; plus each context's
    // unit count, its creation included.
    struct Call {
      uint64_t context = 0;
      uint32_t method_rank = 0;
      bool final = false;
    };
    std::vector<Call> calls;
    std::map<uint64_t, size_t> last;
    std::map<uint64_t, uint64_t> units;
    LogView view = proc.log().StableView();
    LogReader reader(view, proc.log().head_base());
    while (auto parsed = reader.Next()) {
      if (const auto* in = std::get_if<IncomingCallRecord>(&parsed->record)) {
        last[in->context_id] = calls.size();
        ASSERT_TRUE(in->method_rank.has_value());
        calls.push_back(Call{in->context_id, *in->method_rank});
        ++units[in->context_id];
      } else if (const auto* creation =
                     std::get_if<CreationRecord>(&parsed->record)) {
        ++units[creation->context_id];
      }
    }
    for (const auto& [context, index] : last) calls[index].final = true;
    uint64_t unit_count = 0;
    for (const auto& [context, count] : units) unit_count += count;
    uint64_t non_final_units = unit_count - units.size();

    sim.tracer().set_enabled(true);
    ASSERT_TRUE(alpha.recovery_service().EnsureProcessAlive(proc.pid()).ok());
    // The records name their methods by rank; the recovered contexts'
    // method tables name them again.
    std::vector<std::string> non_finals;
    std::vector<std::string> finals;
    for (const Call& call : calls) {
      const std::string* method = proc.FindContext(call.context)
                                      ->parent_slot()
                                      ->methods.NameOfRank(call.method_rank);
      ASSERT_NE(method, nullptr);
      (call.final ? finals : non_finals)
          .push_back(StrCat(call.context, ":", *method));
    }
    std::vector<std::string> replayed;
    for (const obs::TraceEvent& e : sim.tracer().events()) {
      if (e.category != "intercept" || e.phase != obs::TracePhase::kBegin ||
          e.name.rfind("replay:", 0) != 0) {
        continue;
      }
      for (const obs::TraceArg& arg : e.args) {
        if (arg.key == "context") {
          replayed.push_back(StrCat(arg.value, ":", e.name.substr(7)));
        }
      }
    }
    ASSERT_EQ(replayed.size(), non_finals.size() + finals.size());
    std::vector<std::string> replayed_non_finals(
        replayed.begin(), replayed.begin() + non_finals.size());
    std::vector<std::string> replayed_finals(
        replayed.begin() + non_finals.size(), replayed.end());
    if (lanes > 1) {
      std::sort(non_finals.begin(), non_finals.end());
      std::sort(replayed_non_finals.begin(), replayed_non_finals.end());
    }
    EXPECT_EQ(replayed_non_finals, non_finals);
    EXPECT_EQ(replayed_finals, finals);

    // The between-units crash point fires after each non-final unit, the
    // end-of-log flush's after each final.
    EXPECT_EQ(sim.injector().HitCount("alpha", proc.pid(),
                                      FailurePoint::kBetweenReplayUnits),
              non_final_units);
    EXPECT_EQ(sim.injector().HitCount("alpha", proc.pid(),
                                      FailurePoint::kDuringEndOfLogFlush),
              units.size());
    EXPECT_EQ(sim.metrics().GaugeTotal("phoenix.recovery.replay.parallelism"),
              static_cast<double>(std::min<uint64_t>(lanes, non_final_units)));
  }
}

// Structural fingerprint of a plan: chains, units, feeds and edges.
std::string Describe(const ReplayPlan& plan) {
  std::string out = StrCat("cross_edges=", plan.cross_edges, "\n");
  for (const ReplayChain& chain : plan.chains) {
    out += StrCat("ctx ", chain.context_id, ":");
    for (const PlannedUnit& unit : chain.units) {
      out += StrCat(" [", unit.order(),
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

TEST(PassOnePlanTest, MatchesPlanLogReplayAcrossACheckpointCut) {
  for (uint32_t shards : {1u, 2u, 4u}) {
    RuntimeOptions opts;
    opts.parallel_replay = true;
    opts.parallel_replay_sessions = 4;
    opts.wal_shards = shards;
    Simulation sim(opts);
    RegisterTestComponents(sim.factories());
    Machine& alpha = sim.AddMachine("alpha");
    Process& proc = alpha.CreateProcess();
    ExternalClient client(&sim, "alpha");
    auto leaf = client.CreateComponent(proc, "Counter", "leaf",
                                       ComponentKind::kPersistent, {});
    auto mid = client.CreateComponent(proc, "Chain", "mid",
                                      ComponentKind::kPersistent,
                                      MakeArgs(*leaf, "Add"));
    auto solo = client.CreateComponent(proc, "Counter", "solo",
                                       ComponentKind::kPersistent, {});
    ASSERT_TRUE(leaf.ok() && mid.ok() && solo.ok());
    // Every context saves its state and keeps working before the
    // checkpoint, so its cut lies above every origin and the plan needs
    // the records below it.
    for (const char* name : {"leaf", "mid", "solo"}) {
      ASSERT_TRUE(proc.checkpoints()
                      .SaveContextState(*proc.FindContextOfComponent(name))
                      .ok());
    }
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(client.Call(*mid, "Bump", MakeArgs(i)).ok());
      ASSERT_TRUE(client.Call(*solo, "Add", MakeArgs(i)).ok());
    }
    ASSERT_TRUE(proc.checkpoints().TakeProcessCheckpoint().ok());
    ASSERT_TRUE(client.Call(*mid, "Bump", MakeArgs(4)).ok());  // publishes
    ASSERT_TRUE(client.Call(*solo, "Add", MakeArgs(4)).ok());
    Result<uint64_t> wkf = proc.log().ReadWellKnownLsn();
    ASSERT_TRUE(wkf.ok());
    uint64_t cut = proc.log().OrderOfRecordAt(*wkf).value();

    proc.Kill();
    ReplayPlanInputs inputs;
    inputs.machine = proc.machine_name();
    inputs.process_id = proc.pid();
    std::string expected = Describe(PlanLogReplay(proc.log(), inputs));

    proc.Start();
    proc.set_recovering(true);
    RecoveryManager recovery(&proc);
    ASSERT_TRUE(recovery.Analyze().ok());
    proc.set_recovering(false);
    ASSERT_NE(recovery.plan(), nullptr);
    const ReplayPlan& plan = *recovery.plan();
    EXPECT_EQ(Describe(plan), expected) << shards << " shard(s)";
    EXPECT_GT(plan.cross_edges, 0u);
    bool below_cut = false;
    for (const ReplayChain& chain : plan.chains) {
      for (const PlannedUnit& unit : chain.units) {
        below_cut = below_cut || unit.order() < cut;
      }
    }
    EXPECT_TRUE(below_cut) << shards << " shard(s)";
  }
}

}  // namespace
}  // namespace phoenix
