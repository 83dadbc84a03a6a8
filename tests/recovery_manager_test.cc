// Finer-grained recovery-manager behavior: pass statistics, table
// restoration, id continuity, and the lost-creation-record path.

#include <gtest/gtest.h>

#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_manager.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"

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
  EXPECT_EQ(client.Call(*mid, "Get", {})->AsInt(), 6);
  EXPECT_EQ(client.Call(*solo, "Get", {})->AsInt(), 12);
  EXPECT_EQ(client.Call(*keep, "Get", {})->AsInt(), 4);
}

}  // namespace
}  // namespace phoenix
