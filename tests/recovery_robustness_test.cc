// Recovery under adversity: crashes *during* recovery, incomplete
// checkpoints, stale well-known files, corrupted tails — the recovery path
// must converge to the same exact state no matter what.

#include <gtest/gtest.h>

#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

class RecoveryRobustnessTest : public ::testing::Test {
 protected:
  void SetUpSim(RuntimeOptions opts = {}) {
    sim_ = std::make_unique<Simulation>(opts);
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
};

TEST_F(RecoveryRobustnessTest, CrashDuringRecoveryRestartsRecovery) {
  RuntimeOptions opts;
  opts.inject_failures_during_recovery = true;
  SetUpSim(opts);
  ExternalClient client(sim_.get(), "alpha");
  Process& driver_proc = alpha_->CreateProcess();
  Process& leaf_proc = alpha_->CreateProcess();
  auto leaf = client.CreateComponent(leaf_proc, "Counter", "leaf",
                                     ComponentKind::kPersistent, {});
  auto mid = client.CreateComponent(*proc_, "Chain", "mid",
                                    ComponentKind::kPersistent,
                                    MakeArgs(*leaf));
  auto driver = client.CreateComponent(driver_proc, "Chain", "driver",
                                       ComponentKind::kPersistent,
                                       MakeArgs(*mid, "Bump"));
  ASSERT_TRUE(driver.ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.Call(*driver, "Bump", MakeArgs(i)).ok());
  }

  // Crash mid before its send to leaf; the replayed final call goes live at
  // the same hook during recovery and the SECOND trigger kills the
  // recovering process too. The service restarts recovery, which converges.
  sim_->injector().AddTrigger("alpha", proc_->pid(),
                              FailurePoint::kBeforeOutgoingSend, 1);
  sim_->injector().AddTrigger("alpha", proc_->pid(),
                              FailurePoint::kBeforeOutgoingSend, 2);
  auto r = client.Call(*driver, "Bump", MakeArgs(4));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(sim_->injector().crashes_fired(), 2u);  // original + in-recovery
  EXPECT_EQ(client.Call(*mid, "Get", {})->AsInt(), 10);
  EXPECT_EQ(client.Call(*leaf, "Get", {})->AsInt(), 10);
}

TEST_F(RecoveryRobustnessTest, RepeatedCrashesDuringRecoveryConverge) {
  RuntimeOptions opts;
  opts.inject_failures_during_recovery = true;
  SetUpSim(opts);
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(2)).ok());
  }
  proc_->Kill();
  // Round after round: recover, then crash again on the very next incoming
  // call. Every recovery must land on the identical state.
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  for (int round = 0; round < 3; ++round) {
    sim_->injector().AddTrigger("alpha", proc_->pid(),
                                FailurePoint::kBeforeIncomingLogged, 1);
    auto r = client.Call(*uri, "Get", {});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->AsInt(), 10);
  }
}

TEST_F(RecoveryRobustnessTest, IncompleteCheckpointIgnored) {
  // Crash after the begin-checkpoint record is stable but before the end
  // record: recovery must not treat the partial table dump as authoritative
  // (the well-known file still points at the previous checkpoint or
  // nothing).
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  // Take a checkpoint whose records reach the disk (flush by force) but
  // whose publish is suppressed by crashing before the next publish check.
  ASSERT_TRUE(proc_->checkpoints().TakeProcessCheckpoint().ok());
  proc_->log().Force();  // records stable, but not yet published
  EXPECT_TRUE(proc_->log().ReadWellKnownLsn().status().IsNotFound());
  proc_->Kill();

  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 4);
}

TEST_F(RecoveryRobustnessTest, StaleWellKnownFileStillCorrect) {
  // The well-known file may lag several checkpoints behind; recovery just
  // scans more log. Correctness must be unaffected.
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  Context* ctx = proc_->FindContextOfComponent("c");
  ASSERT_TRUE(proc_->checkpoints().SaveContextState(*ctx).ok());
  ASSERT_TRUE(proc_->checkpoints().TakeProcessCheckpoint().ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());  // publish #1
  auto first_wkf = proc_->log().ReadWellKnownLsn();
  ASSERT_TRUE(first_wkf.ok());

  // More work + a second, newer state record that is never checkpointed.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  ASSERT_TRUE(proc_->checkpoints().SaveContextState(*ctx).ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());  // flushes it

  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  // Pass 1 found the newer state record beyond the stale checkpoint.
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 6);
}

TEST_F(RecoveryRobustnessTest, TornTailPlusRetryIsExactlyOnce) {
  // The last call's records are torn off the log AND the (persistent)
  // client retries: the retry re-executes — exactly once overall, because
  // the torn records were never part of committed state.
  SetUpSim();
  ExternalClient admin(sim_.get(), "alpha");
  Process& client_proc = alpha_->CreateProcess();
  auto counter = admin.CreateComponent(*proc_, "Counter", "c",
                                       ComponentKind::kPersistent, {});
  auto driver = admin.CreateComponent(client_proc, "Chain", "driver",
                                      ComponentKind::kPersistent,
                                      MakeArgs(*counter));
  ASSERT_TRUE(driver.ok());
  ASSERT_TRUE(admin.Call(*driver, "Bump", MakeArgs(3)).ok());

  // Tear the counter-side log mid-way into the last frames.
  std::string log_name = proc_->log_name();
  uint64_t size = sim_->storage().LogSize(log_name);
  proc_->Kill();
  sim_->storage().TruncateLog(log_name, size - 5);
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());

  // Retry the same logical call through the driver's dedupe machinery by
  // re-sending the same call id by hand.
  Context* driver_ctx = client_proc.FindContextOfComponent("driver");
  CallMessage dup;
  dup.target_uri = *counter;
  dup.method = "Add";
  dup.args = MakeArgs(3);
  dup.has_call_id = true;
  dup.call_id = CallId{ClientKey{"alpha", client_proc.pid(),
                                 driver_ctx->id()},
                       driver_ctx->last_outgoing_seq()};
  dup.has_sender_info = true;
  dup.sender_kind = ComponentKind::kPersistent;
  Result<ReplyMessage> reply = sim_->RouteCall("alpha", dup);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->value.AsInt(), 3);
  EXPECT_EQ(admin.Call(*counter, "Get", {})->AsInt(), 3);
}

// Scans the stable log and returns the LSN of the newest record matching
// `pred`, or kInvalidLsn.
template <typename Pred>
uint64_t FindNewestRecord(Process& proc, Pred pred) {
  LogView view = proc.log().StableView();
  LogReader reader(view, proc.log().head_base());
  reader.EnableSalvage();
  uint64_t found = kInvalidLsn;
  while (auto parsed = reader.Next()) {
    if (pred(parsed->record)) found = parsed->lsn;
  }
  return found;
}

TEST_F(RecoveryRobustnessTest, CorruptStateRecordFallsBackToOlderOrigin) {
  // A checkpoint references a context-state record that bit rot later makes
  // unreadable. Recovery must not fail: it falls back to an older state
  // record or the creation record and replays forward.
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  Context* ctx = proc_->FindContextOfComponent("c");
  ASSERT_TRUE(proc_->checkpoints().SaveContextState(*ctx).ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(proc_->checkpoints().TakeProcessCheckpoint().ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());  // publishes

  uint64_t state_lsn = FindNewestRecord(*proc_, [](const LogRecord& r) {
    return std::holds_alternative<ContextStateRecord>(r);
  });
  ASSERT_NE(state_lsn, kInvalidLsn);
  proc_->Kill();
  sim_->storage().CorruptLog(proc_->log_name(), state_lsn + 8, 2);

  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 5);
  EXPECT_GE(sim_->metrics().CounterTotal(
                "phoenix.recovery.salvage.state_record_fallback"),
            1u);
}

TEST_F(RecoveryRobustnessTest, StateRecordFallbackChargedToItsRestoreLane) {
  // With parallel replay the redo phase list-schedules each context's
  // restore on a clock lane. A context whose newest state record rotted
  // falls back to its older one on the lane that took it: c's create +
  // state restore fill lane 0 while the creation-only d fills lane 1, so
  // the phase costs the salvaged restore alone, not the serial sum.
  RuntimeOptions opts;
  opts.parallel_replay = true;
  opts.parallel_replay_sessions = 2;
  SetUpSim(opts);
  ExternalClient client(sim_.get(), "alpha");
  auto c = client.CreateComponent(*proc_, "Counter", "c",
                                  ComponentKind::kPersistent, {});
  auto d = client.CreateComponent(*proc_, "Counter", "d",
                                  ComponentKind::kPersistent, {});
  ASSERT_TRUE(c.ok() && d.ok());
  Context* ctx = proc_->FindContextOfComponent("c");
  ASSERT_TRUE(client.Call(*c, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(proc_->checkpoints().SaveContextState(*ctx).ok());
  ASSERT_TRUE(client.Call(*c, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(proc_->checkpoints().SaveContextState(*ctx).ok());
  ASSERT_TRUE(proc_->checkpoints().TakeProcessCheckpoint().ok());
  ASSERT_TRUE(client.Call(*c, "Add", MakeArgs(1)).ok());  // publishes

  uint64_t state_lsn = FindNewestRecord(*proc_, [](const LogRecord& r) {
    return std::holds_alternative<ContextStateRecord>(r);
  });
  ASSERT_NE(state_lsn, kInvalidLsn);
  proc_->Kill();
  sim_->storage().CorruptLog(proc_->log_name(), state_lsn + 8, 2);

  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(sim_->metrics().CounterTotal(
                "phoenix.recovery.salvage.state_record_fallback"),
            1u);
  obs::Histogram redo = sim_->metrics().MergedHistogram(
      "phoenix.recovery.restore.makespan_ms");
  ASSERT_EQ(redo.count(), 1u);
  EXPECT_DOUBLE_EQ(redo.sum(), sim_->costs().recovery_create_ms +
                                   sim_->costs().recovery_restore_state_ms);
  EXPECT_EQ(client.Call(*c, "Get", {})->AsInt(), 3);
  EXPECT_EQ(client.Call(*d, "Get", {})->AsInt(), 0);
}

TEST_F(RecoveryRobustnessTest, CorruptionInsideCheckpointBracketFullScan) {
  // Bit rot lands on a checkpoint table record above the published begin
  // LSN: the bracket can no longer be trusted, so recovery must widen to a
  // full scan of the retained log and still converge.
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  ASSERT_TRUE(proc_->checkpoints().TakeProcessCheckpoint().ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());  // publishes
  ASSERT_TRUE(proc_->log().ReadWellKnownLsn().ok());

  uint64_t entry_lsn = FindNewestRecord(*proc_, [](const LogRecord& r) {
    return std::holds_alternative<CheckpointContextEntryRecord>(r) ||
           std::holds_alternative<CheckpointLastCallRecord>(r);
  });
  ASSERT_NE(entry_lsn, kInvalidLsn);
  proc_->Kill();
  sim_->storage().CorruptLog(proc_->log_name(), entry_lsn + 8, 2);

  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 5);
  EXPECT_GE(sim_->metrics().CounterTotal(
                "phoenix.recovery.salvage.full_scan_fallback"),
            1u);
}

TEST_F(RecoveryRobustnessTest, CorruptWellKnownFileFallsBackToFullScan) {
  // The well-known file itself rots: its LSN no longer lands on a readable
  // begin-checkpoint record, so recovery distrusts it and rescans.
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  ASSERT_TRUE(proc_->checkpoints().TakeProcessCheckpoint().ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());  // publishes
  ASSERT_TRUE(proc_->log().ReadWellKnownLsn().ok());

  proc_->Kill();
  sim_->storage().CorruptFile(proc_->log_name() + ".wkf", 0, 2);

  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 5);
  EXPECT_GE(
      sim_->metrics().CounterTotal("phoenix.recovery.salvage.wkf_fallback"),
      1u);
}

TEST_F(RecoveryRobustnessTest, TornTailIsAmputatedAndSecondCrashIsClean) {
  // A crash tears the stable tail mid-frame. Recovery must truncate the
  // torn bytes (so later appends cannot be polluted by the partial frame),
  // surface the tear in metrics, and a second crash/recovery cycle must
  // land on the same state.
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  std::string log_name = proc_->log_name();
  uint64_t size = sim_->storage().LogSize(log_name);
  proc_->Kill();
  sim_->storage().TruncateLog(log_name, size - 3);

  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_GE(sim_->metrics().CounterTotal("phoenix.wal.torn_tails"), 1u);
  EXPECT_GT(sim_->metrics().CounterTotal(
                "phoenix.recovery.salvage.torn_tail_bytes"),
            0u);
  auto value = client.Call(*uri, "Get", {});
  ASSERT_TRUE(value.ok());
  int64_t recovered = value->AsInt();
  EXPECT_EQ(recovered, 5);  // every Add was acknowledged, none may be lost

  // The amputated log must append and recover cleanly from here on.
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), recovered + 1);
}

TEST_F(RecoveryRobustnessTest, RestartAllDeadRevivesEveryProcess) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  Process& p2 = alpha_->CreateProcess();
  auto a = client.CreateComponent(*proc_, "Counter", "a",
                                  ComponentKind::kPersistent, {});
  auto b = client.CreateComponent(p2, "Counter", "b",
                                  ComponentKind::kPersistent, {});
  ASSERT_TRUE(client.Call(*a, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(client.Call(*b, "Add", MakeArgs(2)).ok());

  proc_->Kill();
  p2.Kill();
  EXPECT_EQ(alpha_->recovery_service().dead_count(), 2);
  ASSERT_TRUE(alpha_->recovery_service().RestartAllDead().ok());
  EXPECT_EQ(alpha_->recovery_service().dead_count(), 0);
  EXPECT_EQ(client.Call(*a, "Get", {})->AsInt(), 1);
  EXPECT_EQ(client.Call(*b, "Get", {})->AsInt(), 2);
}

}  // namespace
}  // namespace phoenix
