// Context state saving and process checkpoints (Section 4): recovery from a
// state record must be equivalent to full replay, and checkpoints must cut
// the amount of log replayed.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"
#include "wal/log_reader.h"

namespace phoenix {
namespace {

using phoenix::testing::ExecutionLog;
using phoenix::testing::RegisterTestComponents;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUpSim(RuntimeOptions opts = {}) {
    sim_ = std::make_unique<Simulation>(opts);
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    server_ = &alpha_->CreateProcess();
    ExecutionLog::Reset();
  }

  // Runs `cycles` crash cycles of `calls` Adds each on one persistent
  // Counter: every cycle ends with a kill and a restart. Returns the state
  // saves summed over the incarnations (each restart builds a new checkpoint
  // manager). After each restart, checks that the context's replay debt is
  // the number of calls recovery replayed and stays under `debt_cap`.
  uint64_t RunCrashCycles(int cycles, int calls, uint64_t debt_cap) {
    ExternalClient client(sim_.get(), "alpha");
    auto uri = client.CreateComponent(*server_, "Counter", "c",
                                      ComponentKind::kPersistent, {});
    EXPECT_TRUE(uri.ok());
    uint64_t saves = 0;
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (int i = 0; i < calls; ++i) {
        EXPECT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
      }
      saves += server_->checkpoints().state_saves();
      int executions = ExecutionLog::Of("c.Add");
      server_->Kill();
      EXPECT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
      uint64_t replayed =
          static_cast<uint64_t>(ExecutionLog::Of("c.Add") - executions);
      uint64_t debt =
          server_->FindContextOfComponent("c")->calls_since_origin();
      EXPECT_EQ(debt, replayed) << "cycle " << cycle;
      EXPECT_LE(debt, debt_cap) << "cycle " << cycle;
    }
    EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), cycles * calls);
    return saves;
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* server_ = nullptr;
};

TEST_F(CheckpointTest, ExplicitStateSaveWritesRecord) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*server_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(5)).ok());

  Context* ctx = server_->FindContextOfComponent("c");
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->state_record_lsn(), kInvalidLsn);
  auto lsn = server_->checkpoints().SaveContextState(*ctx);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(ctx->state_record_lsn(), *lsn);
  EXPECT_EQ(server_->checkpoints().state_saves(), 1u);
}

TEST_F(CheckpointTest, RecoveryFromStateSkipsOldCalls) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*server_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  Context* ctx = server_->FindContextOfComponent("c");
  ASSERT_TRUE(server_->checkpoints().SaveContextState(*ctx).ok());
  ASSERT_TRUE(server_->checkpoints().TakeProcessCheckpoint().ok());
  // Two more calls after the state record; their force also publishes the
  // checkpoint LSN to the well-known file.
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(server_->log().ReadWellKnownLsn().ok());

  int executions_before = ExecutionLog::Of("c.Add");
  server_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  // Only the 2 post-state calls replayed, not all 12.
  EXPECT_EQ(ExecutionLog::Of("c.Add"), executions_before + 2);
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 12);
}

TEST_F(CheckpointTest, StateRestoreEqualsFullReplay) {
  // Run the same workload twice — once recovering via checkpoint, once via
  // full replay — final states must match.
  auto run = [&](bool with_checkpoint) -> int64_t {
    SetUpSim();
    ExternalClient client(sim_.get(), "alpha");
    auto uri = client.CreateComponent(*server_, "Counter", "c",
                                      ComponentKind::kPersistent, {});
    for (int i = 1; i <= 7; ++i) {
      EXPECT_TRUE(client.Call(*uri, "Add", MakeArgs(i)).ok());
      if (with_checkpoint && i == 4) {
        Context* ctx = server_->FindContextOfComponent("c");
        EXPECT_TRUE(server_->checkpoints().SaveContextState(*ctx).ok());
        EXPECT_TRUE(server_->checkpoints().TakeProcessCheckpoint().ok());
      }
    }
    server_->Kill();
    EXPECT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
    return client.Call(*uri, "Get", {})->AsInt();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST_F(CheckpointTest, PeriodicStateSavingByOption) {
  RuntimeOptions opts;
  opts.save_context_state_every = 3;
  SetUpSim(opts);
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*server_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  EXPECT_EQ(server_->checkpoints().state_saves(), 3u);  // at calls 3, 6, 9
}

TEST_F(CheckpointTest, PeriodicProcessCheckpointByOption) {
  RuntimeOptions opts;
  opts.process_checkpoint_every = 4;
  SetUpSim(opts);
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*server_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  EXPECT_GE(server_->checkpoints().checkpoints_taken(), 2u);
  EXPECT_GE(server_->checkpoints().checkpoints_published(), 1u);
  ASSERT_TRUE(server_->log().ReadWellKnownLsn().ok());
}

TEST_F(CheckpointTest, CheckpointNotPublishedUntilFlushed) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*server_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  ASSERT_TRUE(server_->checkpoints().TakeProcessCheckpoint().ok());
  // The checkpoint records sit in the buffer; no publish yet.
  EXPECT_TRUE(server_->log().ReadWellKnownLsn().status().IsNotFound());
  // The next send's force flushes them, and the well-known file appears.
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  EXPECT_TRUE(server_->log().ReadWellKnownLsn().ok());
}

TEST_F(CheckpointTest, UnflushedCheckpointIsInvisibleAfterCrash) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*server_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(3)).ok());
  ASSERT_TRUE(server_->checkpoints().TakeProcessCheckpoint().ok());
  server_->Kill();  // checkpoint records die in the buffer
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 3);
}

TEST_F(CheckpointTest, LastCallRepliesWrittenBeforeStateSave) {
  // §4.2: a state save must first put referenced replies on the log so
  // post-restore duplicates can be answered.
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*server_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  CallMessage msg;
  msg.target_uri = *uri;
  msg.method = "Add";
  msg.args = MakeArgs(11);
  msg.has_call_id = true;
  msg.call_id = CallId{ClientKey{"ghost", 3, 3}, 1};
  msg.has_sender_info = true;
  msg.sender_kind = ComponentKind::kPersistent;
  ASSERT_TRUE(sim_->RouteCall("alpha", msg).ok());

  Context* ctx = server_->FindContextOfComponent("c");
  ASSERT_TRUE(server_->checkpoints().SaveContextState(*ctx).ok());
  const LastCallEntry* entry =
      server_->last_calls().Lookup(ClientKey{"ghost", 3, 3}, ctx->id());
  ASSERT_NE(entry, nullptr);
  EXPECT_NE(entry->reply_lsn, kInvalidLsn);

  // Saving again does not duplicate the reply record (LSN already known).
  uint64_t appends = server_->log().num_appends();
  ASSERT_TRUE(server_->checkpoints().SaveContextState(*ctx).ok());
  EXPECT_EQ(server_->log().num_appends(), appends + 1);  // just the state rec

  // After a crash+restore, the duplicate is answered from that reply LSN.
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());  // flush + commit
  int executions = ExecutionLog::Of("c.Add");
  server_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  Result<ReplyMessage> dup = sim_->RouteCall("alpha", msg);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->value.AsInt(), 11);
  EXPECT_EQ(ExecutionLog::Of("c.Add"), executions + 1);  // only the +1 replay
}

TEST_F(CheckpointTest, SubordinateStateRidesInContextRecord) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto parent = client.CreateComponent(*server_, "ParentWithSub", "p",
                                       ComponentKind::kPersistent, {});
  ASSERT_TRUE(client.Call(*parent, "BumpSub", MakeArgs(8)).ok());
  Context* ctx = server_->FindContextOfComponent("p");
  auto lsn = server_->checkpoints().SaveContextState(*ctx);
  ASSERT_TRUE(lsn.ok());

  // The record holds two component snapshots: parent + subordinate.
  ASSERT_TRUE(client.Call(*parent, "BumpSub", MakeArgs(1)).ok());  // flush
  Result<LogRecord> rec = ReadRecordAt(server_->log().StableLog(), *lsn);
  ASSERT_TRUE(rec.ok());
  const auto* state = std::get_if<ContextStateRecord>(&*rec);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->components.size(), 2u);

  int executions = ExecutionLog::Of("p_sub.Add");
  server_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(client.Call(*parent, "GetSub", {})->AsInt(), 9);
  // Only the post-state call replayed.
  EXPECT_EQ(ExecutionLog::Of("p_sub.Add"), executions + 1);
}

// §5.4's break-even with the default CostModel: 462 calls of replay cost
// more than one 60 ms state restore.
constexpr uint64_t kBreakEvenCalls = 462;

TEST_F(CheckpointTest, ReplayDebtSavesAContextUnderItsCadence) {
  // 40 calls per crash cycle never reach a cadence of 64 in one
  // incarnation; the replay debt carries across restarts and forces a
  // save past the break-even instead of growing for the whole run.
  RuntimeOptions opts;
  opts.save_context_state_every = 64;
  SetUpSim(opts);
  uint64_t saves = RunCrashCycles(20, 40, kBreakEvenCalls + 40);
  EXPECT_GE(saves, 1u);
}

TEST_F(CheckpointTest, CadenceMetEveryCycleSavesAtTheCadence) {
  // 30 calls per cycle against a cadence of 16: one cadence save per
  // incarnation, and the debt never nears the break-even.
  RuntimeOptions opts;
  opts.save_context_state_every = 16;
  SetUpSim(opts);
  EXPECT_EQ(RunCrashCycles(10, 30, 30), 10u);
}

TEST_F(CheckpointTest, NoCadenceNoDebtSaves) {
  // Saves that are off stay off: the debt grows past the break-even with
  // no save at all.
  SetUpSim();
  EXPECT_EQ(RunCrashCycles(25, 40, 1000), 0u);
  EXPECT_EQ(server_->FindContextOfComponent("c")->calls_since_origin(),
            1000u);
}

TEST_F(CheckpointTest, ReplayDebtEqualsReplayedCallsAndResetsAtNewOrigin) {
  for (uint32_t sessions : {1u, 4u}) {
    RuntimeOptions opts;
    opts.parallel_replay = sessions > 1;
    opts.parallel_replay_sessions = sessions;
    SetUpSim(opts);
    ExternalClient client(sim_.get(), "alpha");
    std::vector<std::string> names = {"a", "b", "c"};
    std::vector<std::string> uris;
    for (const std::string& name : names) {
      auto uri = client.CreateComponent(*server_, "Counter", name,
                                        ComponentKind::kPersistent, {});
      ASSERT_TRUE(uri.ok());
      uris.push_back(*uri);
    }
    // Different call counts per context; "b" saves after its first 5.
    for (size_t k = 0; k < uris.size(); ++k) {
      for (size_t i = 0; i < 5 * (k + 1); ++i) {
        ASSERT_TRUE(client.Call(uris[k], "Add", MakeArgs(1)).ok());
      }
      Context* ctx = server_->FindContextOfComponent(names[k]);
      EXPECT_EQ(ctx->calls_since_origin(), 5 * (k + 1));
      if (names[k] == "b") {
        ASSERT_TRUE(server_->checkpoints().SaveContextState(*ctx).ok());
        EXPECT_EQ(ctx->calls_since_origin(), 0u);
        for (int i = 0; i < 3; ++i) {
          ASSERT_TRUE(client.Call(uris[k], "Add", MakeArgs(1)).ok());
        }
      }
    }

    std::map<std::string, int> executions;
    for (const std::string& name : names) {
      executions[name] = ExecutionLog::Of(name + ".Add");
    }
    server_->Kill();
    ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
    for (const std::string& name : names) {
      Context* ctx = server_->FindContextOfComponent(name);
      uint64_t replayed = static_cast<uint64_t>(
          ExecutionLog::Of(name + ".Add") - executions[name]);
      EXPECT_EQ(ctx->calls_since_origin(), replayed)
          << name << " sessions=" << sessions;
    }
    EXPECT_EQ(server_->FindContextOfComponent("b")->calls_since_origin(), 3u);

    // A relogged creation record (RelogOrigin's copy) is a new origin too.
    Context* a = server_->FindContextOfComponent("a");
    EXPECT_EQ(a->calls_since_origin(), 5u);
    a->set_creation_lsn(a->creation_lsn());
    EXPECT_EQ(a->calls_since_origin(), 0u);
  }
}

TEST_F(CheckpointTest, CrashDuringCheckpointIsHarmless) {
  RuntimeOptions opts;
  opts.inject_failures_during_recovery = false;
  SetUpSim(opts);
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*server_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(5)).ok());
  sim_->injector().AddTrigger("alpha", 1, FailurePoint::kDuringCheckpoint, 1);
  EXPECT_TRUE(
      server_->checkpoints().TakeProcessCheckpoint().status().IsCrashed());
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 5);
}

}  // namespace
}  // namespace phoenix
