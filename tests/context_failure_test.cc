// §4.4's "easier" case: a single context fails inside a healthy process.
// The surviving context table entry points straight at the state (or
// creation) record; the unforced log tail is NOT lost. Every case runs on a
// single log and on 2 and 4 WAL shards, where recovery reads the context's
// own shard.

#include <gtest/gtest.h>

#include <variant>

#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_manager.h"
#include "tests/test_components.h"
#include "wal/shard_router.h"

namespace phoenix {
namespace {

using phoenix::testing::ExecutionLog;
using phoenix::testing::PayloadLsn;
using phoenix::testing::RegisterTestComponents;

constexpr uint32_t kShardCounts[] = {1, 2, 4};

class ContextFailureTest : public ::testing::Test {
 protected:
  void SetUpSim(uint32_t shards) {
    RuntimeOptions opts;
    opts.wal_shards = shards;
    sim_ = std::make_unique<Simulation>(opts);
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
    ExecutionLog::Reset();
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
};

TEST_F(ContextFailureTest, RecoverFromCreation) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE(StrCat(shards, " shard(s)"));
    SetUpSim(shards);
    ExternalClient client(sim_.get(), "alpha");
    auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                      ComponentKind::kPersistent, {});
    for (int i = 1; i <= 4; ++i) {
      ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(i)).ok());
    }
    Context* ctx = proc_->FindContextOfComponent("c");
    uint64_t context_id = ctx->id();

    ctx->ClearMembers();
    ASSERT_TRUE(RecoverContextFailure(proc_, context_id).ok());
    EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 10);
    EXPECT_TRUE(proc_->alive());  // the process never died
  }
}

TEST_F(ContextFailureTest, RecoverFromStateRecord) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE(StrCat(shards, " shard(s)"));
    SetUpSim(shards);
    ExternalClient client(sim_.get(), "alpha");
    auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                      ComponentKind::kPersistent, {});
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
    }
    Context* ctx = proc_->FindContextOfComponent("c");
    ASSERT_TRUE(proc_->checkpoints().SaveContextState(*ctx).ok());
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());

    int executions = ExecutionLog::Of("c.Add");
    ctx->ClearMembers();
    ASSERT_TRUE(RecoverContextFailure(proc_, ctx->id()).ok());
    // Only the two post-state calls replayed.
    EXPECT_EQ(ExecutionLog::Of("c.Add"), executions + 2);
    EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 8);
  }
}

TEST_F(ContextFailureTest, UnforcedTailSurvivesContextFailure) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE(StrCat(shards, " shard(s)"));
    SetUpSim(shards);
    // Unlike a process crash, a context failure keeps the log buffer — a
    // call whose records were never forced is still recovered.
    ExternalClient client(sim_.get(), "alpha");
    auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                      ComponentKind::kPersistent, {});

    // Run one call, then save the context state WITHOUT any force: the
    // state record exists only in the process's log buffer. Context
    // recovery must still find it there.
    CallMessage msg;
    msg.target_uri = *uri;
    msg.method = "Add";
    msg.args = MakeArgs(100);
    msg.has_call_id = true;
    msg.call_id = CallId{ClientKey{"ghost", 9, 9}, 1};
    msg.has_sender_info = true;
    msg.sender_kind = ComponentKind::kPersistent;
    ASSERT_TRUE(sim_->RouteCall("alpha", msg).ok());

    Context* ctx = proc_->FindContextOfComponent("c");
    ASSERT_TRUE(proc_->checkpoints().SaveContextState(*ctx).ok());
    ASSERT_FALSE(proc_->log().IsStable(ctx->state_record_lsn()));
    // On 4 shards the context routes to shard 2, so its origin lives only
    // in a non-meta shard's buffer.
    if (shards == 4) {
      EXPECT_NE(ShardOfLsn(ctx->state_record_lsn()), 0u);
    }

    int executions = ExecutionLog::Of("c.Add");
    ctx->ClearMembers();
    ASSERT_TRUE(RecoverContextFailure(proc_, ctx->id()).ok());
    EXPECT_EQ(ExecutionLog::Of("c.Add"), executions);  // restored, no replay
    EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 100);
  }
}

TEST_F(ContextFailureTest, OtherContextsUntouched) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE(StrCat(shards, " shard(s)"));
    SetUpSim(shards);
    ExternalClient client(sim_.get(), "alpha");
    auto a = client.CreateComponent(*proc_, "Counter", "a",
                                    ComponentKind::kPersistent, {});
    auto b = client.CreateComponent(*proc_, "Counter", "b",
                                    ComponentKind::kPersistent, {});
    ASSERT_TRUE(client.Call(*a, "Add", MakeArgs(1)).ok());
    ASSERT_TRUE(client.Call(*b, "Add", MakeArgs(2)).ok());

    Context* ctx_a = proc_->FindContextOfComponent("a");
    Component* b_instance = proc_->FindComponent("b")->instance.get();
    ctx_a->ClearMembers();
    ASSERT_TRUE(RecoverContextFailure(proc_, ctx_a->id()).ok());

    // b's component object is literally the same instance.
    EXPECT_EQ(proc_->FindComponent("b")->instance.get(), b_instance);
    EXPECT_EQ(client.Call(*a, "Get", {})->AsInt(), 1);
    EXPECT_EQ(client.Call(*b, "Get", {})->AsInt(), 2);
  }
}

TEST_F(ContextFailureTest, LocalCallerWithoutAChainInThePlan) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE(StrCat(shards, " shard(s)"));
    SetUpSim(shards);
    // leaf's Adds come from mid, a local caller. Recovering leaf alone
    // plans leaf's chain only: its calls name a caller with no chain in the
    // plan, so they depend on nothing, and mid is neither replayed nor
    // touched.
    ExternalClient client(sim_.get(), "alpha");
    auto leaf = client.CreateComponent(*proc_, "Counter", "leaf",
                                       ComponentKind::kPersistent, {});
    auto mid = client.CreateComponent(*proc_, "Chain", "mid",
                                      ComponentKind::kPersistent,
                                      MakeArgs(*leaf));
    ASSERT_TRUE(leaf.ok() && mid.ok());
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(client.Call(*mid, "Bump", MakeArgs(i)).ok());
    }
    Context* ctx = proc_->FindContextOfComponent("leaf");
    Component* mid_instance = proc_->FindComponent("mid")->instance.get();
    int adds = ExecutionLog::Of("leaf.Add");
    int bumps = ExecutionLog::Of("mid.Bump");

    ctx->ClearMembers();
    ASSERT_TRUE(RecoverContextFailure(proc_, ctx->id()).ok());
    EXPECT_EQ(
        sim_->metrics().CounterTotal("phoenix.recovery.replay.chains"), 1u);
    EXPECT_EQ(ExecutionLog::Of("leaf.Add"), adds + 3);  // replayed
    EXPECT_EQ(ExecutionLog::Of("mid.Bump"), bumps);
    EXPECT_EQ(proc_->FindComponent("mid")->instance.get(), mid_instance);
    EXPECT_EQ(client.Call(*leaf, "Get", {})->AsInt(), 6);
    EXPECT_EQ(client.Call(*mid, "Get", {})->AsInt(), 6);
  }
}

TEST_F(ContextFailureTest, LostReplyLiveCallIsAnsweredByItsCallee) {
  // mid's logged reply from leaf's Add(1) bit-rots. Recovering mid alone
  // replays its Bump(1) into a live call to leaf, which is not recovering
  // and has already served that call id and mid's later ones: leaf does
  // not execute it again. (One log: a stable-log walk places the rot.)
  SetUpSim(1);
  ExternalClient client(sim_.get(), "alpha");
  auto leaf = client.CreateComponent(*proc_, "Counter", "leaf",
                                     ComponentKind::kPersistent, {});
  auto mid = client.CreateComponent(*proc_, "Chain", "mid",
                                    ComponentKind::kPersistent,
                                    MakeArgs(*leaf));
  ASSERT_TRUE(leaf.ok() && mid.ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(client.Call(*mid, "Bump", MakeArgs(i)).ok());
  }
  Context* ctx = proc_->FindContextOfComponent("mid");
  uint64_t rotted = kInvalidLsn;
  LogView stable = proc_->log().StableView();
  LogReader reader(stable, proc_->log().head_base());
  while (auto parsed = reader.Next()) {
    const auto* reply = std::get_if<ReplyReceivedRecord>(&parsed->record);
    if (reply != nullptr && reply->context_id == ctx->id()) {
      rotted = parsed->lsn;
      break;
    }
  }
  ASSERT_NE(rotted, kInvalidLsn);
  sim_->storage().CorruptLog(proc_->log_name(),
                             PayloadLsn(proc_->log(), rotted),
                             /*flip_count=*/2);
  int adds = ExecutionLog::Of("leaf.Add");

  ctx->ClearMembers();
  ASSERT_TRUE(RecoverContextFailure(proc_, ctx->id()).ok());
  EXPECT_EQ(ExecutionLog::Of("leaf.Add"), adds);
  EXPECT_EQ(client.Call(*leaf, "Get", {})->AsInt(), 6);
  EXPECT_EQ(client.Call(*mid, "Get", {})->AsInt(), 6);
}

TEST_F(ContextFailureTest, SubordinatesComeBackWithParent) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE(StrCat(shards, " shard(s)"));
    SetUpSim(shards);
    ExternalClient client(sim_.get(), "alpha");
    auto parent = client.CreateComponent(*proc_, "ParentWithSub", "p",
                                         ComponentKind::kPersistent, {});
    ASSERT_TRUE(client.Call(*parent, "BumpSub", MakeArgs(7)).ok());
    Context* ctx = proc_->FindContextOfComponent("p");

    ctx->ClearMembers();
    ASSERT_TRUE(RecoverContextFailure(proc_, ctx->id()).ok());
    EXPECT_EQ(client.Call(*parent, "GetSub", {})->AsInt(), 7);
  }
}

TEST_F(ContextFailureTest, UnknownContextIsNotFound) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE(StrCat(shards, " shard(s)"));
    SetUpSim(shards);
    EXPECT_TRUE(RecoverContextFailure(proc_, 999).IsNotFound());
  }
}

TEST_F(ContextFailureTest, DuplicatesStillAnsweredAfterContextRecovery) {
  for (uint32_t shards : kShardCounts) {
    SCOPED_TRACE(StrCat(shards, " shard(s)"));
    SetUpSim(shards);
    ExternalClient client(sim_.get(), "alpha");
    auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                      ComponentKind::kPersistent, {});
    CallMessage msg;
    msg.target_uri = *uri;
    msg.method = "Add";
    msg.args = MakeArgs(42);
    msg.has_call_id = true;
    msg.call_id = CallId{ClientKey{"ghost", 9, 9}, 7};
    msg.has_sender_info = true;
    msg.sender_kind = ComponentKind::kPersistent;
    ASSERT_TRUE(sim_->RouteCall("alpha", msg).ok());

    Context* ctx = proc_->FindContextOfComponent("c");
    ctx->ClearMembers();
    ASSERT_TRUE(RecoverContextFailure(proc_, ctx->id()).ok());

    int executions = ExecutionLog::Of("c.Add");
    Result<ReplyMessage> dup = sim_->RouteCall("alpha", msg);
    ASSERT_TRUE(dup.ok());
    EXPECT_EQ(dup->value.AsInt(), 42);
    EXPECT_EQ(ExecutionLog::Of("c.Add"), executions);  // deduped
  }
}

}  // namespace
}  // namespace phoenix
