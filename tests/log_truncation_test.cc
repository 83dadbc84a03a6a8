// Log-head garbage collection: checkpoints bound how much log recovery can
// ever read, so everything older is reclaimable — and recovery from a
// truncated log must behave identically.

#include <gtest/gtest.h>

#include <map>

#include "bookstore/setup.h"
#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"
#include "wal/log_reader.h"

namespace phoenix {
namespace {

using phoenix::testing::RegisterTestComponents;

class LogTruncationTest : public ::testing::Test {
 protected:
  void SetUpSim(RuntimeOptions opts = {}) {
    sim_ = std::make_unique<Simulation>(opts);
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
  }

  // Creates a counter, runs `calls` adds, saves state + checkpoint, runs
  // two more adds (whose force publishes the checkpoint).
  Result<std::string> BuildWorkload(int calls) {
    ExternalClient client(sim_.get(), "alpha");
    PHX_ASSIGN_OR_RETURN(std::string uri,
                         client.CreateComponent(*proc_, "Counter", "c",
                                                ComponentKind::kPersistent,
                                                {}));
    for (int i = 0; i < calls; ++i) {
      PHX_RETURN_IF_ERROR(client.Call(uri, "Add", MakeArgs(1)).status());
    }
    Context* ctx = proc_->FindContextOfComponent("c");
    PHX_RETURN_IF_ERROR(
        proc_->checkpoints().SaveContextState(*ctx).status());
    PHX_RETURN_IF_ERROR(
        proc_->checkpoints().TakeProcessCheckpoint().status());
    PHX_RETURN_IF_ERROR(client.Call(uri, "Add", MakeArgs(1)).status());
    PHX_RETURN_IF_ERROR(client.Call(uri, "Add", MakeArgs(1)).status());
    return uri;
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
};

TEST_F(LogTruncationTest, NothingReclaimableBeforeFirstCheckpoint) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  EXPECT_EQ(proc_->checkpoints().GarbageCollect(), 0u);
  EXPECT_EQ(proc_->log().head_base(), 0u);
}

TEST_F(LogTruncationTest, GcReclaimsPreCheckpointRecords) {
  SetUpSim();
  ASSERT_TRUE(BuildWorkload(20).ok());
  uint64_t size_before = proc_->log().StableLog().size();
  uint64_t next_before = proc_->log().next_lsn();
  uint64_t reclaimed = proc_->checkpoints().GarbageCollect();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_EQ(proc_->log().head_base(), reclaimed);
  EXPECT_LT(proc_->log().StableLog().size(), size_before);
  // LSNs are logical: truncation does not move them.
  EXPECT_EQ(proc_->log().next_lsn(), next_before);
}

TEST_F(LogTruncationTest, RecoveryAfterGcIsExact) {
  SetUpSim();
  auto uri = BuildWorkload(15);
  ASSERT_TRUE(uri.ok());
  ASSERT_GT(proc_->checkpoints().GarbageCollect(), 0u);

  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  ExternalClient client(sim_.get(), "alpha");
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 17);
}

TEST_F(LogTruncationTest, GcKeepsLiveLastCallReplies) {
  // A persistent client's last-call reply record written before the state
  // save must survive GC: a duplicate may still need it after recovery.
  SetUpSim();
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
  ASSERT_TRUE(proc_->checkpoints().SaveContextState(*ctx).ok());
  ASSERT_TRUE(proc_->checkpoints().TakeProcessCheckpoint().ok());
  ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());  // publish

  uint64_t reply_lsn =
      proc_->last_calls().Lookup(ClientKey{"ghost", 9, 9}, ctx->id())
          ->reply_lsn;
  ASSERT_NE(reply_lsn, kInvalidLsn);
  proc_->checkpoints().GarbageCollect();
  EXPECT_LE(proc_->log().head_base(), reply_lsn);  // kept

  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  Result<ReplyMessage> dup = sim_->RouteCall("alpha", msg);
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->value.AsInt(), 42);
}

TEST_F(LogTruncationTest, AutoTruncateOnPublish) {
  RuntimeOptions opts;
  opts.auto_truncate_log = true;
  opts.save_context_state_every = 10;
  opts.process_checkpoint_every = 20;
  SetUpSim(opts);
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  EXPECT_GT(proc_->log().head_base(), 0u);  // GC happened along the way

  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  EXPECT_EQ(client.Call(*uri, "Get", {})->AsInt(), 60);
}

TEST_F(LogTruncationTest, ReadBelowBaseIsCorruption) {
  SetUpSim();
  ASSERT_TRUE(BuildWorkload(10).ok());
  ASSERT_GT(proc_->checkpoints().GarbageCollect(), 0u);
  EXPECT_TRUE(
      ReadRecordAt(proc_->log().StableView(), 0).status().IsCorruption());
}

TEST_F(LogTruncationTest, TrimIsMonotoneAndIdempotent) {
  SetUpSim();
  ASSERT_TRUE(BuildWorkload(10).ok());
  uint64_t first = proc_->checkpoints().GarbageCollect();
  ASSERT_GT(first, 0u);
  // Second run with no new checkpoint reclaims nothing further.
  EXPECT_EQ(proc_->checkpoints().GarbageCollect(), 0u);
  // Trimming backwards is a no-op.
  proc_->log().TrimHead(0);
  EXPECT_EQ(proc_->log().head_base(), first);
}


// The save cadence counts logged calls only, so the bookstore's read-only
// price grabber and functional tax calculator never save state on their
// own. With auto_truncate_log on, each checkpoint re-saves the ones whose
// origin precedes the published checkpoint, and the log head follows the
// checkpoint past their creation records.
class StatelessOriginTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static constexpr int kRounds = 150;
  static constexpr const char* kBuyers[] = {"ann", "ben", "cat"};

  static RuntimeOptions ShopOptions(bool truncate, uint32_t save_every) {
    RuntimeOptions opts =
        bookstore::OptionsForLevel(bookstore::OptLevel::kSpecialized);
    opts.save_context_state_every = save_every;
    opts.process_checkpoint_every = 50;
    opts.auto_truncate_log = truncate;
    opts.wal_shards = GetParam();
    return opts;
  }

  void Deploy(const RuntimeOptions& opts) {
    sim_ = std::make_unique<Simulation>(opts);
    bookstore::RegisterBookstoreComponents(sim_->factories());
    sim_->AddMachine("client");
    server_ = &sim_->AddMachine("server");
    deployment_ = bookstore::Deploy(*sim_, *server_, 2,
                                    bookstore::OptLevel::kSpecialized)
                      .value();
    buyer_ = std::make_unique<ExternalClient>(sim_.get(), "client");
    acked_.clear();
    // Deep stock so no reservation can oversell.
    for (const std::string& store : deployment_.store_uris) {
      for (int64_t book = 1; book <= 10; ++book) {
        ASSERT_TRUE(
            buyer_->Call(store, "Restock", MakeArgs(book, int64_t{10000}))
                .ok());
      }
    }
  }

  // Each round: one buyer searches, adds a book, and prices the basket
  // with and without tax — touching the read-only and functional contexts
  // between logged calls.
  void Shop() {
    for (int r = 0; r < kRounds; ++r) {
      std::string buyer = kBuyers[r % 3];
      ASSERT_TRUE(buyer_
                      ->Call(deployment_.grabber_uri, "Search",
                             MakeArgs(std::string("recovery")))
                      .ok());
      ASSERT_TRUE(buyer_
                      ->Call(deployment_.seller_uri, "AddToBasket",
                             MakeArgs(buyer, deployment_.store_uris[r % 2],
                                      int64_t{r % 10 + 1}))
                      .ok());
      ++acked_[buyer];
      Result<Value> subtotal = buyer_->Call(deployment_.seller_uri,
                                            "BasketSubtotal", MakeArgs(buyer));
      ASSERT_TRUE(subtotal.ok());
      ASSERT_TRUE(buyer_
                      ->Call(deployment_.tax_uri, "TotalWithTax",
                             MakeArgs(subtotal->AsDouble(), "WA"))
                      .ok());
    }
  }

  // Basket contents, subtotal and taxed total, per buyer.
  std::vector<Value> Observe() {
    std::vector<Value> out;
    for (const char* buyer : kBuyers) {
      out.push_back(
          buyer_->Call(deployment_.seller_uri, "ShowBasket", MakeArgs(buyer))
              .value());
      Value subtotal = buyer_
                           ->Call(deployment_.seller_uri, "BasketSubtotal",
                                  MakeArgs(buyer))
                           .value();
      out.push_back(subtotal);
      out.push_back(buyer_
                        ->Call(deployment_.tax_uri, "TotalWithTax",
                               MakeArgs(subtotal.AsDouble(), "WA"))
                        .value());
    }
    return out;
  }

  void KillAndRecover() {
    server().Kill();
    ASSERT_TRUE(
        server_->recovery_service().EnsureProcessAlive(server().pid()).ok());
  }

  Process& server() { return *deployment_.server_process; }
  uint64_t UnpinSaves() const {
    return sim_->metrics().CounterTotal("phoenix.checkpoint.unpin_saves");
  }

  std::unique_ptr<Simulation> sim_;
  Machine* server_ = nullptr;
  bookstore::Deployment deployment_;
  std::unique_ptr<ExternalClient> buyer_;
  std::map<std::string, size_t> acked_;
};

TEST_P(StatelessOriginTest, LogHeadPassesStatelessCreationRecords) {
  // Twin without truncation: the same calls, and no unpin save at all.
  ASSERT_NO_FATAL_FAILURE(Deploy(ShopOptions(false, 50)));
  ASSERT_NO_FATAL_FAILURE(Shop());
  ASSERT_NO_FATAL_FAILURE(KillAndRecover());
  std::vector<Value> twin = Observe();
  EXPECT_EQ(UnpinSaves(), 0u);
  EXPECT_EQ(server().FindContextOfComponent("grabber")->state_record_lsn(),
            kInvalidLsn);

  ASSERT_NO_FATAL_FAILURE(Deploy(ShopOptions(true, 50)));
  std::vector<uint64_t> created = {
      server().FindContextOfComponent("grabber")->creation_lsn(),
      server().FindContextOfComponent("tax")->creation_lsn()};
  ASSERT_NO_FATAL_FAILURE(Shop());
  EXPECT_GE(server().checkpoints().checkpoints_published(), 2u);
  EXPECT_GT(UnpinSaves(), 0u);
  for (uint64_t lsn : created) {
    EXPECT_GT(server().log().shard_head_base(ShardOfLsn(lsn)),
              LocalOfLsn(lsn));
  }

  ASSERT_NO_FATAL_FAILURE(KillAndRecover());
  for (const char* name : {"grabber", "tax"}) {
    Context* ctx = server().FindContextOfComponent(name);
    ASSERT_NE(ctx, nullptr);
    EXPECT_NE(ctx->state_record_lsn(), kInvalidLsn) << name;
  }
  EXPECT_EQ(Observe(), twin);
}

TEST_P(StatelessOriginTest, CrashDuringStatelessSaveConverges) {
  // No save cadence: the only state saves are the checkpoints' unpin saves,
  // so the first kDuringStateSave hit is inside one of them.
  ASSERT_NO_FATAL_FAILURE(Deploy(ShopOptions(true, 0)));
  sim_->injector().AddTrigger("server", server().pid(),
                              FailurePoint::kDuringStateSave);
  ASSERT_NO_FATAL_FAILURE(Shop());  // external retries restart the server
  EXPECT_EQ(sim_->injector().crashes_fired(), 1u);
  EXPECT_GT(UnpinSaves(), 0u);  // later checkpoints saved past the crash

  // No acknowledged add is lost; the call in flight at the crash may land
  // twice (an external caller's §3.1.2 window).
  size_t items = 0;
  size_t acked = 0;
  for (const char* buyer : kBuyers) {
    size_t basket = buyer_->Call(deployment_.seller_uri, "ShowBasket",
                                 MakeArgs(buyer))
                        ->AsList()
                        .size();
    EXPECT_GE(basket, acked_[buyer]) << buyer;
    items += basket;
    acked += acked_[buyer];
  }
  EXPECT_LE(items, acked + 1);

  std::vector<Value> before = Observe();
  ASSERT_NO_FATAL_FAILURE(KillAndRecover());
  EXPECT_EQ(Observe(), before);
}

INSTANTIATE_TEST_SUITE_P(WalShards, StatelessOriginTest,
                         ::testing::Values(1u, 2u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return StrCat("shards", info.param);
                         });

}  // namespace
}  // namespace phoenix
