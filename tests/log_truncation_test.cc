// Log-head garbage collection: checkpoints bound how much log recovery can
// ever read, so everything older is reclaimable — and recovery from a
// truncated log must behave identically.

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bookstore/setup.h"
#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"
#include "wal/log_dump.h"
#include "wal/log_reader.h"
#include "wal/merged_log_reader.h"

namespace phoenix {
namespace {

using phoenix::testing::ExecutionLog;
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

// Force marks live as long as the bytes they cover. After each
// checkpoint/truncate cycle a writer keeps exactly the marks of the forces
// that end at or past its head, and a dump with them is byte-identical to
// one with every mark ever made (the dump elides marks below the head).
TEST_F(LogTruncationTest, ForceMarksTrimWithTheHead) {
  constexpr int kCycles = 6;
  for (uint32_t shards : {1u, 2u}) {
    RuntimeOptions opts;
    opts.wal_shards = shards;
    SetUpSim(opts);
    ExternalClient client(sim_.get(), "alpha");
    std::vector<std::string> uris;
    for (const char* name : {"c0", "c1", "c2"}) {
      auto uri = client.CreateComponent(*proc_, "Counter", name,
                                        ComponentKind::kPersistent, {});
      ASSERT_TRUE(uri.ok());
      uris.push_back(*uri);
    }
    LogManager& log = proc_->log();
    // Every force each shard ever made, as an untrimmed writer keeps them.
    // Forces happen only inside calls and trims only in GarbageCollect, so
    // collecting before each trim sees them all.
    std::vector<std::vector<ForceMark>> forced(shards);
    auto collect = [&] {
      for (uint32_t s = 0; s < shards; ++s) {
        for (const ForceMark& mark : log.shard_force_marks(s)) {
          if (forced[s].empty() ||
              mark.start_lsn >= forced[s].back().end_lsn) {
            forced[s].push_back(mark);
          }
        }
      }
    };
    auto dump = [&](bool untrimmed) {
      std::string out;
      for (uint32_t s = 0; s < shards; ++s) {
        out += DumpLog(log.ShardStableView(s),
                       untrimmed ? forced[s] : log.shard_force_marks(s));
      }
      return out;
    };

    uint64_t reclaimed = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(
            client.Call(uris[i % uris.size()], "Add", MakeArgs(1)).ok());
      }
      for (const char* name : {"c0", "c1", "c2"}) {
        ASSERT_TRUE(proc_->checkpoints()
                        .SaveContextState(*proc_->FindContextOfComponent(name))
                        .ok());
      }
      ASSERT_TRUE(proc_->checkpoints().TakeProcessCheckpoint().ok());
      // The next call's force publishes the checkpoint.
      ASSERT_TRUE(client.Call(uris[0], "Add", MakeArgs(1)).ok());
      collect();
      reclaimed += proc_->checkpoints().GarbageCollect();

      size_t forced_total = 0;
      for (uint32_t s = 0; s < shards; ++s) {
        forced_total += forced[s].size();
        uint64_t head = log.shard_head_base(s);
        std::vector<ForceMark> retained;
        for (const ForceMark& mark : forced[s]) {
          if (mark.end_lsn >= head) retained.push_back(mark);
        }
        const std::vector<ForceMark>& kept = log.shard_force_marks(s);
        ASSERT_EQ(kept.size(), retained.size())
            << shards << " shard(s), shard " << s << ", cycle " << cycle;
        for (size_t m = 0; m < kept.size(); ++m) {
          EXPECT_EQ(kept[m].start_lsn, retained[m].start_lsn);
          EXPECT_EQ(kept[m].end_lsn, retained[m].end_lsn);
          EXPECT_EQ(kept[m].reason, retained[m].reason);
        }
      }
      EXPECT_EQ(forced_total, log.num_forces());
      EXPECT_EQ(dump(/*untrimmed=*/false), dump(/*untrimmed=*/true))
          << shards << " shard(s), cycle " << cycle;
    }
    EXPECT_EQ(proc_->checkpoints().checkpoints_published(),
              static_cast<uint64_t>(kCycles));
    EXPECT_GT(reclaimed, 0u);
    // The head moved, so the writer really dropped marks.
    EXPECT_LT(log.force_marks().size(), forced[0].size())
        << shards << " shard(s)";
  }
}

// The whole-log dump: a single log is one plain listing — no gsn column, no
// shard headers, no merge view — and a sharded one lists each shard, then
// merges every record exactly once in ascending gsn order.
TEST_F(LogTruncationTest, DumpListsEachShardThenMergesByGsn) {
  for (uint32_t shards : {1u, 2u}) {
    RuntimeOptions opts;
    opts.wal_shards = shards;
    SetUpSim(opts);
    ASSERT_TRUE(BuildWorkload(6).ok());
    ExternalClient client(sim_.get(), "alpha");
    auto other = client.CreateComponent(*proc_, "Counter", "d",
                                        ComponentKind::kPersistent, {});
    ASSERT_TRUE(other.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(client.Call(*other, "Add", MakeArgs(1)).ok());
    }
    LogManager& log = proc_->log();
    log.Force();
    std::string dump = DumpLog(log);

    uint64_t records = 0;
    std::vector<uint64_t> per_shard(shards, 0);
    OrderedLogCursor cursor(log, log.head_order());
    while (std::optional<OrderedRecord> rec = cursor.Next()) {
      ++records;
      ++per_shard[rec->shard];
    }

    if (shards == 1) {
      EXPECT_EQ(dump, DumpLog(log.StableView(), log.force_marks()));
      EXPECT_EQ(dump.find("gsn"), std::string::npos) << dump;
      EXPECT_EQ(dump.find("---"), std::string::npos) << dump;
      continue;
    }
    for (uint32_t s = 0; s < shards; ++s) {
      // Every shard holds records, so the merge really interleaves.
      ASSERT_GT(per_shard[s], 0u) << "shard " << s;
      std::string header = StrCat("--- shard ", s, ": ",
                                  log.shard_log_name(s), " ---\n");
      size_t at = dump.find(header);
      ASSERT_NE(at, std::string::npos) << dump;
      EXPECT_NE(dump.find(DumpLog(log.ShardStableView(s),
                                  log.shard_force_marks(s)),
                          at + header.size()),
                std::string::npos)
          << dump;
    }
    const std::string kMerge = "--- merge view (by gsn) ---\n";
    size_t merge = dump.find(kMerge);
    ASSERT_NE(merge, std::string::npos) << dump;
    std::vector<uint64_t> gsns;
    size_t line = merge + kMerge.size();
    while (line < dump.size()) {
      size_t end = dump.find('\n', line);
      std::string text = dump.substr(line, end - line);
      ASSERT_EQ(text.rfind("  gsn ", 0), 0u) << text;
      gsns.push_back(std::stoull(text.substr(6)));
      line = end + 1;
    }
    EXPECT_EQ(gsns.size(), records);
    for (size_t i = 1; i < gsns.size(); ++i) {
      EXPECT_LT(gsns[i - 1], gsns[i]) << "line " << i;
    }
  }
}

// Tail salvage drops the marks past the new stable end, so a force made
// after the truncation still shows in the dump: a stale mark ending past
// the cut no longer hides it.
TEST_F(LogTruncationTest, TailTruncationDropsForceMarksPastTheCut) {
  SetUpSim();
  ExternalClient client(sim_.get(), "alpha");
  auto uri = client.CreateComponent(*proc_, "Counter", "c",
                                    ComponentKind::kPersistent, {});
  ASSERT_TRUE(uri.ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.Call(*uri, "Add", MakeArgs(1)).ok());
  }
  LogManager& log = proc_->log();
  log.Force();
  std::vector<ForceMark> before = log.force_marks();
  ASSERT_GE(before.size(), 4u);
  // Cut at a force boundary in the middle: the frames before it stay whole.
  size_t keep = before.size() / 2;
  uint64_t cut = before[keep].start_lsn;
  log.TruncateStableTail(cut);
  ASSERT_EQ(log.stable_end_lsn(), cut);
  ASSERT_EQ(log.force_marks().size(), keep);
  for (const ForceMark& mark : log.force_marks()) {
    EXPECT_LE(mark.end_lsn, log.stable_end_lsn());
  }

  log.Append(IncomingCallRecord{});
  log.Force(ForcePoint::kManual);
  ASSERT_EQ(log.force_marks().size(), keep + 1);
  EXPECT_EQ(log.force_marks().back().start_lsn, cut);
  std::string dumped = DumpLog(log.StableView(), log.force_marks());
  EXPECT_NE(dumped.find(StrCat("(forced up to lsn ",
                               log.force_marks().back().end_lsn, ": ")),
            std::string::npos)
      << dumped;
}


// Read-only and functional components that count their creation calls, so
// a test can tell how often recovery constructed them.
class CountedProber : public phoenix::testing::Prober {
 public:
  Status Initialize(const ArgList&) override {
    ExecutionLog::Bump(name() + ".Initialize");
    return Status::OK();
  }
};

class CountedSquarer : public phoenix::testing::Squarer {
 public:
  Status Initialize(const ArgList&) override {
    ExecutionLog::Bump(name() + ".Initialize");
    return Status::OK();
  }
};

// Read-only component whose creation calls out: Initialize([counter_uri])
// reads the counter once and keeps the value. Stateless clients log no
// replies, so replaying that Initialize would read the counter anew.
class PrimedProber : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Primed",
                     [this](const ArgList&) -> Result<Value> {
                       return Value(primed_);
                     });
  }
  void RegisterFields(FieldRegistry& fields) override {
    fields.RegisterInt("primed", &primed_);
  }
  Status Initialize(const ArgList& args) override {
    PHX_ASSIGN_OR_RETURN(Value seen, Call(args[0].AsString(), "Get", {}));
    primed_ = seen.AsInt();
    return Status::OK();
  }

 private:
  int64_t primed_ = 0;
};

// The save cadence counts logged calls only, so the bookstore's read-only
// price grabber and functional tax calculator never save state on their
// own. With auto_truncate_log on, each checkpoint relogs the creation
// record of the ones whose origin precedes the published checkpoint, and
// the log head follows the checkpoint past the originals.
class StatelessOriginTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  static constexpr int kRounds = 150;
  static constexpr const char* kBuyers[] = {"ann", "ben", "cat"};

  static RuntimeOptions ShopOptions(bool truncate) {
    RuntimeOptions opts =
        bookstore::OptionsForLevel(bookstore::OptLevel::kSpecialized);
    opts.save_context_state_every = 50;
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
    server_process_ = deployment_.server_process;
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

  // A one-process deployment of the test components, with a checkpoint
  // every 5 logged calls and no save cadence.
  void DeployTestComponents(RuntimeOptions opts = {}) {
    opts.process_checkpoint_every = 5;
    opts.auto_truncate_log = true;
    opts.wal_shards = GetParam();
    sim_ = std::make_unique<Simulation>(opts);
    RegisterTestComponents(sim_->factories());
    sim_->factories().Register<CountedProber>("CountedProber");
    sim_->factories().Register<CountedSquarer>("CountedSquarer");
    sim_->factories().Register<PrimedProber>("PrimedProber");
    server_ = &sim_->AddMachine("server");
    server_process_ = &server_->CreateProcess();
    buyer_ = std::make_unique<ExternalClient>(sim_.get(), "server");
    ExecutionLog::Reset();
  }

  // Each round: one buyer searches, adds a book, and prices the basket
  // with and without tax — touching the read-only and functional contexts
  // between logged calls.
  void ShopRound(int r) {
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

  void Shop() {
    for (int r = 0; r < kRounds; ++r) ASSERT_NO_FATAL_FAILURE(ShopRound(r));
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

  // Crashes the server process and recovers it; returns the sim time the
  // recovery took.
  double KillAndRecover() {
    server().Kill();
    double t0 = sim_->clock().NowMs();
    EXPECT_TRUE(
        server_->recovery_service().EnsureProcessAlive(server().pid()).ok());
    return sim_->clock().NowMs() - t0;
  }

  Process& server() { return *server_process_; }
  Context& ContextOf(const std::string& name) {
    Context* ctx = server().FindContextOfComponent(name);
    EXPECT_NE(ctx, nullptr) << name;
    return *ctx;
  }
  uint64_t OriginRelogs() const {
    return sim_->metrics().CounterTotal("phoenix.checkpoint.origin_relogs");
  }
  // Creation records of `context_id` still on the log.
  size_t CreationRecordsOf(uint64_t context_id) {
    size_t copies = 0;
    OrderedLogCursor cursor(server().log(), server().log().head_order());
    while (std::optional<OrderedRecord> rec = cursor.Next()) {
      const auto* creation = std::get_if<CreationRecord>(&rec->record);
      if (creation != nullptr && creation->context_id == context_id) ++copies;
    }
    return copies;
  }

  std::unique_ptr<Simulation> sim_;
  Machine* server_ = nullptr;
  Process* server_process_ = nullptr;
  bookstore::Deployment deployment_;
  std::unique_ptr<ExternalClient> buyer_;
  std::map<std::string, size_t> acked_;
};

TEST_P(StatelessOriginTest, LogHeadPassesStatelessCreationRecords) {
  // Twin without truncation: the same calls, and no relog at all.
  ASSERT_NO_FATAL_FAILURE(Deploy(ShopOptions(false)));
  ASSERT_NO_FATAL_FAILURE(Shop());
  KillAndRecover();
  std::vector<Value> twin = Observe();
  EXPECT_EQ(OriginRelogs(), 0u);
  EXPECT_EQ(ContextOf("grabber").state_record_lsn(), kInvalidLsn);

  ASSERT_NO_FATAL_FAILURE(Deploy(ShopOptions(true)));
  std::map<std::string, uint64_t> created = {
      {"grabber", ContextOf("grabber").creation_lsn()},
      {"tax", ContextOf("tax").creation_lsn()}};
  ASSERT_NO_FATAL_FAILURE(Shop());
  EXPECT_GE(server().checkpoints().checkpoints_published(), 2u);
  EXPECT_GT(OriginRelogs(), 0u);
  for (const auto& [name, lsn] : created) {
    EXPECT_GT(server().log().shard_head_base(ShardOfLsn(lsn)),
              LocalOfLsn(lsn))
        << name;
  }

  // Both come back from a copy of their creation record: a create, no
  // state restore. A context's records share one shard, so LSNs compare.
  KillAndRecover();
  for (const auto& [name, lsn] : created) {
    Context& ctx = ContextOf(name);
    EXPECT_EQ(ctx.state_record_lsn(), kInvalidLsn) << name;
    EXPECT_EQ(ShardOfLsn(ctx.creation_lsn()), ShardOfLsn(lsn)) << name;
    EXPECT_GT(ctx.creation_lsn(), lsn) << name;
  }
  EXPECT_EQ(Observe(), twin);
}

TEST_P(StatelessOriginTest, CrashDuringCheckpointLosesUnforcedCopy) {
  ASSERT_NO_FATAL_FAILURE(Deploy(ShopOptions(true)));
  std::map<std::string, uint64_t> created = {
      {"grabber", ContextOf("grabber").creation_lsn()},
      {"tax", ContextOf("tax").creation_lsn()}};
  // Armed after the first publish: the next checkpoint relogs both
  // origins for the first time, then dies before anything forces the
  // copies.
  bool armed = false;
  bool crashed = false;
  for (int r = 0; r < kRounds; ++r) {
    ASSERT_NO_FATAL_FAILURE(ShopRound(r));  // external retries restart it
    if (!armed && server().checkpoints().checkpoints_published() >= 1) {
      EXPECT_EQ(OriginRelogs(), 0u);
      sim_->injector().AddTrigger("server", server().pid(),
                                  FailurePoint::kDuringCheckpoint);
      armed = true;
    } else if (armed && !crashed && sim_->injector().crashes_fired() == 1) {
      crashed = true;
      // The copies went down with the buffer: recovery restarted both
      // contexts from their original creation records.
      for (const auto& [name, lsn] : created) {
        EXPECT_EQ(ContextOf(name).creation_lsn(), lsn) << name;
      }
    }
  }
  ASSERT_TRUE(crashed);
  EXPECT_EQ(sim_->injector().crashes_fired(), 1u);
  // Later checkpoints relogged past the crash.
  for (const auto& [name, lsn] : created) {
    EXPECT_GT(ContextOf(name).creation_lsn(), lsn) << name;
  }

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
  KillAndRecover();
  EXPECT_EQ(Observe(), before);
}

TEST_P(StatelessOriginTest, PassTwoConstructsEachStatelessContextOnce) {
  for (bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel replay" : "sequential replay");
    RuntimeOptions opts;
    opts.parallel_replay = parallel;
    ASSERT_NO_FATAL_FAILURE(DeployTestComponents(opts));
    // The counter never saves state, so its creation record pins the log
    // head and pass 2 scans across every copy the checkpoints append.
    std::string counter =
        buyer_->CreateComponent(server(), "Counter", "c",
                                ComponentKind::kPersistent, {})
            .value();
    std::string prober =
        buyer_->CreateComponent(server(), "CountedProber", "p",
                                ComponentKind::kReadOnly, {})
            .value();
    std::string squarer =
        buyer_->CreateComponent(server(), "CountedSquarer", "sq",
                                ComponentKind::kFunctional, {})
            .value();
    uint64_t pinned = ContextOf("c").creation_lsn();
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(buyer_->Call(counter, "Add", MakeArgs(1)).ok());
      ASSERT_TRUE(buyer_->Call(prober, "Probe", MakeArgs(counter)).ok());
      ASSERT_TRUE(buyer_->Call(squarer, "Square", MakeArgs(i)).ok());
    }
    EXPECT_LE(server().log().shard_head_base(ShardOfLsn(pinned)),
              LocalOfLsn(pinned));
    // Each shard's head follows its own pins, so the copies stay on the
    // counter's shard only (the whole log when unsharded).
    size_t on_pinned_shard = 0;
    for (const char* name : {"p", "sq"}) {
      Context& ctx = ContextOf(name);
      EXPECT_EQ(ExecutionLog::Of(StrCat(name, ".Initialize")), 1);
      if (ShardOfLsn(ctx.creation_lsn()) != ShardOfLsn(pinned)) continue;
      EXPECT_GE(CreationRecordsOf(ctx.id()), 3u) << name;
      ++on_pinned_shard;
    }
    ASSERT_GE(on_pinned_shard, 1u);

    KillAndRecover();
    for (const char* name : {"p", "sq"}) {
      EXPECT_EQ(ExecutionLog::Of(StrCat(name, ".Initialize")), 2) << name;
    }
    EXPECT_EQ(buyer_->Call(prober, "Probe", MakeArgs(counter)).value(),
              Value(int64_t{40}));
    EXPECT_EQ(buyer_->Call(squarer, "Square", MakeArgs(7)).value(),
              Value(int64_t{49}));
  }
}

TEST_P(StatelessOriginTest, CreationThatCalledOutKeepsStateSave) {
  ASSERT_NO_FATAL_FAILURE(DeployTestComponents());
  std::string counter = buyer_
                            ->CreateComponent(server(), "Counter", "c",
                                              ComponentKind::kPersistent, {})
                            .value();
  ASSERT_TRUE(buyer_->Call(counter, "Add", MakeArgs(7)).ok());
  std::string primed = buyer_
                           ->CreateComponent(server(), "PrimedProber", "pp",
                                             ComponentKind::kReadOnly,
                                             MakeArgs(counter))
                           .value();
  uint64_t created = ContextOf("pp").creation_lsn();
  EXPECT_FALSE(ContextOf("pp").creation_self_contained());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(buyer_->Call(counter, "Add", MakeArgs(1)).ok());
  }
  EXPECT_GE(server().checkpoints().checkpoints_published(), 2u);
  EXPECT_GT(OriginRelogs(), 0u);
  // A copy would replay Initialize against today's counter, so the
  // checkpoints saved state instead.
  EXPECT_EQ(ContextOf("pp").creation_lsn(), created);
  EXPECT_NE(ContextOf("pp").state_record_lsn(), kInvalidLsn);

  KillAndRecover();
  EXPECT_NE(ContextOf("pp").state_record_lsn(), kInvalidLsn);
  EXPECT_EQ(buyer_->Call(primed, "Primed", {}).value(), Value(int64_t{7}));
  EXPECT_EQ(buyer_->Call(counter, "Get", {}).value(), Value(int64_t{47}));
}

TEST_P(StatelessOriginTest, StateOriginMovesByStateSave) {
  // A stateless context that already restarts from a state record keeps
  // doing so: a creation copy would not move its origin.
  ASSERT_NO_FATAL_FAILURE(DeployTestComponents());
  std::string counter = buyer_
                            ->CreateComponent(server(), "Counter", "c",
                                              ComponentKind::kPersistent, {})
                            .value();
  buyer_->CreateComponent(server(), "CountedSquarer", "sq",
                          ComponentKind::kFunctional, {})
      .value();
  uint64_t created = ContextOf("sq").creation_lsn();
  uint64_t saved =
      server().checkpoints().SaveContextState(ContextOf("sq")).value();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(buyer_->Call(counter, "Add", MakeArgs(1)).ok());
  }
  EXPECT_GT(OriginRelogs(), 0u);
  EXPECT_EQ(ContextOf("sq").creation_lsn(), created);
  EXPECT_GT(ContextOf("sq").state_record_lsn(), saved);
}

TEST_P(StatelessOriginTest, UnspecializedKindsKeepStateSave) {
  // Without specialized kinds the log treats a read-only component like a
  // persistent one: its calls are logged and carry call IDs, so a restart
  // from a creation copy would skip replay input and reuse sequence
  // numbers the counter has already seen.
  RuntimeOptions opts;
  opts.use_specialized_kinds = false;
  ASSERT_NO_FATAL_FAILURE(DeployTestComponents(opts));
  std::string counter = buyer_
                            ->CreateComponent(server(), "Counter", "c",
                                              ComponentKind::kPersistent, {})
                            .value();
  std::string prober =
      buyer_
          ->CreateComponent(server(), "CountedProber", "p",
                            ComponentKind::kReadOnly, {})
          .value();
  uint64_t created = ContextOf("p").creation_lsn();
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(buyer_->Call(counter, "Add", MakeArgs(1)).ok());
    EXPECT_EQ(buyer_->Call(prober, "Probe", MakeArgs(counter)).value(),
              Value(int64_t{i}));
  }
  EXPECT_GT(OriginRelogs(), 0u);
  EXPECT_EQ(ContextOf("p").creation_lsn(), created);
  EXPECT_NE(ContextOf("p").state_record_lsn(), kInvalidLsn);

  KillAndRecover();
  for (int i = 21; i <= 23; ++i) {
    ASSERT_TRUE(buyer_->Call(counter, "Add", MakeArgs(1)).ok());
    Result<Value> probed = buyer_->Call(prober, "Probe", MakeArgs(counter));
    ASSERT_TRUE(probed.ok()) << probed.status().ToString();
    EXPECT_EQ(*probed, Value(int64_t{i}));
  }
}

TEST_P(StatelessOriginTest, ShortRunRecoversNoSlowerThanUntruncatedTwin) {
  // Relogged origins cost recovery a create each, like the originals; the
  // truncated log only shortens the scan.
  ASSERT_NO_FATAL_FAILURE(Deploy(ShopOptions(false)));
  ASSERT_NO_FATAL_FAILURE(Shop());
  double untruncated_ms = KillAndRecover();

  ASSERT_NO_FATAL_FAILURE(Deploy(ShopOptions(true)));
  ASSERT_NO_FATAL_FAILURE(Shop());
  ASSERT_GT(OriginRelogs(), 0u);
  double truncated_ms = KillAndRecover();
  EXPECT_LE(truncated_ms, untruncated_ms);
}

INSTANTIATE_TEST_SUITE_P(WalShards, StatelessOriginTest,
                         ::testing::Values(1u, 2u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return StrCat("shards", info.param);
                         });

}  // namespace
}  // namespace phoenix
