// Sharded WAL (RuntimeOptions.wal_shards > 1): the deterministic
// context->shard router, per-shard durability horizons, crash semantics of
// independent shard buffers, the ordered log cursor (a plain reader on one
// shard, the gsn-ordered merge on several), recovery on every layout, and
// per-shard torn-tail salvage.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "tests/test_components.h"
#include "wal/force_point.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"
#include "wal/merged_log_reader.h"
#include "wal/shard_router.h"

namespace phoenix {
namespace {

using phoenix::testing::PayloadLsn;
using phoenix::testing::RegisterTestComponents;

IncomingCallRecord Incoming(uint64_t context_id, const std::string& method) {
  IncomingCallRecord rec;
  rec.context_id = context_id;
  rec.method = method;
  return rec;
}

TEST(ShardRouterTest, DeterministicAcrossInstancesAndSeeds) {
  ShardRouter a(4, 42);
  ShardRouter b(4, 42);
  bool spread = false;
  for (uint64_t ctx = 0; ctx < 256; ++ctx) {
    EXPECT_EQ(a.ShardForContext(ctx), b.ShardForContext(ctx));
    EXPECT_LT(a.ShardForContext(ctx), 4u);
    if (a.ShardForContext(ctx) != a.ShardForContext(0)) spread = true;
  }
  EXPECT_TRUE(spread);  // the hash actually distributes

  // A different seed is a different (still deterministic) layout.
  ShardRouter c(4, 43);
  bool differs = false;
  for (uint64_t ctx = 0; ctx < 256 && !differs; ++ctx) {
    differs = a.ShardForContext(ctx) != c.ShardForContext(ctx);
  }
  EXPECT_TRUE(differs);
}

TEST(ShardRouterTest, CheckpointRecordsPinToMetaShard) {
  ShardRouter router(8, 7);
  EXPECT_EQ(router.ShardForRecord(LogRecord(BeginCheckpointRecord{})), 0u);
  EXPECT_EQ(router.ShardForRecord(LogRecord(EndCheckpointRecord{0})), 0u);
  CheckpointContextEntryRecord entry;
  entry.context_id = 12345;  // carries a context id, still meta
  EXPECT_EQ(router.ShardForRecord(LogRecord(entry)), 0u);
  CheckpointLastCallRecord last_call;
  last_call.context_id = 12345;
  EXPECT_EQ(router.ShardForRecord(LogRecord(last_call)), 0u);
  EXPECT_EQ(router.ShardForRecord(LogRecord(CheckpointRemoteTypeRecord{})),
            0u);
  // Context-keyed records follow the context hash.
  EXPECT_EQ(router.ShardForRecord(LogRecord(Incoming(12345, "Go"))),
            router.ShardForContext(12345));
}

class WalShardTest : public ::testing::Test {
 protected:
  WalShardTest()
      : disk_(DiskParams{}, 1),
        manager_("m/p1.log", &storage_, &disk_, &clock_, &costs_,
                 /*shard_count=*/4, /*shard_seed=*/42) {}

  // Appends one record per context 1..n and returns the composite LSNs.
  std::vector<uint64_t> AppendAcrossShards(int n, const std::string& tag) {
    std::vector<uint64_t> lsns;
    for (int i = 1; i <= n; ++i) {
      lsns.push_back(manager_.Append(
          LogRecord(Incoming(static_cast<uint64_t>(i), tag))));
    }
    return lsns;
  }

  StableStorage storage_;
  DiskModel disk_;
  SimClock clock_;
  CostModel costs_;
  LogManager manager_;
};

TEST_F(WalShardTest, ShardLocalDurableNeverExceedsAppended) {
  AppendAcrossShards(16, "a");
  for (uint32_t s = 0; s < manager_.shard_count(); ++s) {
    EXPECT_LE(manager_.shard_stable_end(s), manager_.shard_next_lsn(s))
        << "shard " << s;
  }
  manager_.Force();
  for (uint32_t s = 0; s < manager_.shard_count(); ++s) {
    EXPECT_EQ(manager_.shard_stable_end(s), manager_.shard_next_lsn(s))
        << "shard " << s;
  }
}

TEST_F(WalShardTest, CrashDropsExactlyEachShardsUnforcedTail) {
  AppendAcrossShards(12, "forced");
  manager_.Force();
  std::vector<uint64_t> stable_before(manager_.shard_count());
  for (uint32_t s = 0; s < manager_.shard_count(); ++s) {
    stable_before[s] = manager_.shard_stable_end(s);
  }

  AppendAcrossShards(12, "unforced");
  manager_.DropBuffer();  // the crash: every shard buffer dies at once

  for (uint32_t s = 0; s < manager_.shard_count(); ++s) {
    // The stable horizon did not move, and the stable bytes hold only
    // pre-crash records.
    EXPECT_EQ(manager_.shard_stable_end(s), stable_before[s]) << "shard " << s;
    LogReader reader(manager_.ShardStableView(s),
                     manager_.shard_head_base(s));
    while (auto parsed = reader.Next()) {
      EXPECT_EQ(std::get<IncomingCallRecord>(parsed->record).method, "forced");
    }
    EXPECT_FALSE(reader.tail_torn());
  }
}

TEST_F(WalShardTest, MergedScanEqualsSingleLogAppendOrder) {
  // The same append sequence goes to a 1-shard twin; the gsn-ordered k-way
  // merge must reproduce the twin's (single-log) record order exactly.
  LogManager single("m/p2.log", &storage_, &disk_, &clock_, &costs_);
  for (int i = 0; i < 32; ++i) {
    LogRecord rec(Incoming(static_cast<uint64_t>(i % 7),
                           std::string("m") + std::to_string(i)));
    manager_.Append(rec);
    single.Append(rec);
  }
  manager_.Force();
  single.Force();

  std::vector<std::string> single_order;
  LogReader reader(single.StableLog(), 0);
  while (auto parsed = reader.Next()) {
    single_order.push_back(
        std::get<IncomingCallRecord>(parsed->record).method);
  }
  ASSERT_EQ(single_order.size(), 32u);

  MergedLogScan merged = ScanShardedLog(manager_);
  ASSERT_EQ(merged.records.size(), 32u);
  EXPECT_FALSE(merged.any_salvage());
  EXPECT_EQ(merged.inversions, 0u);
  uint64_t prev_order = 0;
  for (size_t i = 0; i < merged.records.size(); ++i) {
    const OrderedRecord& rec = merged.records[i];
    EXPECT_EQ(std::get<IncomingCallRecord>(rec.record).method,
              single_order[i]);
    EXPECT_GT(rec.order, prev_order);  // gsns strictly increase
    prev_order = rec.order;
    EXPECT_EQ(rec.shard, ShardOfLsn(rec.lsn));
  }
}

std::vector<uint8_t> Encoded(const LogRecord& record) {
  Encoder enc;
  EncodeLogRecord(record, enc);
  return enc.Release();
}

TEST(OrderedLogCursorTest, OneShardIsAPlainLogReaderFromTheCut) {
  StableStorage storage;
  DiskModel disk(DiskParams{}, 1);
  SimClock clock;
  CostModel costs;
  LogManager log("m/p1.log", &storage, &disk, &clock, &costs);
  std::vector<uint64_t> lsns;
  for (int i = 0; i < 12; ++i) {
    lsns.push_back(log.Append(LogRecord(Incoming(
        static_cast<uint64_t>(i % 3), "m" + std::to_string(i)))));
  }
  log.Force();

  // Started from an LSN cut, the cursor yields exactly LogReader's
  // (lsn, record) sequence, with order == lsn and no gsn prefix.
  uint64_t cut = lsns[5];
  LogReader reader(log.StableView(), cut);
  OrderedLogCursor cursor(log, cut);
  size_t yielded = 0;
  while (std::optional<ParsedRecord> parsed = reader.Next()) {
    std::optional<OrderedRecord> rec = cursor.Next();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->lsn, parsed->lsn);
    EXPECT_EQ(rec->order, parsed->lsn);
    EXPECT_EQ(rec->shard, 0u);
    EXPECT_EQ(Encoded(rec->record), Encoded(parsed->record));
    ++yielded;
  }
  EXPECT_FALSE(cursor.Next().has_value());
  EXPECT_EQ(yielded, 7u);
  EXPECT_TRUE(cursor.damage().empty());
  EXPECT_EQ(cursor.records_read(), 7u);  // the bytes below the cut: unread
}

// One shard image of a sharded log, on its own: the cursor reads it by
// its gsn-prefixed format, so a gsn cut yields exactly that shard's records
// at or above the cut, with composite LSNs and order == gsn.
TEST(OrderedLogCursorTest, OneShardOfAShardedLogFromAGsnCut) {
  for (uint32_t shards : {2u, 4u}) {
    StableStorage storage;
    DiskModel disk(DiskParams{}, 1);
    SimClock clock;
    CostModel costs;
    LogManager log("m/p1.log", &storage, &disk, &clock, &costs, shards,
                   /*shard_seed=*/42);
    for (int i = 0; i < 24; ++i) {
      log.Append(LogRecord(Incoming(static_cast<uint64_t>(i % 5 + 1),
                                    "m" + std::to_string(i))));
    }
    log.Force();
    std::vector<OrderedRecord> all;
    OrderedLogCursor whole(log, log.head_order());
    while (std::optional<OrderedRecord> rec = whole.Next()) {
      all.push_back(std::move(*rec));
    }
    ASSERT_EQ(all.size(), 24u);
    uint64_t cut = all[9].order;

    for (uint32_t k = 0; k < shards; ++k) {
      SCOPED_TRACE(::testing::Message() << shards << " shards, shard " << k);
      std::vector<const OrderedRecord*> expected;
      for (const OrderedRecord& rec : all) {
        if (rec.shard == k && rec.order >= cut) expected.push_back(&rec);
      }
      ASSERT_FALSE(expected.empty());
      OrderedLogCursor cursor({log.ShardStableView(k)}, cut);
      size_t yielded = 0;
      while (std::optional<OrderedRecord> rec = cursor.Next()) {
        ASSERT_LT(yielded, expected.size());
        const OrderedRecord& want = *expected[yielded++];
        EXPECT_EQ(rec->lsn, want.lsn);
        EXPECT_EQ(ShardOfLsn(rec->lsn), k);
        EXPECT_EQ(rec->shard, k);
        EXPECT_EQ(rec->order, want.order);
        EXPECT_EQ(Encoded(rec->record), Encoded(want.record));
      }
      EXPECT_EQ(yielded, expected.size());
      EXPECT_TRUE(cursor.damage().empty());
    }
  }
}

// The point read honours the image's format: on a shard of a sharded log it
// strips the gsn prefix and reports the gsn as the order; on a single log
// the order is the LSN.
TEST(OrderedLogCursorTest, PointReadOnAPrefixedImageReturnsTheGsn) {
  StableStorage storage;
  DiskModel disk(DiskParams{}, 1);
  SimClock clock;
  CostModel costs;
  LogManager sharded("m/p1.log", &storage, &disk, &clock, &costs,
                     /*shard_count=*/2, /*shard_seed=*/42);
  LogManager single("m/p2.log", &storage, &disk, &clock, &costs);
  std::vector<uint64_t> lsns;
  for (int i = 0; i < 6; ++i) {
    LogRecord rec(Incoming(static_cast<uint64_t>(i + 1),
                           "m" + std::to_string(i)));
    lsns.push_back(sharded.Append(rec));
    single.Append(rec);
  }
  sharded.Force();
  single.Force();

  uint64_t gsn = 0;
  for (int i = 0; i < 6; ++i) {
    uint64_t lsn = lsns[i];
    LogView view = sharded.ShardStableView(ShardOfLsn(lsn));
    EXPECT_TRUE(view.gsn_prefixed());
    uint64_t order = 0;
    Result<LogRecord> rec = ReadRecordAt(view, LocalOfLsn(lsn), &order);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    EXPECT_EQ(std::get<IncomingCallRecord>(*rec).method,
              "m" + std::to_string(i));
    EXPECT_GT(order, gsn);  // appended in this order, so gsns ascend
    gsn = order;
    EXPECT_EQ(*sharded.OrderOfRecordAt(lsn), order);
  }

  LogView plain = single.StableView();
  EXPECT_FALSE(plain.gsn_prefixed());
  LogReader reader(plain, 0);
  while (std::optional<ParsedRecord> parsed = reader.Next()) {
    uint64_t order = 0;
    ASSERT_TRUE(ReadRecordAt(plain, parsed->lsn, &order).ok());
    EXPECT_EQ(order, parsed->lsn);
    EXPECT_EQ(parsed->order, parsed->lsn);
  }
}

TEST_F(WalShardTest, TornTailOnOneShardLeavesOthersUntouched) {
  AppendAcrossShards(16, "x");
  manager_.Force();
  std::vector<uint64_t> end_before(manager_.shard_count());
  for (uint32_t s = 0; s < manager_.shard_count(); ++s) {
    end_before[s] = manager_.shard_stable_end(s);
    ASSERT_GT(end_before[s], manager_.shard_head_base(s)) << "shard " << s;
  }

  // Tear 3 bytes off shard 2's file, mid-frame.
  storage_.TruncateLog(manager_.shard_log_name(2),
                       LocalOfLsn(end_before[2]) - 3);

  MergedLogScan merged = ScanShardedLog(manager_);
  ASSERT_TRUE(merged.any_salvage());
  ASSERT_EQ(merged.damage.size(), 1u);
  EXPECT_EQ(merged.damage[0].shard, 2u);
  EXPECT_TRUE(merged.damage[0].tail_torn);

  // Every shard still contributes every record its (possibly torn) file
  // holds; only shard 2 lost its final frame.
  std::vector<int> per_shard(manager_.shard_count(), 0);
  for (const OrderedRecord& rec : merged.records) ++per_shard[rec.shard];
  int total = 0;
  for (uint32_t s = 0; s < manager_.shard_count(); ++s) {
    LogReader probe(manager_.ShardStableView(s), manager_.shard_head_base(s));
    probe.EnableSalvage();
    int full_count = 0;
    while (probe.Next()) ++full_count;
    EXPECT_EQ(per_shard[s], full_count) << "shard " << s;
    EXPECT_EQ(probe.tail_torn(), s == 2) << "shard " << s;
    total += per_shard[s];
  }
  EXPECT_EQ(total, 15);  // 16 appended, one frame torn
}

class ShardedRecoveryTest : public ::testing::Test {
 protected:
  void SetUpSim(uint32_t shards) {
    RuntimeOptions opts;
    opts.wal_shards = shards;
    sim_ = std::make_unique<Simulation>(opts);
    RegisterTestComponents(sim_->factories());
    alpha_ = &sim_->AddMachine("alpha");
    proc_ = &alpha_->CreateProcess();
  }

  std::unique_ptr<Simulation> sim_;
  Machine* alpha_ = nullptr;
  Process* proc_ = nullptr;
};

TEST_F(ShardedRecoveryTest, StateSurvivesCrashViaMergedReplay) {
  SetUpSim(4);
  ASSERT_TRUE(proc_->log().sharded());
  ExternalClient client(sim_.get(), "alpha");
  std::vector<std::string> uris;
  for (int c = 0; c < 4; ++c) {
    auto uri = client.CreateComponent(*proc_, "Counter",
                                      "c" + std::to_string(c),
                                      ComponentKind::kPersistent, {});
    ASSERT_TRUE(uri.ok());
    uris.push_back(*uri);
  }
  for (int i = 1; i <= 3; ++i) {
    for (const std::string& uri : uris) {
      ASSERT_TRUE(client.Call(uri, "Add", MakeArgs(i)).ok());
    }
  }

  proc_->Kill();
  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
  for (const std::string& uri : uris) {
    auto got = client.Call(uri, "Get", {});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->AsInt(), 6);
  }
}

TEST_F(ShardedRecoveryTest, ShardedRecoveryMatchesSingleLogTwin) {
  // Same workload, same crash, under 1, 2 and 4 shards: the recovered
  // states must agree.
  auto run = [](uint32_t shards) -> std::vector<int64_t> {
    RuntimeOptions opts;
    opts.wal_shards = shards;
    Simulation sim(opts);
    RegisterTestComponents(sim.factories());
    Machine& alpha = sim.AddMachine("alpha");
    Process& proc = alpha.CreateProcess();
    ExternalClient client(&sim, "alpha");
    std::vector<std::string> uris;
    for (int c = 0; c < 3; ++c) {
      auto uri = client.CreateComponent(proc, "Counter",
                                        "c" + std::to_string(c),
                                        ComponentKind::kPersistent, {});
      EXPECT_TRUE(uri.ok());
      uris.push_back(*uri);
    }
    for (int i = 1; i <= 4; ++i) {
      for (const std::string& uri : uris) {
        EXPECT_TRUE(client.Call(uri, "Add", MakeArgs(i)).ok());
      }
    }
    proc.Kill();
    EXPECT_TRUE(alpha.recovery_service().EnsureProcessAlive(1).ok());
    std::vector<int64_t> values;
    for (const std::string& uri : uris) {
      auto got = client.Call(uri, "Get", {});
      EXPECT_TRUE(got.ok());
      values.push_back(got.ok() ? got->AsInt() : -1);
    }
    return values;
  };
  std::vector<int64_t> single = run(1);
  EXPECT_EQ(single, (std::vector<int64_t>{10, 10, 10}));
  for (uint32_t shards : {2u, 4u}) {
    EXPECT_EQ(run(shards), single) << shards << " shards";
  }
}

TEST_F(ShardedRecoveryTest, DamageBelowTheCheckpointCutIsNotReported) {
  // The single log's rule on every layout: salvage assessment probes from
  // the published checkpoint, so a bad record below it goes unreported,
  // while one above it forces a full scan.
  for (bool above_cut : {false, true}) {
    for (uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message() << shards << " shard(s), damage "
                                        << (above_cut ? "above" : "below")
                                        << " the cut");
      SetUpSim(shards);
      ExternalClient client(sim_.get(), "alpha");
      std::vector<std::string> uris;
      for (int c = 0; c < 3; ++c) {
        auto uri = client.CreateComponent(*proc_, "Counter",
                                          "c" + std::to_string(c),
                                          ComponentKind::kPersistent, {});
        ASSERT_TRUE(uri.ok());
        uris.push_back(*uri);
      }
      auto add_to_all = [&](int amount) {
        for (const std::string& uri : uris) {
          ASSERT_TRUE(client.Call(uri, "Add", MakeArgs(amount)).ok());
        }
      };
      add_to_all(1);
      add_to_all(2);
      // Every context's origin becomes a state record below the cut.
      for (int c = 0; c < 3; ++c) {
        Context* ctx = proc_->FindContextOfComponent("c" + std::to_string(c));
        ASSERT_NE(ctx, nullptr);
        ASSERT_TRUE(proc_->checkpoints().SaveContextState(*ctx).ok());
      }
      ASSERT_TRUE(proc_->checkpoints().TakeProcessCheckpoint().ok());
      proc_->log().Force();
      proc_->checkpoints().MaybePublishCheckpoint();
      Result<uint64_t> wkf = proc_->log().ReadWellKnownLsn();
      ASSERT_TRUE(wkf.ok());
      add_to_all(3);
      add_to_all(4);
      uint64_t c0 = proc_->FindContextOfComponent("c0")->id();
      proc_->Kill();

      // Victim: c0's first incoming call on the chosen side of the cut.
      // Above the cut, c0's next call follows it on the same shard, so the
      // damage is a skipped range rather than a torn tail.
      LogManager& log = proc_->log();
      uint64_t cut = *log.OrderOfRecordAt(*wkf);
      std::optional<OrderedRecord> victim;
      OrderedLogCursor cursor(log, log.head_order());
      while (std::optional<OrderedRecord> rec = cursor.Next()) {
        const auto* incoming = std::get_if<IncomingCallRecord>(&rec->record);
        if (incoming != nullptr && incoming->context_id == c0 &&
            (rec->order > cut) == above_cut) {
          victim = std::move(rec);
          break;
        }
      }
      ASSERT_TRUE(victim.has_value());
      sim_->storage().CorruptLog(log.shard_log_name(victim->shard),
                                 PayloadLsn(log, victim->lsn),
                                 /*flip_count=*/2);

      ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());
      const obs::MetricsRegistry& m = sim_->metrics();
      uint64_t reported = above_cut ? 1 : 0;
      EXPECT_EQ(m.CounterTotal("phoenix.recovery.salvage.full_scan_fallback"),
                reported);
      EXPECT_EQ(m.CounterTotal("phoenix.recovery.salvage.ranges_skipped"),
                reported);
      if (!above_cut) {
        // The lost call was covered by c0's state record.
        for (const std::string& uri : uris) {
          auto got = client.Call(uri, "Get", {});
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          EXPECT_EQ(got->AsInt(), 10);
        }
      }
    }
  }
}

TEST_F(ShardedRecoveryTest, PublishGateReadsMetaShardHorizonOnly) {
  // Regression: the checkpoint bracket lives on the meta shard (shard 0),
  // so MaybePublishCheckpoint's durability gate must read *that* shard's
  // horizon. A chain that forces only its own shards must not be able to
  // flip the well-known file while the end record still sits in shard 0's
  // buffer.
  SetUpSim(4);
  ExternalClient client(sim_.get(), "alpha");
  std::vector<std::string> uris;
  for (int c = 0; c < 3; ++c) {
    auto uri = client.CreateComponent(*proc_, "Counter",
                                      "c" + std::to_string(c),
                                      ComponentKind::kPersistent, {});
    ASSERT_TRUE(uri.ok());
    uris.push_back(*uri);
  }
  for (const std::string& uri : uris) {
    ASSERT_TRUE(client.Call(uri, "Add", MakeArgs(2)).ok());
  }

  // Bracket appended, unforced: it sits in shard 0's buffer.
  ASSERT_TRUE(proc_->checkpoints().TakeProcessCheckpoint().ok());
  ASSERT_TRUE(proc_->log().ReadWellKnownLsn().status().IsNotFound());

  // Forcing every non-meta shard advances their horizons but not shard
  // 0's; the gate must stay shut.
  for (uint32_t s = 1; s < proc_->log().shard_count(); ++s) {
    ASSERT_TRUE(
        proc_->log().WaitDurableShard(s, ForcePoint::kManual, false).ok());
  }
  proc_->checkpoints().MaybePublishCheckpoint();
  EXPECT_TRUE(proc_->log().ReadWellKnownLsn().status().IsNotFound());

  // The meta shard's own horizon opens it.
  ASSERT_TRUE(
      proc_->log().WaitDurableShard(0, ForcePoint::kManual, false).ok());
  proc_->checkpoints().MaybePublishCheckpoint();
  EXPECT_TRUE(proc_->log().ReadWellKnownLsn().ok());
  EXPECT_EQ(proc_->checkpoints().checkpoints_published(), 1u);
}

TEST_F(ShardedRecoveryTest, TornShardSalvagesWithoutTouchingOthers) {
  SetUpSim(4);
  ExternalClient client(sim_.get(), "alpha");
  std::vector<std::string> uris;
  for (int c = 0; c < 4; ++c) {
    auto uri = client.CreateComponent(*proc_, "Counter",
                                      "c" + std::to_string(c),
                                      ComponentKind::kPersistent, {});
    ASSERT_TRUE(uri.ok());
    uris.push_back(*uri);
  }
  for (int i = 1; i <= 3; ++i) {
    for (const std::string& uri : uris) {
      ASSERT_TRUE(client.Call(uri, "Add", MakeArgs(i)).ok());
    }
  }

  // Pick the shard holding c0's chain; capture every OTHER shard's stable
  // bytes, then tear c0's shard mid-frame after the crash.
  Context* ctx = proc_->FindContextOfComponent("c0");
  ASSERT_NE(ctx, nullptr);
  uint32_t torn = proc_->log().router().ShardForContext(ctx->id());
  std::vector<std::vector<uint8_t>> before;
  for (uint32_t s = 0; s < proc_->log().shard_count(); ++s) {
    before.push_back(sim_->storage().ReadLog(proc_->log().shard_log_name(s)));
  }
  proc_->Kill();
  std::string torn_name = proc_->log().shard_log_name(torn);
  sim_->storage().TruncateLog(torn_name,
                              sim_->storage().LogSize(torn_name) - 3);

  ASSERT_TRUE(alpha_->recovery_service().EnsureProcessAlive(1).ok());

  // The salvage amputated exactly one shard...
  EXPECT_GT(sim_->metrics()
                .GetCounter("phoenix.recovery.salvage.torn_tail_bytes",
                            obs::LabelSet{{"process", "alpha/1"}})
                .value(),
            0u);
  // ...and every untouched shard kept its exact pre-crash bytes as a prefix
  // (recovery replay may append after them, never rewrite).
  for (uint32_t s = 0; s < proc_->log().shard_count(); ++s) {
    if (s == torn) continue;
    const std::vector<uint8_t>& now =
        sim_->storage().ReadLog(proc_->log().shard_log_name(s));
    ASSERT_GE(now.size(), before[s].size()) << "shard " << s;
    EXPECT_TRUE(std::equal(before[s].begin(), before[s].end(), now.begin()))
        << "shard " << s;
  }

  // Counters on untouched shards kept every committed add.
  for (int c = 1; c < 4; ++c) {
    Context* other = proc_->FindContextOfComponent("c" + std::to_string(c));
    ASSERT_NE(other, nullptr);
    if (proc_->log().router().ShardForContext(other->id()) == torn) continue;
    auto got = client.Call(uris[c], "Get", {});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->AsInt(), 6);
  }
}

}  // namespace
}  // namespace phoenix
