#ifndef PHOENIX_WAL_MERGED_LOG_READER_H_
#define PHOENIX_WAL_MERGED_LOG_READER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "wal/log_manager.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"

namespace phoenix {

// A record of a process log, positioned both physically (lsn) and in append
// order (order). On a single log the two coincide.
struct OrderedRecord {
  uint64_t lsn = 0;    // composite: shard id << 48 | shard-local offset
  uint64_t order = 0;  // global sequence number; the lsn on a single log
  uint32_t shard = 0;
  LogRecord record;
};

// Salvage report for one shard of an ordered scan. Offsets are composite,
// so a skipped range on shard j can never intersect a record extent on
// shard k != j — the invariant the replay planner's per-chain demotion rule
// relies on.
struct ShardDamage {
  uint32_t shard = 0;
  bool tail_torn = false;
  uint64_t torn_offset = 0;  // composite lsn of the first unreadable byte
  uint64_t end_lsn = 0;      // composite lsn one past the shard's last byte
  std::vector<SkippedRange> skipped;  // composite coordinates
};

// The one way to read a process log in append order, whatever its layout: a
// lazy, salvage-tolerant cursor over shard images, started at an order cut.
// Each image is read by its own format (LogView). A plain image — the
// single-log format — is read from the cut (an LSN, raised to the image's
// base) with order == lsn: a plain LogReader. A gsn-prefixed image is read
// from its head and its records ordered below the cut are dropped. The
// images' records are k-way merged by order (ties, impossible on a healthy
// log, go to the earlier image, the lower shard id). Any subset of a log's
// shards works, one shard alone included; records carry their image's
// shard id. Nothing is materialized beyond one lookahead record per shard,
// and, like LogReader, a shard that reached its end is polled again on the
// next call.
//
// Damage below the cut is not reported, matching a single log, whose reader
// never sees the bytes before the cut: a skipped range counts when the
// first record readable after it on its shard is at or above the cut. A
// shard has no byte position for a gsn cut, so a range just before its
// first record above the cut counts too — it may have held such records.
// A torn tail always counts.
class OrderedLogCursor {
 public:
  // `shards` are shard images from LogManager, in shard-id order; their
  // bytes must outlive the cursor.
  OrderedLogCursor(const std::vector<LogView>& shards, uint64_t start_order);
  // The stable images of `log`'s shards (the process-crash recovery view).
  OrderedLogCursor(const LogManager& log, uint64_t start_order);

  OrderedLogCursor(const OrderedLogCursor&) = delete;
  OrderedLogCursor& operator=(const OrderedLogCursor&) = delete;

  // Next record at or above the cut in append order, or nullopt at the end.
  std::optional<OrderedRecord> Next();

  // Damage seen so far, one entry per damaged shard; complete once Next()
  // returned nullopt.
  std::vector<ShardDamage> damage() const;
  // The same damage as replay-plan gaps: skipped ranges, plus each torn
  // tail widened to its shard's end.
  std::vector<SkippedRange> gaps() const;
  uint64_t skipped_bytes() const;

  // Records parsed on every shard, including those below the cut.
  uint64_t records_read() const;
  // Adjacent records within one shard whose gsns were NOT ascending (a
  // healthy log always yields 0; a nonzero count means frames were
  // re-stamped or the storage reordered writes).
  uint64_t inversions() const { return inversions_; }

 private:
  struct Shard {
    LogView view;
    std::unique_ptr<LogReader> reader;
    std::optional<ParsedRecord> head;  // next record at or above the cut
    uint64_t prev_order = 0;
    size_t ranges_seen = 0;             // reader ranges already classified
    std::vector<SkippedRange> skipped;  // the reported ones, shard-local
  };

  // Reads shard `s` until it holds a record at or above the cut, or ends.
  void Fill(uint32_t s);

  uint64_t start_order_;
  std::vector<Shard> shards_;
  uint64_t inversions_ = 0;
};

// Every record of a log in append order, materialized: the whole-log cursor
// drained into a vector (tools and the benchmark's merge timing).
struct MergedLogScan {
  std::vector<OrderedRecord> records;  // ascending by order
  std::vector<ShardDamage> damage;     // only shards with salvage issues
  uint64_t inversions = 0;

  bool any_salvage() const { return !damage.empty(); }
};

MergedLogScan ScanShardedLog(const LogManager& log);

}  // namespace phoenix

#endif  // PHOENIX_WAL_MERGED_LOG_READER_H_
