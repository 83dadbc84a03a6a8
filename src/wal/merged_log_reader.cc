#include "wal/merged_log_reader.h"

#include <algorithm>

#include "wal/shard_router.h"

namespace phoenix {
namespace {

std::vector<LogView> StableViews(const LogManager& log) {
  std::vector<LogView> views;
  for (uint32_t s = 0; s < log.shard_count(); ++s) {
    views.push_back(log.ShardStableView(s));
  }
  return views;
}

}  // namespace

OrderedLogCursor::OrderedLogCursor(const std::vector<LogView>& shards,
                                   uint64_t start_order)
    : start_order_(start_order), shards_(shards.size()) {
  bool single = shards.size() == 1;
  for (size_t s = 0; s < shards.size(); ++s) {
    Shard& shard = shards_[s];
    shard.view = shards[s];
    uint64_t from = single ? std::max(start_order, shard.view.base)
                           : shard.view.base;
    shard.reader = std::make_unique<LogReader>(shard.view, from);
    shard.reader->EnableSalvage();
    if (!single) shard.reader->EnableGsnPrefix();
  }
}

OrderedLogCursor::OrderedLogCursor(const LogManager& log, uint64_t start_order)
    : OrderedLogCursor(StableViews(log), start_order) {}

void OrderedLogCursor::Fill(uint32_t s) {
  Shard& shard = shards_[s];
  while (!shard.head.has_value()) {
    std::optional<ParsedRecord> parsed = shard.reader->Next();
    if (!parsed.has_value()) return;
    if (shards_.size() == 1) parsed->order = parsed->lsn;
    if (shard.reader->records_read() > 1 && parsed->order <= shard.prev_order) {
      ++inversions_;
    }
    shard.prev_order = parsed->order;
    bool above_cut = parsed->order >= start_order_;
    const std::vector<SkippedRange>& ranges = shard.reader->skipped_ranges();
    if (above_cut) {
      shard.skipped.insert(shard.skipped.end(),
                           ranges.begin() + shard.ranges_seen, ranges.end());
      shard.head = std::move(parsed);
    }
    shard.ranges_seen = ranges.size();
  }
}

std::optional<OrderedRecord> OrderedLogCursor::Next() {
  uint32_t best = 0;
  bool found = false;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    Fill(s);
    if (shards_[s].head.has_value() &&
        (!found || shards_[s].head->order < shards_[best].head->order)) {
      best = s;
      found = true;
    }
  }
  if (!found) return std::nullopt;
  ParsedRecord& head = *shards_[best].head;
  OrderedRecord out{MakeShardLsn(best, head.lsn), head.order, best,
                    std::move(head.record)};
  shards_[best].head.reset();
  return out;
}

std::vector<ShardDamage> OrderedLogCursor::damage() const {
  std::vector<ShardDamage> out;
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    if (!shard.reader->tail_torn() && shard.skipped.empty()) continue;
    ShardDamage damage;
    damage.shard = s;
    damage.tail_torn = shard.reader->tail_torn();
    damage.torn_offset = MakeShardLsn(s, shard.reader->torn_offset());
    damage.end_lsn =
        MakeShardLsn(s, shard.view.base + shard.view.bytes->size());
    for (const SkippedRange& range : shard.skipped) {
      damage.skipped.push_back(SkippedRange{MakeShardLsn(s, range.from_lsn),
                                            MakeShardLsn(s, range.to_lsn)});
    }
    out.push_back(std::move(damage));
  }
  return out;
}

std::vector<SkippedRange> OrderedLogCursor::gaps() const {
  std::vector<SkippedRange> gaps;
  for (const ShardDamage& damage : damage()) {
    gaps.insert(gaps.end(), damage.skipped.begin(), damage.skipped.end());
    if (damage.tail_torn) {
      gaps.push_back(SkippedRange{damage.torn_offset, damage.end_lsn});
    }
  }
  return gaps;
}

uint64_t OrderedLogCursor::skipped_bytes() const {
  uint64_t bytes = 0;
  for (const Shard& shard : shards_) {
    for (const SkippedRange& range : shard.skipped) {
      bytes += range.to_lsn - range.from_lsn;
    }
  }
  return bytes;
}

uint64_t OrderedLogCursor::records_read() const {
  uint64_t records = 0;
  for (const Shard& shard : shards_) records += shard.reader->records_read();
  return records;
}

MergedLogScan ScanShardedLog(const LogManager& log) {
  OrderedLogCursor cursor(log, 0);
  MergedLogScan scan;
  while (std::optional<OrderedRecord> rec = cursor.Next()) {
    scan.records.push_back(std::move(*rec));
  }
  scan.damage = cursor.damage();
  scan.inversions = cursor.inversions();
  return scan;
}

}  // namespace phoenix
