#ifndef PHOENIX_WAL_SHARD_ROUTER_H_
#define PHOENIX_WAL_SHARD_ROUTER_H_

#include <cstdint>
#include <type_traits>
#include <variant>

#include "wal/log_record.h"

namespace phoenix {

// --- composite LSNs -------------------------------------------------------
//
// With one log per process (wal_shards = 1) an LSN is a plain byte offset.
// With N shard logs, an LSN is a composite: the shard id in the top 16 bits,
// the shard-local byte offset in the low 48. Shard 0's composites equal its
// local offsets, so the single-log encoding is the special case, not a
// different scheme. Two useful consequences:
//
//  - LSN comparisons between records of the SAME context stay meaningful
//    (a context's records all land on one shard, see ShardRouter below);
//  - an interval on shard j can never intersect an interval on shard k
//    (the shard bits dominate), which is what keeps the salvage planner's
//    gap/extent intersection test correct across shards.
//
// Cross-shard ORDER is never derived from LSNs: that is what the global
// sequence number (gsn) stamped into every sharded frame is for.

inline constexpr int kShardLsnShift = 48;
inline constexpr uint64_t kShardLocalMask =
    (uint64_t{1} << kShardLsnShift) - 1;

inline uint64_t MakeShardLsn(uint32_t shard, uint64_t local_offset) {
  return (static_cast<uint64_t>(shard) << kShardLsnShift) | local_offset;
}

// Callers must guard kInvalidLsn (its shard bits are 0xffff).
inline uint32_t ShardOfLsn(uint64_t lsn) {
  return static_cast<uint32_t>(lsn >> kShardLsnShift);
}

inline uint64_t LocalOfLsn(uint64_t lsn) { return lsn & kShardLocalMask; }

// Most shard logs one process may have: the width of the per-chain
// touched-shard bitmask (runtime/process.h).
inline constexpr uint32_t kMaxWalShards = 64;

// --- context -> shard routing ---------------------------------------------
//
// Deterministic seeded router from the replay-plan chain key (the context
// id) to a shard. The replay planner's chains are per-context, so "a
// chain's records always land on one shard" reduces to "a context's records
// always land on one shard" — which this guarantees by hashing only the
// context id.
//
// Checkpoint-table records (BeginCheckpoint .. EndCheckpoint, types 8-12)
// all route to shard 0, the meta shard. The checkpoint publish rule
// ("IsStable(end_lsn) implies the whole bracket is stable") depends on the
// bracket living on ONE shard in append order; pinning it to shard 0 also
// gives the well-known file a single shard to validate against.
class ShardRouter {
 public:
  ShardRouter(uint32_t shards, uint64_t seed)
      : shards_(shards == 0 ? 1 : shards), seed_(seed) {}

  uint32_t shards() const { return shards_; }

  // Seeded FNV-1a of the context id, mod the shard count.
  uint32_t ShardForContext(uint64_t context_id) const {
    if (shards_ <= 1) return 0;
    uint64_t h = 1469598103934665603ull ^ seed_;
    for (int i = 0; i < 8; ++i) {
      h ^= (context_id >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
    return static_cast<uint32_t>(h % shards_);
  }

  uint32_t ShardForRecord(const LogRecord& record) const {
    if (shards_ <= 1) return 0;
    return std::visit(
        [&](const auto& rec) -> uint32_t {
          using T = std::decay_t<decltype(rec)>;
          // Checkpoint-table records go to the meta shard even though some
          // of them carry a context id.
          if constexpr (std::is_same_v<T, BeginCheckpointRecord> ||
                        std::is_same_v<T, CheckpointContextEntryRecord> ||
                        std::is_same_v<T, CheckpointLastCallRecord> ||
                        std::is_same_v<T, CheckpointRemoteTypeRecord> ||
                        std::is_same_v<T, EndCheckpointRecord>) {
            return 0;
          } else {
            return ShardForContext(rec.context_id);
          }
        },
        record);
  }

 private:
  uint32_t shards_;
  uint64_t seed_;
};

}  // namespace phoenix

#endif  // PHOENIX_WAL_SHARD_ROUTER_H_
