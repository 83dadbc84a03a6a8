#ifndef PHOENIX_RECOVERY_RECOVERY_MANAGER_H_
#define PHOENIX_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <map>

#include "common/result.h"
#include "recovery/replay.h"
#include "recovery/replay_plan.h"
#include "runtime/last_call_table.h"
#include "runtime/remote_type_table.h"
#include "wal/log_record.h"
#include "wal/merged_log_reader.h"

namespace phoenix {

class Process;
class RestoreLanes;

// Recovers a single failed context (§4.4's "easier" case): the process and
// its tables survive, only `context_id`'s component instances were lost
// (Context::ClearMembers). The state record LSN is read from the surviving
// context table entry, the state (or blank creation) is restored, and the
// context's records — including the still-buffered unforced tail, which a
// context failure does not lose — are replayed.
Status RecoverContextFailure(Process* process, uint64_t context_id);

// How aggressively a recovery attempt degrades, one value per rung of the
// recovery supervisor's ladder (recovery_service.h). Normal recovery trusts
// the published checkpoint pointer and replays everything; salvage-assessed
// recovery distrusts the well-known file and rebuilds from a full scan of
// the retained log; cold start reinstates the newest durable context states
// only and abandons message replay — lost work in exchange for a process
// that serves again.
enum class RecoveryMode : int {
  kNormal = 0,
  kSalvageAssessed = 1,
  kColdStart = 2,
};

const char* RecoveryModeName(RecoveryMode mode);

// Two-pass crash recovery of a process (§4.4), one pipeline for every log
// layout: each pass drains an OrderedLogCursor (wal/merged_log_reader.h),
// which on a single log is a plain LogReader whose order is the LSN and on
// a sharded WAL is the gsn-ordered k-way merge of the shard logs.
//
// Pass 1 scans from the published checkpoint (the well-known-file record's
// order; the whole log when none) to the end, collecting every context
// that existed at the crash with its newest state-record/creation LSN and
// that record's order, plus the checkpointed global tables. Contexts with
// state records are then restored field by field.
//
// Pass 2 scans from the minimum recovery order, buffering each context's
// message records per incoming call and replaying a call once the next
// incoming record arrives; outgoing calls are answered from the buffered
// replies and suppressed (Figure 5). The final buffered call of each
// context replays last and may run into live execution when a logged reply
// is missing — its outgoing calls then really go out, with the same
// deterministic IDs, and the servers eliminate duplicates. Replies of
// replayed calls go to the recovery manager, never to clients
// (condition 5).
class RecoveryManager {
 public:
  explicit RecoveryManager(Process* process,
                           RecoveryMode mode = RecoveryMode::kNormal);

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  Status Recover();

  struct Stats {
    uint64_t records_scanned = 0;
    uint64_t calls_replayed = 0;
    uint64_t creations_replayed = 0;
    uint64_t contexts_restored_from_state = 0;
    uint64_t contexts_found = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // Per-context facts gathered in pass 1.
  struct ContextInfo {
    uint64_t recovery_lsn = kInvalidLsn;
    // Order of the origin record (== recovery_lsn on a single log; its gsn
    // on a sharded one). Composite LSNs of different shards compare by
    // shard id, so every cross-context ordering decision (scan cuts,
    // below-origin filtering) uses this instead of recovery_lsn. kInvalidLsn
    // when the origin record is unreadable; the activator has an order (the
    // scan start) but no origin LSN.
    uint64_t recovery_order = kInvalidLsn;
    uint64_t checkpoint_last_outgoing_seq = 0;
    bool restored_from_state = false;
  };

  // Damage assessment before the costed passes: validates the well-known
  // LSN (falling back to a full scan from the log head when it is corrupt
  // or dangling), physically amputates torn stable tails, and falls back
  // to a full scan when unreadable regions above the cut could hide
  // checkpoint table records. Returns the (possibly lowered) scan-start
  // order. Every degradation decision emits a phoenix.recovery.salvage.*
  // metric and a tracer instant.
  uint64_t AssessAndSalvageLog();

  Status PassOne(uint64_t start_order);
  // Points `info` at the origin record at `lsn`, looking up its order.
  void SetOrigin(ContextInfo& info, uint64_t lsn);
  // Restores every context with an origin record in context-id order, each
  // (salvage fallback included) charged to the lane `lanes` picks for it.
  Status RestoreContextStates(RestoreLanes& lanes);
  // Restores one context from the record at info.recovery_lsn; kCorruption
  // when the record is unreadable or of the wrong type.
  Status RestoreOneContext(uint64_t context_id, ContextInfo& info);
  // Salvage: newest readable replay origin for `context_id` strictly below
  // `bad_lsn` — a state record if one survives, else the creation record;
  // kInvalidLsn when neither is readable.
  uint64_t FindFallbackOrigin(uint64_t context_id, uint64_t bad_lsn);
  void InstallTables();
  Status PassTwo();
  // Plan-driven parallel pass 2 (recovery/replay_plan.h), attempted when
  // RuntimeOptions.parallel_replay is on: builds the chain/edge plan from
  // `scan_start` (an order), replays non-final units as overlapping
  // sessions, then runs the sequential end-of-log flush over each chain's
  // final unit. Returns true when it ran to a decision (*result holds the
  // status); false to fall back to the sequential scan (ambiguous salvaged
  // log, nested scheduler, or fewer than two chains).
  bool TryParallelPassTwo(uint64_t scan_start, Status* result);
  // Cold-start replacement for pass 2 (RecoveryMode::kColdStart): replays
  // only the creation of contexts with no saved state so components
  // initialize; every logged message after the origins is abandoned.
  Status ColdStartPassTwo();
  // End-of-log replay: flushes every pending unit, oldest order first.
  Status FlushAllPendingOldestFirst();
  // Replays (and removes) the pending unit of `context_id`, if any.
  Status FlushPending(uint64_t context_id);
  Status ReplayUnit(uint64_t context_id, PendingReplay unit);

  Process* process_;
  RecoveryMode mode_;
  Stats stats_;
  std::map<uint64_t, ContextInfo> infos_;
  std::map<LastCallTable::Key, LastCallEntry> rebuilt_last_calls_;
  std::map<std::string, RemoteTypeInfo> rebuilt_remote_types_;
  std::map<uint64_t, PendingReplay> pending_;
  bool in_pass_two_ = false;
};

}  // namespace phoenix

#endif  // PHOENIX_RECOVERY_RECOVERY_MANAGER_H_
