#ifndef PHOENIX_RECOVERY_RECOVERY_MANAGER_H_
#define PHOENIX_RECOVERY_RECOVERY_MANAGER_H_

#include <cstdint>
#include <map>
#include <optional>

#include "common/result.h"
#include "recovery/replay_plan.h"
#include "runtime/last_call_table.h"
#include "runtime/remote_type_table.h"
#include "wal/log_record.h"

namespace phoenix {

class Process;
class RecoveryLanes;

// Recovers a single failed context (§4.4's "easier" case): the process and
// its tables survive, only `context_id`'s component instances were lost
// (Context::ClearMembers). The origin LSN is read from the surviving context
// table entry. Crash recovery's own restore and pass-2 replay then run over
// the context's shard image, including the still-buffered unforced tail,
// which a context failure does not lose.
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
// layout: each read drains an OrderedLogCursor (wal/merged_log_reader.h),
// which on a single log is a plain LogReader whose order is the LSN and on
// a sharded WAL is the gsn-ordered k-way merge of the shard logs.
//
// Pass 1 reads from the published checkpoint (the well-known-file record's
// order; the whole log when none) to the end, collecting every context
// that existed at the crash with its newest state-record/creation LSN and
// that record's order, plus the checkpointed global tables. The same read
// feeds the replay planner (ReplayPlanner); once it has fixed the origins,
// pass 1 reads the records from the lowest origin up to the cut for the
// planner alone, so each record from the lowest origin on is read, and
// charged, once. Contexts with state records are then restored field by
// field.
//
// Pass 2 runs pass 1's plan on the replay engine (parallel_replay.h),
// which owns every unit: the non-final units on the lanes the restores ran
// on (one lane unless parallel replay is on), then, in its final phase,
// each context's final unit, oldest first. Replayed calls' outgoing calls
// are answered from the buffered replies and suppressed (Figure 5). A final
// unit may run into live execution when a logged reply is missing — its
// outgoing calls then really go out, with the same deterministic IDs, and
// the servers eliminate duplicates. Replies of replayed calls go to the
// recovery manager, never to clients (condition 5).
class RecoveryManager {
 public:
  explicit RecoveryManager(Process* process,
                           RecoveryMode mode = RecoveryMode::kNormal);

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  Status Recover();

  // Damage assessment and pass 1: the recovery map, the rebuilt global
  // tables and, on every rung but cold start, plan(). Recover() runs it
  // first; on its own it lets a caller inspect what recovery would do.
  Status Analyze();
  // The replay plan pass 1 built; null on a cold start, and once pass 2
  // took it over (or a restore fell back to an older origin).
  const ReplayPlan* plan() const {
    return plan_.has_value() ? &*plan_ : nullptr;
  }

  struct Stats {
    uint64_t records_scanned = 0;
    uint64_t calls_replayed = 0;
    uint64_t creations_replayed = 0;
    uint64_t contexts_restored_from_state = 0;
    uint64_t contexts_found = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  friend Status RecoverContextFailure(Process* process, uint64_t context_id);

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
    // Lane time the context's restore finished (0 when none ran).
    double restored_at_ms = 0.0;
  };

  // Damage assessment before the costed passes: validates the well-known
  // LSN (falling back to a full scan from the log head when it is corrupt
  // or dangling), physically amputates torn stable tails, and falls back
  // to a full scan when unreadable regions above the cut could hide
  // checkpoint table records. Returns the (possibly lowered) scan-start
  // order. Every degradation decision emits a phoenix.recovery.salvage.*
  // metric and a tracer instant.
  uint64_t AssessAndSalvageLog();

  // Charges pass 1's read of one record; Crashed when the analysis scan
  // crash point fires.
  Status ScanRecord();
  // A plan of a fresh read of `cursor` against the recovery map, charged
  // per record read.
  ReplayPlan PlanFromScan(OrderedLogCursor& cursor);
  // Lowest replay origin order: where the replay plan starts.
  uint64_t LowestOrigin() const;
  Status PassOne(uint64_t start_order);
  // Points `info` at the origin record at `lsn`, looking up its order.
  void SetOrigin(ContextInfo& info, uint64_t lsn);
  // Restores every context with an origin record in context-id order, each
  // (salvage fallback included) charged to the lane `lanes` picks for it.
  // A fallback to an older origin drops pass 1's plan, which it outdates.
  Status RestoreContextStates(RecoveryLanes& lanes);
  // Restores one context from `origin`, the read of the record at
  // info.recovery_lsn; kCorruption when it is unreadable or of the wrong
  // type.
  Status RestoreOneContext(uint64_t context_id, ContextInfo& info,
                           Result<LogRecord> origin);
  // Salvage: newest readable replay origin for `context_id` strictly below
  // `bad_lsn` — a state record if one survives, else the creation record;
  // kInvalidLsn when neither is readable.
  uint64_t FindFallbackOrigin(uint64_t context_id, uint64_t bad_lsn);
  void InstallTables();
  // The planner's view of the recovery map.
  ReplayPlanInputs PlanInputs() const;
  // Per context, the lane time its replay units may start at: once its own
  // restore is done; for the activator (replayed Creates look contexts up
  // by name) once every restore is; and, since a unit may call a local
  // stateless (functional or read-only) context live, once those are.
  std::map<uint64_t, double> ContextReadyTimes(double start_ms) const;
  // Pass 2: runs pass 1's plan — or, when a restore outdated it, a plan
  // from a fresh scan from the lowest origin — on `lanes`, inline on one
  // lane when this recovery is nested in a running session chain.
  Status PassTwo(RecoveryLanes& lanes);
  // Runs `plan` on the replay engine: its non-final units on `sessions`
  // lanes — `lanes` while they are open, lanes of its own when there are
  // none or they closed — and, once the lanes are closed, each chain's
  // final unit, with the engine's demand flusher installed throughout.
  Status RunPlan(const ReplayPlan& plan, RecoveryLanes* lanes,
                 uint32_t sessions);
  // Cold-start replacement for pass 2 (RecoveryMode::kColdStart): replays
  // only the creation of contexts with no saved state so components
  // initialize; every logged message after the origins is abandoned.
  Status ColdStartPassTwo();

  Process* process_;
  RecoveryMode mode_;
  Stats stats_;
  std::map<uint64_t, ContextInfo> infos_;
  std::map<LastCallTable::Key, LastCallEntry> rebuilt_last_calls_;
  std::map<std::string, RemoteTypeInfo> rebuilt_remote_types_;
  std::optional<ReplayPlan> plan_;
};

}  // namespace phoenix

#endif  // PHOENIX_RECOVERY_RECOVERY_MANAGER_H_
