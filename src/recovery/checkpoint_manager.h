#ifndef PHOENIX_RECOVERY_CHECKPOINT_MANAGER_H_
#define PHOENIX_RECOVERY_CHECKPOINT_MANAGER_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/result.h"
#include "wal/log_record.h"

namespace phoenix {

class Context;
class Process;

// Implements Section 4's checkpointing: context state records (§4.2) and
// process checkpoints (§4.3). Neither is forced — a later send-message
// force makes them stable; once the end-checkpoint record is stable the LSN
// of the begin record is force-written to the well-known file.
class CheckpointManager {
 public:
  explicit CheckpointManager(Process* process);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  // Saves `ctx`'s state now: first writes LastCallReplyRecords for any
  // last-call entries of this context whose replies are not yet on the log
  // (filling in their LSNs), then appends the ContextStateRecord and
  // updates the context table entry. Returns the state record's LSN.
  Result<uint64_t> SaveContextState(Context& ctx);

  // Called by the interceptor when `ctx` finishes an incoming call (the
  // "not active" moment of §4.2); saves state every
  // options.save_context_state_every calls.
  void OnIncomingCallFinished(Context& ctx);

  // Takes a process checkpoint: begin record, context table entries,
  // last-call entries, remote component types, end record. Returns the
  // begin record's LSN. With options.auto_truncate_log set, it first
  // relogs the origin of every idle read-only or functional context whose
  // origin precedes the published checkpoint (see RelogStatelessOrigins).
  Result<uint64_t> TakeProcessCheckpoint();

  // Publishes the pending checkpoint to the well-known file once its end
  // record is inside the durable horizon of the log that holds it — on a
  // sharded WAL that is the *meta shard's* (shard 0's) horizon, never the
  // forcing chain's touched-shard view. Invoked from every interceptor
  // force site and after checkpoint capture; a publish-once latch keyed by
  // the begin LSN makes the repeat invocations no-ops (counted in
  // phoenix.checkpoint.publish_skips). With options.auto_truncate_log set,
  // a publish also garbage-collects the log head.
  void MaybePublishCheckpoint();

  // --- asynchronous checkpointing (RuntimeOptions.async_checkpoint) ---

  // True when the background checkpoint session owes this process a sweep:
  // `interval` incoming calls completed since the last sweep, or a context
  // deferred by the last sweep (it was serving a call) has gone idle.
  // Evaluated as a ParkUntil predicate while every chain is quiesced.
  bool AsyncSweepDue(uint32_t interval) const;

  // One background sweep: saves state for every dirty idle context
  // (contexts with a live incoming call are deferred and re-armed via
  // AsyncSweepDue), takes a process checkpoint, forces the bracket on the
  // calling (background) chain with ForcePoint::kAsyncCheckpoint, and
  // publishes. Returns Crashed when the process dies mid-sweep.
  Status RunAsyncSweep();

  // Log truncation (an engineering necessity checkpoints enable, though the
  // paper stops short of it): trims each shard's head (a single log is
  // shard 0) to the lowest local offset any pin holds on that shard — the
  // published bracket, the pending and published brackets' captured refs,
  // every context's recovery LSN and every live last-call reply record.
  // A shard no pin touches trims up to the published checkpoint's global
  // sequence number. Emits one checkpoint/trim instant per shard, naming
  // the lowest pin, even when it reclaims nothing. Returns bytes
  // reclaimed, summed across shards.
  uint64_t GarbageCollect();

  // --- statistics ---
  uint64_t state_saves() const { return state_saves_; }
  uint64_t checkpoints_taken() const { return checkpoints_taken_; }
  uint64_t checkpoints_published() const { return checkpoints_published_; }
  uint64_t publish_skips() const { return publish_skips_; }
  uint64_t async_sweeps() const { return async_sweeps_; }
  uint64_t async_deferrals() const { return async_deferrals_; }

 private:
  // Read-only and functional contexts never reach the save cadence (it
  // counts logged calls only), so without a new origin their creation
  // records would pin the log head and recovery's pass-2 scan start for
  // the whole run. Relogs the origin of every idle one (id != 0) whose
  // origin precedes the published checkpoint in order space. Returns
  // Crashed when a fallback state save dies at kDuringStateSave.
  Status RelogStatelessOrigins();

  // Appends a copy of `ctx`'s creation record and moves its creation LSN
  // there: the cheapest origin (a create, no state restore). Falls back to
  // SaveContextState when a copy would not replay to the same context.
  Status RelogOrigin(Context& ctx);

  // A context deferred by the last sweep has since finished its call and
  // can be captured now.
  bool HasDeferredIdleContext() const;

  Process* process_;
  uint64_t pending_begin_lsn_ = kInvalidLsn;
  uint64_t pending_end_lsn_ = kInvalidLsn;
  // Exclusive durable horizon (a local offset on the log that holds the
  // bracket — shard 0 when sharded) that must be reached before the
  // pending end record may publish. Captured right after the end append,
  // so it is one past the end record regardless of frame packing.
  uint64_t pending_end_horizon_ = 0;
  // Sim time of the end-record append, for phoenix.checkpoint.async.lag_ms.
  double pending_end_append_ms_ = 0.0;
  // Every LSN the pending bracket's entries reference (context recovery
  // origins and last-call reply records at capture time). GC must pin them
  // all: once capture is async, a context may save newer state between
  // capture and publish, and the live recovery LSN alone would let
  // auto_truncate_log trim records the checkpoint-in-progress still needs.
  // On publish they become published_ref_lsns_ — the published entries keep
  // referencing them until the next publish supersedes them.
  std::vector<uint64_t> pending_ref_lsns_;
  std::vector<uint64_t> published_ref_lsns_;
  // Publish-once latch: begin LSN of the checkpoint already in the
  // well-known file. Repeat MaybePublishCheckpoint calls for it are skips.
  uint64_t published_begin_lsn_ = kInvalidLsn;
  // Contexts the last async sweep skipped because they were serving a call.
  std::set<uint64_t> deferred_contexts_;
  uint64_t last_sweep_incoming_calls_ = 0;
  std::map<uint64_t, uint64_t> calls_since_save_;  // context id -> count
  uint64_t calls_since_checkpoint_ = 0;
  uint64_t state_saves_ = 0;
  uint64_t checkpoints_taken_ = 0;
  uint64_t checkpoints_published_ = 0;
  uint64_t publish_skips_ = 0;
  uint64_t async_sweeps_ = 0;
  uint64_t async_deferrals_ = 0;
};

}  // namespace phoenix

#endif  // PHOENIX_RECOVERY_CHECKPOINT_MANAGER_H_
