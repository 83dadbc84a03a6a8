#ifndef PHOENIX_WAL_COMMIT_PIPELINE_H_
#define PHOENIX_WAL_COMMIT_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/result.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/cost_model.h"
#include "sim/sim_clock.h"
#include "wal/force_point.h"
#include "wal/log_writer.h"

namespace phoenix {

// The durability half of the log: "append" puts bytes in the writer's
// buffer, the commit pipeline decides when those bytes spin the disk.
// Callers never force directly any more — they declare *what must be
// durable* (an LSN) and *why* (a ForcePoint), via WaitDurable.
//
// Two modes:
//  - Inline (default): WaitDurable behaves exactly like the old
//    LogManager::Force() — a no-op when the horizon is already durable,
//    otherwise one dispatch charge plus one sequential disk write. This
//    keeps every single-session benchmark byte-identical.
//  - Group commit (RuntimeOptions.group_commit + an installed Scheduler):
//    WaitDurable parks the calling session; when the scheduler runs out of
//    runnable sessions it flushes the pipeline with the most parked
//    waiters, satisfying the whole batch with one disk write
//    (GroupFlush). Batch sizes land in the
//    phoenix.wal.group_commit.batch_size histogram.
//
// The durable horizon is exclusive: WaitDurable(lsn) returns once every
// byte *below* `lsn` is stable, so callers pass `next_lsn()` to mean
// "everything appended so far".
class CommitPipeline {
 public:
  // A cooperative session runtime that can suspend the calling chain.
  // Implemented by runtime/session.h; the pipeline only knows the
  // interface so wal/ stays below runtime/ in the layering.
  class Scheduler {
   public:
    virtual ~Scheduler() = default;
    // Parks the current chain until pipeline->durable_lsn() >= lsn or the
    // pipeline aborts (process crash). Returns false when the caller is
    // not running on a parkable chain (main thread, recovery), in which
    // case WaitDurable falls back to an inline flush.
    virtual bool ParkUntilDurable(CommitPipeline* pipeline, uint64_t lsn) = 0;
    // Sessions currently parked on `pipeline`'s durability (the batch a
    // flush right now would satisfy, excluding the caller).
    virtual size_t ParkedWaiters(const CommitPipeline* /*pipeline*/) const {
      return 0;
    }
  };

  CommitPipeline(LogWriter* writer, SimClock* clock, const CostModel* costs)
      : writer_(writer), clock_(clock), costs_(costs) {}

  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  void SetGroupCommit(bool enabled) { group_commit_ = enabled; }
  bool group_commit() const { return group_commit_; }
  void SetScheduler(Scheduler* scheduler) { scheduler_ = scheduler; }
  Scheduler* scheduler() const { return scheduler_; }

  // Batching policy (RuntimeOptions.group_commit_max_*, both 0 =
  // unbounded): `max_batch` flushes as soon as that many waits have
  // accumulated instead of parking the last one; `max_wait_ms` lets the
  // scheduler flush a pipeline whose oldest parked waiter has sat that
  // long, even though runnable sessions remain.
  void SetGroupCommitPolicy(double max_wait_ms, uint32_t max_batch) {
    max_wait_ms_ = max_wait_ms;
    max_batch_ = max_batch;
  }
  double group_commit_max_wait_ms() const { return max_wait_ms_; }
  uint32_t group_commit_max_batch() const { return max_batch_; }
  double NowMs() const;

  // Failure-injection hook consulted at the top of GroupFlush (the
  // kDuringGroupFlush point): returns true when the process died, in which
  // case the flush never happens and the parked batch wakes into the new
  // abort epoch. Installed by Process; wal/ stays below runtime/.
  void SetCrashHook(std::function<bool()> hook) {
    crash_hook_ = std::move(hook);
  }

  // Blocks (cooperatively, or inline) until everything below `up_to_lsn`
  // is on stable storage. `reason` attributes the wait in metrics.
  // `allow_park` is false on chains that must not yield (recovery,
  // manual/test forces). Returns Crashed when the process died and took
  // the unforced tail with it before the wait was satisfied.
  Status WaitDurable(uint64_t up_to_lsn, ForcePoint reason,
                     bool allow_park = true);

  // One dispatch charge + one disk write covering every parked waiter of
  // this pipeline; `batch_size` is how many waits the write satisfies.
  // Called by the scheduler, never by client chains.
  void GroupFlush(size_t batch_size);

  // First LSN not yet durable (exclusive horizon).
  uint64_t durable_lsn() const { return writer_->stable_bytes(); }
  // LSN the next append will receive; durable_lsn() <= appended_lsn().
  uint64_t appended_lsn() const { return writer_->next_lsn(); }

  // Crash notification: the unforced tail is gone, so parked waiters can
  // never be satisfied — they wake, observe the epoch change, and their
  // WaitDurable returns Crashed.
  void OnCrash() { ++abort_epoch_; }
  uint64_t abort_epoch() const { return abort_epoch_; }

  void BindObs(obs::MetricsRegistry* metrics, obs::Tracer* tracer,
               std::string component);

  // The calling chain's causal span stack (implemented by Simulation).
  // When set, every actual wait becomes a "wal"/"wait" span under the
  // chain's current frame, and the inline flush's force span nests inside
  // it — so latency attribution can split durability time into own-force
  // vs parked-in-group-commit.
  void SetTraceScope(obs::TraceScope* scope) { scope_ = scope; }

  // Which shard of its process's sharded WAL this pipeline serves (0 on
  // the single-log path). The scheduler's idle group-flush selection uses
  // it to break "most parked waiters" ties deterministically, and — when
  // SetShardObs is also called — waits and batch sizes land in the
  // per-shard phoenix.wal.shard.* series.
  void set_shard_id(uint32_t shard_id) { shard_id_ = shard_id; }
  uint32_t shard_id() const { return shard_id_; }
  void SetShardObs(bool emit) { shard_obs_ = emit; }

 private:
  // The old LogManager::Force() body, verbatim in behavior: no-op when
  // nothing is buffered, else dispatch charge + writer force.
  void FlushNow(ForcePoint reason);

  LogWriter* writer_;
  SimClock* clock_;
  const CostModel* costs_;
  bool group_commit_ = false;
  Scheduler* scheduler_ = nullptr;
  uint64_t abort_epoch_ = 0;
  double max_wait_ms_ = 0.0;
  uint32_t max_batch_ = 0;
  uint32_t shard_id_ = 0;
  bool shard_obs_ = false;
  std::function<bool()> crash_hook_;

  // Observability sinks (unowned; null until BindObs).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::TraceScope* scope_ = nullptr;
  std::string component_;
};

}  // namespace phoenix

#endif  // PHOENIX_WAL_COMMIT_PIPELINE_H_
