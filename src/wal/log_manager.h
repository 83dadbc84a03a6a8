#ifndef PHOENIX_WAL_LOG_MANAGER_H_
#define PHOENIX_WAL_LOG_MANAGER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "sim/cost_model.h"
#include "sim/disk_model.h"
#include "sim/sim_clock.h"
#include "sim/stable_storage.h"
#include "wal/commit_pipeline.h"
#include "wal/force_point.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"
#include "wal/shard_router.h"

namespace phoenix {

// The per-process log manager (Figure 7): owns the process's recovery log
// and its well-known file, and is the single point through which message
// interceptors, the checkpoint manager, and recovery touch the log.
//
// Sharded mode (shard_count > 1): the manager multiplexes N shard logs,
// each with its own LogWriter and CommitPipeline (durable horizon). A
// deterministic seeded router sends every context's records to one shard
// (wal/shard_router.h), LSNs become composite (shard id in the top 16
// bits), and every frame payload carries a global sequence number so
// recovery can k-way merge the shards back into append order. Shard 0
// keeps the plain log name (and the well-known file); shard k > 0 lives
// in "<log_name>.s<k>". With shard_count == 1 every code path below is
// the pre-sharding single-log path, byte for byte.
class LogManager {
 public:
  // `log_name` is the durable name, e.g. "machineA/proc1.log"; the
  // well-known file is derived from it. The pointed-to simulation pieces
  // must outlive the manager.
  LogManager(std::string log_name, StableStorage* storage, DiskModel* disk,
             SimClock* clock, const CostModel* costs, uint32_t shard_count = 1,
             uint64_t shard_seed = 0);

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  // --- sharding surface ---
  uint32_t shard_count() const { return shard_count_; }
  bool sharded() const { return shard_count_ > 1; }
  const ShardRouter& router() const { return router_; }
  std::string shard_log_name(uint32_t shard) const;
  // Next global sequence number a sharded append will stamp.
  uint64_t next_gsn() const { return next_gsn_; }

  // Appends `record` to the owning shard's log buffer (charging the
  // buffer-copy CPU cost) and returns its LSN — composite in sharded mode.
  // Does NOT force.
  uint64_t Append(const LogRecord& record);

  // Called after every append with the owning shard id; Process uses it to
  // track which shards each chain has touched (so cross-shard sends force
  // only those). Only installed in sharded mode.
  void SetAppendObserver(std::function<void(uint32_t)> observer) {
    append_observer_ = std::move(observer);
  }

  // Durability wait: returns once everything below `up_to_lsn` is stable,
  // flushing inline or parking on the commit pipeline's group-commit path.
  // Callers pass next_lsn() to mean "everything appended so far" (single
  // log); sharded callers go through WaitDurableShard per touched shard.
  Status WaitDurable(uint64_t up_to_lsn, ForcePoint reason,
                     bool allow_park = true) {
    return pipeline_.WaitDurable(up_to_lsn, reason, allow_park);
  }

  // Waits until everything appended to `shard` so far is stable.
  Status WaitDurableShard(uint32_t shard, ForcePoint reason, bool allow_park);

  // Forces all buffered records to disk (no-op if none); all shards in
  // ascending order. Always inline — the manual escape hatch for tests and
  // tools; runtime code goes through WaitDurable so the wait can be
  // attributed and batched.
  void Force(ForcePoint reason = ForcePoint::kManual);

  // True if everything up to and including `lsn` is stable (`lsn` is
  // composite in sharded mode; kInvalidLsn is never stable).
  bool IsStable(uint64_t lsn) const;

  uint64_t next_lsn() const { return writer_.next_lsn(); }

  // First LSN not yet durable (== stable_end_lsn(); pipeline vocabulary).
  uint64_t durable_lsn() const { return writer_.stable_bytes(); }

  // The durability half of the log (group-commit wiring lives here).
  // The no-argument form is shard 0 — the whole log when shard_count == 1.
  CommitPipeline& pipeline() { return pipeline_; }
  CommitPipeline& pipeline(uint32_t shard) {
    return shard == 0 ? pipeline_ : extra_shards_[shard - 1]->pipeline;
  }

  // Crash: the unforced buffers are gone, and pipeline waiters abort.
  void DropBuffer();

  // Read-only image of the stable log (for recovery and tests). Shard 0 /
  // the whole log when shard_count == 1.
  const std::vector<uint8_t>& StableLog() const;

  // Stable log with its logical base (nonzero after head truncation).
  LogView StableView() const;
  // Per-shard equivalents; bases and offsets are shard-local.
  const std::vector<uint8_t>& ShardStableLog(uint32_t shard) const;
  LogView ShardStableView(uint32_t shard) const;

  // Stable log plus the still-buffered tail. A *context* failure (§4.4)
  // does not lose the process's buffer, so context recovery reads this
  // combined image; process-crash recovery must use StableLog().
  std::vector<uint8_t> FullLog() const;
  std::vector<uint8_t> ShardFullLog(uint32_t shard) const;

  // Logical offset of the first retained byte (the garbage-collection
  // point). Shard 0; per-shard bases are shard-local.
  uint64_t head_base() const;
  uint64_t shard_head_base(uint32_t shard) const;
  // Order cut that covers the whole retained log: the head base on a single
  // log (where a record's order is its LSN), 0 on a sharded one (every gsn
  // is at least 1).
  uint64_t head_order() const { return sharded() ? 0 : head_base(); }

  // Garbage collection: drops every record before `lsn`. Callers (the
  // checkpoint manager) must only pass LSNs no recovery can need — below
  // every context recovery LSN, every live last-call reply LSN, and the
  // published checkpoint. Sharded GC trims each shard at its own point.
  void TrimHead(uint64_t lsn);
  void TrimShardHead(uint32_t shard, uint64_t local_lsn);

  // Logical LSN one past the last stable byte (shard 0 / single log).
  uint64_t stable_end_lsn() const { return writer_.stable_bytes(); }
  uint64_t shard_stable_end(uint32_t shard) const {
    return shard_writer(shard).stable_bytes();
  }
  uint64_t shard_next_lsn(uint32_t shard) const {
    return shard_writer(shard).next_lsn();
  }

  // Torn-tail salvage: physically truncates the stable log at `end_lsn`
  // (the first unreadable byte; composite in sharded mode) and realigns
  // the owning shard's writer, so the partial frame cannot pollute future
  // appends. Recovery-time only; the buffer must be empty.
  void TruncateStableTail(uint64_t end_lsn);

  // Reads the single record whose frame starts at `lsn` on the stable log
  // (composite in sharded mode, where the gsn prefix is stripped). The
  // shard-aware replacement for ReadRecordAt(StableView(), lsn).
  Result<LogRecord> ReadRecordAtLsn(uint64_t lsn) const;
  // Global sequence number of the sharded record at composite `lsn`.
  Result<uint64_t> OrderOfRecordAt(uint64_t lsn) const;

  // --- well-known file (§4.3): LSN of the last flushed begin-checkpoint ---
  // Force-writes `lsn`; charged as one disk write.
  void WriteWellKnownLsn(uint64_t lsn);
  // kNotFound if no checkpoint has ever completed.
  Result<uint64_t> ReadWellKnownLsn() const;

  // Connects the log (and its writers) to the simulation-wide metrics
  // registry and tracer; `component` labels everything (e.g. "ma/1").
  void BindObs(obs::MetricsRegistry* metrics, obs::Tracer* tracer,
               std::string component);

  // Per-chain causal stack (implemented by Simulation): lets WAL-layer
  // spans — appends, forces, durability waits — attach under the call
  // chain that caused them.
  void SetTraceScope(obs::TraceScope* scope);

  // --- statistics (summed across shards) ---
  uint64_t num_appends() const;
  uint64_t num_forces() const;
  uint64_t bytes_forced() const;

  // Per-force attribution (start/end LSN + ForcePoint), in issue order.
  // Shard 0 / the whole log when shard_count == 1; offsets shard-local.
  const std::vector<ForceMark>& force_marks() const {
    return writer_.force_marks();
  }
  const std::vector<ForceMark>& shard_force_marks(uint32_t shard) const {
    return shard_writer(shard).force_marks();
  }

  const std::string& log_name() const { return writer_.log_name(); }

 private:
  // Shards 1..N-1; shard 0 is the writer_/pipeline_ pair below so the
  // single-log configuration runs the exact pre-sharding code.
  struct ExtraShard {
    ExtraShard(std::string name, StableStorage* storage, DiskModel* disk,
               SimClock* clock, const CostModel* costs)
        : writer(std::move(name), storage, disk, clock),
          pipeline(&writer, clock, costs) {}
    LogWriter writer;
    CommitPipeline pipeline;
  };

  LogWriter& shard_writer(uint32_t shard) {
    return shard == 0 ? writer_ : extra_shards_[shard - 1]->writer;
  }
  const LogWriter& shard_writer(uint32_t shard) const {
    return shard == 0 ? writer_ : extra_shards_[shard - 1]->writer;
  }

  // Scans every shard's stable log for the largest stamped gsn, so a
  // restarted process resumes the global sequence where it left off.
  void RecoverNextGsn();

  StableStorage* storage_;
  DiskModel* disk_;
  SimClock* clock_;
  const CostModel* costs_;
  uint32_t shard_count_;
  ShardRouter router_;
  LogWriter writer_;
  CommitPipeline pipeline_;
  std::vector<std::unique_ptr<ExtraShard>> extra_shards_;
  std::string well_known_name_;
  uint64_t next_gsn_ = 1;
  std::function<void(uint32_t)> append_observer_;

  // Observability sinks (unowned; null until BindObs).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  std::string component_;
};

}  // namespace phoenix

#endif  // PHOENIX_WAL_LOG_MANAGER_H_
