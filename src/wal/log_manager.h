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
// The log is a vector of N shard logs (N = 1 by default), each with its own
// LogWriter and CommitPipeline (durable horizon). Shard 0 keeps the plain
// log name and the well-known file; shard k > 0 lives in
// "<log_name>.s<k>". A deterministic seeded router sends every context's
// records to one shard (wal/shard_router.h), and an LSN is composite (shard
// id in the top 16 bits), so on shard 0 it is the plain byte offset.
//
// This class alone decides the frame format (wal/frame_codec.h). With N > 1
// every frame payload starts with a global sequence number (an absolute
// varint), so readers can k-way merge the shards back into append order;
// with N = 1 frames carry no prefix and a record's order is its LSN. The
// shard images it hands out (LogView) carry that format, and every reader
// reads an image by it.
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
    return pipeline(0).WaitDurable(up_to_lsn, reason, allow_park);
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

  uint64_t next_lsn() const { return shard_next_lsn(0); }

  // First LSN not yet durable (== stable_end_lsn(); pipeline vocabulary).
  uint64_t durable_lsn() const { return stable_end_lsn(); }

  // The durability half of the log (group-commit wiring lives here).
  // The no-argument form is shard 0 — the whole log when shard_count == 1.
  CommitPipeline& pipeline() { return pipeline(0); }
  CommitPipeline& pipeline(uint32_t shard) { return shards_[shard]->pipeline; }

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

  // The stable log of `shard` plus its still-buffered tail, copied into
  // *image, which must outlive the view. A *context* failure (§4.4) does
  // not lose the process's buffer, so context recovery reads this image;
  // process-crash recovery must use the stable views.
  LogView ShardFullView(uint32_t shard, std::vector<uint8_t>* image) const;

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
  uint64_t stable_end_lsn() const { return shard_stable_end(0); }
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

  // Reads the single record whose frame starts at composite `lsn` on the
  // stable log: ReadRecordAt on the owning shard's stable view.
  Result<LogRecord> ReadRecordAtLsn(uint64_t lsn,
                                    uint64_t* order_out = nullptr) const;
  // Order of the record at composite `lsn`: its global sequence number on
  // a sharded log; on a single log the LSN itself, read or not.
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

  // Per-force attribution (start/end LSN + ForcePoint), oldest first, for
  // the forces whose bytes are still retained: a head trim drops the marks
  // ending below the new head, a tail truncation those past the new end.
  // Shard 0 / the whole log when shard_count == 1; offsets shard-local.
  const std::vector<ForceMark>& force_marks() const {
    return shard_force_marks(0);
  }
  const std::vector<ForceMark>& shard_force_marks(uint32_t shard) const {
    return shard_writer(shard).force_marks();
  }

  const std::string& log_name() const { return shard_writer(0).log_name(); }

 private:
  struct Shard {
    Shard(std::string name, StableStorage* storage, DiskModel* disk,
          SimClock* clock, const CostModel* costs)
        : writer(std::move(name), storage, disk, clock),
          pipeline(&writer, clock, costs) {}
    LogWriter writer;
    CommitPipeline pipeline;  // points at `writer`, so a Shard never moves
  };

  LogWriter& shard_writer(uint32_t shard) { return shards_[shard]->writer; }
  const LogWriter& shard_writer(uint32_t shard) const {
    return shards_[shard]->writer;
  }
  // `bytes` as an image of `shard`, in the shard's format.
  LogView ShardView(uint32_t shard, const std::vector<uint8_t>* bytes) const;

  // Scans every shard's stable log for the largest stamped gsn, so a
  // restarted process resumes the global sequence where it left off.
  void RecoverNextGsn();

  StableStorage* storage_;
  DiskModel* disk_;
  SimClock* clock_;
  const CostModel* costs_;
  uint32_t shard_count_;
  ShardRouter router_;
  std::vector<std::unique_ptr<Shard>> shards_;
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
