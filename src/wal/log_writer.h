#ifndef PHOENIX_WAL_LOG_WRITER_H_
#define PHOENIX_WAL_LOG_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/tracer.h"
#include "sim/disk_model.h"
#include "sim/sim_clock.h"
#include "sim/stable_storage.h"
#include "wal/force_point.h"

namespace phoenix {

// One physical force: which byte range it made stable and why it was
// issued. log_dump interleaves these with the records so a dump shows
// where the durability boundaries fell.
struct ForceMark {
  uint64_t start_lsn;  // first byte made stable by this force
  uint64_t end_lsn;    // one past the last byte made stable
  ForcePoint reason;
};

// Buffered, forced, append-only log writer (one per process). Records
// accumulate in an in-memory buffer and reach stable storage only at a
// force (or when the buffer fills) — exactly the paper's §5 setup. A crash
// drops the buffer: unforced records are gone, which is what the logging
// disciplines of Section 3 are designed around.
//
// Frame format (wal/frame_codec.h): [varint payload_len][u32 crc32c(payload)]
// [payload], a 5-byte header for payloads under 128 bytes. The LSN of a
// record is the byte offset of its frame in the log.
class LogWriter {
 public:
  LogWriter(std::string log_name, StableStorage* storage, DiskModel* disk,
            SimClock* clock, size_t buffer_capacity = 64 * 1024);

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  // Frames `payload` into the buffer; returns its LSN. Forces first if the
  // buffer would overflow.
  uint64_t AppendPayload(const std::vector<uint8_t>& payload);

  // Writes all buffered frames to stable storage as one sequential disk
  // write, advancing the simulated clock by the disk latency. No-op (and
  // not counted) when nothing is buffered. Returns bytes made stable.
  // `reason` attributes the force in metrics and force_marks().
  size_t Force(ForcePoint reason = ForcePoint::kManual);

  // LSN the next append will receive.
  uint64_t next_lsn() const { return stable_bytes_ + buffer_.size(); }

  // True if `lsn` is already on stable storage.
  bool IsStable(uint64_t lsn) const { return lsn < stable_bytes_; }

  bool has_buffered() const { return !buffer_.empty(); }
  uint64_t stable_bytes() const { return stable_bytes_; }
  // The unforced tail (survives context failures, dies with the process).
  const std::vector<uint8_t>& buffer() const { return buffer_; }

  // Crash: unforced records are lost.
  void DropBuffer() { buffer_.clear(); }

  // Mid-recovery salvage: the stable log was physically truncated under
  // this writer (torn tail amputation); realign its notion of the stable
  // end so new appends land right after the last valid frame, and drop the
  // force marks past it. Only valid with an empty buffer.
  void ResetStableEnd(uint64_t end_lsn);

  const std::string& log_name() const { return log_name_; }

  // Connects this writer to the simulation-wide observability sinks.
  // `component` labels every metric/event (e.g. "ma/1"). Stats below keep
  // working unbound; the registry-backed series additionally survive the
  // process restarts that recreate this writer.
  void BindObs(obs::MetricsRegistry* metrics, obs::Tracer* tracer,
               std::string component);

  // The calling chain's causal span stack (implemented by Simulation).
  // When set, appends and force spans attach under the chain that caused
  // them, so phoenix_prof can charge disk time to the right call tree.
  void SetTraceScope(obs::TraceScope* scope) { scope_ = scope; }

  // Sharded-WAL observability: when enabled, every force additionally
  // increments phoenix.wal.shard.forces{process, shard}. Never enabled on
  // the single-log path, so shards=1 metric output stays byte-identical.
  void SetShardObs(uint32_t shard_id) {
    shard_obs_ = true;
    shard_id_ = shard_id;
  }

  // --- statistics (benchmarks read deltas of these) ---
  uint64_t num_appends() const { return num_appends_; }
  uint64_t num_forces() const { return num_forces_; }
  uint64_t bytes_forced() const { return bytes_forced_; }

  // The forces of this writer whose bytes are still retained, oldest
  // first, with their attribution.
  const std::vector<ForceMark>& force_marks() const { return force_marks_; }

  // Garbage collection: drops the stable bytes before `lsn`, and the force
  // marks that end below the new head (a dump of the log elides them).
  void TrimHead(uint64_t lsn);

 private:
  std::string log_name_;
  StableStorage* storage_;
  DiskModel* disk_;
  SimClock* clock_;
  size_t buffer_capacity_;
  std::vector<uint8_t> buffer_;
  uint64_t stable_bytes_;

  uint64_t num_appends_ = 0;
  uint64_t num_forces_ = 0;
  uint64_t bytes_forced_ = 0;
  std::vector<ForceMark> force_marks_;
  bool shard_obs_ = false;
  uint32_t shard_id_ = 0;

  // Observability sinks (unowned; null until BindObs).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::TraceScope* scope_ = nullptr;
  std::string component_;
  obs::LabelSet labels_;
};

}  // namespace phoenix

#endif  // PHOENIX_WAL_LOG_WRITER_H_
