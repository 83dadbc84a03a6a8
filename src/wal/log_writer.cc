#include "wal/log_writer.h"

#include <algorithm>

#include "common/strings.h"
#include "wal/frame_codec.h"

namespace phoenix {

LogWriter::LogWriter(std::string log_name, StableStorage* storage,
                     DiskModel* disk, SimClock* clock, size_t buffer_capacity)
    : log_name_(std::move(log_name)),
      storage_(storage),
      disk_(disk),
      clock_(clock),
      buffer_capacity_(buffer_capacity),
      stable_bytes_(storage->LogSize(log_name_)) {}

void LogWriter::BindObs(obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                        std::string component) {
  metrics_ = metrics;
  tracer_ = tracer;
  component_ = std::move(component);
  labels_ = obs::LabelSet{{"process", component_}};
}

uint64_t LogWriter::AppendPayload(const std::vector<uint8_t>& payload) {
  size_t frame_size = FrameHeaderSize(payload.size()) + payload.size();
  if (buffer_.size() + frame_size > buffer_capacity_ && !buffer_.empty()) {
    Force(ForcePoint::kBufferFull);
  }
  uint64_t lsn = next_lsn();
  AppendFrame(payload, &buffer_);
  ++num_appends_;
  if (metrics_ != nullptr) {
    metrics_->GetCounter("phoenix.log.appends", labels_).Increment();
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant("log", "append", component_,
                     scope_ != nullptr ? scope_->Current() : obs::SpanLink{},
                     {obs::Arg("lsn", lsn),
                      obs::Arg("bytes", static_cast<uint64_t>(payload.size()))});
  }
  return lsn;
}

size_t LogWriter::Force(ForcePoint reason) {
  if (buffer_.empty()) return 0;
  size_t bytes = buffer_.size();
  obs::Tracer::Span span;
  if (tracer_ != nullptr && tracer_->enabled()) {
    span = tracer_->StartSpan("log", "force", component_,
                              scope_ != nullptr ? scope_->Current()
                                                : obs::SpanLink{},
                              {obs::Arg("bytes", static_cast<uint64_t>(bytes)),
                               obs::Arg("reason", ForcePointName(reason))});
  }
  storage_->AppendLog(log_name_, buffer_);
  force_marks_.push_back(ForceMark{stable_bytes_, stable_bytes_ + bytes,
                                   reason});
  stable_bytes_ += bytes;
  buffer_.clear();
  double latency = disk_->WriteLatencyMs(clock_->NowMs(), bytes);
  clock_->AdvanceMs(latency);
  ++num_forces_;
  bytes_forced_ += bytes;
  const DiskModel::WriteBreakdown& bd = disk_->last_breakdown();
  if (metrics_ != nullptr) {
    obs::LabelSet force_labels = labels_;
    force_labels.emplace_back("reason", ForcePointName(reason));
    metrics_->GetCounter("phoenix.log.forces", force_labels).Increment();
    metrics_->GetCounter("phoenix.log.bytes_forced", labels_)
        .Increment(static_cast<uint64_t>(bytes));
    metrics_->GetHistogram("phoenix.log.force_latency_ms", labels_)
        .Record(latency);
    // Where the force's milliseconds went (§5.2.2's rotational analysis).
    metrics_->GetGauge("phoenix.disk.seek_ms", labels_).Add(bd.seek_ms +
                                                            bd.settle_ms);
    metrics_->GetGauge("phoenix.disk.rotational_wait_ms", labels_)
        .Add(bd.rotational_wait_ms);
    metrics_->GetGauge("phoenix.disk.transfer_ms", labels_).Add(bd.transfer_ms);
    if (shard_obs_) {
      obs::LabelSet shard_labels = labels_;
      shard_labels.emplace_back("shard", StrCat(shard_id_));
      metrics_->GetCounter("phoenix.wal.shard.forces", shard_labels)
          .Increment();
    }
  }
  span.AddArg(obs::Arg("latency_ms", latency));
  span.AddArg(obs::Arg("seek_ms", bd.seek_ms + bd.settle_ms));
  span.AddArg(obs::Arg("rotational_wait_ms", bd.rotational_wait_ms));
  span.AddArg(obs::Arg("transfer_ms", bd.transfer_ms));
  return bytes;
}

void LogWriter::TrimHead(uint64_t lsn) {
  storage_->TrimLogHead(log_name_, lsn);
  uint64_t base = storage_->LogBase(log_name_);
  // Marks are in log order, so the dropped ones form a prefix.
  auto kept = std::find_if(
      force_marks_.begin(), force_marks_.end(),
      [base](const ForceMark& mark) { return mark.end_lsn >= base; });
  force_marks_.erase(force_marks_.begin(), kept);
}

void LogWriter::ResetStableEnd(uint64_t end_lsn) {
  stable_bytes_ = end_lsn;
  auto dropped = std::find_if(
      force_marks_.begin(), force_marks_.end(),
      [end_lsn](const ForceMark& mark) { return mark.end_lsn > end_lsn; });
  force_marks_.erase(dropped, force_marks_.end());
}

}  // namespace phoenix
