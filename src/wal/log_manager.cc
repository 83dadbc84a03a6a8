#include "wal/log_manager.h"

#include "common/macros.h"
#include "common/strings.h"
#include "wal/frame_codec.h"

namespace phoenix {

LogManager::LogManager(std::string log_name, StableStorage* storage,
                       DiskModel* disk, SimClock* clock,
                       const CostModel* costs, uint32_t shard_count,
                       uint64_t shard_seed)
    : storage_(storage),
      disk_(disk),
      clock_(clock),
      costs_(costs),
      shard_count_(shard_count),
      router_(shard_count_, shard_seed),
      well_known_name_(log_name + ".wkf") {
  PHX_CHECK(shard_count_ >= 1 && shard_count_ <= kMaxWalShards);
  for (uint32_t s = 0; s < shard_count_; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        s == 0 ? log_name : StrCat(log_name, ".s", s), storage, disk, clock,
        costs));
  }
  if (sharded()) RecoverNextGsn();
}

std::string LogManager::shard_log_name(uint32_t shard) const {
  return shard_writer(shard).log_name();
}

void LogManager::RecoverNextGsn() {
  uint64_t max_gsn = 0;
  for (uint32_t s = 0; s < shard_count_; ++s) {
    LogReader reader(ShardStableView(s), shard_head_base(s));
    reader.EnableSalvage();
    while (auto parsed = reader.Next()) {
      if (parsed->order > max_gsn) max_gsn = parsed->order;
    }
  }
  next_gsn_ = max_gsn + 1;
}

uint64_t LogManager::Append(const LogRecord& record) {
  uint32_t shard = router_.ShardForRecord(record);
  Encoder enc;
  if (sharded()) PutGsnPrefix(next_gsn_++, enc);  // inside the frame CRC
  EncodeLogRecord(record, enc);
  clock_->AdvanceMs(costs_->log_append_ms);
  uint64_t local = shard_writer(shard).AppendPayload(enc.buffer());
  if (append_observer_) append_observer_(shard);
  return MakeShardLsn(shard, local);
}

Status LogManager::WaitDurableShard(uint32_t shard, ForcePoint reason,
                                    bool allow_park) {
  return pipeline(shard).WaitDurable(shard_writer(shard).next_lsn(), reason,
                                     allow_park);
}

void LogManager::Force(ForcePoint reason) {
  for (uint32_t s = 0; s < shard_count_; ++s) {
    LogWriter& writer = shard_writer(s);
    if (!writer.has_buffered()) continue;
    clock_->AdvanceMs(costs_->force_dispatch_ms);
    writer.Force(reason);
  }
}

bool LogManager::IsStable(uint64_t lsn) const {
  if (ShardOfLsn(lsn) >= shard_count_) return false;  // kInvalidLsn too
  return shard_writer(ShardOfLsn(lsn)).IsStable(LocalOfLsn(lsn));
}

void LogManager::DropBuffer() {
  for (uint32_t s = 0; s < shard_count_; ++s) {
    shard_writer(s).DropBuffer();
    pipeline(s).OnCrash();
  }
}

const std::vector<uint8_t>& LogManager::StableLog() const {
  return ShardStableLog(0);
}

LogView LogManager::StableView() const { return ShardStableView(0); }

const std::vector<uint8_t>& LogManager::ShardStableLog(uint32_t shard) const {
  return storage_->ReadLog(shard_writer(shard).log_name());
}

LogView LogManager::ShardStableView(uint32_t shard) const {
  return ShardView(shard, &ShardStableLog(shard));
}

LogView LogManager::ShardFullView(uint32_t shard,
                                  std::vector<uint8_t>* image) const {
  *image = ShardStableLog(shard);
  const std::vector<uint8_t>& buffered = shard_writer(shard).buffer();
  image->insert(image->end(), buffered.begin(), buffered.end());
  return ShardView(shard, image);
}

LogView LogManager::ShardView(uint32_t shard,
                              const std::vector<uint8_t>* bytes) const {
  LogView view(bytes, shard_head_base(shard));
  view.shard_ = shard;
  view.gsn_prefixed_ = sharded();
  return view;
}

uint64_t LogManager::head_base() const { return shard_head_base(0); }

uint64_t LogManager::shard_head_base(uint32_t shard) const {
  return storage_->LogBase(shard_writer(shard).log_name());
}

void LogManager::TrimHead(uint64_t lsn) { TrimShardHead(0, lsn); }

void LogManager::TrimShardHead(uint32_t shard, uint64_t local_lsn) {
  shard_writer(shard).TrimHead(local_lsn);
}

void LogManager::TruncateStableTail(uint64_t end_lsn) {
  uint64_t local = LocalOfLsn(end_lsn);
  LogWriter& writer = shard_writer(ShardOfLsn(end_lsn));
  uint64_t old_end = storage_->LogSize(writer.log_name());
  storage_->TruncateLog(writer.log_name(), local);
  writer.ResetStableEnd(storage_->LogSize(writer.log_name()));
  uint64_t discarded = old_end > local ? old_end - local : 0;
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter("phoenix.wal.torn_tails",
                     obs::LabelSet{{"process", component_}})
        .Increment();
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant("log", "torn_tail", component_,
                     {obs::Arg("torn_at_lsn", end_lsn),
                      obs::Arg("bytes_discarded", discarded)});
  }
}

Result<LogRecord> LogManager::ReadRecordAtLsn(uint64_t lsn,
                                              uint64_t* order_out) const {
  if (ShardOfLsn(lsn) >= shard_count_) {  // kInvalidLsn too
    return Status::Corruption("lsn out of range");
  }
  return ReadRecordAt(ShardStableView(ShardOfLsn(lsn)), LocalOfLsn(lsn),
                      order_out);
}

Result<uint64_t> LogManager::OrderOfRecordAt(uint64_t lsn) const {
  if (!sharded()) return lsn;  // single log: position is the order
  uint64_t order = 0;
  PHX_RETURN_IF_ERROR(ReadRecordAtLsn(lsn, &order).status());
  return order;
}

void LogManager::WriteWellKnownLsn(uint64_t lsn) {
  Encoder enc;
  enc.PutU64(lsn);
  storage_->WriteFile(well_known_name_, enc.buffer());
  clock_->AdvanceMs(disk_->WriteLatencyMs(clock_->NowMs(), enc.size()));
  if (metrics_ != nullptr) {
    metrics_
        ->GetCounter("phoenix.log.wkf_writes",
                     obs::LabelSet{{"process", component_}})
        .Increment();
  }
  if (tracer_ != nullptr && tracer_->enabled()) {
    tracer_->Instant("log", "wkf_write", component_, {obs::Arg("lsn", lsn)});
  }
}

void LogManager::BindObs(obs::MetricsRegistry* metrics, obs::Tracer* tracer,
                         std::string component) {
  metrics_ = metrics;
  tracer_ = tracer;
  component_ = component;
  for (uint32_t s = 0; s < shard_count_; ++s) {
    Shard& shard = *shards_[s];
    shard.pipeline.BindObs(metrics, tracer, component);
    shard.writer.BindObs(metrics, tracer, component);
    // Per-shard series (phoenix.wal.shard.*) exist only in sharded mode so
    // single-log metric output is untouched.
    if (!sharded()) continue;
    shard.writer.SetShardObs(s);
    shard.pipeline.set_shard_id(s);
    shard.pipeline.SetShardObs(true);
  }
}

void LogManager::SetTraceScope(obs::TraceScope* scope) {
  for (auto& shard : shards_) {
    shard->writer.SetTraceScope(scope);
    shard->pipeline.SetTraceScope(scope);
  }
}

uint64_t LogManager::num_appends() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->writer.num_appends();
  return total;
}

uint64_t LogManager::num_forces() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->writer.num_forces();
  return total;
}

uint64_t LogManager::bytes_forced() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->writer.bytes_forced();
  return total;
}

Result<uint64_t> LogManager::ReadWellKnownLsn() const {
  PHX_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                       storage_->ReadFile(well_known_name_));
  Decoder dec(data);
  return dec.GetU64();
}

}  // namespace phoenix
