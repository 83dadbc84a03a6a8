#include "wal/log_reader.h"

#include "common/crc32c.h"
#include "common/macros.h"

namespace phoenix {
namespace {

uint32_t LoadU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t LoadU64(const uint8_t* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}

// Size of the global-sequence-number prefix inside sharded frame payloads.
constexpr size_t kGsnPrefixBytes = 8;

}  // namespace

LogReader::LogReader(const std::vector<uint8_t>& log, uint64_t start_lsn)
    : log_(log), base_(0), pos_(start_lsn) {}

LogReader::LogReader(const LogView& view, uint64_t start_lsn)
    : log_(*view.bytes), base_(view.base), pos_(start_lsn) {
  PHX_CHECK(start_lsn >= view.base);
}

bool LogReader::ValidFrameAt(uint64_t lsn, ParsedRecord* out) const {
  uint64_t end = base_ + log_.size();
  if (lsn + 8 > end) return false;
  uint64_t rel = lsn - base_;
  uint32_t len = LoadU32(&log_[rel]);
  uint32_t crc = LoadU32(&log_[rel + 4]);
  if (lsn + 8 + len > end) return false;
  // Not &log_[rel + 8]: with len == 0 that is one past the end.
  const uint8_t* payload = log_.data() + rel + 8;
  if (Crc32c(payload, len) != crc) return false;
  uint64_t order = 0;
  if (gsn_prefix_) {
    if (len < kGsnPrefixBytes) return false;
    order = LoadU64(payload);
    payload += kGsnPrefixBytes;
    len -= kGsnPrefixBytes;
  }
  Result<LogRecord> record = DecodeLogRecord(payload, len);
  if (!record.ok()) return false;
  out->lsn = lsn;
  out->order = order;
  out->record = std::move(record).value();
  return true;
}

std::optional<ParsedRecord> LogReader::Next() {
  if (tail_torn_) return std::nullopt;
  uint64_t end = base_ + log_.size();
  for (;;) {
    if (pos_ == end) return std::nullopt;  // clean end
    ParsedRecord out;
    if (ValidFrameAt(pos_, &out)) {
      uint64_t rel = pos_ - base_;
      uint32_t len = LoadU32(&log_[rel]);
      pos_ += 8 + len;
      ++records_read_;
      return out;
    }
    if (salvage_) {
      // Resync: the first later offset where a whole frame validates is
      // where parsing resumes; everything in between is unreadable.
      bool resynced = false;
      for (uint64_t cand = pos_ + 1; cand + 8 <= end; ++cand) {
        ParsedRecord probe;
        if (ValidFrameAt(cand, &probe)) {
          skipped_ranges_.push_back(SkippedRange{pos_, cand});
          skipped_bytes_ += cand - pos_;
          pos_ = cand;
          resynced = true;
          break;
        }
      }
      if (resynced) continue;  // parse the frame at the new position
    }
    torn_offset_ = pos_;
    tail_torn_ = true;
    return std::nullopt;
  }
}

Result<LogRecord> ReadRecordAt(const LogView& view, uint64_t lsn) {
  const std::vector<uint8_t>& log = *view.bytes;
  if (lsn < view.base) {
    return Status::Corruption("lsn before truncated log head");
  }
  uint64_t rel = lsn - view.base;
  if (rel + 8 > log.size()) return Status::Corruption("lsn out of range");
  uint32_t len = LoadU32(&log[rel]);
  uint32_t crc = LoadU32(&log[rel + 4]);
  if (rel + 8 + len > log.size()) {
    return Status::Corruption("record extends past end of log");
  }
  // Not &log[rel + 8]: with len == 0 that is one past the end.
  const uint8_t* payload = log.data() + rel + 8;
  if (Crc32c(payload, len) != crc) {
    return Status::Corruption("record crc mismatch");
  }
  return DecodeLogRecord(payload, len);
}

Result<LogRecord> ReadRecordAt(const std::vector<uint8_t>& log, uint64_t lsn) {
  return ReadRecordAt(LogView{&log, 0}, lsn);
}

Result<LogRecord> ReadPrefixedRecordAt(const LogView& view, uint64_t lsn,
                                       uint64_t* order_out) {
  const std::vector<uint8_t>& log = *view.bytes;
  if (lsn < view.base) {
    return Status::Corruption("lsn before truncated log head");
  }
  uint64_t rel = lsn - view.base;
  if (rel + 8 > log.size()) return Status::Corruption("lsn out of range");
  uint32_t len = LoadU32(&log[rel]);
  uint32_t crc = LoadU32(&log[rel + 4]);
  if (rel + 8 + len > log.size()) {
    return Status::Corruption("record extends past end of log");
  }
  // Not &log[rel + 8]: with len == 0 that is one past the end.
  const uint8_t* payload = log.data() + rel + 8;
  if (Crc32c(payload, len) != crc) {
    return Status::Corruption("record crc mismatch");
  }
  if (len < kGsnPrefixBytes) {
    return Status::Corruption("sharded frame too short for gsn prefix");
  }
  if (order_out != nullptr) *order_out = LoadU64(payload);
  return DecodeLogRecord(payload + kGsnPrefixBytes, len - kGsnPrefixBytes);
}

}  // namespace phoenix
