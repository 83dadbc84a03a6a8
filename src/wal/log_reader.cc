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

// The one frame decoder. A frame is the 4-byte payload length, the 4-byte
// CRC of the payload, then the payload; a gsn-prefixed payload opens with
// the 8-byte global sequence number, inside the CRC. The frame at `lsn` is
// readable when it lies within the image, its CRC matches, a prefixed
// payload holds the prefix, and the record decodes.
Result<ParsedRecord> DecodeFrameAt(const LogView& view, bool gsn_prefix,
                                   uint64_t lsn) {
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
  ParsedRecord out;
  out.lsn = lsn;
  out.order = lsn;
  if (gsn_prefix) {
    if (len < kGsnPrefixBytes) {
      return Status::Corruption("sharded frame too short for gsn prefix");
    }
    out.order = LoadU64(payload);
    payload += kGsnPrefixBytes;
    len -= kGsnPrefixBytes;
  }
  PHX_ASSIGN_OR_RETURN(out.record, DecodeLogRecord(payload, len));
  return out;
}

}  // namespace

LogReader::LogReader(const std::vector<uint8_t>& log, uint64_t start_lsn)
    : LogReader(LogView{&log, 0}, start_lsn) {}

LogReader::LogReader(const LogView& view, uint64_t start_lsn)
    : view_(view), pos_(start_lsn), gsn_prefix_(view.gsn_prefixed()) {
  PHX_CHECK(start_lsn >= view.base);
}

std::optional<ParsedRecord> LogReader::Next() {
  if (tail_torn_) return std::nullopt;
  uint64_t end = view_.base + view_.bytes->size();
  for (;;) {
    if (pos_ == end) return std::nullopt;  // clean end
    Result<ParsedRecord> frame = DecodeFrameAt(view_, gsn_prefix_, pos_);
    if (frame.ok()) {
      pos_ += 8 + LoadU32(&(*view_.bytes)[pos_ - view_.base]);
      ++records_read_;
      return std::move(frame).value();
    }
    if (salvage_) {
      // Resync: the first later offset where a whole frame validates is
      // where parsing resumes; everything in between is unreadable.
      bool resynced = false;
      for (uint64_t cand = pos_ + 1; cand + 8 <= end; ++cand) {
        if (DecodeFrameAt(view_, gsn_prefix_, cand).ok()) {
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

Result<LogRecord> ReadRecordAt(const LogView& view, uint64_t lsn,
                               uint64_t* order_out) {
  PHX_ASSIGN_OR_RETURN(ParsedRecord frame,
                       DecodeFrameAt(view, view.gsn_prefixed(), lsn));
  if (order_out != nullptr) *order_out = frame.order;
  return std::move(frame.record);
}

Result<LogRecord> ReadRecordAt(const std::vector<uint8_t>& log, uint64_t lsn) {
  return ReadRecordAt(LogView{&log, 0}, lsn);
}

}  // namespace phoenix
