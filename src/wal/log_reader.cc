#include "wal/log_reader.h"

#include "common/macros.h"
#include "wal/frame_codec.h"

namespace phoenix {
namespace {

// The one frame decoder (the format is wal/frame_codec.h). The frame at
// `lsn` is readable when its header and payload lie within the image, its
// CRC matches, a gsn-prefixed payload opens with a whole gsn varint, and
// the record decodes. On success a non-null `end_lsn` gets the LSN one past
// the frame.
Result<ParsedRecord> DecodeFrameAt(const LogView& view, bool gsn_prefix,
                                   uint64_t lsn, uint64_t* end_lsn = nullptr) {
  const std::vector<uint8_t>& log = *view.bytes;
  if (lsn < view.base) {
    return Status::Corruption("lsn before truncated log head");
  }
  uint64_t rel = lsn - view.base;
  if (rel >= log.size()) return Status::Corruption("lsn out of range");
  PHX_ASSIGN_OR_RETURN(FrameView frame,
                       DecodeFrame(log.data() + rel, log.size() - rel));
  const uint8_t* payload = frame.payload;
  uint32_t len = frame.payload_len;
  ParsedRecord out;
  out.lsn = lsn;
  out.order = lsn;
  if (gsn_prefix) {
    PHX_ASSIGN_OR_RETURN(out.order, TakeGsnPrefix(&payload, &len));
  }
  PHX_ASSIGN_OR_RETURN(out.record, DecodeLogRecord(payload, len));
  if (end_lsn != nullptr) *end_lsn = lsn + frame.size();
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
    uint64_t frame_end = 0;
    Result<ParsedRecord> frame =
        DecodeFrameAt(view_, gsn_prefix_, pos_, &frame_end);
    if (frame.ok()) {
      pos_ = frame_end;
      ++records_read_;
      return std::move(frame).value();
    }
    if (salvage_) {
      // Resync: the first later offset where a whole frame validates is
      // where parsing resumes; everything in between is unreadable.
      bool resynced = false;
      for (uint64_t cand = pos_ + 1; cand + kMinFrameHeaderBytes <= end;
           ++cand) {
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

Result<uint64_t> FramePayloadLsn(const LogView& view, uint64_t lsn) {
  const std::vector<uint8_t>& log = *view.bytes;
  if (lsn < view.base || lsn - view.base >= log.size()) {
    return Status::Corruption("lsn out of range");
  }
  uint64_t rel = lsn - view.base;
  PHX_ASSIGN_OR_RETURN(FrameView frame,
                       DecodeFrame(log.data() + rel, log.size() - rel));
  return lsn + frame.header_size;
}

}  // namespace phoenix
