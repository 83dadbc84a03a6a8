#ifndef PHOENIX_WAL_LOG_READER_H_
#define PHOENIX_WAL_LOG_READER_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "wal/log_record.h"

namespace phoenix {

// A decoded record plus its position on the log. `order` is the record's
// place in append order: the global sequence number stamped into a
// gsn-prefixed frame (wal/shard_router.h), the lsn itself on a plain image,
// where position is append order.
struct ParsedRecord {
  uint64_t lsn = 0;
  uint64_t order = 0;
  LogRecord record;
};

class LogManager;

// A log image with its logical base: byte i of *bytes is LSN base + i.
// Head truncation (garbage collection) raises the base; LSNs stay stable.
//
// The image also carries its frame format, and only LogManager sets it:
// which shard of the process log it is, and whether its frames carry the
// gsn prefix (every shard of a sharded log does). Every reader — LogReader,
// ReadRecordAt, OrderedLogCursor, the dump — reads an image by its own
// format. An image built anywhere else is the plain single-log format.
class LogView {
 public:
  LogView() = default;
  LogView(const std::vector<uint8_t>* bytes, uint64_t base)
      : bytes(bytes), base(base) {}

  uint32_t shard() const { return shard_; }
  bool gsn_prefixed() const { return gsn_prefixed_; }

  const std::vector<uint8_t>* bytes = nullptr;
  uint64_t base = 0;

 private:
  friend class LogManager;
  uint32_t shard_ = 0;
  bool gsn_prefixed_ = false;
};

// A half-open LSN range [from_lsn, to_lsn) the salvaging reader could not
// parse and skipped over.
struct SkippedRange {
  uint64_t from_lsn = 0;
  uint64_t to_lsn = 0;

  friend bool operator==(const SkippedRange&, const SkippedRange&) = default;
};

// Sequential scanner over a log image, reading frames (wal/frame_codec.h:
// a varint payload length, the payload's CRC32C, the payload) by the
// image's format (LogView). Stops cleanly at end-of-log; stops and sets
// tail_torn() at a frame whose header or payload is cut by the end of the
// image or whose CRC mismatches — a torn tail write from the crash, which
// recovery treats as the end of the log.
//
// In salvage mode (EnableSalvage) a bad frame mid-log does not end the scan:
// the reader searches forward, byte by byte, for the next offset where a
// frame's length, CRC, gsn prefix and decode all validate, records the
// unreadable bytes as a SkippedRange, and continues from there. Only when no
// later frame validates is the tail considered torn. Frames are
// CRC-protected, so a false resync requires a 32-bit CRC collision on
// decodable bytes.
class LogReader {
 public:
  // The image must outlive the reader. `start_lsn` is where scanning begins
  // (0 for the whole log). The vector overload is a plain image at base 0
  // (untruncated logs, unit tests); recovery uses the LogView overload.
  LogReader(const std::vector<uint8_t>& log, uint64_t start_lsn);
  LogReader(const LogView& view, uint64_t start_lsn);

  LogReader(const LogReader&) = delete;
  LogReader& operator=(const LogReader&) = delete;

  // Skip unreadable mid-log regions instead of declaring a torn tail.
  void EnableSalvage() { salvage_ = true; }

  // Reads every frame as gsn-prefixed. Redundant for images LogManager
  // hands out, which carry their format.
  void EnableGsnPrefix() { gsn_prefix_ = true; }

  // Next record, or nullopt at (clean or torn) end.
  std::optional<ParsedRecord> Next();

  bool tail_torn() const { return tail_torn_; }

  // LSN of the first unreadable byte of the torn tail (valid iff
  // tail_torn()).
  uint64_t torn_offset() const { return torn_offset_; }

  // LSN one past the last successfully parsed record.
  uint64_t end_lsn() const { return pos_; }

  // Number of records returned so far.
  uint64_t records_read() const { return records_read_; }

  // Salvage-mode damage report.
  const std::vector<SkippedRange>& skipped_ranges() const {
    return skipped_ranges_;
  }
  uint64_t skipped_bytes() const { return skipped_bytes_; }

 private:
  const LogView view_;
  uint64_t pos_;  // logical LSN
  bool salvage_ = false;
  bool gsn_prefix_ = false;
  bool tail_torn_ = false;
  uint64_t torn_offset_ = 0;
  uint64_t records_read_ = 0;
  std::vector<SkippedRange> skipped_ranges_;
  uint64_t skipped_bytes_ = 0;
};

// Reads the single record whose frame starts at `lsn`, by the image's
// format; with a non-null `order_out`, also its order (ParsedRecord::order).
Result<LogRecord> ReadRecordAt(const LogView& view, uint64_t lsn,
                               uint64_t* order_out = nullptr);
Result<LogRecord> ReadRecordAt(const std::vector<uint8_t>& log, uint64_t lsn);

// LSN of the payload of the frame that starts at `lsn`, just past its
// variable-length header: where a test or a fault injector rots a record's
// bytes and leaves its header intact. Corruption if no intact frame starts
// there.
Result<uint64_t> FramePayloadLsn(const LogView& view, uint64_t lsn);

}  // namespace phoenix

#endif  // PHOENIX_WAL_LOG_READER_H_
