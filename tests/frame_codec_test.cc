// The WAL frame (wal/frame_codec.h): a varint payload length, the payload's
// CRC32C, the payload; on a sharded log the payload opens with an absolute
// gsn varint. Sizes at the varint boundaries, the buffer-full force, gsn
// round trips and their recovery, malformed and cut headers, salvage past a
// rotted length byte, and point reads of order on sharded logs.

#include "wal/frame_codec.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"
#include "wal/merged_log_reader.h"
#include "wal/shard_router.h"

namespace phoenix {
namespace {

constexpr char kLog[] = "m/p1.log";

// An encoded creation record exactly `size` bytes long.
std::vector<uint8_t> RecordOfSize(size_t size) {
  for (size_t name = 0; name <= size; ++name) {
    for (size_t extra = 0; extra < 2; ++extra) {
      CreationRecord rec;
      rec.context_id = 1;
      rec.type_name = "T" + std::string(extra, 't');
      rec.name = std::string(name, 'n');
      Encoder enc;
      EncodeLogRecord(LogRecord{rec}, enc);
      if (enc.size() == size) return enc.Release();
    }
  }
  ADD_FAILURE() << "no record of " << size << " bytes";
  return {};
}

std::vector<uint8_t> IncomingPayload(uint64_t context_id, uint64_t gsn) {
  IncomingCallRecord rec;
  rec.context_id = context_id;
  rec.method = "Go";
  Encoder enc;
  PutGsnPrefix(gsn, enc);
  EncodeLogRecord(LogRecord{rec}, enc);
  return enc.Release();
}

class FrameCodecTest : public ::testing::Test {
 protected:
  FrameCodecTest() : disk_(DiskParams{}, 1) {}

  StableStorage storage_;
  DiskModel disk_;
  SimClock clock_;
  CostModel costs_;
};

TEST_F(FrameCodecTest, LengthVarintGrowsAtSevenBitBoundaries) {
  struct Case {
    size_t payload;
    size_t header;
  };
  const std::vector<Case> cases = {{0, 5},        {127, 5},     {128, 6},
                                   {16383, 6},    {16384, 7},   {2097151, 7},
                                   {2097152, 8}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.payload);
    EXPECT_EQ(FrameHeaderSize(c.payload), c.header);
    std::vector<uint8_t> payload(c.payload);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i * 31);
    }
    std::vector<uint8_t> frame;
    AppendFrame(payload, &frame);
    ASSERT_EQ(frame.size(), c.header + c.payload);
    Result<FrameView> view = DecodeFrame(frame.data(), frame.size());
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(view->header_size, c.header);
    EXPECT_EQ(view->size(), frame.size());
    EXPECT_EQ(std::vector<uint8_t>(view->payload,
                                   view->payload + view->payload_len),
              payload);
  }
}

TEST_F(FrameCodecTest, WriterAndReaderAgreeAtTheBoundaries) {
  const std::vector<size_t> sizes = {127, 128, 16383, 16384};
  LogWriter writer(kLog, &storage_, &disk_, &clock_);
  std::vector<uint64_t> lsns;
  for (size_t size : sizes) {
    lsns.push_back(writer.AppendPayload(RecordOfSize(size)));
  }
  writer.Force();
  for (size_t i = 0; i + 1 < lsns.size(); ++i) {
    EXPECT_EQ(lsns[i + 1] - lsns[i], FrameHeaderSize(sizes[i]) + sizes[i]);
  }

  LogReader reader(storage_.ReadLog(kLog), 0);
  std::vector<uint64_t> seen;
  while (auto parsed = reader.Next()) seen.push_back(parsed->lsn);
  EXPECT_EQ(seen, lsns);
  EXPECT_FALSE(reader.tail_torn());
  EXPECT_EQ(reader.end_lsn(), storage_.LogSize(kLog));
  for (size_t i = 0; i < lsns.size(); ++i) {
    EXPECT_EQ(*FramePayloadLsn(LogView{&storage_.ReadLog(kLog), 0}, lsns[i]),
              lsns[i] + FrameHeaderSize(sizes[i]));
  }
}

// A frame that exactly fills the 64 KB buffer is buffered; the next append
// forces the full buffer first. One byte more and the frame itself forces.
TEST_F(FrameCodecTest, FrameThatExactlyFillsTheBufferForcesOnTheNextAppend) {
  constexpr size_t kCapacity = 64 * 1024;
  const size_t first = FrameHeaderSize(10) + 10;
  const size_t fill = kCapacity - first - FrameHeaderSize(kCapacity);
  ASSERT_EQ(first + FrameHeaderSize(fill) + fill, kCapacity);

  LogWriter writer(kLog, &storage_, &disk_, &clock_);
  writer.AppendPayload(std::vector<uint8_t>(10, 1));
  writer.AppendPayload(std::vector<uint8_t>(fill, 2));
  EXPECT_EQ(writer.num_forces(), 0u);
  EXPECT_EQ(writer.buffer().size(), kCapacity);

  uint64_t next = writer.AppendPayload(std::vector<uint8_t>(1, 3));
  EXPECT_EQ(next, kCapacity);
  ASSERT_EQ(writer.num_forces(), 1u);
  EXPECT_EQ(writer.force_marks().back().reason, ForcePoint::kBufferFull);
  EXPECT_EQ(writer.force_marks().back().end_lsn, kCapacity);
  EXPECT_EQ(storage_.LogSize(kLog), kCapacity);

  StableStorage storage;
  LogWriter over(kLog, &storage, &disk_, &clock_);
  over.AppendPayload(std::vector<uint8_t>(10, 1));
  uint64_t lsn = over.AppendPayload(std::vector<uint8_t>(fill + 1, 2));
  EXPECT_EQ(lsn, first);
  ASSERT_EQ(over.num_forces(), 1u);
  EXPECT_EQ(over.force_marks().back().reason, ForcePoint::kBufferFull);
  EXPECT_EQ(storage.LogSize(kLog), first);
}

// Gsns of one, two and four varint bytes read back from the frame alone,
// and a manager opened on the log continues after the largest, restart
// after restart.
TEST_F(FrameCodecTest, GsnVarintsRoundTripAndRecoverTheNextGsn) {
  const std::vector<uint64_t> gsns = {127, 128, (uint64_t{1} << 21) + 5};
  std::vector<uint64_t> lsns;
  {
    LogWriter writer(kLog, &storage_, &disk_, &clock_);
    for (uint64_t gsn : gsns) {
      lsns.push_back(writer.AppendPayload(IncomingPayload(1, gsn)));
    }
    writer.Force();
  }
  // One record's payload, less its gsn: the frames differ by the varint.
  const uint64_t record = lsns[1] - lsns[0] - FrameHeaderSize(0) - 1;
  EXPECT_EQ(lsns[2] - lsns[1], FrameHeaderSize(0) + 2 + record);
  EXPECT_EQ(storage_.LogSize(kLog) - lsns[2], FrameHeaderSize(0) + 4 + record);

  uint64_t next_gsn = gsns.back() + 1;
  for (int restart = 0; restart < 2; ++restart) {
    LogManager log(kLog, &storage_, &disk_, &clock_, &costs_,
                   /*shard_count=*/2);
    LogView view = log.ShardStableView(0);
    ASSERT_TRUE(view.gsn_prefixed());
    LogReader reader(view, view.base);
    for (size_t i = 0; i < gsns.size(); ++i) {
      std::optional<ParsedRecord> parsed = reader.Next();
      ASSERT_TRUE(parsed.has_value());
      EXPECT_EQ(parsed->order, gsns[i]);
      uint64_t order = 0;
      ASSERT_TRUE(ReadRecordAt(view, lsns[i], &order).ok());
      EXPECT_EQ(order, gsns[i]);
      EXPECT_EQ(*log.OrderOfRecordAt(lsns[i]), gsns[i]);
    }

    uint64_t lsn = log.Append(LogRecord{IncomingCallRecord{}});
    log.Force();
    EXPECT_EQ(*log.OrderOfRecordAt(lsn), next_gsn);
    ++next_gsn;
  }
}

TEST_F(FrameCodecTest, LengthLongerThanFiveBytesIsCorruption) {
  std::vector<uint8_t> image = {0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
                                0,    0,    0,    0,    0,    0};
  Result<FrameView> frame = DecodeFrame(image.data(), image.size());
  ASSERT_TRUE(frame.status().IsCorruption());
  EXPECT_EQ(frame.status().message(),
            "frame length varint longer than 5 bytes");
  EXPECT_TRUE(ReadRecordAt(image, 0).status().IsCorruption());

  // Five bytes, but more than a u32 holds.
  image = {0xFF, 0xFF, 0xFF, 0xFF, 0x1F, 0, 0, 0, 0};
  frame = DecodeFrame(image.data(), image.size());
  ASSERT_TRUE(frame.status().IsCorruption());
  EXPECT_EQ(frame.status().message(), "frame length exceeds u32");

  LogReader reader(image, 0);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.tail_torn());
  EXPECT_EQ(reader.torn_offset(), 0u);
}

TEST_F(FrameCodecTest, UnterminatedGsnIsCorruption) {
  for (std::vector<uint8_t> payload :
       {std::vector<uint8_t>{}, std::vector<uint8_t>{0x80},
        std::vector<uint8_t>{0xFF, 0xFF, 0xFF}}) {
    const uint8_t* data = payload.data();
    uint32_t len = static_cast<uint32_t>(payload.size());
    Result<uint64_t> gsn = TakeGsnPrefix(&data, &len);
    ASSERT_TRUE(gsn.status().IsCorruption());
    EXPECT_EQ(gsn.status().message(), "sharded frame too short for gsn prefix");
  }
  std::vector<uint8_t> payload = {0x80, 0x01, 0x2A};
  const uint8_t* data = payload.data();
  uint32_t len = static_cast<uint32_t>(payload.size());
  EXPECT_EQ(*TakeGsnPrefix(&data, &len), 128u);
  EXPECT_EQ(len, 1u);
  EXPECT_EQ(*data, 0x2A);
}

// Every cut through a frame's header or payload at the end of the image is
// a torn tail at the frame's start, read without running off the image
// (each image below is allocated to its exact size, so ASan sees an
// overread).
TEST_F(FrameCodecTest, FrameCutAtTheEndOfTheImageIsATornTail) {
  std::vector<uint8_t> whole;
  AppendFrame(RecordOfSize(200), &whole);  // a two-byte length
  const uint64_t cut_frame = whole.size();
  AppendFrame(RecordOfSize(300), &whole);
  for (size_t keep = cut_frame + 1; keep < whole.size(); ++keep) {
    SCOPED_TRACE(keep);
    std::vector<uint8_t> image(whole.begin(), whole.begin() + keep);
    image.shrink_to_fit();
    const bool header_cut = keep - cut_frame < FrameHeaderSize(300);
    EXPECT_EQ(DecodeFrame(image.data() + cut_frame, keep - cut_frame)
                  .status()
                  .message(),
              header_cut ? "frame header past end of log"
                         : "record extends past end of log");
    LogReader reader(image, 0);
    reader.EnableSalvage();
    int read = 0;
    while (reader.Next()) ++read;
    EXPECT_EQ(read, 1);
    EXPECT_TRUE(reader.tail_torn());
    EXPECT_EQ(reader.torn_offset(), cut_frame);
    EXPECT_TRUE(ReadRecordAt(image, cut_frame).status().IsCorruption());
  }
  // A lone length byte whose continuation bit promises more.
  std::vector<uint8_t> image = {0x85};
  image.shrink_to_fit();
  EXPECT_EQ(DecodeFrame(image.data(), image.size()).status().message(),
            "frame header past end of log");
  EXPECT_TRUE(FramePayloadLsn(LogView{&image, 0}, 0).status().IsCorruption());
}

TEST_F(FrameCodecTest, SalvageResyncsPastARottedLengthByte) {
  LogWriter writer(kLog, &storage_, &disk_, &clock_);
  std::vector<uint64_t> lsns;
  for (uint64_t i = 1; i <= 4; ++i) {
    CreationRecord rec;
    rec.context_id = i;
    rec.type_name = "Counter";
    rec.name = "c" + std::to_string(i);
    Encoder enc;
    EncodeLogRecord(LogRecord{rec}, enc);
    lsns.push_back(writer.AppendPayload(enc.buffer()));
  }
  writer.Force();
  // The one-byte length of frame #1 gains its continuation bit, so the
  // header swallows the first CRC byte as a second length byte.
  std::vector<uint8_t> image = storage_.ReadLog(kLog);
  ASSERT_EQ(image[lsns[1]] & 0x80, 0);
  image[lsns[1]] |= 0x80;

  LogReader reader(image, 0);
  reader.EnableSalvage();
  std::vector<uint64_t> seen;
  while (auto parsed = reader.Next()) seen.push_back(parsed->lsn);
  EXPECT_EQ(seen, (std::vector<uint64_t>{lsns[0], lsns[2], lsns[3]}));
  EXPECT_FALSE(reader.tail_torn());
  ASSERT_EQ(reader.skipped_ranges().size(), 1u);
  EXPECT_EQ(reader.skipped_ranges()[0], (SkippedRange{lsns[1], lsns[2]}));
}

// Each frame carries its absolute gsn, so a point read alone learns a
// record's order on any shard, and the merge restores append order.
TEST_F(FrameCodecTest, PointReadsLearnOrderOnShardedLogs) {
  for (uint32_t shards : {2u, 4u}) {
    SCOPED_TRACE(shards);
    StableStorage storage;
    LogManager log(kLog, &storage, &disk_, &clock_, &costs_, shards);
    std::vector<uint64_t> lsns;
    std::set<uint32_t> used;
    for (uint64_t i = 0; i < 300; ++i) {  // gsns 1..300: one and two bytes
      IncomingCallRecord rec;
      rec.context_id = 1 + i % 17;
      rec.method = "Go";
      lsns.push_back(log.Append(LogRecord{rec}));
      used.insert(ShardOfLsn(lsns.back()));
    }
    log.Force();
    EXPECT_EQ(used.size(), shards);
    for (uint64_t i = 0; i < lsns.size(); ++i) {
      uint64_t order = 0;
      Result<LogRecord> rec = log.ReadRecordAtLsn(lsns[i], &order);
      ASSERT_TRUE(rec.ok());
      EXPECT_EQ(order, i + 1);
      EXPECT_EQ(std::get<IncomingCallRecord>(*rec).context_id, 1 + i % 17);
      EXPECT_EQ(*log.OrderOfRecordAt(lsns[i]), i + 1);
    }
    OrderedLogCursor cursor(log, log.head_order());
    uint64_t expected = 1;
    while (std::optional<OrderedRecord> rec = cursor.Next()) {
      EXPECT_EQ(rec->order, expected);
      EXPECT_EQ(rec->lsn, lsns[expected - 1]);
      ++expected;
    }
    EXPECT_EQ(expected, lsns.size() + 1);
  }
}

}  // namespace
}  // namespace phoenix
