// LogReader salvage mode: resynchronizing past unreadable mid-log regions,
// reporting skipped ranges and the torn-tail offset, and the log dump's
// rendering of damaged logs.

#include <gtest/gtest.h>

#include "sim/cost_model.h"
#include "wal/frame_codec.h"
#include "wal/log_dump.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"

namespace phoenix {
namespace {

class LogSalvageTest : public ::testing::Test {
 protected:
  LogSalvageTest() : disk_(DiskParams{}, 1) {}

  // Appends `n` distinct (decodable) creation records and forces them
  // stable. Returns each record's LSN.
  std::vector<uint64_t> WriteRecords(int n) {
    LogWriter writer(kLog, &storage_, &disk_, &clock_);
    std::vector<uint64_t> lsns;
    for (int i = 0; i < n; ++i) {
      CreationRecord rec;
      rec.context_id = static_cast<uint64_t>(i + 1);
      rec.type_name = "Counter";
      rec.name = "c" + std::to_string(i);
      Encoder enc;
      EncodeLogRecord(LogRecord{rec}, enc);
      lsns.push_back(writer.AppendPayload(enc.buffer()));
    }
    writer.Force();
    return lsns;
  }

  LogView View() { return LogView{&storage_.ReadLog(kLog), 0}; }

  // The first payload byte of the frame at `lsn`, past its header.
  uint64_t Payload(uint64_t lsn) {
    return FramePayloadLsn(View(), lsn).value();
  }

  static constexpr char kLog[] = "m/p1.log";
  StableStorage storage_;
  DiskModel disk_;
  SimClock clock_;
};

TEST_F(LogSalvageTest, WithoutSalvageMidLogCorruptionLooksLikeTornTail) {
  std::vector<uint64_t> lsns = WriteRecords(5);
  storage_.CorruptLog(kLog, Payload(lsns[2]), 1);  // one payload byte of #2

  LogReader reader(View(), 0);
  int read = 0;
  while (reader.Next()) ++read;
  EXPECT_EQ(read, 2);
  EXPECT_TRUE(reader.tail_torn());
  EXPECT_EQ(reader.torn_offset(), lsns[2]);
}

TEST_F(LogSalvageTest, SalvageSkipsCorruptRecordAndResyncs) {
  std::vector<uint64_t> lsns = WriteRecords(5);
  storage_.CorruptLog(kLog, Payload(lsns[2]), 1);

  LogReader reader(View(), 0);
  reader.EnableSalvage();
  std::vector<uint64_t> seen;
  while (auto parsed = reader.Next()) seen.push_back(parsed->lsn);
  EXPECT_FALSE(reader.tail_torn());
  ASSERT_EQ(seen.size(), 4u);  // all but the corrupt one
  EXPECT_EQ(seen, (std::vector<uint64_t>{lsns[0], lsns[1], lsns[3], lsns[4]}));
  ASSERT_EQ(reader.skipped_ranges().size(), 1u);
  EXPECT_EQ(reader.skipped_ranges()[0].from_lsn, lsns[2]);
  EXPECT_EQ(reader.skipped_ranges()[0].to_lsn, lsns[3]);
  EXPECT_EQ(reader.skipped_bytes(), lsns[3] - lsns[2]);
}

TEST_F(LogSalvageTest, CorruptFrameHeaderResyncsToo) {
  std::vector<uint64_t> lsns = WriteRecords(4);
  storage_.CorruptLog(kLog, lsns[1], 1);  // length field of #1's frame

  LogReader reader(View(), 0);
  reader.EnableSalvage();
  std::vector<uint64_t> seen;
  while (auto parsed = reader.Next()) seen.push_back(parsed->lsn);
  EXPECT_EQ(seen, (std::vector<uint64_t>{lsns[0], lsns[2], lsns[3]}));
  ASSERT_EQ(reader.skipped_ranges().size(), 1u);
  EXPECT_EQ(reader.skipped_ranges()[0].from_lsn, lsns[1]);
}

TEST_F(LogSalvageTest, ConsecutiveCorruptFramesMergeIntoOneRange) {
  std::vector<uint64_t> lsns = WriteRecords(5);
  storage_.CorruptLog(kLog, Payload(lsns[1]), 1);
  storage_.CorruptLog(kLog, Payload(lsns[2]), 1);

  LogReader reader(View(), 0);
  reader.EnableSalvage();
  std::vector<uint64_t> seen;
  while (auto parsed = reader.Next()) seen.push_back(parsed->lsn);
  EXPECT_EQ(seen, (std::vector<uint64_t>{lsns[0], lsns[3], lsns[4]}));
  ASSERT_EQ(reader.skipped_ranges().size(), 1u);
  EXPECT_EQ(reader.skipped_ranges()[0].from_lsn, lsns[1]);
  EXPECT_EQ(reader.skipped_ranges()[0].to_lsn, lsns[3]);
}

TEST_F(LogSalvageTest, TornTailReportsFirstUnreadableByte) {
  std::vector<uint64_t> lsns = WriteRecords(4);
  // Cut into the middle of the last frame.
  storage_.TruncateLog(kLog, lsns[3] + 3);

  LogReader reader(View(), 0);
  reader.EnableSalvage();
  int read = 0;
  while (reader.Next()) ++read;
  EXPECT_EQ(read, 3);
  EXPECT_TRUE(reader.tail_torn());
  EXPECT_EQ(reader.torn_offset(), lsns[3]);
}

TEST_F(LogSalvageTest, ZeroLengthFrameAtTheEndIsATornTail) {
  WriteRecords(2);
  // The log ends in a frame with an empty payload: its CRC matches (CRC32C
  // of nothing is 0), but nothing decodes, and the payload pointer is one
  // past the end of the log.
  std::vector<uint8_t> empty_frame;
  AppendFrame({}, &empty_frame);
  uint64_t header = storage_.AppendLog(kLog, empty_frame);

  LogReader reader(View(), 0);
  reader.EnableSalvage();
  int read = 0;
  while (reader.Next()) ++read;
  EXPECT_EQ(read, 2);
  EXPECT_TRUE(reader.tail_torn());
  EXPECT_EQ(reader.torn_offset(), header);
  EXPECT_FALSE(ReadRecordAt(View(), header).ok());
}

// A gsn-prefixed frame must open with a whole gsn varint: a payload whose
// varint does not end inside it, though its length and CRC check out, is
// still Corruption to the point read and a torn tail to the reader.
TEST_F(LogSalvageTest, PrefixedFrameShorterThanTheGsnIsCorruption) {
  LogWriter writer(kLog, &storage_, &disk_, &clock_);
  uint64_t lsn = writer.AppendPayload({0x81, 0x82, 0x83, 0x84});
  writer.Force();
  CostModel costs;
  LogManager log(kLog, &storage_, &disk_, &clock_, &costs,
                 /*shard_count=*/2);

  LogView view = log.ShardStableView(0);
  ASSERT_TRUE(view.gsn_prefixed());
  Result<LogRecord> rec = ReadRecordAt(view, lsn);
  ASSERT_TRUE(rec.status().IsCorruption());
  EXPECT_EQ(rec.status().message(), "sharded frame too short for gsn prefix");

  LogReader reader(view, view.base);
  reader.EnableSalvage();
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.tail_torn());
  EXPECT_EQ(reader.torn_offset(), lsn);
}

TEST_F(LogSalvageTest, CleanLogHasNoSalvageArtifacts) {
  WriteRecords(3);
  LogReader reader(View(), 0);
  reader.EnableSalvage();
  int read = 0;
  while (reader.Next()) ++read;
  EXPECT_EQ(read, 3);
  EXPECT_FALSE(reader.tail_torn());
  EXPECT_TRUE(reader.skipped_ranges().empty());
  EXPECT_EQ(reader.skipped_bytes(), 0u);
}

TEST_F(LogSalvageTest, DumpLogPrintsSkipsAndTornOffset) {
  std::vector<uint64_t> lsns = WriteRecords(5);
  storage_.CorruptLog(kLog, Payload(lsns[1]), 1);
  storage_.TruncateLog(kLog, lsns[4] + 2);

  std::string dump = DumpLog(View());
  EXPECT_NE(dump.find("unreadable"), std::string::npos) << dump;
  EXPECT_NE(dump.find("skipped at lsn " + std::to_string(lsns[1])),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("torn tail: first bad frame at lsn " +
                      std::to_string(lsns[4])),
            std::string::npos)
      << dump;
}

}  // namespace
}  // namespace phoenix
