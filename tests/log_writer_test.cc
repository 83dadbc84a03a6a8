#include "wal/log_writer.h"

#include <gtest/gtest.h>

#include "wal/log_reader.h"
#include "wal/log_record.h"

namespace phoenix {
namespace {

class LogWriterTest : public ::testing::Test {
 protected:
  LogWriterTest() : disk_(DiskParams{}, 1) {}

  StableStorage storage_;
  DiskModel disk_;
  SimClock clock_;
};

std::vector<uint8_t> Payload(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// A payload under 128 bytes is framed by a one-byte length and the CRC.
constexpr uint64_t kShortHeader = 1 + 4;

TEST_F(LogWriterTest, BufferedUntilForce) {
  LogWriter writer("m/p1.log", &storage_, &disk_, &clock_);
  uint64_t lsn = writer.AppendPayload(Payload("hello"));
  EXPECT_EQ(lsn, 0u);
  EXPECT_TRUE(writer.has_buffered());
  EXPECT_EQ(storage_.LogSize("m/p1.log"), 0u);  // nothing stable yet
  EXPECT_FALSE(writer.IsStable(lsn));

  writer.Force();
  EXPECT_FALSE(writer.has_buffered());
  EXPECT_EQ(storage_.LogSize("m/p1.log"), 5u + kShortHeader);
  EXPECT_TRUE(writer.IsStable(lsn));
}

TEST_F(LogWriterTest, LsnsAreFrameOffsets) {
  LogWriter writer("m/p1.log", &storage_, &disk_, &clock_);
  uint64_t a = writer.AppendPayload(Payload("aa"));
  uint64_t b = writer.AppendPayload(Payload("bbbb"));
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 2u + kShortHeader);
  EXPECT_EQ(writer.next_lsn(), b + 4 + kShortHeader);
}

TEST_F(LogWriterTest, ForceAdvancesClockByDiskLatency) {
  LogWriter writer("m/p1.log", &storage_, &disk_, &clock_);
  writer.AppendPayload(Payload("x"));
  double before = clock_.NowMs();
  writer.Force();
  EXPECT_GT(clock_.NowMs(), before);  // rotational wait happened
}

TEST_F(LogWriterTest, EmptyForceIsFreeAndUncounted) {
  LogWriter writer("m/p1.log", &storage_, &disk_, &clock_);
  double before = clock_.NowMs();
  EXPECT_EQ(writer.Force(), 0u);
  EXPECT_EQ(clock_.NowMs(), before);
  EXPECT_EQ(writer.num_forces(), 0u);
}

TEST_F(LogWriterTest, DropBufferLosesUnforcedRecords) {
  LogWriter writer("m/p1.log", &storage_, &disk_, &clock_);
  writer.AppendPayload(Payload("stable"));
  writer.Force();
  uint64_t lost = writer.AppendPayload(Payload("lost"));
  writer.DropBuffer();
  EXPECT_EQ(storage_.LogSize("m/p1.log"), 6u + kShortHeader);
  EXPECT_FALSE(writer.IsStable(lost));
}

TEST_F(LogWriterTest, ReopenResumesAtStableSize) {
  {
    LogWriter writer("m/p1.log", &storage_, &disk_, &clock_);
    writer.AppendPayload(Payload("abc"));
    writer.Force();
  }
  LogWriter reopened("m/p1.log", &storage_, &disk_, &clock_);
  EXPECT_EQ(reopened.next_lsn(), 3u + kShortHeader);
}

TEST_F(LogWriterTest, CapacityOverflowAutoForces) {
  LogWriter writer("m/p1.log", &storage_, &disk_, &clock_, /*capacity=*/64);
  writer.AppendPayload(std::vector<uint8_t>(40, 1));
  writer.AppendPayload(std::vector<uint8_t>(40, 2));  // would overflow
  EXPECT_EQ(writer.num_forces(), 1u);
  EXPECT_GT(storage_.LogSize("m/p1.log"), 0u);
}

TEST_F(LogWriterTest, StatsCount) {
  LogWriter writer("m/p1.log", &storage_, &disk_, &clock_);
  writer.AppendPayload(Payload("a"));
  writer.AppendPayload(Payload("b"));
  writer.Force();
  writer.AppendPayload(Payload("c"));
  writer.Force();
  EXPECT_EQ(writer.num_appends(), 3u);
  EXPECT_EQ(writer.num_forces(), 2u);
  EXPECT_EQ(writer.bytes_forced(), storage_.LogSize("m/p1.log"));
}

TEST_F(LogWriterTest, ReaderRoundTripThroughFrames) {
  LogWriter writer("m/p1.log", &storage_, &disk_, &clock_);
  IncomingCallRecord rec;
  rec.context_id = 1;
  rec.method = "M";
  Encoder enc;
  EncodeLogRecord(LogRecord(rec), enc);
  uint64_t lsn = writer.AppendPayload(enc.buffer());
  writer.Force();

  LogReader reader(storage_.ReadLog("m/p1.log"), 0);
  auto parsed = reader.Next();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->lsn, lsn);
  EXPECT_EQ(RecordTypeOf(parsed->record), LogRecordType::kIncomingCall);
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_FALSE(reader.tail_torn());
}

std::vector<uint8_t> EncodedRecord(const std::string& method) {
  IncomingCallRecord rec;
  rec.context_id = 1;
  rec.method = method;
  Encoder enc;
  EncodeLogRecord(LogRecord(rec), enc);
  return enc.Release();
}

TEST_F(LogWriterTest, TornTailDetected) {
  LogWriter writer("m/p1.log", &storage_, &disk_, &clock_);
  writer.AppendPayload(EncodedRecord("complete"));
  uint64_t second = writer.AppendPayload(EncodedRecord("torn"));
  writer.Force();
  // Chop mid-second-frame.
  storage_.TruncateLog("m/p1.log", second + 4);

  LogReader reader(storage_.ReadLog("m/p1.log"), 0);
  EXPECT_TRUE(reader.Next().has_value());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.tail_torn());
}

TEST_F(LogWriterTest, CorruptedRecordStopsScan) {
  LogWriter writer("m/p1.log", &storage_, &disk_, &clock_);
  writer.AppendPayload(EncodedRecord("first"));
  uint64_t second = writer.AppendPayload(EncodedRecord("second"));
  writer.Force();
  // Flip a payload byte.
  storage_.CorruptLog(
      "m/p1.log",
      FramePayloadLsn(LogView{&storage_.ReadLog("m/p1.log"), 0}, second)
          .value(),
      1);

  LogReader reader(storage_.ReadLog("m/p1.log"), 0);
  EXPECT_TRUE(reader.Next().has_value());
  EXPECT_FALSE(reader.Next().has_value());
  EXPECT_TRUE(reader.tail_torn());
  EXPECT_EQ(reader.end_lsn(), second);
}

TEST_F(LogWriterTest, ReadRecordAtValidatesCrc) {
  LogWriter writer("m/p1.log", &storage_, &disk_, &clock_);
  CreationRecord rec;
  rec.context_id = 2;
  rec.type_name = "T";
  rec.name = "n";
  Encoder enc;
  EncodeLogRecord(LogRecord(rec), enc);
  uint64_t lsn = writer.AppendPayload(enc.buffer());
  writer.Force();

  Result<LogRecord> ok = ReadRecordAt(storage_.ReadLog("m/p1.log"), lsn);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(std::get<CreationRecord>(*ok).type_name, "T");

  EXPECT_TRUE(ReadRecordAt(storage_.ReadLog("m/p1.log"), lsn + 1)
                  .status()
                  .IsCorruption());
}

}  // namespace
}  // namespace phoenix
