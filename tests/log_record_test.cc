#include "wal/log_record.h"

#include <gtest/gtest.h>

#include "wal/shard_router.h"

namespace phoenix {
namespace {

template <typename T>
T RoundTrip(const T& record) {
  Encoder enc;
  EncodeLogRecord(LogRecord(record), enc);
  Result<LogRecord> decoded = DecodeLogRecord(enc.buffer().data(), enc.size());
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  const T* out = std::get_if<T>(&decoded.value());
  EXPECT_NE(out, nullptr);
  return *out;
}

CallId TestCallId() {
  return CallId{ClientKey{"machineA", 3, 17}, 42};
}

TEST(LogRecordTest, IncomingCallRoundTrip) {
  IncomingCallRecord rec;
  rec.context_id = 5;
  rec.call_id = TestCallId();
  rec.method = "Add";
  rec.args = MakeArgs(int64_t{7}, "x");
  rec.client_kind = ComponentKind::kPersistent;

  IncomingCallRecord out = RoundTrip(rec);
  EXPECT_EQ(out.context_id, 5u);
  EXPECT_EQ(out.call_id, rec.call_id);
  EXPECT_EQ(out.method, "Add");
  EXPECT_EQ(out.args, rec.args);
  EXPECT_EQ(out.client_kind, ComponentKind::kPersistent);
}

// Bytes of an incoming call record's method field: the record's size less
// that of the same record with a one-byte rank.
size_t MethodFieldBytes(const IncomingCallRecord& rec) {
  IncomingCallRecord ranked = rec;
  ranked.method_rank = 0;
  ranked.method.clear();
  Encoder enc, enc_ranked;
  EncodeLogRecord(LogRecord(rec), enc);
  EncodeLogRecord(LogRecord(ranked), enc_ranked);
  return enc.size() - enc_ranked.size() + 1;
}

TEST(LogRecordTest, IncomingCallRankedRoundTrip) {
  IncomingCallRecord rec;
  rec.context_id = 5;
  rec.call_id = TestCallId();
  rec.args = MakeArgs(int64_t{7}, "x");
  rec.client_kind = ComponentKind::kPersistent;
  for (uint32_t rank : {0u, 1u, 126u, 127u, 300u, ~0u}) {
    SCOPED_TRACE(rank);
    rec.method_rank = rank;
    IncomingCallRecord out = RoundTrip(rec);
    ASSERT_TRUE(out.method_rank.has_value());
    EXPECT_EQ(*out.method_rank, rank);
    EXPECT_TRUE(out.method.empty());
    EXPECT_EQ(out.call_id, rec.call_id);
    EXPECT_EQ(out.args, rec.args);
    EXPECT_EQ(out.client_kind, ComponentKind::kPersistent);
  }
  // `varint(rank + 1)`: one byte up to rank 126, two from 127.
  rec.method_rank = 126;
  EXPECT_EQ(MethodFieldBytes(rec), 1u);
  rec.method_rank = 127;
  EXPECT_EQ(MethodFieldBytes(rec), 2u);
}

TEST(LogRecordTest, IncomingCallLiteralFormKeepsTheName) {
  IncomingCallRecord rec;
  rec.context_id = 5;
  rec.method = "Add";
  IncomingCallRecord out = RoundTrip(rec);
  EXPECT_FALSE(out.method_rank.has_value());
  EXPECT_EQ(out.method, "Add");
  // A 0 byte, then the length-prefixed name.
  EXPECT_EQ(MethodFieldBytes(rec), 1u + 1u + 3u);
  // An empty literal name is not a rank.
  rec.method.clear();
  out = RoundTrip(rec);
  EXPECT_FALSE(out.method_rank.has_value());
  EXPECT_TRUE(out.method.empty());
}

TEST(LogRecordTest, IncomingCallRankPastAU32IsCorruption) {
  IncomingCallRecord rec;
  rec.method_rank = 0;
  Encoder enc;
  EncodeLogRecord(LogRecord(rec), enc);
  // Swap the one-byte rank field (after the tag, context id and call id)
  // for varint(2^32 + 1), one past the largest rank + 1.
  Encoder head;
  head.PutU8(static_cast<uint8_t>(LogRecordType::kIncomingCall));
  head.PutVarint(rec.context_id);
  rec.call_id.EncodeTo(head);
  std::vector<uint8_t> bytes = head.buffer();
  ASSERT_EQ(enc.buffer()[bytes.size()], 1);
  Encoder rank;
  rank.PutVarint((uint64_t{1} << 32) + 1);
  bytes.insert(bytes.end(), rank.buffer().begin(), rank.buffer().end());
  bytes.insert(bytes.end(), enc.buffer().begin() + head.size() + 1,
               enc.buffer().end());
  EXPECT_TRUE(DecodeLogRecord(bytes.data(), bytes.size()).status()
                  .IsCorruption());
}

TEST(LogRecordTest, LsnFieldsRoundTripCompactly) {
  // kInvalidLsn is one 0 byte; a composite LSN is varint(shard + 1) then
  // varint(local offset), never the 8 fixed bytes of a plain u64.
  struct Case {
    uint64_t lsn;
    size_t bytes;
  };
  const Case cases[] = {
      {kInvalidLsn, 1},
      {0, 2},
      {MakeShardLsn(0, 555), 3},
      {MakeShardLsn(3, uint64_t{1} << 40), 1 + 6},
      {MakeShardLsn(kMaxWalShards - 1, kShardLocalMask), 1 + 7},
  };
  auto end_bytes = [](uint64_t lsn) {
    Encoder enc;
    EncodeLogRecord(LogRecord(EndCheckpointRecord{lsn}), enc);
    return enc.size() - 1;  // less the type tag
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.lsn);
    EXPECT_EQ(end_bytes(c.lsn), c.bytes);
    EXPECT_EQ(RoundTrip(EndCheckpointRecord{c.lsn}).begin_lsn, c.lsn);

    CheckpointContextEntryRecord entry;
    entry.context_id = 3;
    entry.recovery_lsn = c.lsn;
    entry.last_outgoing_seq = 12;
    auto entry_out = RoundTrip(entry);
    EXPECT_EQ(entry_out.recovery_lsn, c.lsn);
    EXPECT_EQ(entry_out.last_outgoing_seq, 12u);

    CheckpointLastCallRecord last_call;
    last_call.context_id = 3;
    last_call.call_id = TestCallId();
    last_call.reply_lsn = c.lsn;
    EXPECT_EQ(RoundTrip(last_call).reply_lsn, c.lsn);

    ContextStateRecord state;
    state.context_id = 4;
    state.last_call_refs.push_back(LastCallRef{TestCallId(), c.lsn});
    state.last_call_refs.push_back(LastCallRef{TestCallId(), 7});
    auto state_out = RoundTrip(state);
    ASSERT_EQ(state_out.last_call_refs.size(), 2u);
    EXPECT_EQ(state_out.last_call_refs[0].reply_lsn, c.lsn);
    EXPECT_EQ(state_out.last_call_refs[1].reply_lsn, 7u);
  }
}

TEST(LogRecordTest, LsnFieldPastTheShardLimitIsCorruption) {
  auto decode_end = [](uint64_t shard_plus_one, uint64_t local) {
    Encoder enc;
    enc.PutU8(static_cast<uint8_t>(LogRecordType::kEndCheckpoint));
    enc.PutVarint(shard_plus_one);
    enc.PutVarint(local);
    return DecodeLogRecord(enc.buffer().data(), enc.size());
  };
  ASSERT_TRUE(decode_end(kMaxWalShards, 9).ok());
  EXPECT_TRUE(decode_end(kMaxWalShards + 1, 9).status().IsCorruption());
  EXPECT_TRUE(
      decode_end(1, kShardLocalMask + 1).status().IsCorruption());
}

TEST(LogRecordTest, ReplySentLongAndShort) {
  ReplySentRecord long_rec;
  long_rec.context_id = 2;
  long_rec.call_id = TestCallId();
  long_rec.long_form = true;
  long_rec.reply = Value("answer");
  long_rec.status_code = 0;
  ReplySentRecord out = RoundTrip(long_rec);
  EXPECT_TRUE(out.long_form);
  EXPECT_EQ(out.reply, Value("answer"));

  ReplySentRecord short_rec;
  short_rec.context_id = 2;
  short_rec.call_id = TestCallId();
  short_rec.long_form = false;
  short_rec.status_code = 4;
  ReplySentRecord out2 = RoundTrip(short_rec);
  EXPECT_FALSE(out2.long_form);
  EXPECT_TRUE(out2.reply.is_null());  // short records carry no content
  EXPECT_EQ(out2.status_code, 4);

  // A short record is genuinely smaller than a long one.
  Encoder enc_long, enc_short;
  EncodeLogRecord(LogRecord(long_rec), enc_long);
  EncodeLogRecord(LogRecord(short_rec), enc_short);
  EXPECT_LT(enc_short.size(), enc_long.size());
}

TEST(LogRecordTest, OutgoingCallRoundTrip) {
  OutgoingCallRecord rec;
  rec.context_id = 1;
  rec.call_id = TestCallId();
  rec.server_uri = "phx://b/1/counter";
  rec.method = "Add";
  rec.args = MakeArgs(int64_t{1});
  OutgoingCallRecord out = RoundTrip(rec);
  EXPECT_EQ(out.server_uri, rec.server_uri);
  EXPECT_EQ(out.call_id.seq, 42u);
}

TEST(LogRecordTest, ReplyReceivedRoundTrip) {
  ReplyReceivedRecord rec;
  rec.context_id = 9;
  rec.seq = 1234;
  rec.reply = Value(3.5);
  rec.status_code = 0;
  rec.server_kind = ComponentKind::kReadOnly;
  ReplyReceivedRecord out = RoundTrip(rec);
  EXPECT_EQ(out.seq, 1234u);
  EXPECT_EQ(out.server_kind, ComponentKind::kReadOnly);
  EXPECT_EQ(out.reply, Value(3.5));
}

TEST(LogRecordTest, CreationRoundTrip) {
  CreationRecord rec;
  rec.context_id = 4;
  rec.type_name = "Bookstore";
  rec.name = "store1";
  rec.kind = ComponentKind::kPersistent;
  rec.ctor_args = MakeArgs("Store-1");
  CreationRecord out = RoundTrip(rec);
  EXPECT_EQ(out.type_name, "Bookstore");
  EXPECT_EQ(out.name, "store1");
  EXPECT_EQ(out.ctor_args, rec.ctor_args);
}

TEST(LogRecordTest, ContextStateRoundTrip) {
  ContextStateRecord rec;
  rec.context_id = 6;
  rec.last_outgoing_seq = 77;
  ComponentSnapshot snap;
  snap.component_id = 6;
  snap.type_name = "Counter";
  snap.name = "c";
  snap.kind = ComponentKind::kPersistent;
  snap.fields.push_back(FieldSnapshot{"count", Value(int64_t{10}), false});
  snap.fields.push_back(
      FieldSnapshot{"peer", Value("phx://a/1/other"), true});
  rec.components.push_back(snap);
  rec.last_call_refs.push_back(LastCallRef{TestCallId(), 9001});

  ContextStateRecord out = RoundTrip(rec);
  EXPECT_EQ(out.last_outgoing_seq, 77u);
  ASSERT_EQ(out.components.size(), 1u);
  EXPECT_EQ(out.components[0].fields.size(), 2u);
  EXPECT_TRUE(out.components[0].fields[1].is_component_ref);
  ASSERT_EQ(out.last_call_refs.size(), 1u);
  EXPECT_EQ(out.last_call_refs[0].reply_lsn, 9001u);
}

TEST(LogRecordTest, CheckpointRecordsRoundTrip) {
  EXPECT_EQ(RecordTypeOf(LogRecord(BeginCheckpointRecord{})),
            LogRecordType::kBeginCheckpoint);

  CheckpointContextEntryRecord ctx_entry;
  ctx_entry.context_id = 3;
  ctx_entry.recovery_lsn = 555;
  ctx_entry.last_outgoing_seq = 12;
  auto ctx_out = RoundTrip(ctx_entry);
  EXPECT_EQ(ctx_out.recovery_lsn, 555u);

  CheckpointLastCallRecord lc;
  lc.context_id = 3;
  lc.call_id = TestCallId();
  lc.reply_lsn = kInvalidLsn;
  auto lc_out = RoundTrip(lc);
  EXPECT_EQ(lc_out.reply_lsn, kInvalidLsn);

  CheckpointRemoteTypeRecord rt;
  rt.uri = "phx://b/2/tax";
  rt.kind = ComponentKind::kFunctional;
  rt.type_name = "TaxCalculator";
  auto rt_out = RoundTrip(rt);
  EXPECT_EQ(rt_out.kind, ComponentKind::kFunctional);
  EXPECT_EQ(rt_out.type_name, "TaxCalculator");

  EndCheckpointRecord end;
  end.begin_lsn = 100;
  EXPECT_EQ(RoundTrip(end).begin_lsn, 100u);
}

TEST(LogRecordTest, LastCallReplyRoundTrip) {
  LastCallReplyRecord rec;
  rec.context_id = 8;
  rec.call_id = TestCallId();
  rec.reply = Value(MakeArgs(1, 2, 3));
  rec.status_code = 0;
  auto out = RoundTrip(rec);
  EXPECT_EQ(out.reply, rec.reply);
}

TEST(LogRecordTest, DecodeRejectsGarbage) {
  std::vector<uint8_t> garbage = {200, 1, 2, 3};
  EXPECT_TRUE(
      DecodeLogRecord(garbage.data(), garbage.size()).status().IsCorruption());
  EXPECT_TRUE(DecodeLogRecord(nullptr, 0).status().IsCorruption());
}

TEST(LogRecordTest, RecordTypeOfMatchesEncoding) {
  IncomingCallRecord rec;
  EXPECT_EQ(RecordTypeOf(LogRecord(rec)), LogRecordType::kIncomingCall);
  Encoder enc;
  EncodeLogRecord(LogRecord(rec), enc);
  EXPECT_EQ(enc.buffer()[0],
            static_cast<uint8_t>(LogRecordType::kIncomingCall));
}

}  // namespace
}  // namespace phoenix
