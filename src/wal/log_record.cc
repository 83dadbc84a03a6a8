#include "wal/log_record.h"

#include <limits>

#include "wal/shard_router.h"

namespace phoenix {
namespace {

// An LSN field: `varint(shard + 1) varint(local offset)`, or a single 0 for
// kInvalidLsn. A plain varint of a composite LSN would take 8 bytes, since
// the shard sits in bits 48 and up.
void PutLsn(uint64_t lsn, Encoder& enc) {
  if (lsn == kInvalidLsn) {
    enc.PutVarint(0);
    return;
  }
  enc.PutVarint(uint64_t{ShardOfLsn(lsn)} + 1);
  enc.PutVarint(LocalOfLsn(lsn));
}

Result<uint64_t> GetLsn(Decoder& dec) {
  PHX_ASSIGN_OR_RETURN(uint64_t shard, dec.GetVarint());
  if (shard == 0) return kInvalidLsn;
  PHX_ASSIGN_OR_RETURN(uint64_t local, dec.GetVarint());
  if (shard > kMaxWalShards || local > kShardLocalMask) {
    return Status::Corruption("lsn field out of range");
  }
  return MakeShardLsn(static_cast<uint32_t>(shard - 1), local);
}

void EncodeFieldSnapshot(const FieldSnapshot& f, Encoder& enc) {
  enc.PutString(f.name);
  enc.PutU8(f.is_component_ref ? 1 : 0);
  enc.PutValue(f.value);
}

Result<FieldSnapshot> DecodeFieldSnapshot(Decoder& dec) {
  FieldSnapshot f;
  PHX_ASSIGN_OR_RETURN(f.name, dec.GetString());
  PHX_ASSIGN_OR_RETURN(uint8_t ref, dec.GetU8());
  f.is_component_ref = ref != 0;
  PHX_ASSIGN_OR_RETURN(f.value, dec.GetValue());
  return f;
}

void EncodeComponentSnapshot(const ComponentSnapshot& s, Encoder& enc) {
  enc.PutVarint(s.component_id);
  enc.PutString(s.type_name);
  enc.PutString(s.name);
  enc.PutU8(static_cast<uint8_t>(s.kind));
  enc.PutVarint(s.fields.size());
  for (const FieldSnapshot& f : s.fields) EncodeFieldSnapshot(f, enc);
}

Result<ComponentSnapshot> DecodeComponentSnapshot(Decoder& dec) {
  ComponentSnapshot s;
  PHX_ASSIGN_OR_RETURN(s.component_id, dec.GetVarint());
  PHX_ASSIGN_OR_RETURN(s.type_name, dec.GetString());
  PHX_ASSIGN_OR_RETURN(s.name, dec.GetString());
  PHX_ASSIGN_OR_RETURN(uint8_t kind, dec.GetU8());
  s.kind = static_cast<ComponentKind>(kind);
  PHX_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarint());
  s.fields.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    PHX_ASSIGN_OR_RETURN(FieldSnapshot f, DecodeFieldSnapshot(dec));
    s.fields.push_back(std::move(f));
  }
  return s;
}

struct EncodeVisitor {
  Encoder& enc;

  void operator()(const IncomingCallRecord& r) {
    enc.PutVarint(r.context_id);
    r.call_id.EncodeTo(enc);
    // `varint(rank + 1)`, or 0 and the literal name.
    if (r.method_rank.has_value()) {
      enc.PutVarint(uint64_t{*r.method_rank} + 1);
    } else {
      enc.PutVarint(0);
      enc.PutString(r.method);
    }
    enc.PutArgList(r.args);
    enc.PutU8(static_cast<uint8_t>(r.client_kind));
  }
  void operator()(const ReplySentRecord& r) {
    enc.PutVarint(r.context_id);
    r.call_id.EncodeTo(enc);
    enc.PutU8(r.long_form ? 1 : 0);
    if (r.long_form) enc.PutValue(r.reply);
    enc.PutU8(r.status_code);
  }
  void operator()(const OutgoingCallRecord& r) {
    enc.PutVarint(r.context_id);
    r.call_id.EncodeTo(enc);
    enc.PutString(r.server_uri);
    enc.PutString(r.method);
    enc.PutArgList(r.args);
  }
  void operator()(const ReplyReceivedRecord& r) {
    enc.PutVarint(r.context_id);
    enc.PutVarint(r.seq);
    enc.PutValue(r.reply);
    enc.PutU8(r.status_code);
    enc.PutU8(static_cast<uint8_t>(r.server_kind));
  }
  void operator()(const CreationRecord& r) {
    enc.PutVarint(r.context_id);
    enc.PutString(r.type_name);
    enc.PutString(r.name);
    enc.PutU8(static_cast<uint8_t>(r.kind));
    enc.PutArgList(r.ctor_args);
    enc.PutVarint(r.creation_call_seq);
  }
  void operator()(const LastCallReplyRecord& r) {
    enc.PutVarint(r.context_id);
    r.call_id.EncodeTo(enc);
    enc.PutValue(r.reply);
    enc.PutU8(r.status_code);
  }
  void operator()(const ContextStateRecord& r) {
    enc.PutVarint(r.context_id);
    enc.PutVarint(r.last_outgoing_seq);
    enc.PutVarint(r.components.size());
    for (const ComponentSnapshot& s : r.components) {
      EncodeComponentSnapshot(s, enc);
    }
    enc.PutVarint(r.last_call_refs.size());
    for (const LastCallRef& ref : r.last_call_refs) {
      ref.call_id.EncodeTo(enc);
      PutLsn(ref.reply_lsn, enc);
    }
  }
  void operator()(const BeginCheckpointRecord&) {}
  void operator()(const CheckpointContextEntryRecord& r) {
    enc.PutVarint(r.context_id);
    PutLsn(r.recovery_lsn, enc);
    enc.PutVarint(r.last_outgoing_seq);
  }
  void operator()(const CheckpointLastCallRecord& r) {
    enc.PutVarint(r.context_id);
    r.call_id.EncodeTo(enc);
    PutLsn(r.reply_lsn, enc);
  }
  void operator()(const CheckpointRemoteTypeRecord& r) {
    enc.PutString(r.uri);
    enc.PutU8(static_cast<uint8_t>(r.kind));
    enc.PutString(r.type_name);
  }
  void operator()(const EndCheckpointRecord& r) { PutLsn(r.begin_lsn, enc); }
};

}  // namespace

LogRecordType RecordTypeOf(const LogRecord& record) {
  struct Visitor {
    LogRecordType operator()(const IncomingCallRecord&) {
      return LogRecordType::kIncomingCall;
    }
    LogRecordType operator()(const ReplySentRecord&) {
      return LogRecordType::kReplySent;
    }
    LogRecordType operator()(const OutgoingCallRecord&) {
      return LogRecordType::kOutgoingCall;
    }
    LogRecordType operator()(const ReplyReceivedRecord&) {
      return LogRecordType::kReplyReceived;
    }
    LogRecordType operator()(const CreationRecord&) {
      return LogRecordType::kCreation;
    }
    LogRecordType operator()(const LastCallReplyRecord&) {
      return LogRecordType::kLastCallReply;
    }
    LogRecordType operator()(const ContextStateRecord&) {
      return LogRecordType::kContextState;
    }
    LogRecordType operator()(const BeginCheckpointRecord&) {
      return LogRecordType::kBeginCheckpoint;
    }
    LogRecordType operator()(const CheckpointContextEntryRecord&) {
      return LogRecordType::kCheckpointContextEntry;
    }
    LogRecordType operator()(const CheckpointLastCallRecord&) {
      return LogRecordType::kCheckpointLastCall;
    }
    LogRecordType operator()(const CheckpointRemoteTypeRecord&) {
      return LogRecordType::kCheckpointRemoteType;
    }
    LogRecordType operator()(const EndCheckpointRecord&) {
      return LogRecordType::kEndCheckpoint;
    }
  };
  return std::visit(Visitor{}, record);
}

void EncodeLogRecord(const LogRecord& record, Encoder& enc) {
  enc.PutU8(static_cast<uint8_t>(RecordTypeOf(record)));
  std::visit(EncodeVisitor{enc}, record);
}

Result<LogRecord> DecodeLogRecord(const uint8_t* data, size_t n) {
  Decoder dec(data, n);
  PHX_ASSIGN_OR_RETURN(uint8_t tag, dec.GetU8());
  switch (static_cast<LogRecordType>(tag)) {
    case LogRecordType::kIncomingCall: {
      IncomingCallRecord r;
      PHX_ASSIGN_OR_RETURN(r.context_id, dec.GetVarint());
      PHX_ASSIGN_OR_RETURN(r.call_id, CallId::DecodeFrom(dec));
      PHX_ASSIGN_OR_RETURN(uint64_t rank, dec.GetVarint());
      if (rank == 0) {
        PHX_ASSIGN_OR_RETURN(r.method, dec.GetString());
      } else if (rank - 1 > std::numeric_limits<uint32_t>::max()) {
        return Status::Corruption("method rank out of range");
      } else {
        r.method_rank = static_cast<uint32_t>(rank - 1);
      }
      PHX_ASSIGN_OR_RETURN(r.args, dec.GetArgList());
      PHX_ASSIGN_OR_RETURN(uint8_t kind, dec.GetU8());
      r.client_kind = static_cast<ComponentKind>(kind);
      return LogRecord(std::move(r));
    }
    case LogRecordType::kReplySent: {
      ReplySentRecord r;
      PHX_ASSIGN_OR_RETURN(r.context_id, dec.GetVarint());
      PHX_ASSIGN_OR_RETURN(r.call_id, CallId::DecodeFrom(dec));
      PHX_ASSIGN_OR_RETURN(uint8_t long_form, dec.GetU8());
      r.long_form = long_form != 0;
      if (r.long_form) {
        PHX_ASSIGN_OR_RETURN(r.reply, dec.GetValue());
      }
      PHX_ASSIGN_OR_RETURN(r.status_code, dec.GetU8());
      return LogRecord(std::move(r));
    }
    case LogRecordType::kOutgoingCall: {
      OutgoingCallRecord r;
      PHX_ASSIGN_OR_RETURN(r.context_id, dec.GetVarint());
      PHX_ASSIGN_OR_RETURN(r.call_id, CallId::DecodeFrom(dec));
      PHX_ASSIGN_OR_RETURN(r.server_uri, dec.GetString());
      PHX_ASSIGN_OR_RETURN(r.method, dec.GetString());
      PHX_ASSIGN_OR_RETURN(r.args, dec.GetArgList());
      return LogRecord(std::move(r));
    }
    case LogRecordType::kReplyReceived: {
      ReplyReceivedRecord r;
      PHX_ASSIGN_OR_RETURN(r.context_id, dec.GetVarint());
      PHX_ASSIGN_OR_RETURN(r.seq, dec.GetVarint());
      PHX_ASSIGN_OR_RETURN(r.reply, dec.GetValue());
      PHX_ASSIGN_OR_RETURN(r.status_code, dec.GetU8());
      PHX_ASSIGN_OR_RETURN(uint8_t kind, dec.GetU8());
      r.server_kind = static_cast<ComponentKind>(kind);
      return LogRecord(std::move(r));
    }
    case LogRecordType::kCreation: {
      CreationRecord r;
      PHX_ASSIGN_OR_RETURN(r.context_id, dec.GetVarint());
      PHX_ASSIGN_OR_RETURN(r.type_name, dec.GetString());
      PHX_ASSIGN_OR_RETURN(r.name, dec.GetString());
      PHX_ASSIGN_OR_RETURN(uint8_t kind, dec.GetU8());
      r.kind = static_cast<ComponentKind>(kind);
      PHX_ASSIGN_OR_RETURN(r.ctor_args, dec.GetArgList());
      PHX_ASSIGN_OR_RETURN(r.creation_call_seq, dec.GetVarint());
      return LogRecord(std::move(r));
    }
    case LogRecordType::kLastCallReply: {
      LastCallReplyRecord r;
      PHX_ASSIGN_OR_RETURN(r.context_id, dec.GetVarint());
      PHX_ASSIGN_OR_RETURN(r.call_id, CallId::DecodeFrom(dec));
      PHX_ASSIGN_OR_RETURN(r.reply, dec.GetValue());
      PHX_ASSIGN_OR_RETURN(r.status_code, dec.GetU8());
      return LogRecord(std::move(r));
    }
    case LogRecordType::kContextState: {
      ContextStateRecord r;
      PHX_ASSIGN_OR_RETURN(r.context_id, dec.GetVarint());
      PHX_ASSIGN_OR_RETURN(r.last_outgoing_seq, dec.GetVarint());
      PHX_ASSIGN_OR_RETURN(uint64_t ncomp, dec.GetVarint());
      r.components.reserve(ncomp);
      for (uint64_t i = 0; i < ncomp; ++i) {
        PHX_ASSIGN_OR_RETURN(ComponentSnapshot s, DecodeComponentSnapshot(dec));
        r.components.push_back(std::move(s));
      }
      PHX_ASSIGN_OR_RETURN(uint64_t nrefs, dec.GetVarint());
      r.last_call_refs.reserve(nrefs);
      for (uint64_t i = 0; i < nrefs; ++i) {
        LastCallRef ref;
        PHX_ASSIGN_OR_RETURN(ref.call_id, CallId::DecodeFrom(dec));
        PHX_ASSIGN_OR_RETURN(ref.reply_lsn, GetLsn(dec));
        r.last_call_refs.push_back(std::move(ref));
      }
      return LogRecord(std::move(r));
    }
    case LogRecordType::kBeginCheckpoint:
      return LogRecord(BeginCheckpointRecord{});
    case LogRecordType::kCheckpointContextEntry: {
      CheckpointContextEntryRecord r;
      PHX_ASSIGN_OR_RETURN(r.context_id, dec.GetVarint());
      PHX_ASSIGN_OR_RETURN(r.recovery_lsn, GetLsn(dec));
      PHX_ASSIGN_OR_RETURN(r.last_outgoing_seq, dec.GetVarint());
      return LogRecord(std::move(r));
    }
    case LogRecordType::kCheckpointLastCall: {
      CheckpointLastCallRecord r;
      PHX_ASSIGN_OR_RETURN(r.context_id, dec.GetVarint());
      PHX_ASSIGN_OR_RETURN(r.call_id, CallId::DecodeFrom(dec));
      PHX_ASSIGN_OR_RETURN(r.reply_lsn, GetLsn(dec));
      return LogRecord(std::move(r));
    }
    case LogRecordType::kCheckpointRemoteType: {
      CheckpointRemoteTypeRecord r;
      PHX_ASSIGN_OR_RETURN(r.uri, dec.GetString());
      PHX_ASSIGN_OR_RETURN(uint8_t kind, dec.GetU8());
      r.kind = static_cast<ComponentKind>(kind);
      PHX_ASSIGN_OR_RETURN(r.type_name, dec.GetString());
      return LogRecord(std::move(r));
    }
    case LogRecordType::kEndCheckpoint: {
      EndCheckpointRecord r;
      PHX_ASSIGN_OR_RETURN(r.begin_lsn, GetLsn(dec));
      return LogRecord(std::move(r));
    }
  }
  return Status::Corruption("bad log record tag");
}

}  // namespace phoenix
