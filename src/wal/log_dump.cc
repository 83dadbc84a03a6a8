#include "wal/log_dump.h"

#include <optional>

#include "common/strings.h"
#include "runtime/kinds.h"
#include "wal/log_manager.h"
#include "wal/merged_log_reader.h"
#include "wal/shard_router.h"

namespace phoenix {
namespace {

// Bounded preview of an argument list.
std::string PreviewArgs(const ArgList& args) {
  std::string out = "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    std::string piece = args[i].ToString();
    if (piece.size() > 32) piece = piece.substr(0, 29) + "...";
    out += piece;
    if (out.size() > 100) {
      out += ", ...";
      break;
    }
  }
  out += ")";
  return out;
}

std::string PreviewValue(const Value& value) {
  std::string piece = value.ToString();
  if (piece.size() > 48) piece = piece.substr(0, 45) + "...";
  return piece;
}

struct DescribeVisitor {
  std::string operator()(const IncomingCallRecord& r) {
    return StrCat("IncomingCall     ctx ", r.context_id, "  from ",
                  ComponentKindName(r.client_kind), " ",
                  r.call_id.ToString(), "  ",
                  r.method_rank.has_value()
                      ? StrCat("method #", *r.method_rank)
                      : r.method,
                  PreviewArgs(r.args));
  }
  std::string operator()(const ReplySentRecord& r) {
    return StrCat("ReplySent        ctx ", r.context_id, "  to ",
                  r.call_id.ToString(), r.long_form ? "  long " : "  short",
                  r.long_form ? PreviewValue(r.reply) : "");
  }
  std::string operator()(const OutgoingCallRecord& r) {
    return StrCat("OutgoingCall     ctx ", r.context_id, "  ",
                  r.call_id.ToString(), " -> ", r.server_uri, "  ", r.method,
                  PreviewArgs(r.args));
  }
  std::string operator()(const ReplyReceivedRecord& r) {
    return StrCat("ReplyReceived    ctx ", r.context_id, "  seq ", r.seq,
                  "  from ", ComponentKindName(r.server_kind), "  ",
                  PreviewValue(r.reply));
  }
  std::string operator()(const CreationRecord& r) {
    return StrCat("Creation         ctx ", r.context_id, "  ",
                  ComponentKindName(r.kind), " ", r.type_name, " \"", r.name,
                  "\" ", PreviewArgs(r.ctor_args));
  }
  std::string operator()(const LastCallReplyRecord& r) {
    return StrCat("LastCallReply    ctx ", r.context_id, "  for ",
                  r.call_id.ToString(), "  ", PreviewValue(r.reply));
  }
  std::string operator()(const ContextStateRecord& r) {
    size_t fields = 0;
    for (const ComponentSnapshot& snap : r.components) {
      fields += snap.fields.size();
    }
    return StrCat("ContextState     ctx ", r.context_id, "  ",
                  r.components.size(), " component(s), ", fields,
                  " field(s), out-seq ", r.last_outgoing_seq, ", ",
                  r.last_call_refs.size(), " last-call ref(s)");
  }
  std::string operator()(const BeginCheckpointRecord&) {
    return "BeginCheckpoint";
  }
  std::string operator()(const CheckpointContextEntryRecord& r) {
    return StrCat("CkptContextEntry ctx ", r.context_id, "  recovery-lsn ",
                  r.recovery_lsn == kInvalidLsn
                      ? std::string("-")
                      : StrCat(r.recovery_lsn),
                  "  out-seq ", r.last_outgoing_seq);
  }
  std::string operator()(const CheckpointLastCallRecord& r) {
    return StrCat("CkptLastCall     ctx ", r.context_id, "  ",
                  r.call_id.ToString(), "  reply-lsn ",
                  r.reply_lsn == kInvalidLsn ? std::string("-")
                                             : StrCat(r.reply_lsn));
  }
  std::string operator()(const CheckpointRemoteTypeRecord& r) {
    return StrCat("CkptRemoteType   ", r.uri, " is ",
                  ComponentKindName(r.kind), " ", r.type_name);
  }
  std::string operator()(const EndCheckpointRecord& r) {
    return StrCat("EndCheckpoint    begin-lsn ", r.begin_lsn);
  }
};

}  // namespace

const char* LogRecordTypeName(LogRecordType type) {
  switch (type) {
    case LogRecordType::kIncomingCall:
      return "IncomingCall";
    case LogRecordType::kReplySent:
      return "ReplySent";
    case LogRecordType::kOutgoingCall:
      return "OutgoingCall";
    case LogRecordType::kReplyReceived:
      return "ReplyReceived";
    case LogRecordType::kCreation:
      return "Creation";
    case LogRecordType::kLastCallReply:
      return "LastCallReply";
    case LogRecordType::kContextState:
      return "ContextState";
    case LogRecordType::kBeginCheckpoint:
      return "BeginCheckpoint";
    case LogRecordType::kCheckpointContextEntry:
      return "CkptContextEntry";
    case LogRecordType::kCheckpointLastCall:
      return "CkptLastCall";
    case LogRecordType::kCheckpointRemoteType:
      return "CkptRemoteType";
    case LogRecordType::kEndCheckpoint:
      return "EndCheckpoint";
  }
  return "?";
}

std::string DescribeRecord(const LogRecord& record) {
  return std::visit(DescribeVisitor{}, record);
}

namespace {

std::string DumpLogImpl(const LogView& view,
                        const std::vector<ForceMark>* marks,
                        const LogAnnotations* annotations) {
  std::string out;
  if (view.base > 0) {
    out += StrCat("  (head truncated below lsn ", view.base, ")\n");
  }
  std::string forced = view.gsn_prefixed()
                           ? StrCat("  (shard ", view.shard(), " forced")
                           : std::string("  (forced");
  LogReader reader(view, view.base);
  reader.EnableSalvage();
  size_t printed_skips = 0;
  size_t next_mark = 0;
  // Durability boundaries at or below `lsn` print before the record there.
  auto emit_marks_below = [&](uint64_t lsn) {
    if (marks == nullptr) return;
    while (next_mark < marks->size() && (*marks)[next_mark].end_lsn <= lsn) {
      const ForceMark& mark = (*marks)[next_mark++];
      if (mark.end_lsn < view.base) continue;  // pre-truncation history
      out += StrCat(forced, " up to lsn ", mark.end_lsn, ": ",
                    ForcePointName(mark.reason), ")\n");
    }
  };
  while (auto parsed = reader.Next()) {
    // Interleave any unreadable region the reader just skipped over.
    while (printed_skips < reader.skipped_ranges().size()) {
      const SkippedRange& range = reader.skipped_ranges()[printed_skips++];
      out += StrCat("  (unreadable: ", range.to_lsn - range.from_lsn,
                    " byte(s) skipped at lsn ", range.from_lsn, ")\n");
    }
    emit_marks_below(parsed->lsn);
    out += StrCat("  lsn ", parsed->lsn, "  ");
    if (view.gsn_prefixed()) out += StrCat("gsn ", parsed->order, "  ");
    out += DescribeRecord(parsed->record);
    if (annotations != nullptr) {
      auto it = annotations->find(MakeShardLsn(view.shard(), parsed->lsn));
      if (it != annotations->end()) out += StrCat("  ", it->second);
    }
    out += "\n";
  }
  while (printed_skips < reader.skipped_ranges().size()) {
    const SkippedRange& range = reader.skipped_ranges()[printed_skips++];
    out += StrCat("  (unreadable: ", range.to_lsn - range.from_lsn,
                  " byte(s) skipped at lsn ", range.from_lsn, ")\n");
  }
  emit_marks_below(view.base + view.bytes->size());
  if (reader.tail_torn()) {
    uint64_t log_end = view.base + view.bytes->size();
    out += StrCat("  (torn tail: first bad frame at lsn ",
                  reader.torn_offset(), ", ",
                  log_end - reader.torn_offset(), " byte(s) unreadable)\n");
  }
  return out;
}

}  // namespace

std::string DumpLog(const LogView& view) {
  return DumpLogImpl(view, nullptr, nullptr);
}

std::string DumpLog(const LogView& view,
                    const std::vector<ForceMark>& marks) {
  return DumpLogImpl(view, &marks, nullptr);
}

std::string DumpLog(const LogView& view, const std::vector<ForceMark>& marks,
                    const LogAnnotations& annotations) {
  return DumpLogImpl(view, &marks, &annotations);
}

std::string DumpLog(const LogManager& log, const LogAnnotations& annotations) {
  if (!log.sharded()) {
    return DumpLog(log.StableView(), log.force_marks(), annotations);
  }
  std::string out;
  for (uint32_t s = 0; s < log.shard_count(); ++s) {
    out += StrCat("--- shard ", s, ": ", log.shard_log_name(s), " ---\n");
    out += DumpLog(log.ShardStableView(s), log.shard_force_marks(s),
                   annotations);
  }
  out += "--- merge view (by gsn) ---\n";
  OrderedLogCursor cursor(log, log.head_order());
  while (std::optional<OrderedRecord> rec = cursor.Next()) {
    out += StrCat("  gsn ", rec->order, "  shard ", rec->shard, "  lsn ",
                  LocalOfLsn(rec->lsn), "  ", DescribeRecord(rec->record));
    if (auto it = annotations.find(rec->lsn); it != annotations.end()) {
      out += StrCat("  ", it->second);
    }
    out += "\n";
  }
  return out;
}

}  // namespace phoenix
