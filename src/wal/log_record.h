#ifndef PHOENIX_WAL_LOG_RECORD_H_
#define PHOENIX_WAL_LOG_RECORD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "runtime/call_id.h"
#include "runtime/kinds.h"
#include "serde/codec.h"
#include "serde/value.h"

namespace phoenix {

// Record types on a process's recovery log. Records 1-4 mirror the four
// message kinds of Figure 1; the rest implement creation, context state
// saving (§4.2) and process checkpoints (§4.3).
enum class LogRecordType : uint8_t {
  kIncomingCall = 1,
  kReplySent = 2,
  kOutgoingCall = 3,
  kReplyReceived = 4,
  kCreation = 5,
  kLastCallReply = 6,
  kContextState = 7,
  kBeginCheckpoint = 8,
  kCheckpointContextEntry = 9,
  kCheckpointLastCall = 10,
  kCheckpointRemoteType = 11,
  kEndCheckpoint = 12,
};

// Sentinel LSN meaning "no record" (log offsets start at 0, so 0 is a valid
// LSN and cannot be the sentinel).
inline constexpr uint64_t kInvalidLsn = ~uint64_t{0};

// --- message records -------------------------------------------------------

// Message 1: an incoming method call delivered to a context's parent. Always
// a long record: method + arguments are what replay re-executes. The
// interceptor names the method by its rank in the parent's MethodRegistry
// (MethodEntry::rank), which replay turns back into a name through the
// recovered parent's registry; a record built without a registry names it
// by `method`.
struct IncomingCallRecord {
  uint64_t context_id = 0;   // id of the parent component of the context
  CallId call_id;            // caller identity + caller-side sequence
  std::optional<uint32_t> method_rank;
  std::string method;        // empty when method_rank is set
  ArgList args;
  ComponentKind client_kind = ComponentKind::kExternal;
};

// Message 2: the reply to an incoming call. Under Algorithm 2 this is never
// written (replay recreates it); under Algorithm 3 (external client) a
// *short* record — just the fact that the reply was sent — is forced.
struct ReplySentRecord {
  uint64_t context_id = 0;
  CallId call_id;          // the incoming call this replies to
  bool long_form = false;  // long records carry the reply value
  Value reply;
  uint8_t status_code = 0;
};

// Message 3: an outgoing method call. Only the baseline Algorithm 1 writes
// these; the optimized system recreates sends by replay.
struct OutgoingCallRecord {
  uint64_t context_id = 0;
  CallId call_id;  // our globally unique outgoing id
  std::string server_uri;
  std::string method;
  ArgList args;
};

// Message 4: the reply received for an outgoing call. Needed to remove the
// nondeterminism of reading another component's answer; replay feeds it back
// to the suppressed outgoing call.
struct ReplyReceivedRecord {
  uint64_t context_id = 0;
  uint64_t seq = 0;  // our outgoing-call sequence number
  Value reply;
  uint8_t status_code = 0;
  ComponentKind server_kind = ComponentKind::kPersistent;  // learned type
};

// --- creation / checkpoint records ------------------------------------------

// Creation of a context parent component (type name + constructor args let
// the factory re-instantiate it during recovery; the CLR did this through
// metadata, we do it through the ComponentFactoryRegistry).
struct CreationRecord {
  uint64_t context_id = 0;    // == component_id of the parent
  std::string type_name;
  std::string name;           // process-unique component name (URI leaf)
  ComponentKind kind = ComponentKind::kPersistent;
  ArgList ctor_args;
  uint64_t creation_call_seq = 0;  // dedup: Activator call seq that made it
};

// One component's saved fields inside a context state record. Fields that
// hold component references are stored as URIs and re-resolved on restore.
struct FieldSnapshot {
  std::string name;
  Value value;
  bool is_component_ref = false;  // value is then a kString URI
};

struct ComponentSnapshot {
  uint64_t component_id = 0;
  std::string type_name;
  std::string name;
  ComponentKind kind = ComponentKind::kPersistent;
  std::vector<FieldSnapshot> fields;
};

// A last-call reply forced ahead of a context state save (§4.2): after
// restoring from a state record, earlier replies cannot be recreated by
// replay, so the ones still referenced by the last-call table must be on the
// log.
struct LastCallReplyRecord {
  uint64_t context_id = 0;
  CallId call_id;
  Value reply;
  uint8_t status_code = 0;
};

// Reference from a context state record to a last-call entry: either the
// LSN of a LastCallReplyRecord holding the reply, or kInvalidLsn when the
// reply is inlined... (we always point at a LastCallReplyRecord).
struct LastCallRef {
  CallId call_id;
  uint64_t reply_lsn = kInvalidLsn;
};

// Application "checkpoint" of one context (§4.2): the fields of the parent
// and all subordinates, plus the context metadata needed to rebuild the
// global tables.
struct ContextStateRecord {
  uint64_t context_id = 0;
  uint64_t last_outgoing_seq = 0;  // context's outgoing-call counter
  std::vector<ComponentSnapshot> components;  // parent first
  std::vector<LastCallRef> last_call_refs;
};

// Process checkpoint (§4.3): bracketed global-table dump. Entries are
// individual records so the tables can be saved incrementally under
// sub-range locks, as the paper describes.
struct BeginCheckpointRecord {};

struct CheckpointContextEntryRecord {
  uint64_t context_id = 0;
  // Recovery LSN for this context: its newest state record, or its creation
  // record if no state has been saved (akin to ARIES page recovery LSNs).
  uint64_t recovery_lsn = kInvalidLsn;
  uint64_t last_outgoing_seq = 0;
};

struct CheckpointLastCallRecord {
  uint64_t context_id = 0;
  CallId call_id;
  uint64_t reply_lsn = kInvalidLsn;
};

struct CheckpointRemoteTypeRecord {
  std::string uri;
  ComponentKind kind = ComponentKind::kPersistent;
  std::string type_name;
};

struct EndCheckpointRecord {
  uint64_t begin_lsn = kInvalidLsn;
};

using LogRecord =
    std::variant<IncomingCallRecord, ReplySentRecord, OutgoingCallRecord,
                 ReplyReceivedRecord, CreationRecord, LastCallReplyRecord,
                 ContextStateRecord, BeginCheckpointRecord,
                 CheckpointContextEntryRecord, CheckpointLastCallRecord,
                 CheckpointRemoteTypeRecord, EndCheckpointRecord>;

// Type tag of a record held in the variant.
LogRecordType RecordTypeOf(const LogRecord& record);

// Serializes `record` (type tag + body) into `enc`.
void EncodeLogRecord(const LogRecord& record, Encoder& enc);

// Parses one record payload previously produced by EncodeLogRecord.
Result<LogRecord> DecodeLogRecord(const uint8_t* data, size_t n);

}  // namespace phoenix

#endif  // PHOENIX_WAL_LOG_RECORD_H_
