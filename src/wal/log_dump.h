#ifndef PHOENIX_WAL_LOG_DUMP_H_
#define PHOENIX_WAL_LOG_DUMP_H_

#include <map>
#include <string>
#include <vector>

#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"

namespace phoenix {

class LogManager;

// Canonical name of a record type ("IncomingCall", "ContextState", ...).
const char* LogRecordTypeName(LogRecordType type);

// One-line human-readable rendering of a record: type, context, call id,
// method and a bounded preview of the payload. An incoming call's method
// shows as "method #<rank>" when the record names it by rank: only the
// callee's MethodRegistry, above wal/, knows the name.
std::string DescribeRecord(const LogRecord& record);

// Multi-line dump of one log image, read by its format: one
// "lsn <n> <description>" line per record (with "gsn <g>" after the lsn on a
// gsn-prefixed image), plus notes where the salvaging scan skipped
// unreadable bytes and where a torn tail stops it. For debugging and the
// trace tool.
std::string DumpLog(const LogView& view);

// Same, interleaving the writer's force marks: after the last record each
// force covered, a "(forced up to lsn <n>: <reason>)" line — prefixed
// "shard <k>" on a gsn-prefixed image — shows where the durability boundary
// fell and which ForcePoint paid for it. Marks from a previous process
// incarnation (below the view's range) are elided.
std::string DumpLog(const LogView& view, const std::vector<ForceMark>& marks);

// Per-LSN notes appended after the matching record's line, keyed by
// composite LSN (wal/shard_router.h; the plain LSN on a single log). Built
// by higher layers (e.g. the replay planner's chain/edge view in
// phoenix_trace's --plan mode); wal/ only renders them so it stays below
// recovery/.
using LogAnnotations = std::map<uint64_t, std::string>;
std::string DumpLog(const LogView& view, const std::vector<ForceMark>& marks,
                    const LogAnnotations& annotations);

// The whole stable log of a process, each shard listed as above with its
// force marks. A single log is just its listing. A sharded log lists each
// shard under a "--- shard <k>: <name> ---" header, then a merge view: every
// record once, in gsn order, drawn from OrderedLogCursor. `annotations`
// render in the listings and the merge view.
std::string DumpLog(const LogManager& log,
                    const LogAnnotations& annotations = {});

}  // namespace phoenix

#endif  // PHOENIX_WAL_LOG_DUMP_H_
