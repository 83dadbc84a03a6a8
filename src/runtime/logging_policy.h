#ifndef PHOENIX_RUNTIME_LOGGING_POLICY_H_
#define PHOENIX_RUNTIME_LOGGING_POLICY_H_

#include <string>

#include "core/options.h"
#include "runtime/kinds.h"

namespace phoenix {

struct MultiCallTracker;

// What the interceptor does with one message event. These four decision
// functions are the paper's Algorithms 1-5 as a single table, keyed by the
// optimization switches and the (client kind, server kind, method traits)
// triple. They are pure (except the §3.5 tracker) and unit-tested directly
// against the algorithm boxes in the paper.
struct LogDecision {
  bool write = false;      // append a record for this message
  bool force = false;      // force the log at this event
  bool long_form = true;   // long (full content) vs short (identity only)
  bool dedupe = false;     // incoming only: check/update the last-call table
};

// Message 1 arriving at a component of kind `server_kind`.
LogDecision DecideIncoming(const RuntimeOptions& opts,
                           ComponentKind server_kind, ComponentKind client_kind,
                           bool method_read_only);

// Message 2 leaving a component of kind `server_kind`. `same_log`: the
// client context lives in this process and the process keeps one unsharded
// log (Process::SharesLog).
//
// Same-log sends are not forced under the optimized discipline. Condition 1
// forces at a send so that no receiver keeps state whose cause the sender's
// log lost; a receiver on the same log appends after the sender, and a
// crash or torn tail only ever loses a suffix of that log (a context
// failure loses nothing of it), so any surviving record of the receiver
// comes with every earlier record of the sender. The shards of a sharded
// log have their own durable horizons, so every send there still forces.
LogDecision DecideReplySend(const RuntimeOptions& opts,
                            ComponentKind server_kind,
                            ComponentKind client_kind, bool method_read_only,
                            bool same_log);

// Message 3 leaving a component of kind `client_kind` toward a server whose
// kind may not be known yet (`server_known` false => most conservative).
// `same_log` as for DecideReplySend, for the server context. An unforced
// same-log send is not the §3.5 tracker's forced call, and it clears the
// tracker's earlier one: the server's reply is not durable either, so the
// next cross-log call must force it.
// Note on replay: every cross-context outgoing call consumes one sequence
// number regardless of these decisions, so call IDs stay deterministic no
// matter what the client has learned about server kinds. Replay suppresses
// a call iff a logged reply exists for its sequence number; calls whose
// replies were never logged (functional servers) or were lost with the
// buffer simply re-execute live — server-side duplicate elimination makes
// that safe.
struct OutgoingDecision {
  bool write = false;           // baseline writes message 3; optimized never
  bool force = false;           // force previous records before the send
  bool attach_call_id = false;  // carry the globally unique ID
};
OutgoingDecision DecideOutgoing(const RuntimeOptions& opts,
                                ComponentKind client_kind, bool server_known,
                                ComponentKind server_kind,
                                bool method_read_only, bool same_log,
                                MultiCallTracker* tracker,
                                const std::string& server_uri);

// Message 4 arriving back at a component of kind `client_kind`.
LogDecision DecideReplyReceived(const RuntimeOptions& opts,
                                ComponentKind client_kind,
                                ComponentKind server_kind,
                                bool method_read_only);

}  // namespace phoenix

#endif  // PHOENIX_RUNTIME_LOGGING_POLICY_H_
