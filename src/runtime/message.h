#ifndef PHOENIX_RUNTIME_MESSAGE_H_
#define PHOENIX_RUNTIME_MESSAGE_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "runtime/call_id.h"
#include "runtime/kinds.h"
#include "serde/value.h"

namespace phoenix {

// A method-call message crossing a context boundary (message 1/3 of
// Figure 1). Carries the globally unique call ID (absent for external
// callers) and, in the optimized system, the sender's component-kind
// attachment used for type detection (§3.4).
struct CallMessage {
  std::string target_uri;
  std::string method;
  ArgList args;

  // Globally unique ID (condition 2). External callers attach none, which
  // is exactly how the server recognizes them (§2.3).
  bool has_call_id = false;
  CallId call_id;

  // §3.4 sender attachment: the (parent) component kind and type of the
  // calling context. Only the optimized system sends these.
  bool has_sender_info = false;
  ComponentKind sender_kind = ComponentKind::kExternal;
  std::string sender_type_name;
  // Client tells the server it already knows the server's kind, letting the
  // server omit its own attachment in the reply (§5.2.3's optimization).
  bool client_knows_server = false;

  // Causal trace identity (obs/tracer.h): the call chain this message
  // belongs to and the sender-side span that emitted it, so the receiver's
  // spans attach under the right parent across the process boundary.
  // Deliberately excluded from EncodedSizeHint: instrumentation must not
  // change the modeled wire cost, or tracing would perturb the paper's
  // numbers and the pinned bench baselines.
  bool has_trace = false;
  uint64_t trace_id = 0;
  uint64_t parent_span = 0;

  // Approximate wire size, for network-transfer costs.
  size_t EncodedSizeHint() const;
};

// A reply message (message 2/4 of Figure 1).
struct ReplyMessage {
  // Application-level outcome of the method. A non-OK status here is a
  // *normal* reply (e.g. invalid argument — the remote component is alive,
  // §2.4); transport/crash failures are signalled via the Result wrapper
  // instead.
  Status status;
  Value value;

  // §3.4 server attachment (omitted when client_knows_server was set).
  bool has_server_info = false;
  ComponentKind server_kind = ComponentKind::kPersistent;
  std::string server_type_name;

  size_t EncodedSizeHint() const;
};

}  // namespace phoenix

#endif  // PHOENIX_RUNTIME_MESSAGE_H_
