#ifndef PHOENIX_RUNTIME_CONTEXT_H_
#define PHOENIX_RUNTIME_CONTEXT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "runtime/component.h"
#include "runtime/kinds.h"
#include "runtime/message.h"
#include "wal/log_record.h"

namespace phoenix {

class Process;

// Outgoing replies fed to a context while one of its logged calls is being
// replayed: reply value per outgoing-call sequence number, harvested from
// the log by the recovery manager.
struct ReplayFeed {
  std::map<uint64_t, ReplyReceivedRecord> replies;
  // Set once a needed reply is missing: replay has caught up with the crash
  // point and execution continues live (outgoing calls really go out, with
  // the same deterministically derived IDs).
  bool went_live = false;
};

// §3.5 multi-call bookkeeping: which servers the current method execution
// has already called, so repeat calls to the same server force again.
struct MultiCallTracker {
  bool forced_once = false;
  std::set<std::string> servers_called;
  void Reset() {
    forced_once = false;
    servers_called.clear();
  }
};

// A .NET remoting "context": the unit of interception, logging and state
// saving. Holds a parent component plus its subordinates (Figure 6); all
// calls crossing the context boundary pass through HandleIncoming /
// OutgoingCall, which implement the message interceptors of Figure 3 and
// the logging algorithms of Section 3. Calls between members of the same
// context are plain local calls.
//
// The fields kept here are exactly the paper's context table entry
// (Table 1): member list, parent id/URI, latest state record LSN, and the
// last outgoing method call ID of the context.
class Context {
 public:
  Context(Process* process, uint64_t id);

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  // --- construction / membership ---

  // Installs `instance` as a member. The first added component is the
  // parent. Fills the component's runtime identity and populates its
  // method/field registries.
  Component* AddComponent(std::unique_ptr<Component> instance,
                          const std::string& type_name,
                          const std::string& name, ComponentKind kind,
                          uint64_t component_id);

  // Component ids: context parents draw from the process's sequential
  // counter; subordinates get kSubordinateIdBase + parent_id * kMaxSubs + k.
  // The spaces are disjoint, and both allocations are deterministic so that
  // replayed creations recompute the same ids (call IDs embed them).
  static constexpr uint64_t kSubordinateIdBase = uint64_t{1} << 40;
  static constexpr uint64_t kMaxSubordinates = 4096;

  // Allocates the next subordinate id. Subordinate creation is not logged
  // (it is deterministic given the parent's calls), so replay recomputes
  // identical ids.
  uint64_t NextSubordinateId();

  uint64_t id() const { return id_; }
  Process* process() const { return process_; }
  Component* parent() const;
  ComponentSlot* parent_slot();
  ComponentSlot* FindSlot(const std::string& name);
  ComponentSlot* FindSlotById(uint64_t component_id);
  ComponentKind parent_kind() const;
  const std::vector<uint64_t>& member_ids() const { return member_ids_; }

  // --- normal execution (implemented in interceptor.cc) ---

  // Server-side interceptor: duplicate detection, message-1 logging,
  // dispatch, message-2 logging/forcing, last-call update, state saving.
  // A non-OK *Result* means the hosting process crashed mid-call; app-level
  // failures travel inside the ReplyMessage.
  Result<ReplyMessage> HandleIncoming(const CallMessage& msg);

  // Client-side interceptor for a call made by member `from`: ID
  // assignment, message-3 forcing, transport, retry-until-response,
  // message-4 logging, remote-type learning. Local (same-context) targets
  // dispatch directly.
  Result<Value> OutgoingCall(Component* from, const std::string& server_uri,
                             const std::string& method, ArgList args);

  // --- replay (driven by recovery; implemented in interceptor.cc) ---

  // Re-executes a logged incoming call with outgoing calls answered from
  // `feed`. The reply is returned to the recovery manager, never sent
  // (condition 5). The last-call table is updated as in normal execution.
  Result<ReplyMessage> ReplayIncoming(const CallMessage& msg, ReplayFeed feed);

  // Re-runs the creation call (Initialize) the same way.
  Status ReplayCreation(const ArgList& ctor_args, ReplayFeed feed);

  // Runs the parent's Initialize() inside this context (busy flag set,
  // context pushed on the execution stack) — the "creation call".
  Status RunInitialize(const ArgList& ctor_args);

  bool replaying() const { return replaying_; }
  bool busy() const { return busy_; }
  // True while an interceptor is dispatching an incoming call into this
  // context (the ServingGuard window). The async checkpoint sweep uses it —
  // together with busy() — to honor §4.2's "not active" rule: a context
  // with a call in flight is deferred, not captured.
  bool serving() const { return serving_; }

  // True once the parent's creation call (Initialize) has run — either
  // live, by replay, or implicitly via a state-record restore. Lets
  // recovery skip re-running a creation that a replayed activator call
  // already performed.
  bool parent_initialized() const { return parent_initialized_; }
  void set_parent_initialized(bool v) { parent_initialized_ = v; }

  // True once the creation call ran — live or by replay — without issuing
  // a cross-context call, so replaying Initialize from any copy of the
  // creation record needs no logged reply. False before that, and after a
  // state-record restore (the creation did not run).
  bool creation_self_contained() const { return creation_self_contained_; }

  // --- context table entry state ---
  uint64_t last_outgoing_seq() const { return last_outgoing_seq_; }
  void set_last_outgoing_seq(uint64_t seq) { last_outgoing_seq_ = seq; }
  uint64_t state_record_lsn() const { return state_record_lsn_; }
  void set_state_record_lsn(uint64_t lsn) { state_record_lsn_ = lsn; }
  uint64_t creation_lsn() const { return creation_lsn_; }
  void set_creation_lsn(uint64_t lsn) { creation_lsn_ = lsn; }
  // The LSN recovery restarts this context from: newest state record if
  // any, else the creation record.
  uint64_t recovery_lsn() const {
    return state_record_lsn_ != kInvalidLsn ? state_record_lsn_
                                            : creation_lsn_;
  }
  uint64_t incoming_calls_handled() const { return incoming_calls_handled_; }

  // Destroys all member component instances (a *context* failure, §4.4 —
  // cheaper than a process crash: the process's tables, log buffer and the
  // other contexts survive). RecoverContextFailure() rebuilds the members.
  void ClearMembers();

  // --- checkpoint support (§4.2) ---
  std::vector<ComponentSnapshot> SnapshotComponents();
  // Instantiates a blank component from `snap` and restores its fields.
  Status RestoreComponent(const ComponentSnapshot& snap);
  size_t StateSizeHint();

 private:
  friend class Component;

  // interceptor.cc internals
  Result<ReplyMessage> Dispatch(const CallMessage& msg);
  Result<Value> LocalDispatch(ComponentSlot* slot, const std::string& method,
                              const ArgList& args);
  Result<ReplyMessage> AnswerDuplicate(const CallMessage& msg);
  Result<ReplyMessage> SendWithRetry(CallMessage msg);

  Process* process_;
  uint64_t id_;
  uint64_t parent_id_ = 0;
  std::vector<uint64_t> member_ids_;  // parent first
  std::map<uint64_t, ComponentSlot> slots_;
  std::map<std::string, uint64_t> by_name_;
  uint64_t next_sub_index_ = 1;

  uint64_t last_outgoing_seq_ = 0;
  uint64_t state_record_lsn_ = kInvalidLsn;
  uint64_t creation_lsn_ = kInvalidLsn;
  uint64_t incoming_calls_handled_ = 0;

  bool busy_ = false;       // single-threaded check (PWD requirement)
  // Whole-HandleIncoming occupancy: which session (if any) is serving this
  // context. Other sessions park on it instead of failing the busy check;
  // within one chain busy_ keeps catching reentrant cycles.
  bool serving_ = false;
  int serving_session_ = -1;
  bool parent_initialized_ = false;
  bool creation_self_contained_ = false;
  bool replaying_ = false;
  ReplayFeed* replay_feed_ = nullptr;
  MultiCallTracker multi_call_;
};

}  // namespace phoenix

#endif  // PHOENIX_RUNTIME_CONTEXT_H_
