// Message interceptors (Figures 3 and 5): the server-side incoming path and
// the client-side outgoing path of a context, implementing Algorithms 1-5,
// duplicate elimination, retry-until-response, and replay suppression.

#include "common/macros.h"
#include "common/strings.h"
#include "core/retry.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "runtime/context.h"
#include "runtime/logging_policy.h"
#include "runtime/machine.h"
#include "runtime/process.h"
#include "runtime/simulation.h"
#include "wal/log_reader.h"

namespace phoenix {
namespace {

// Consults the failure injector; on a hit the hosting process dies on the
// spot.
bool CrashHook(Process* proc, FailurePoint point) {
  return proc->MaybeCrash(point);
}

// Metric/trace label of the hosting process, e.g. "ma/1".
std::string ProcLabel(Process* proc) {
  return StrCat(proc->machine_name(), "/", proc->pid());
}

ComponentKind EffectiveClientKind(const CallMessage& msg) {
  if (msg.has_sender_info) return msg.sender_kind;
  // No attachment: a call with an ID is from a persistent component (the
  // baseline system attaches IDs but no kind info); without an ID the
  // caller must be external (§2.3).
  return msg.has_call_id ? ComponentKind::kPersistent
                         : ComponentKind::kExternal;
}

}  // namespace

// --- server side -----------------------------------------------------------

Result<ReplyMessage> Context::HandleIncoming(const CallMessage& msg) {
  Process* proc = process_;
  Simulation* sim = proc->simulation();
  const RuntimeOptions& opts = sim->options();

  if (!proc->alive()) return Status::Unavailable("process is down");
  while (serving_ || busy_) {
    // PWD requirement: a context serves one incoming call at a time. A
    // session finding the context occupied by *another* session parks
    // until it frees up; a reentrant cross-context cycle within one chain
    // is still a programming error.
    SessionScheduler* sched = sim->session_scheduler();
    int cur = sched != nullptr ? sched->current_session() : -1;
    if (cur < 0 || !serving_ || serving_session_ == cur) {
      return Status::FailedPrecondition(
          StrCat("context ", id_, " is busy (single-threaded component)"));
    }
    sched->ParkUntil([this] { return !serving_ && !busy_; });
    if (!proc->alive() || proc->FindContext(id_) != this) {
      // The process died (and possibly recovered into fresh contexts)
      // while we waited; surface a retriable error so the caller's retry
      // re-resolves the target.
      return Status::Unavailable("process restarted while call waited");
    }
  }
  serving_ = true;
  {
    SessionScheduler* sched = sim->session_scheduler();
    serving_session_ = sched != nullptr ? sched->current_session() : -1;
  }
  // Local class so every return path below releases the context.
  struct ServingGuard {
    Context* ctx;
    ~ServingGuard() {
      ctx->serving_ = false;
      ctx->serving_session_ = -1;
    }
  } serving_guard{this};

  ComponentKind server_kind = parent_kind();
  ComponentKind client_kind = EffectiveClientKind(msg);

  std::string obs_label = ProcLabel(proc);
  sim->metrics()
      .GetCounter("phoenix.intercept.incoming",
                  obs::LabelSet{{"process", obs_label}})
      .Increment();
  std::vector<obs::TraceArg> in_args = {
      obs::Arg("target", msg.target_uri),
      obs::Arg("context", static_cast<uint64_t>(id_))};
  if (msg.has_call_id && sim->tracer().enabled()) {
    in_args.push_back(obs::Arg("call_id", msg.call_id.ToString()));
  }
  obs::Tracer::Span obs_span = sim->tracer().StartSpan(
      "intercept", StrCat("in:", msg.method), obs_label,
      obs::SpanLink{msg.trace_id, msg.parent_span}, std::move(in_args));
  TraceFrameScope trace_frame(sim, obs_span);

  ComponentSlot* slot = parent_slot();
  const MethodEntry* method_entry = slot->methods.Find(msg.method);
  if (method_entry == nullptr) {
    ReplyMessage reply;
    reply.status = Status::NotFound(
        StrCat("component ", parent()->name(), " has no method ", msg.method));
    return reply;
  }
  bool ro_method = method_entry->traits.read_only;

  LogDecision in_dec = DecideIncoming(opts, server_kind, client_kind, ro_method);

  if (CrashHook(proc, FailurePoint::kBeforeIncomingLogged)) {
    return Status::Crashed("crash before incoming logged");
  }

  // Duplicate elimination (condition 3).
  if (in_dec.dedupe && msg.has_call_id) {
    const LastCallEntry* last =
        proc->last_calls().Lookup(msg.call_id.caller, id_);
    if (last != nullptr) {
      if (last->seq == msg.call_id.seq) {
        // Condition 3 hit: the retried call is answered from the last-call
        // table without re-executing the method.
        sim->metrics()
            .GetCounter("phoenix.intercept.dedupe_hits",
                        obs::LabelSet{{"process", obs_label}})
            .Increment();
        obs_span.AddArg(obs::Arg("dedupe", "hit"));
        return AnswerDuplicate(msg);
      }
      if (last->seq > msg.call_id.seq) {
        // By condition 1 the client recovered past this call already; a
        // smaller seq can only be a protocol violation.
        ReplyMessage reply;
        reply.status = Status::FailedPrecondition(
            StrCat("stale call id ", msg.call_id.ToString()));
        return reply;
      }
    }
  }

  if (in_dec.write) {
    IncomingCallRecord rec;
    rec.context_id = id_;
    if (msg.has_call_id) rec.call_id = msg.call_id;
    rec.method = msg.method;
    rec.args = msg.args;
    rec.client_kind = client_kind;
    proc->log().Append(rec);
    if (in_dec.force) {
      // Algorithms 1/3: message 1 must be stable before the call executes.
      Status durable = proc->WaitDurable(ForcePoint::kIncomingLogged);
      if (!durable.ok()) return durable;
      proc->checkpoints().MaybePublishCheckpoint();
    }
  }

  if (CrashHook(proc, FailurePoint::kAfterIncomingLogged)) {
    return Status::Crashed("crash after incoming logged");
  }

  Result<ReplyMessage> dispatched = Dispatch(msg);
  if (!dispatched.ok()) return dispatched;
  ReplyMessage reply = std::move(dispatched).value();

  if (CrashHook(proc, FailurePoint::kBeforeReplySend)) {
    return Status::Crashed("crash before reply send");
  }

  LogDecision rep_dec =
      DecideReplySend(opts, server_kind, client_kind, ro_method);
  if (rep_dec.write) {
    ReplySentRecord rec;
    rec.context_id = id_;
    if (msg.has_call_id) rec.call_id = msg.call_id;
    rec.long_form = rep_dec.long_form;
    if (rep_dec.long_form) rec.reply = reply.value;
    rec.status_code = static_cast<uint8_t>(reply.status.code());
    proc->log().Append(rec);
  }
  if (rep_dec.force) {
    // The reply externalizes state: everything logged so far (including
    // the optimized discipline's unwritten-but-implied receive records)
    // must be stable before message 2 leaves.
    Status durable = proc->WaitDurable(ForcePoint::kReplySend);
    if (!durable.ok()) return durable;
    proc->checkpoints().MaybePublishCheckpoint();
  }

  // Last call table update (the entry replaces any earlier one from the
  // same client — older entries are never needed, §2.3).
  if (in_dec.dedupe && msg.has_call_id) {
    LastCallEntry entry;
    entry.seq = msg.call_id.seq;
    entry.reply_in_memory = true;
    entry.reply = reply.value;
    entry.status_code = static_cast<uint8_t>(reply.status.code());
    entry.context_id = id_;
    proc->last_calls().Update(msg.call_id.caller, entry);
  }

  // §3.4: tell the client our kind unless it said it already knows.
  if (opts.logging_mode == LoggingMode::kOptimized && msg.has_sender_info &&
      !msg.client_knows_server) {
    reply.has_server_info = true;
    reply.server_kind = server_kind;
    reply.server_type_name = parent()->type_name();
  }

  ++incoming_calls_handled_;
  proc->CountIncomingCall();
  // Checkpoint cadence counts only logged calls: a read-only interaction
  // left no record and changed no state, so re-saving after it buys nothing.
  // Under async checkpointing this only marks the context dirty — the
  // background session does the capture off this chain.
  if (in_dec.write) {
    proc->checkpoints().OnIncomingCallFinished(*this);
  }

  // The reply leaves the process now: everything stable so far is
  // externalized and off-limits for torn-tail injection — including at the
  // kAfterReplySend crash, whose whole point is that message 2 got out.
  proc->NoteExternalization();
  if (CrashHook(proc, FailurePoint::kAfterReplySend)) {
    // The reply is already on the wire: deliver it, then the process is
    // found dead by the next caller.
    return reply;
  }
  return reply;
}

Result<ReplyMessage> Context::AnswerDuplicate(const CallMessage& msg) {
  Process* proc = process_;
  LastCallEntry* entry =
      proc->last_calls().LookupMutable(msg.call_id.caller, id_);
  PHX_CHECK(entry != nullptr);

  if (!entry->reply_in_memory) {
    // Post-recovery entry known only by LSN: fetch the reply from the log.
    if (entry->reply_lsn == kInvalidLsn) {
      return Status::Internal(
          StrCat("no reply available for duplicate ", msg.call_id.ToString()));
    }
    PHX_ASSIGN_OR_RETURN(LogRecord record,
                         proc->log().ReadRecordAtLsn(entry->reply_lsn));
    if (const auto* lcr = std::get_if<LastCallReplyRecord>(&record)) {
      entry->reply = lcr->reply;
      entry->status_code = lcr->status_code;
    } else if (const auto* rs = std::get_if<ReplySentRecord>(&record);
               rs != nullptr && rs->long_form) {
      entry->reply = rs->reply;
      entry->status_code = rs->status_code;
    } else {
      return Status::Corruption("reply LSN does not hold a reply record");
    }
    entry->reply_in_memory = true;
  }

  ReplyMessage reply;
  reply.value = entry->reply;
  if (entry->status_code != 0) {
    reply.status = Status(static_cast<StatusCode>(entry->status_code),
                          "replayed failure reply");
  }
  const RuntimeOptions& opts = proc->simulation()->options();
  if (opts.logging_mode == LoggingMode::kOptimized && msg.has_sender_info &&
      !msg.client_knows_server) {
    reply.has_server_info = true;
    reply.server_kind = parent_kind();
    reply.server_type_name = parent()->type_name();
  }
  return reply;
}

Result<ReplyMessage> Context::Dispatch(const CallMessage& msg) {
  Process* proc = process_;
  Simulation* sim = proc->simulation();

  ComponentSlot* slot = parent_slot();
  const MethodEntry* entry = slot->methods.Find(msg.method);
  PHX_CHECK(entry != nullptr);  // checked by callers

  busy_ = true;
  multi_call_.Reset();
  sim->PushContext(this);
  Result<Value> result = entry->handler(msg.args);
  sim->PopContext();
  busy_ = false;

  if (!result.ok() && result.status().IsCrashed()) return result.status();
  if (!proc->alive()) return Status::Crashed("process died during dispatch");

  ReplyMessage reply;
  if (result.ok()) {
    reply.value = std::move(result).value();
  } else {
    reply.status = std::move(result).status();
  }
  return reply;
}

Result<Value> Context::LocalDispatch(ComponentSlot* slot,
                                     const std::string& method,
                                     const ArgList& args) {
  // Same-context call (parent <-> subordinate): an ordinary local call, not
  // intercepted, not logged (§3.2.1 / Figure 6).
  Simulation* sim = process_->simulation();
  sim->clock().AdvanceMs(sim->costs().local_call_ms);
  const MethodEntry* entry = slot->methods.Find(method);
  if (entry == nullptr) {
    return Status::NotFound(StrCat("component ", slot->instance->name(),
                                   " has no method ", method));
  }
  return entry->handler(args);
}

// --- client side -----------------------------------------------------------

Result<Value> Context::OutgoingCall(Component* from,
                                    const std::string& server_uri,
                                    const std::string& method, ArgList args) {
  Process* proc = process_;
  Simulation* sim = proc->simulation();
  const RuntimeOptions& opts = sim->options();

  if (!proc->alive()) return Status::Crashed("process is down");

  PHX_ASSIGN_OR_RETURN(ParsedUri target, ParseComponentUri(server_uri));

  // Same-context fast path: plain local call.
  if (target.machine == proc->machine_name() &&
      target.process_id == proc->pid()) {
    if (ComponentSlot* local = FindSlot(target.component_name)) {
      return LocalDispatch(local, method, args);
    }
  }

  // Subordinates act on behalf of their parent: the context is the logging
  // principal (its parent id + outgoing counter form the call IDs).
  ComponentKind client_kind = from->kind() == ComponentKind::kSubordinate
                                  ? parent_kind()
                                  : from->kind();

  std::string obs_label = ProcLabel(proc);
  sim->metrics()
      .GetCounter("phoenix.intercept.outgoing",
                  obs::LabelSet{{"process", obs_label}})
      .Increment();
  // Attach under the chain's current frame (the enclosing in:/call span);
  // a chain-less caller (a driver or background session) roots a new trace.
  obs::SpanLink out_parent = sim->Current();
  if (sim->tracer().enabled() && out_parent.trace_id == 0) {
    out_parent = obs::SpanLink{sim->tracer().NewTraceId(), 0};
  }
  obs::Tracer::Span obs_span = sim->tracer().StartSpan(
      "intercept", StrCat("out:", method), obs_label, out_parent,
      {obs::Arg("server", server_uri),
       obs::Arg("context", static_cast<uint64_t>(id_))});
  TraceFrameScope trace_frame(sim, obs_span);

  const RemoteTypeInfo* info = proc->remote_types().Lookup(server_uri);
  bool server_known = info != nullptr;
  ComponentKind server_kind =
      server_known ? info->kind : ComponentKind::kPersistent;
  bool ro_method = false;
  if (server_known) {
    const MethodTraits* traits =
        sim->factories().LookupMethodTraits(info->type_name, method);
    ro_method = traits != nullptr && traits->read_only;
  }

  OutgoingDecision dec =
      DecideOutgoing(opts, client_kind, server_known, server_kind, ro_method,
                     &multi_call_, server_uri);

  // Condition 2: deterministically derived ID. The sequence number is
  // consumed for every cross-context call so replay stays aligned however
  // much the remote-type knowledge differs between runs.
  uint64_t seq = ++last_outgoing_seq_;
  CallId call_id{ClientKey{proc->machine_name(), proc->pid(), parent_id_},
                 seq};
  if (obs_span.span_id() != 0) {
    obs_span.AddArg(obs::Arg("call_id", call_id.ToString()));
  }

  // Replay suppression (Figure 5): answer from the log when we have the
  // logged reply for this sequence number.
  if (replaying_ && replay_feed_ != nullptr) {
    auto it = replay_feed_->replies.find(seq);
    if (it != replay_feed_->replies.end()) {
      const ReplyReceivedRecord& rec = it->second;
      // Condition 5: the send is suppressed, the logged reply is returned.
      sim->metrics()
          .GetCounter("phoenix.intercept.replay_suppressed",
                      obs::LabelSet{{"process", obs_label}})
          .Increment();
      obs_span.AddArg(obs::Arg("replay", "suppressed"));
      if (rec.status_code != 0) {
        return Status(static_cast<StatusCode>(rec.status_code),
                      "replayed failure reply");
      }
      return rec.reply;
    }
    // No logged reply: replay has caught up; this call goes out for real
    // (same ID — the server eliminates the duplicate if it saw it before).
    replay_feed_->went_live = true;
  }

  if (dec.write) {
    OutgoingCallRecord rec;
    rec.context_id = id_;
    rec.call_id = call_id;
    rec.server_uri = server_uri;
    rec.method = method;
    rec.args = args;
    proc->log().Append(rec);
  }
  if (dec.force) {
    // The send commits our state: everything before it must be stable.
    Status durable = proc->WaitDurable(ForcePoint::kOutgoingSend);
    if (!durable.ok()) return durable;
    proc->checkpoints().MaybePublishCheckpoint();
  }

  if (CrashHook(proc, FailurePoint::kBeforeOutgoingSend)) {
    return Status::Crashed("crash before outgoing send");
  }

  CallMessage out;
  out.target_uri = server_uri;
  out.method = method;
  out.args = std::move(args);
  if (dec.attach_call_id) {
    out.has_call_id = true;
    out.call_id = call_id;
  }
  if (opts.logging_mode == LoggingMode::kOptimized &&
      IsPhoenixKind(client_kind)) {
    out.has_sender_info = true;
    out.sender_kind = client_kind;
    out.sender_type_name = parent()->type_name();
    out.client_knows_server = server_known;
  }
  if (obs_span.span_id() != 0) {
    // The receiver's spans (and each retry's call span) parent under this
    // out: span. Not part of the modeled wire size — see message.h.
    out.has_trace = true;
    out.trace_id = obs_span.trace_id();
    out.parent_span = obs_span.span_id();
  }

  Result<ReplyMessage> sent = SendWithRetry(std::move(out));
  if (!sent.ok()) return std::move(sent).status();
  if (!proc->alive()) return Status::Crashed("process died during call");
  ReplyMessage reply = std::move(sent).value();

  if (reply.has_server_info) {
    proc->remote_types().Learn(server_uri, reply.server_kind,
                               reply.server_type_name);
  }
  const RemoteTypeInfo* learned = proc->remote_types().Lookup(server_uri);
  ComponentKind reply_server_kind =
      learned != nullptr ? learned->kind : ComponentKind::kPersistent;

  LogDecision rdec =
      DecideReplyReceived(opts, client_kind, reply_server_kind,
                          learned != nullptr ? ro_method : false);
  if (rdec.write) {
    ReplyReceivedRecord rec;
    rec.context_id = id_;
    rec.seq = seq;
    rec.reply = reply.value;
    rec.status_code = static_cast<uint8_t>(reply.status.code());
    rec.server_kind = reply_server_kind;
    proc->log().Append(rec);
    if (rdec.force) {
      // Algorithm 1 forces message 4 too (the baseline's fourth force).
      Status durable = proc->WaitDurable(ForcePoint::kReplyReceived);
      if (!durable.ok()) return durable;
      proc->checkpoints().MaybePublishCheckpoint();
    }
  }

  if (CrashHook(proc, FailurePoint::kAfterOutgoingReply)) {
    return Status::Crashed("crash after outgoing reply");
  }

  if (!reply.status.ok()) return reply.status;
  return reply.value;
}

Result<ReplyMessage> Context::SendWithRetry(CallMessage msg) {
  Process* proc = process_;
  Simulation* sim = proc->simulation();
  const RuntimeOptions& opts = sim->options();

  RetryBackoff backoff(opts.call_retry);
  for (int attempt = 0; attempt <= opts.max_call_retries; ++attempt) {
    // Every attempt may externalize state: once the message leaves this
    // process, the bytes forced so far are observable by the outside world
    // and a torn tail may no longer eat them.
    proc->NoteExternalization();
    Result<ReplyMessage> result = sim->RouteCall(proc->machine_name(), msg);
    if (result.ok()) return result;
    if (!result.status().IsUnavailable()) return result;
    if (!proc->alive()) return Status::Crashed("caller died while sending");

    // Condition 4 retry: same call ID, after backoff and a server restart
    // (§2.5). Backoff is capped-exponential with seeded jitter; when the
    // per-call budget runs out the caller gives up early.
    double delay = backoff.NextDelayMs(sim->retry_rng());
    if (delay < 0.0) {
      return Status::Unavailable(
          StrCat("no response from ", msg.target_uri, " within ",
                 "retry budget"));
    }
    sim->metrics()
        .GetCounter("phoenix.intercept.retries",
                    obs::LabelSet{{"process", ProcLabel(proc)}})
        .Increment();
    sim->tracer().Instant("intercept", "retry", ProcLabel(proc),
                          sim->Current(),
                          {obs::Arg("method", msg.method),
                           obs::Arg("attempt", attempt + 1),
                           obs::Arg("backoff_ms", delay)});
    sim->clock().AdvanceMs(delay);
    Process* target = sim->ResolveProcess(msg.target_uri);
    if (target != nullptr) {
      Status restart =
          target->machine()->recovery_service().EnsureProcessAlive(
              target->pid());
      if (!restart.ok()) return restart;
    }
  }
  return Status::Unavailable(
      StrCat("no response from ", msg.target_uri, " after retries"));
}

// --- replay ----------------------------------------------------------------

Result<ReplyMessage> Context::ReplayIncoming(const CallMessage& msg,
                                             ReplayFeed feed) {
  Process* proc = process_;
  Simulation* sim = proc->simulation();
  sim->clock().AdvanceMs(sim->costs().recovery_replay_call_ms);

  // Replayed calls join the causal tree under the recovery manager's
  // replay-phase span (pushed onto the chain stack by RecoveryManager).
  obs::Tracer::Span obs_span = sim->tracer().StartSpan(
      "intercept", StrCat("replay:", msg.method), ProcLabel(proc),
      sim->Current(), {obs::Arg("context", static_cast<uint64_t>(id_))});
  TraceFrameScope trace_frame(sim, obs_span);

  replaying_ = true;
  replay_feed_ = &feed;
  Result<ReplyMessage> reply = Dispatch(msg);
  replay_feed_ = nullptr;
  replaying_ = false;

  if (!reply.ok()) return reply;

  // Condition 5: the reply goes to the recovery manager, not to the client;
  // but the last call table must reflect it so a retry gets this answer.
  if (msg.has_call_id &&
      EffectiveClientKind(msg) == ComponentKind::kPersistent) {
    LastCallEntry entry;
    entry.seq = msg.call_id.seq;
    entry.reply_in_memory = true;
    entry.reply = reply->value;
    entry.status_code = static_cast<uint8_t>(reply->status.code());
    entry.context_id = id_;
    proc->last_calls().Update(msg.call_id.caller, entry);
  }
  ++incoming_calls_handled_;
  return reply;
}

Status Context::RunInitialize(const ArgList& ctor_args) {
  Simulation* sim = process_->simulation();
  busy_ = true;
  multi_call_.Reset();
  uint64_t seq_before = last_outgoing_seq_;
  sim->PushContext(this);
  Status status = parent()->Initialize(ctor_args);
  sim->PopContext();
  busy_ = false;
  if (!process_->alive()) return Status::Crashed("process died in Initialize");
  if (status.ok()) {
    parent_initialized_ = true;
    // Every cross-context call consumes a sequence number.
    creation_self_contained_ = last_outgoing_seq_ == seq_before;
  }
  return status;
}

Status Context::ReplayCreation(const ArgList& ctor_args, ReplayFeed feed) {
  Simulation* sim = process_->simulation();
  sim->clock().AdvanceMs(sim->costs().recovery_replay_call_ms);
  replaying_ = true;
  replay_feed_ = &feed;
  Status status = RunInitialize(ctor_args);
  replay_feed_ = nullptr;
  replaying_ = false;
  return status;
}

}  // namespace phoenix
