#include "recovery/recovery_manager.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/macros.h"
#include "common/strings.h"
#include "recovery/parallel_replay.h"
#include "runtime/machine.h"
#include "runtime/process.h"
#include "runtime/simulation.h"
#include "wal/log_reader.h"

namespace phoenix {
namespace {

// Keeps the newest entry per (client, context); on equal seq, prefer the
// one that knows where the reply lives on the log.
void MergeLastCall(std::map<LastCallTable::Key, LastCallEntry>& table,
                   const ClientKey& client, LastCallEntry entry) {
  LastCallTable::Key key(client, entry.context_id);
  auto it = table.find(key);
  if (it == table.end() || it->second.seq < entry.seq) {
    table[key] = std::move(entry);
  } else if (it->second.seq == entry.seq &&
             it->second.reply_lsn == kInvalidLsn &&
             entry.reply_lsn != kInvalidLsn) {
    it->second = std::move(entry);
  }
}

// Metric/trace label of the recovering process, e.g. "ma/1".
std::string ProcLabel(Process* proc) {
  return StrCat(proc->machine_name(), "/", proc->pid());
}

// A recovery is its own causal chain: root it in a fresh trace unless the
// triggering chain (a retry that restarted the server) is already on the
// stack.
obs::SpanLink RecoveryRoot(Simulation* sim) {
  obs::SpanLink parent = sim->Current();
  if (sim->tracer().enabled() && parent.trace_id == 0) {
    parent = obs::SpanLink{sim->tracer().NewTraceId(), 0};
  }
  return parent;
}

}  // namespace

// The redo phase's restore lanes. Each context is rebuilt from its own
// creation or state record, so restores commute: their costs are list-
// scheduled (EarliestStartLane) on K clock lanes, every restore ready at the
// phase start, and the phase costs the lanes' makespan. The host still
// restores one context at a time. With one lane — or when the clock is
// already inside a parallel region, i.e. this recovery was triggered from
// another process's replay lane — no region opens and every cost lands on
// the current clock in order: the serial sum. The destructor closes the
// region on every exit, error returns and crashes included.
class RestoreLanes {
 public:
  RestoreLanes(SimClock& clock, uint32_t lanes)
      : clock_(clock), start_ms_(clock.NowMs()) {
    if (lanes > 1 && !clock.in_parallel()) {
      clock.BeginParallel(lanes);
      lane_avail_.assign(lanes, start_ms_);
      lanes_ = lanes;
    }
  }
  ~RestoreLanes() { Close(); }

  RestoreLanes(const RestoreLanes&) = delete;
  RestoreLanes& operator=(const RestoreLanes&) = delete;

  // Charges the next restore to the lane that can start it earliest.
  void Take() {
    if (lane_avail_.empty()) return;
    lane_ = EarliestStartLane(lane_avail_, start_ms_);
    clock_.SetLane(lane_);
  }
  // The taken lane is busy until now.
  void Release() {
    if (!lane_avail_.empty()) lane_avail_[lane_] = clock_.NowMs();
  }
  // Closes the region (if one is open; EndParallel also leaves the lane) and
  // returns the phase's elapsed time: the lanes' makespan, or the serial sum
  // without a region.
  double Close() {
    if (lane_avail_.empty()) return clock_.NowMs() - start_ms_;
    lane_avail_.clear();
    return clock_.EndParallel();
  }
  uint32_t lanes() const { return lanes_; }

 private:
  SimClock& clock_;
  double start_ms_;
  uint32_t lanes_ = 1;
  int lane_ = 0;
  // Absolute time each lane frees up; empty when no region is open.
  std::vector<double> lane_avail_;
};

const char* RecoveryModeName(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kNormal:
      return "normal";
    case RecoveryMode::kSalvageAssessed:
      return "salvage_assessed";
    case RecoveryMode::kColdStart:
      return "cold_start";
  }
  return "unknown";
}

RecoveryManager::RecoveryManager(Process* process, RecoveryMode mode)
    : process_(process), mode_(mode) {}

Status RecoverContextFailure(Process* process, uint64_t context_id) {
  Process& proc = *process;
  Simulation* sim = proc.simulation();
  Context* ctx = proc.FindContext(context_id);
  if (ctx == nullptr) {
    return Status::NotFound(StrCat("no context ", context_id));
  }
  uint64_t origin = ctx->recovery_lsn();
  if (origin == kInvalidLsn) {
    return Status::FailedPrecondition(
        StrCat("context ", context_id, " has no recovery origin"));
  }
  // A context failure loses neither the process's tables nor its log
  // buffer, so the scan covers the unforced tail too. All of one context's
  // records route to one shard, so the scan stays shard-local (shard 0 ==
  // the whole log when unsharded).
  bool sharded = proc.log().sharded();
  uint32_t shard = sharded ? ShardOfLsn(origin) : 0;
  uint64_t local_origin = sharded ? LocalOfLsn(origin) : origin;
  std::vector<uint8_t> log_bytes = proc.log().ShardFullLog(shard);
  LogView log{&log_bytes, proc.log().shard_head_base(shard)};

  std::string obs_label = ProcLabel(process);
  sim->metrics()
      .GetCounter("phoenix.recovery.context_recoveries",
                  obs::LabelSet{{"process", obs_label}})
      .Increment();
  obs::Tracer::Span obs_span = sim->tracer().StartSpan(
      "recovery", "context_failure", obs_label, RecoveryRoot(sim),
      {obs::Arg("context", context_id), obs::Arg("origin", origin)});
  TraceFrameScope trace_frame(sim, obs_span);

  proc.set_recovering(true);
  ctx->ClearMembers();

  auto restore = [&]() -> Status {
    Result<LogRecord> read = sharded
                                 ? ReadPrefixedRecordAt(log, local_origin)
                                 : ReadRecordAt(log, local_origin);
    if (!read.ok()) return std::move(read).status();
    LogRecord record = std::move(read).value();
    if (const auto* state = std::get_if<ContextStateRecord>(&record)) {
      sim->clock().AdvanceMs(sim->costs().recovery_create_ms +
                             sim->costs().recovery_restore_state_ms);
      for (const ComponentSnapshot& snap : state->components) {
        PHX_RETURN_IF_ERROR(ctx->RestoreComponent(snap));
      }
      ctx->set_last_outgoing_seq(state->last_outgoing_seq);
      return Status::OK();
    }
    if (const auto* creation = std::get_if<CreationRecord>(&record)) {
      sim->clock().AdvanceMs(sim->costs().recovery_create_ms);
      PHX_ASSIGN_OR_RETURN(std::unique_ptr<Component> instance,
                           sim->factories().Create(creation->type_name));
      ctx->AddComponent(std::move(instance), creation->type_name,
                        creation->name, creation->kind, context_id);
      proc.IndexComponentName(creation->name, context_id);
      ctx->set_last_outgoing_seq(0);
      return Status::OK();
    }
    return Status::Corruption(
        StrCat("context ", context_id, " origin is not a state/creation"));
  };
  Status status = restore();

  if (status.ok()) {
    std::optional<PendingReplay> pending;
    auto flush = [&]() -> Status {
      if (!pending.has_value()) return Status::OK();
      PendingReplay unit = std::move(*pending);
      pending.reset();
      if (unit.is_creation) {
        if (ctx->parent_initialized()) return Status::OK();
        return ctx->ReplayCreation(unit.creation.ctor_args,
                                   std::move(unit.feed));
      }
      Component* parent = ctx->parent();
      PHX_CHECK(parent != nullptr);
      CallMessage msg = MessageFromRecord(unit.incoming, parent->uri());
      Result<ReplyMessage> reply =
          ctx->ReplayIncoming(msg, std::move(unit.feed));
      return reply.ok() ? Status::OK() : std::move(reply).status();
    };

    LogReader reader(log, local_origin);
    reader.EnableSalvage();
    if (sharded) reader.EnableGsnPrefix();
    while (auto parsed = reader.Next()) {
      sim->clock().AdvanceMs(sim->costs().recovery_scan_record_ms);
      if (const auto* creation = std::get_if<CreationRecord>(&parsed->record);
          creation != nullptr && creation->context_id == context_id &&
          parsed->lsn == local_origin) {
        PendingReplay unit;
        unit.is_creation = true;
        unit.start_lsn = parsed->lsn;
        unit.creation = *creation;
        pending = std::move(unit);
      } else if (const auto* incoming =
                     std::get_if<IncomingCallRecord>(&parsed->record);
                 incoming != nullptr && incoming->context_id == context_id) {
        status = flush();
        if (!status.ok()) break;
        PendingReplay unit;
        unit.start_lsn = parsed->lsn;
        unit.incoming = *incoming;
        pending = std::move(unit);
      } else if (const auto* reply =
                     std::get_if<ReplyReceivedRecord>(&parsed->record);
                 reply != nullptr && reply->context_id == context_id &&
                 pending.has_value()) {
        pending->feed.replies[reply->seq] = *reply;
      }
    }
    if (status.ok()) status = flush();
  }

  proc.set_recovering(false);
  return status;
}

Status RecoveryManager::Recover() {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  sim->clock().AdvanceMs(sim->costs().recovery_init_ms);

  std::string label = ProcLabel(&proc);
  obs::LabelSet labels{{"process", label}};
  double t0 = sim->clock().NowMs();
  sim->metrics().GetCounter("phoenix.recovery.recoveries", labels).Increment();
  obs::Tracer::Span recover_span =
      sim->tracer().StartSpan("recovery", "recover", label,
                              RecoveryRoot(sim));
  TraceFrameScope recover_frame(sim, recover_span);
  if (mode_ != RecoveryMode::kNormal) {
    // Degraded rungs are worth counting; normal recovery stays byte-
    // identical to the pre-ladder behavior (no extra metric, no span arg).
    sim->metrics()
        .GetCounter("phoenix.recovery.mode",
                    obs::LabelSet{{"process", label},
                                  {"mode", RecoveryModeName(mode_)}})
        .Increment();
    recover_span.AddArg(obs::Arg("mode", RecoveryModeName(mode_)));
  }

  // Start point: the published checkpoint, or the whole retained log —
  // after validating the well-known LSN and salvaging storage damage. It is
  // an order cut: an LSN on a single log, a global sequence number on a
  // sharded one.
  uint64_t start_order = AssessAndSalvageLog();

  // Analysis phase: one forward scan rebuilding the recovery map and the
  // global tables (§4.4's first pass).
  {
    obs::Tracer::Span span = sim->tracer().StartSpan(
        "recovery", "analysis", label, recover_span.link(),
        {obs::Arg("start_lsn", start_order)});
    TraceFrameScope frame(sim, span);
    PHX_RETURN_IF_ERROR(PassOne(start_order));
    span.AddArg(obs::Arg("records_scanned", stats_.records_scanned));
    span.AddArg(
        obs::Arg("contexts_found", static_cast<uint64_t>(infos_.size())));
  }

  // The activator context always recovers by replay from the scan start. It
  // has no origin record, so only its order is set.
  if (infos_[0].recovery_order == kInvalidLsn) {
    infos_[0].recovery_order = start_order;
  }

  // Redo phase: reinstall saved context states and the rebuilt tables. The
  // restores run on the replay lanes when parallel replay is on.
  {
    obs::Tracer::Span span = sim->tracer().StartSpan(
        "recovery", "redo", label, recover_span.link());
    TraceFrameScope frame(sim, span);
    RestoreLanes lanes(sim->clock(),
                       sim->options().parallel_replay
                           ? sim->options().parallel_replay_sessions
                           : 1);
    PHX_RETURN_IF_ERROR(RestoreContextStates(lanes));
    double restore_ms = lanes.Close();
    InstallTables();
    sim->metrics()
        .GetHistogram("phoenix.recovery.restore.makespan_ms", labels)
        .Record(restore_ms);
    span.AddArg(obs::Arg("contexts_restored_from_state",
                         stats_.contexts_restored_from_state));
    span.AddArg(obs::Arg("restore_lanes",
                         static_cast<uint64_t>(lanes.lanes())));
    span.AddArg(obs::Arg("restore_makespan_ms", restore_ms));
  }

  // New components created while recovering (replayed activator calls whose
  // creation records were lost) must reuse the original sequential ids.
  uint64_t max_parent_id = 0;
  for (const auto& [context_id, info] : infos_) {
    if (context_id < Context::kSubordinateIdBase) {
      max_parent_id = std::max(max_parent_id, context_id);
    }
  }
  proc.set_next_parent_id(max_parent_id + 1);

  // Replay phase: re-execute each context forward from its origin (§4.4's
  // second pass).
  {
    obs::Tracer::Span span = sim->tracer().StartSpan(
        "recovery", "replay", label, recover_span.link());
    TraceFrameScope frame(sim, span);
    if (mode_ == RecoveryMode::kColdStart) {
      PHX_RETURN_IF_ERROR(ColdStartPassTwo());
    } else {
      PHX_RETURN_IF_ERROR(PassTwo());
    }
    span.AddArg(obs::Arg("calls_replayed", stats_.calls_replayed));
    span.AddArg(obs::Arg("creations_replayed", stats_.creations_replayed));
  }

  double elapsed = sim->clock().NowMs() - t0;
  sim->metrics()
      .GetCounter("phoenix.recovery.records_scanned", labels)
      .Increment(stats_.records_scanned);
  sim->metrics()
      .GetCounter("phoenix.recovery.calls_replayed", labels)
      .Increment(stats_.calls_replayed);
  sim->metrics()
      .GetHistogram("phoenix.recovery.duration_ms", labels)
      .Record(elapsed);
  recover_span.AddArg(obs::Arg("elapsed_ms", elapsed));
  return Status::OK();
}

uint64_t RecoveryManager::AssessAndSalvageLog() {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  LogManager& log = proc.log();
  std::string label = ProcLabel(&proc);
  obs::LabelSet labels{{"process", label}};

  uint64_t start_order = log.head_order();
  Result<uint64_t> well_known = log.ReadWellKnownLsn();
  if (mode_ != RecoveryMode::kNormal) {
    // Degraded rungs distrust the published checkpoint pointer outright —
    // a prior attempt already failed, and a lying well-known file is one of
    // the ways it can keep failing. Rebuild from a full scan instead.
    if (well_known.ok()) {
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.wkf_distrusted", labels)
          .Increment();
      sim->tracer().Instant("recovery", "salvage_wkf_distrusted", label,
                            {obs::Arg("wkf_lsn", *well_known),
                             obs::Arg("scan_from", start_order)});
    }
  } else if (well_known.ok()) {
    // A corrupt well-known file (bit rot, or one pointing past a torn tail)
    // must not be trusted: unless its LSN lands exactly on a readable
    // begin-checkpoint record, rebuild from a full scan of the retained
    // log instead. Checkpoint records live on shard 0 (the whole log when
    // unsharded), so a pointer with other shard bits is rot too.
    uint64_t wkf = *well_known;
    bool valid = false;
    if (ShardOfLsn(wkf) == 0) {
      Result<LogRecord> rec = log.ReadRecordAtLsn(wkf);
      Result<uint64_t> order = log.OrderOfRecordAt(wkf);
      if (rec.ok() &&
          std::get_if<BeginCheckpointRecord>(&rec.value()) != nullptr &&
          order.ok()) {
        valid = true;
        start_order = *order;
      }
    }
    if (!valid) {
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.wkf_fallback", labels)
          .Increment();
      sim->tracer().Instant("recovery", "salvage_wkf_fallback", label,
                            {obs::Arg("wkf_lsn", wkf),
                             obs::Arg("scan_from", start_order)});
    }
  }

  // Damage probe: one un-costed salvage scan from the cut. A torn tail is
  // physically amputated at the first unreadable byte so the partial frame
  // cannot pollute records appended after this recovery (other shards keep
  // their tails untouched); unreadable mid-log regions above a checkpoint
  // cut force a full scan, because the bytes lost there may be the
  // checkpoint's own table records. Damage below the cut is never seen
  // (OrderedLogCursor).
  for (;;) {
    OrderedLogCursor probe(log, start_order);
    while (probe.Next()) {
    }
    std::vector<ShardDamage> damage = probe.damage();
    bool amputated = false;
    for (const ShardDamage& shard : damage) {
      if (!shard.tail_torn) continue;
      uint64_t discarded = shard.end_lsn - shard.torn_offset;
      log.TruncateStableTail(shard.torn_offset);
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.torn_tail_bytes", labels)
          .Increment(discarded);
      sim->tracer().Instant("recovery", "salvage_torn_tail", label,
                            {obs::Arg("torn_at_lsn", shard.torn_offset),
                             obs::Arg("bytes_discarded", discarded)});
      amputated = true;
    }
    if (amputated) continue;  // re-probe the amputated log
    if (!damage.empty() && start_order > log.head_order()) {
      start_order = log.head_order();
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.full_scan_fallback", labels)
          .Increment();
      sim->tracer().Instant("recovery", "salvage_full_scan", label,
                            {obs::Arg("scan_from", start_order)});
      continue;  // re-probe the widened range
    }
    if (!damage.empty()) {
      std::vector<SkippedRange> skipped = probe.gaps();  // no torn tails left
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.ranges_skipped", labels)
          .Increment(skipped.size());
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.bytes_skipped", labels)
          .Increment(probe.skipped_bytes());
      for (const SkippedRange& range : skipped) {
        sim->tracer().Instant("recovery", "salvage_skip", label,
                              {obs::Arg("from_lsn", range.from_lsn),
                               obs::Arg("to_lsn", range.to_lsn)});
      }
    }
    if (log.sharded()) {
      // The sharded merge's input: every record of every shard, those below
      // the cut included.
      sim->metrics()
          .GetCounter("phoenix.recovery.merge.records", labels)
          .Increment(probe.records_read());
      if (probe.inversions() > 0) {
        sim->metrics()
            .GetCounter("phoenix.recovery.merge.inversions", labels)
            .Increment(probe.inversions());
      }
    }
    return start_order;
  }
}

Status RecoveryManager::PassOne(uint64_t start_order) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();

  // All of a context's origin candidates (state records, its creation; for
  // the activator also the checkpoint records, which all live on shard 0)
  // share one shard, so the LSN comparisons between them below are exactly
  // the single-log ones. recovery_order rides alongside for the
  // cross-context decisions (scan cuts, pass-2 filtering).
  OrderedLogCursor cursor(proc.log(), start_order);
  while (std::optional<OrderedRecord> rec = cursor.Next()) {
    ++stats_.records_scanned;
    sim->clock().AdvanceMs(sim->costs().recovery_scan_record_ms);
    if (proc.MaybeCrash(FailurePoint::kDuringRecoveryAnalysis)) {
      return Status::Crashed("crashed during recovery analysis scan");
    }

    if (const auto* e =
            std::get_if<CheckpointContextEntryRecord>(&rec->record)) {
      ContextInfo& info = infos_[e->context_id];
      if (info.recovery_lsn == kInvalidLsn ||
          (e->recovery_lsn != kInvalidLsn &&
           e->recovery_lsn > info.recovery_lsn)) {
        SetOrigin(info, e->recovery_lsn);
      }
      info.checkpoint_last_outgoing_seq = e->last_outgoing_seq;
    } else if (const auto* c =
                   std::get_if<CheckpointLastCallRecord>(&rec->record)) {
      LastCallEntry entry;
      entry.seq = c->call_id.seq;
      entry.reply_lsn = c->reply_lsn;
      entry.context_id = c->context_id;
      MergeLastCall(rebuilt_last_calls_, c->call_id.caller, entry);
    } else if (const auto* t =
                   std::get_if<CheckpointRemoteTypeRecord>(&rec->record)) {
      rebuilt_remote_types_[t->uri] = RemoteTypeInfo{t->kind, t->type_name};
    } else if (const auto* cr = std::get_if<CreationRecord>(&rec->record)) {
      ContextInfo& info = infos_[cr->context_id];
      if (info.recovery_lsn == kInvalidLsn) {
        info.recovery_lsn = rec->lsn;
        info.recovery_order = rec->order;
      }
    } else if (const auto* st = std::get_if<ContextStateRecord>(&rec->record)) {
      ContextInfo& info = infos_[st->context_id];
      info.recovery_lsn = rec->lsn;
      info.recovery_order = rec->order;
      info.restored_from_state = true;
    } else if (const auto* lr =
                   std::get_if<LastCallReplyRecord>(&rec->record)) {
      LastCallEntry entry;
      entry.seq = lr->call_id.seq;
      entry.reply_lsn = rec->lsn;
      entry.context_id = lr->context_id;
      MergeLastCall(rebuilt_last_calls_, lr->call_id.caller, entry);
    } else if (const auto* rs = std::get_if<ReplySentRecord>(&rec->record)) {
      // Baseline long reply records double as reply sources for the table.
      if (rs->long_form && !rs->call_id.caller.machine.empty()) {
        LastCallEntry entry;
        entry.seq = rs->call_id.seq;
        entry.reply_lsn = rec->lsn;
        entry.context_id = rs->context_id;
        MergeLastCall(rebuilt_last_calls_, rs->call_id.caller, entry);
      }
    }
    // Message records are pass 2's business; begin/end markers need nothing.
  }
  stats_.contexts_found = infos_.size();
  return Status::OK();
}

void RecoveryManager::SetOrigin(ContextInfo& info, uint64_t lsn) {
  Result<uint64_t> order = process_->log().OrderOfRecordAt(lsn);
  info.recovery_lsn = lsn;
  info.recovery_order = order.ok() ? *order : kInvalidLsn;
}

Status RecoveryManager::RestoreContextStates(RestoreLanes& lanes) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  std::string label = ProcLabel(&proc);

  for (auto& [context_id, info] : infos_) {
    if (context_id == 0) continue;  // activator is rebuilt by Start()
    if (info.recovery_lsn == kInvalidLsn) continue;

    lanes.Take();
    Status status = RestoreOneContext(context_id, info);
    // Salvage: the recovery LSN points at bit-rotted or skipped bytes.
    // State records are redundant — the same state is reachable by replay
    // from an older state record, or from the creation record.
    uint64_t fallback = status.IsCorruption()
                            ? FindFallbackOrigin(context_id, info.recovery_lsn)
                            : kInvalidLsn;
    if (fallback != kInvalidLsn) {
      sim->metrics()
          .GetCounter("phoenix.recovery.salvage.state_record_fallback",
                      obs::LabelSet{{"process", label}})
          .Increment();
      sim->tracer().Instant("recovery", "salvage_state_fallback", label,
                            {obs::Arg("context", context_id),
                             obs::Arg("bad_lsn", info.recovery_lsn),
                             obs::Arg("fallback_lsn", fallback)});
      SetOrigin(info, fallback);
      info.restored_from_state = false;
      status = RestoreOneContext(context_id, info);
    }
    if (status.ok() && proc.MaybeCrash(FailurePoint::kDuringRecoveryRestore)) {
      status = Status::Crashed("crashed during state reinstatement");
    }
    lanes.Release();
    PHX_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

Status RecoveryManager::RestoreOneContext(uint64_t context_id,
                                          ContextInfo& info) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();

  Result<LogRecord> read = proc.log().ReadRecordAtLsn(info.recovery_lsn);
  if (!read.ok()) return std::move(read).status();
  LogRecord record = std::move(read).value();

  if (const auto* state = std::get_if<ContextStateRecord>(&record)) {
    // Object creation + registration, then field restore (§5.4 measures
    // these as ~80 ms + ~60 ms).
    sim->clock().AdvanceMs(sim->costs().recovery_create_ms +
                           sim->costs().recovery_restore_state_ms);
    Context* ctx = proc.FindContext(context_id);
    if (ctx == nullptr) ctx = proc.CreateRawContext(context_id);
    for (const ComponentSnapshot& snap : state->components) {
      PHX_RETURN_IF_ERROR(ctx->RestoreComponent(snap));
    }
    ctx->set_state_record_lsn(info.recovery_lsn);
    ctx->set_last_outgoing_seq(state->last_outgoing_seq);
    for (const LastCallRef& ref : state->last_call_refs) {
      LastCallEntry entry;
      entry.seq = ref.call_id.seq;
      entry.reply_lsn = ref.reply_lsn;
      entry.context_id = context_id;
      MergeLastCall(rebuilt_last_calls_, ref.call_id.caller, entry);
    }
    info.restored_from_state = true;
    ++stats_.contexts_restored_from_state;
    return Status::OK();
  }
  if (const auto* creation = std::get_if<CreationRecord>(&record)) {
    // Materialize a blank instance so references resolve and replayed
    // activator calls find it; Initialize replays in pass 2.
    sim->clock().AdvanceMs(sim->costs().recovery_create_ms);
    Context* ctx = proc.FindContext(context_id);
    if (ctx == nullptr) ctx = proc.CreateRawContext(context_id);
    PHX_ASSIGN_OR_RETURN(std::unique_ptr<Component> instance,
                         sim->factories().Create(creation->type_name));
    ctx->AddComponent(std::move(instance), creation->type_name,
                      creation->name, creation->kind, context_id);
    proc.IndexComponentName(creation->name, context_id);
    ctx->set_creation_lsn(info.recovery_lsn);
    return Status::OK();
  }
  return Status::Corruption(
      StrCat("context ", context_id,
             " recovery LSN does not hold a state/creation record"));
}

uint64_t RecoveryManager::FindFallbackOrigin(uint64_t context_id,
                                             uint64_t bad_lsn) {
  // A context's origin candidates all live on one shard (the whole log when
  // unsharded), where LSNs ascend in append order.
  LogManager& log = process_->log();
  uint32_t shard = ShardOfLsn(bad_lsn);
  uint64_t best_state = kInvalidLsn;
  uint64_t best_creation = kInvalidLsn;
  OrderedLogCursor cursor(log, log.head_order());
  while (std::optional<OrderedRecord> rec = cursor.Next()) {
    if (rec->shard != shard) continue;
    if (rec->lsn >= bad_lsn) break;
    if (const auto* s = std::get_if<ContextStateRecord>(&rec->record);
        s != nullptr && s->context_id == context_id) {
      best_state = rec->lsn;
    } else if (const auto* c = std::get_if<CreationRecord>(&rec->record);
               c != nullptr && c->context_id == context_id) {
      if (best_creation == kInvalidLsn) best_creation = rec->lsn;
    }
  }
  return best_state != kInvalidLsn ? best_state : best_creation;
}

void RecoveryManager::InstallTables() {
  Process& proc = *process_;
  for (const auto& [key, entry] : rebuilt_last_calls_) {
    proc.last_calls().Update(key.first, entry);
  }
  for (const auto& [uri, info] : rebuilt_remote_types_) {
    proc.remote_types().Learn(uri, info.kind, info.type_name);
  }
}

Status RecoveryManager::PassTwo() {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();

  // Cross-context comparisons — the scan cut here, the below-origin filter
  // in the loop — run in order space: a context's records and its origin
  // live on one shard, but the *minimum* is taken across contexts on
  // different shards, where composite LSNs do not order by time.
  uint64_t scan_start = kInvalidLsn;
  for (const auto& [context_id, info] : infos_) {
    if (info.recovery_order != kInvalidLsn) {
      scan_start = std::min(scan_start, info.recovery_order);
    }
  }
  if (scan_start == kInvalidLsn) return Status::OK();  // nothing to recover

  if (sim->options().parallel_replay) {
    Status parallel_result = Status::OK();
    if (TryParallelPassTwo(scan_start, &parallel_result)) {
      return parallel_result;
    }
    // Fell back: the sequential scan below is the reference semantics.
  }

  in_pass_two_ = true;
  // Live calls arriving mid-recovery (a peer's retry) force the target
  // context's pending replay to finish first.
  proc.SetPendingFlusher([this](uint64_t context_id) {
    (void)FlushPending(context_id);
  });

  Status result = Status::OK();
  OrderedLogCursor cursor(proc.log(), scan_start);
  while (std::optional<OrderedRecord> rec = cursor.Next()) {
    ++stats_.records_scanned;
    sim->clock().AdvanceMs(sim->costs().recovery_scan_record_ms);

    if (const auto* creation = std::get_if<CreationRecord>(&rec->record)) {
      auto it = infos_.find(creation->context_id);
      uint64_t origin = it != infos_.end() ? it->second.recovery_order
                                           : kInvalidLsn;
      if (origin != kInvalidLsn && rec->order < origin) continue;
      if (origin != kInvalidLsn && rec->order == origin) {
        PendingReplay unit;
        unit.is_creation = true;
        unit.start_lsn = rec->lsn;
        unit.order = rec->order;
        unit.creation = *creation;
        pending_[creation->context_id] = std::move(unit);
      }
      // Creation records newer than the origin (duplicates appended by a
      // previous recovery's live re-creation) need no replay of their own.
    } else if (const auto* incoming =
                   std::get_if<IncomingCallRecord>(&rec->record)) {
      auto it = infos_.find(incoming->context_id);
      if (it == infos_.end()) continue;  // context created after this scan?
      if (it->second.recovery_order != kInvalidLsn &&
          rec->order < it->second.recovery_order) {
        continue;
      }
      // The previous buffered unit of this context is complete: replay it.
      result = FlushPending(incoming->context_id);
      if (!result.ok()) break;
      if (!proc.alive()) {
        result = Status::Crashed("process died during recovery replay");
        break;
      }
      if (proc.MaybeCrash(FailurePoint::kBetweenReplayUnits)) {
        result = Status::Crashed("crashed between replay units");
        break;
      }
      PendingReplay unit;
      unit.start_lsn = rec->lsn;
      unit.order = rec->order;
      unit.incoming = *incoming;
      pending_[incoming->context_id] = std::move(unit);
    } else if (const auto* reply =
                   std::get_if<ReplyReceivedRecord>(&rec->record)) {
      auto it = pending_.find(reply->context_id);
      if (it != pending_.end()) {
        it->second.feed.replies[reply->seq] = *reply;
      }
      // No pending unit: the reply belongs to a call already covered by a
      // state record or flushed early — safely ignored.
    }
    // OutgoingCallRecords (baseline message 3) are re-derived by replay;
    // ReplySentRecords mark completion but replay re-executes uniformly;
    // state/checkpoint records were handled in pass 1.
  }

  if (result.ok()) {
    // End of log: replay the remaining buffered calls — the last incoming
    // call of each context — oldest first.
    result = FlushAllPendingOldestFirst();
  }

  proc.SetPendingFlusher(nullptr);
  in_pass_two_ = false;
  return result;
}

Status RecoveryManager::ColdStartPassTwo() {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  std::string label = ProcLabel(&proc);

  // Availability rung: reinstate the newest durable state only, no message
  // replay. Contexts restored from state records already hold that state;
  // creation-origin contexts re-run Initialize with an empty feed (their
  // Initialize-time outgoing calls go out live with the original ids, and
  // the servers deduplicate). Every message logged after the origins is
  // abandoned — cold start trades lost work for a process that serves.
  for (auto& [context_id, info] : infos_) {
    if (context_id == 0) continue;  // activator is rebuilt by Start()
    if (info.recovery_lsn == kInvalidLsn || info.restored_from_state) {
      continue;
    }
    Context* ctx = proc.FindContext(context_id);
    if (ctx == nullptr || ctx->parent_initialized()) continue;
    Result<LogRecord> read = proc.log().ReadRecordAtLsn(info.recovery_lsn);
    if (!read.ok()) continue;  // leave blank rather than fail the last rung
    const auto* creation = std::get_if<CreationRecord>(&read.value());
    if (creation == nullptr) continue;
    sim->clock().AdvanceMs(sim->costs().recovery_replay_call_ms);
    ++stats_.creations_replayed;
    PHX_RETURN_IF_ERROR(ctx->ReplayCreation(creation->ctor_args, {}));
  }
  sim->metrics()
      .GetCounter("phoenix.recovery.cold_starts",
                  obs::LabelSet{{"process", label}})
      .Increment();
  sim->tracer().Instant("recovery", "cold_start", label,
                        {obs::Arg("contexts_restored_from_state",
                                  stats_.contexts_restored_from_state),
                         obs::Arg("creations_replayed",
                                  stats_.creations_replayed)});
  return Status::OK();
}

Status RecoveryManager::FlushAllPendingOldestFirst() {
  Process& proc = *process_;
  Status result = Status::OK();
  while (result.ok() && !pending_.empty()) {
    uint64_t best_ctx = 0;
    uint64_t best_order = kInvalidLsn;
    for (const auto& [context_id, unit] : pending_) {
      if (unit.order < best_order) {
        best_order = unit.order;
        best_ctx = context_id;
      }
    }
    result = FlushPending(best_ctx);
    if (!proc.alive()) {
      result = Status::Crashed("process died during recovery replay");
    } else if (result.ok() &&
               proc.MaybeCrash(FailurePoint::kDuringEndOfLogFlush)) {
      result = Status::Crashed("crashed during end-of-log flush");
    }
  }
  return result;
}

bool RecoveryManager::TryParallelPassTwo(uint64_t scan_start,
                                         Status* result) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  std::string label = ProcLabel(&proc);
  obs::LabelSet labels{{"process", label}};

  auto fall_back = [&](PlanFallback why) {
    sim->metrics()
        .GetCounter("phoenix.recovery.replay.fallbacks",
                    obs::LabelSet{{"process", label},
                                  {"reason", PlanFallbackName(why)}})
        .Increment();
    sim->tracer().Instant("recovery", "replay_fallback", label,
                          {obs::Arg("reason", PlanFallbackName(why))});
    return false;
  };

  // A recovery triggered from inside a running session chain (a retry that
  // restarted the server) cannot nest a second scheduler.
  if (sim->session_scheduler() != nullptr) {
    return fall_back(PlanFallback::kNestedScheduler);
  }

  ReplayPlanInputs inputs;
  inputs.machine = proc.machine_name();
  inputs.process_id = proc.pid();
  inputs.replay_call_ms = sim->costs().recovery_replay_call_ms;
  for (const auto& [context_id, info] : infos_) {
    inputs.origins[context_id] = info.recovery_lsn;
    inputs.origin_orders[context_id] = info.recovery_order;
  }
  // Unreadable regions the cursor reports (mid-log skips; torn tails were
  // amputated before pass 1) demote exactly the chains whose extents they
  // intersect.
  OrderedLogCursor cursor(proc.log(), scan_start);
  ReplayPlan plan = BuildReplayPlan(cursor, inputs);
  // The analysis scan is real work whether or not the plan is usable; when
  // it is, it replaces the sequential pass's own scan entirely.
  sim->clock().AdvanceMs(static_cast<double>(plan.records_scanned) *
                         sim->costs().recovery_scan_record_ms);
  if (!plan.parallel_eligible()) return fall_back(plan.fallback);
  stats_.records_scanned += plan.records_scanned;

  if (plan.salvaged) {
    // The log was salvaged but enough chains stayed eligible: parallel
    // replay proceeds, with the demoted chains serialized in log order by
    // the plan's extra edges.
    sim->metrics()
        .GetCounter("phoenix.recovery.replay.salvaged_parallel", labels)
        .Increment();
    sim->metrics()
        .GetCounter("phoenix.recovery.replay.chains_demoted", labels)
        .Increment(plan.demoted_chains);
    sim->tracer().Instant(
        "recovery", "replay_salvage_parallel", label,
        {obs::Arg("skipped_ranges", plan.skipped_ranges),
         obs::Arg("demoted_chains",
                  static_cast<uint64_t>(plan.demoted_chains)),
         obs::Arg("serialization_edges", plan.serialization_edges)});
  }

  uint32_t sessions = sim->options().parallel_replay_sessions;
  sim->metrics()
      .GetCounter("phoenix.recovery.replay.chains", labels)
      .Increment(plan.chains.size());
  sim->metrics()
      .GetCounter("phoenix.recovery.replay.edges", labels)
      .Increment(plan.cross_edges);
  sim->metrics()
      .GetHistogram("phoenix.recovery.replay.critical_path_ms", labels)
      .Record(plan.critical_path_ms);

  obs::Tracer::Span span = sim->tracer().StartSpan(
      "recovery", "parallel_replay", label, RecoveryRoot(sim),
      {obs::Arg("chains", static_cast<uint64_t>(plan.chains.size())),
       obs::Arg("edges", plan.cross_edges),
       obs::Arg("critical_path_ms", plan.critical_path_ms)});
  TraceFrameScope frame(sim, span);

  ParallelReplayEngine engine(&proc, &plan, sessions, span.link(), label);
  Status status = engine.Run(
      [this](uint64_t context_id, PendingReplay unit) {
        return ReplayUnit(context_id, std::move(unit));
      });
  sim->metrics()
      .GetGauge("phoenix.recovery.replay.parallelism", labels)
      .Set(engine.sessions_used());
  sim->metrics()
      .GetHistogram("phoenix.recovery.replay.makespan_ms", labels)
      .Record(engine.makespan_ms());
  span.AddArg(obs::Arg("sessions",
                       static_cast<uint64_t>(engine.sessions_used())));
  span.AddArg(obs::Arg("makespan_ms", engine.makespan_ms()));

  if (status.ok()) {
    // Tail: each chain's final unit is exactly the sequential replayer's
    // end-of-log pending set. Flush oldest first with the demand flusher
    // installed, so a unit that goes live and calls into a context whose
    // tail has not replayed yet forces that unit through first.
    in_pass_two_ = true;
    proc.SetPendingFlusher([this](uint64_t context_id) {
      (void)FlushPending(context_id);
    });
    for (ReplayChain& chain : plan.chains) {
      if (chain.units.empty()) continue;
      pending_[chain.context_id] = std::move(chain.units.back().replay);
    }
    status = FlushAllPendingOldestFirst();
    proc.SetPendingFlusher(nullptr);
    in_pass_two_ = false;
  }
  *result = status;
  return true;
}

Status RecoveryManager::FlushPending(uint64_t context_id) {
  auto it = pending_.find(context_id);
  if (it == pending_.end()) return Status::OK();
  PendingReplay unit = std::move(it->second);
  pending_.erase(it);
  return ReplayUnit(context_id, std::move(unit));
}

Status RecoveryManager::ReplayUnit(uint64_t context_id, PendingReplay unit) {
  Process& proc = *process_;
  Context* ctx = proc.FindContext(context_id);
  if (ctx == nullptr) {
    return Status::Internal(
        StrCat("pending replay for unknown context ", context_id));
  }

  if (unit.is_creation) {
    if (ctx->parent_initialized()) return Status::OK();  // created live
    ++stats_.creations_replayed;
    return ctx->ReplayCreation(unit.creation.ctor_args, std::move(unit.feed));
  }

  ++stats_.calls_replayed;
  Component* parent = ctx->parent();
  PHX_CHECK(parent != nullptr);
  CallMessage msg = MessageFromRecord(unit.incoming, parent->uri());
  Result<ReplyMessage> reply = ctx->ReplayIncoming(msg, std::move(unit.feed));
  if (!reply.ok()) return std::move(reply).status();
  // Condition 5: the reply stays with the recovery manager. The last-call
  // table was updated inside ReplayIncoming; a retrying client will be
  // answered from there.
  return Status::OK();
}

}  // namespace phoenix
