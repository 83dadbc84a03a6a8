#include "recovery/recovery_manager.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/macros.h"
#include "common/strings.h"
#include "recovery/parallel_replay.h"
#include "runtime/kinds.h"
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

// K, the recovery lanes: the restores and the replay engine share them.
uint32_t RecoveryLaneCount(const Simulation& sim) {
  return sim.options().parallel_replay ? sim.options().parallel_replay_sessions
                                       : 1;
}

}  // namespace

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
  // buffer, so recovery reads the unforced tail too. All of one context's
  // records route to one shard, so that shard's image is the whole input.
  std::vector<uint8_t> image_bytes;
  LogView image = proc.log().ShardFullView(ShardOfLsn(origin), &image_bytes);

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
  // Crash recovery's restore, then its pass-2 executor over a plan of the
  // image from the origin on. The context is the only one with an origin,
  // so the plan is its chain alone, and it runs on one lane.
  RecoveryManager manager(process);
  RecoveryManager::ContextInfo& info = manager.infos_[context_id];
  info.recovery_lsn = origin;
  Status status = manager.RestoreOneContext(
      context_id, info,
      ReadRecordAt(image, LocalOfLsn(origin), &info.recovery_order));
  if (status.ok()) {
    OrderedLogCursor cursor({image}, info.recovery_order);
    ReplayPlan plan = manager.PlanFromScan(cursor);
    status = manager.RunPlan(plan, /*lanes=*/nullptr, 1);
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

  PHX_RETURN_IF_ERROR(Analyze());

  // Redo phase: reinstall saved context states and the rebuilt tables. The
  // restores run on the recovery lanes; when pass 2 runs pass 1's plan on
  // them, the lanes stay open for it, so a context's units start once the
  // restores they need are done rather than after the last one. The redo
  // span ends at the restores' own makespan.
  RecoveryLanes lanes(sim->clock(), RecoveryLaneCount(*sim));
  {
    obs::Tracer::Span span = sim->tracer().StartSpan(
        "recovery", "redo", label, recover_span.link());
    TraceFrameScope frame(sim, span);
    Status restored = RestoreContextStates(lanes);
    if (!restored.ok()) {
      lanes.Close();
      return restored;
    }
    bool shared = plan_.has_value() && sim->session_scheduler() == nullptr;
    double restore_ms = shared ? lanes.BusyUntilMs() - lanes.start_ms()
                               : lanes.Close();
    InstallTables();
    sim->metrics()
        .GetHistogram("phoenix.recovery.restore.makespan_ms", labels)
        .Record(restore_ms);
    span.AddArg(obs::Arg("contexts_restored_from_state",
                         stats_.contexts_restored_from_state));
    span.AddArg(obs::Arg("restore_lanes",
                         static_cast<uint64_t>(lanes.lanes())));
    span.AddArg(obs::Arg("restore_makespan_ms", restore_ms));
    lanes.ShowLatestLane();
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
      PHX_RETURN_IF_ERROR(PassTwo(lanes));
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

Status RecoveryManager::Analyze() {
  Simulation* sim = process_->simulation();
  // Start point: the published checkpoint, or the whole retained log —
  // after validating the well-known LSN and salvaging storage damage. It is
  // an order cut: an LSN on a single log, a global sequence number on a
  // sharded one.
  uint64_t start_order = AssessAndSalvageLog();

  // Analysis phase: one forward scan rebuilding the recovery map and the
  // global tables (§4.4's first pass).
  obs::Tracer::Span span = sim->tracer().StartSpan(
      "recovery", "analysis", ProcLabel(process_), sim->Current(),
      {obs::Arg("start_lsn", start_order)});
  TraceFrameScope frame(sim, span);
  PHX_RETURN_IF_ERROR(PassOne(start_order));
  span.AddArg(obs::Arg("records_scanned", stats_.records_scanned));
  span.AddArg(obs::Arg("contexts_found", stats_.contexts_found));
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

Status RecoveryManager::ScanRecord() {
  Simulation* sim = process_->simulation();
  ++stats_.records_scanned;
  sim->clock().AdvanceMs(sim->costs().recovery_scan_record_ms);
  if (process_->MaybeCrash(FailurePoint::kDuringRecoveryAnalysis)) {
    return Status::Crashed("crashed during recovery analysis scan");
  }
  return Status::OK();
}

ReplayPlan RecoveryManager::PlanFromScan(OrderedLogCursor& cursor) {
  Simulation* sim = process_->simulation();
  ReplayPlan plan = BuildReplayPlan(cursor, PlanInputs());
  stats_.records_scanned += plan.records_scanned;
  sim->clock().AdvanceMs(static_cast<double>(plan.records_scanned) *
                         sim->costs().recovery_scan_record_ms);
  return plan;
}

uint64_t RecoveryManager::LowestOrigin() const {
  // Cross-context comparisons run in order space: a context's records and
  // its origin live on one shard, but the minimum is taken across contexts
  // on different shards, where composite LSNs do not order by time.
  uint64_t lowest = kInvalidLsn;
  for (const auto& [context_id, info] : infos_) {
    lowest = std::min(lowest, info.recovery_order);
  }
  return lowest;
}

Status RecoveryManager::PassOne(uint64_t start_order) {
  Process& proc = *process_;

  // Every rung but cold start replays, so this read also feeds the
  // planner.
  std::optional<ReplayPlanner> planner;
  if (mode_ != RecoveryMode::kColdStart) planner.emplace(start_order);
  // All of a context's origin candidates (state records, its creation; for
  // the activator also the checkpoint records, which all live on shard 0)
  // share one shard, so the LSN comparisons between them below are exactly
  // the single-log ones. recovery_order rides alongside for the
  // cross-context decisions (the back-fill's start, the plan's below-origin
  // filter).
  OrderedLogCursor cursor(proc.log(), start_order);
  while (std::optional<OrderedRecord> rec = cursor.Next()) {
    PHX_RETURN_IF_ERROR(ScanRecord());
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
    // Message records are pass 2's business, and the planner's;
    // begin/end markers need nothing.
    if (planner.has_value()) planner->Add(std::move(*rec));
  }
  stats_.contexts_found = infos_.size();

  // The activator context always recovers by replay from the scan start. It
  // has no origin record, so only its order is set.
  if (infos_[0].recovery_order == kInvalidLsn) {
    infos_[0].recovery_order = start_order;
  }
  if (!planner.has_value()) return Status::OK();
  // The origins are final. Back-fill: read the records from the lowest
  // origin up to the cut, for the planner alone, then plan. Unreadable
  // regions either read reported (mid-log skips; torn tails were amputated
  // before pass 1) demote exactly the chains whose extents they intersect.
  std::vector<SkippedRange> gaps = cursor.gaps();
  if (uint64_t lowest = LowestOrigin(); lowest < start_order) {
    OrderedLogCursor backfill(proc.log(), lowest);
    while (std::optional<OrderedRecord> rec = backfill.Next()) {
      if (rec->order >= start_order) break;
      PHX_RETURN_IF_ERROR(ScanRecord());
      planner->Add(std::move(*rec));
    }
    for (const SkippedRange& gap : backfill.gaps()) {
      if (std::find(gaps.begin(), gaps.end(), gap) == gaps.end()) {
        gaps.push_back(gap);
      }
    }
  }
  plan_ = std::move(*planner).Finish(gaps, PlanInputs());
  return Status::OK();
}

void RecoveryManager::SetOrigin(ContextInfo& info, uint64_t lsn) {
  Result<uint64_t> order = process_->log().OrderOfRecordAt(lsn);
  info.recovery_lsn = lsn;
  info.recovery_order = order.ok() ? *order : kInvalidLsn;
}

Status RecoveryManager::RestoreContextStates(RecoveryLanes& lanes) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  std::string label = ProcLabel(&proc);

  for (auto& [context_id, info] : infos_) {
    if (context_id == 0) continue;  // activator is rebuilt by Start()
    if (info.recovery_lsn == kInvalidLsn) continue;

    int lane = lanes.Take(lanes.start_ms());
    Status status = RestoreOneContext(
        context_id, info, proc.log().ReadRecordAtLsn(info.recovery_lsn));
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
      plan_.reset();
      status = RestoreOneContext(context_id, info,
                                 proc.log().ReadRecordAtLsn(fallback));
    }
    if (status.ok() && proc.MaybeCrash(FailurePoint::kDuringRecoveryRestore)) {
      status = Status::Crashed("crashed during state reinstatement");
    }
    lanes.Release(lane);
    info.restored_at_ms = sim->clock().NowMs();
    PHX_RETURN_IF_ERROR(status);
  }
  return Status::OK();
}

Status RecoveryManager::RestoreOneContext(uint64_t context_id,
                                          ContextInfo& info,
                                          Result<LogRecord> origin) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();

  if (!origin.ok()) return std::move(origin).status();
  LogRecord record = std::move(origin).value();

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
    // Replay re-derives the outgoing sequence from the creation on; a
    // failed context (RecoverContextFailure) still holds its old one.
    ctx->set_last_outgoing_seq(0);
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

ReplayPlanInputs RecoveryManager::PlanInputs() const {
  ReplayPlanInputs inputs;
  inputs.machine = process_->machine_name();
  inputs.process_id = process_->pid();
  for (const auto& [context_id, info] : infos_) {
    inputs.origins[context_id] = info.recovery_lsn;
    inputs.origin_orders[context_id] = info.recovery_order;
  }
  return inputs;
}

std::map<uint64_t, double> RecoveryManager::ContextReadyTimes(
    double start_ms) const {
  double every_restore = start_ms;
  double stateless_restores = start_ms;
  for (const auto& [context_id, info] : infos_) {
    every_restore = std::max(every_restore, info.restored_at_ms);
    const Context* ctx = process_->FindContext(context_id);
    if (context_id != 0 && ctx != nullptr &&
        !IsStatefulKind(ctx->parent_kind())) {
      stateless_restores = std::max(stateless_restores, info.restored_at_ms);
    }
  }
  std::map<uint64_t, double> ready;
  for (const auto& [context_id, info] : infos_) {
    ready[context_id] =
        context_id == 0
            ? every_restore
            : std::max({start_ms, info.restored_at_ms, stateless_restores});
  }
  return ready;
}

Status RecoveryManager::PassTwo(RecoveryLanes& lanes) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  std::string label = ProcLabel(&proc);

  uint32_t sessions = RecoveryLaneCount(*sim);
  if (sessions > 1 && sim->session_scheduler() != nullptr) {
    // A recovery triggered from inside a running session chain (a retry
    // that restarted the server) cannot nest a second scheduler: it runs
    // the plan inline, on one lane.
    sessions = 1;
    sim->metrics()
        .GetCounter("phoenix.recovery.replay.fallbacks",
                    obs::LabelSet{{"process", label},
                                  {"reason", "nested_scheduler"}})
        .Increment();
    sim->tracer().Instant("recovery", "replay_fallback", label,
                          {obs::Arg("reason", "nested_scheduler")});
  }

  if (!plan_.has_value()) {
    // A restore fell back to an older origin, which outdated pass 1's plan:
    // plan from a fresh scan from the lowest origin.
    OrderedLogCursor cursor(proc.log(), LowestOrigin());
    plan_ = PlanFromScan(cursor);
  }
  ReplayPlan plan = std::move(*plan_);
  plan_.reset();
  return RunPlan(plan, &lanes, sessions);
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

Status RecoveryManager::RunPlan(const ReplayPlan& plan, RecoveryLanes* lanes,
                                uint32_t sessions) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  std::string label = ProcLabel(&proc);
  obs::LabelSet labels{{"process", label}};

  if (plan.salvaged) {
    // The log was salvaged: the demoted chains are serialized in log order
    // by the plan's extra edges, and the clean ones overlap.
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

  sim->metrics()
      .GetCounter("phoenix.recovery.replay.chains", labels)
      .Increment(plan.chains.size());
  sim->metrics()
      .GetCounter("phoenix.recovery.replay.edges", labels)
      .Increment(plan.cross_edges);

  obs::Tracer::Span span = sim->tracer().StartSpan(
      "recovery", "parallel_replay", label, RecoveryRoot(sim),
      {obs::Arg("chains", static_cast<uint64_t>(plan.chains.size())),
       obs::Arg("edges", plan.cross_edges)});
  TraceFrameScope frame(sim, span);

  // Replay shares the restores' lanes while they are open; otherwise it
  // gets lanes of its own.
  std::optional<RecoveryLanes> own_lanes;
  if (lanes == nullptr || !lanes->open()) {
    own_lanes.emplace(sim->clock(), sessions);
  }
  RecoveryLanes& replay_lanes = own_lanes.has_value() ? *own_lanes : *lanes;
  double restores_ms = replay_lanes.BusyUntilMs() - replay_lanes.start_ms();
  std::map<uint64_t, double> ready_ms =
      ContextReadyTimes(replay_lanes.start_ms());
  // The plan's critical path on these lanes, measured like the makespan
  // below: from the lanes' start with every chain held to its restore, less
  // the restores. The engine honors the same constraints, so the makespan
  // never undercuts it.
  std::map<uint64_t, double> ready_offsets;
  for (const auto& [context_id, ms] : ready_ms) {
    ready_offsets[context_id] = ms - replay_lanes.start_ms();
  }
  double critical_path_ms = std::max(
      0.0, CriticalPathMs(plan, sim->costs().recovery_replay_call_ms,
                          ready_offsets, /*lanes_only=*/true) -
               restores_ms);
  ParallelReplayEngine engine(&proc, &plan, sessions, span.link(), label);
  // One demand flusher for both phases: a live call finds its target
  // replayed as far as it must be first.
  proc.SetPendingFlusher(
      [&engine](uint64_t context_id, const CallMessage& msg) {
        engine.ReplayThrough(context_id, msg);
      });
  Status status = engine.Run(replay_lanes, ready_ms);
  // The replay phase's share of the lanes: how far it ran past the
  // restores.
  double makespan_ms = replay_lanes.Close() - restores_ms;
  sim->metrics()
      .GetHistogram("phoenix.recovery.replay.critical_path_ms", labels)
      .Record(critical_path_ms);
  sim->metrics()
      .GetGauge("phoenix.recovery.replay.parallelism", labels)
      .Set(engine.sessions_used());
  sim->metrics()
      .GetHistogram("phoenix.recovery.replay.makespan_ms", labels)
      .Record(makespan_ms);
  span.AddArg(obs::Arg("sessions",
                       static_cast<uint64_t>(engine.sessions_used())));
  span.AddArg(obs::Arg("critical_path_ms", critical_path_ms));
  span.AddArg(obs::Arg("makespan_ms", makespan_ms));

  // The final phase runs past the lanes, on the calling chain.
  if (status.ok()) status = engine.ReplayFinals();
  proc.SetPendingFlusher(nullptr);
  stats_.calls_replayed += engine.calls_replayed();
  stats_.creations_replayed += engine.creations_replayed();
  return status;
}

}  // namespace phoenix
