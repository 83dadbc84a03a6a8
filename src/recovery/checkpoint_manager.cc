#include "recovery/checkpoint_manager.h"

#include <algorithm>
#include <vector>

#include "common/macros.h"
#include "common/strings.h"
#include "runtime/context.h"
#include "runtime/process.h"
#include "runtime/simulation.h"
#include "wal/force_point.h"
#include "wal/log_reader.h"

namespace phoenix {
namespace {

std::string ProcLabel(Process* proc) {
  return StrCat(proc->machine_name(), "/", proc->pid());
}

// The lowest local offset any pin holds on one shard, and what holds it:
// "context <id>", "last_call" or "checkpoint_ref".
struct ShardPin {
  uint64_t local = kInvalidLsn;
  std::string pinned_by;
};

}  // namespace

CheckpointManager::CheckpointManager(Process* process) : process_(process) {}

Result<uint64_t> CheckpointManager::SaveContextState(Context& ctx) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  const CostModel& costs = sim->costs();

  if (proc.MaybeCrash(FailurePoint::kDuringStateSave)) {
    return Status::Crashed("crash during context state save");
  }

  ContextStateRecord record;
  record.context_id = ctx.id();
  record.last_outgoing_seq = ctx.last_outgoing_seq();

  // §4.2: replies referenced by this context's last-call entries must be on
  // the log before the state record — after restoring from the state we can
  // no longer recreate them by replay. Entries that already have an LSN
  // from an earlier save are not written again.
  for (auto& [client, entry] : proc.last_calls().EntriesForContext(ctx.id())) {
    if (entry->reply_lsn == kInvalidLsn && entry->reply_in_memory) {
      LastCallReplyRecord reply_record;
      reply_record.context_id = ctx.id();
      reply_record.call_id = CallId{client, entry->seq};
      reply_record.reply = entry->reply;
      reply_record.status_code = entry->status_code;
      entry->reply_lsn = proc.log().Append(reply_record);
    }
    if (entry->reply_lsn != kInvalidLsn) {
      record.last_call_refs.push_back(
          LastCallRef{CallId{client, entry->seq}, entry->reply_lsn});
    }
  }

  record.components = ctx.SnapshotComponents();
  sim->clock().AdvanceMs(costs.state_save_fixed_ms +
                         costs.state_save_per_byte_ms *
                             static_cast<double>(ctx.StateSizeHint()));

  // Not forced: a later send-message force makes it stable (§4.3). Until
  // then recovery falls back to replaying from the previous origin.
  uint64_t lsn = proc.log().Append(record);
  ctx.set_state_record_lsn(lsn);
  ++state_saves_;
  std::string label = ProcLabel(&proc);
  sim->metrics()
      .GetCounter("phoenix.checkpoint.state_saves",
                  obs::LabelSet{{"process", label}})
      .Increment();
  sim->tracer().Instant("checkpoint", "state_save", label, sim->Current(),
                        {obs::Arg("context", static_cast<uint64_t>(ctx.id())),
                         obs::Arg("lsn", lsn)});
  return lsn;
}

void CheckpointManager::OnIncomingCallFinished(Context& ctx) {
  const RuntimeOptions& opts = process_->simulation()->options();
  if (!process_->alive() || process_->recovering()) return;

  if (process_->async_checkpoint_active()) {
    // The background session owns capture: the foreground chain only marks
    // the context dirty. The sweep re-checks §4.2's "not active" rule
    // itself (a context serving a call is deferred), so nothing else from
    // the inline cadence below runs on this chain.
    ++calls_since_save_[ctx.id()];
    return;
  }

  if (opts.save_context_state_every > 0) {
    uint64_t& count = calls_since_save_[ctx.id()];
    if (++count >= opts.save_context_state_every) {
      count = 0;
      // A crash injected during the save surfaces through process death,
      // which the caller observes.
      (void)SaveContextState(ctx);
      if (!process_->alive()) return;
    }
  }
  if (opts.process_checkpoint_every > 0) {
    if (++calls_since_checkpoint_ >= opts.process_checkpoint_every) {
      calls_since_checkpoint_ = 0;
      (void)TakeProcessCheckpoint();
    }
  }
}

Result<uint64_t> CheckpointManager::TakeProcessCheckpoint() {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  std::string label = ProcLabel(&proc);
  obs::Tracer::Span span = sim->tracer().StartSpan(
      "checkpoint", "process_checkpoint", label, sim->Current());
  TraceFrameScope trace_frame(sim, span);

  // Before the begin record, so the bracket's context entries already carry
  // the new origins and the next publish can trim past the old ones. Gated
  // on truncation, which is all the relogs are for: without it, runs keep
  // the paper's log byte for byte.
  if (sim->options().auto_truncate_log) {
    PHX_RETURN_IF_ERROR(RelogStatelessOrigins());
  }

  // Begin/end records bracket the table dump so readers can tell a complete
  // checkpoint from one cut short by a crash (§4.3).
  uint64_t begin_lsn = proc.log().Append(BeginCheckpointRecord{});

  if (proc.MaybeCrash(FailurePoint::kDuringCheckpoint)) {
    return Status::Crashed("crash during process checkpoint");
  }

  // Everything the bracket's entries reference must stay pinned against
  // log truncation until a *newer* checkpoint is published — the live
  // context/last-call tables can move past these LSNs while this bracket
  // is still the one recovery would read.
  std::vector<uint64_t> refs;
  for (const auto& [context_id, ctx] : proc.contexts()) {
    CheckpointContextEntryRecord entry;
    entry.context_id = context_id;
    // The activator context (id 0) is rebuilt at process start; records
    // before this checkpoint are already materialized as creation records,
    // so its replay origin moves up to the checkpoint itself.
    entry.recovery_lsn = context_id == 0 ? begin_lsn : ctx->recovery_lsn();
    entry.last_outgoing_seq = ctx->last_outgoing_seq();
    if (entry.recovery_lsn != kInvalidLsn) refs.push_back(entry.recovery_lsn);
    proc.log().Append(entry);
  }

  for (const auto& [key, entry] : proc.last_calls().entries()) {
    CheckpointLastCallRecord record;
    record.context_id = entry.context_id;
    record.call_id = CallId{key.first, entry.seq};
    record.reply_lsn = entry.reply_lsn;
    if (record.reply_lsn != kInvalidLsn) refs.push_back(record.reply_lsn);
    proc.log().Append(record);
  }

  for (const auto& [uri, info] : proc.remote_types().entries()) {
    CheckpointRemoteTypeRecord record;
    record.uri = uri;
    record.kind = info.kind;
    record.type_name = info.type_name;
    proc.log().Append(record);
  }

  uint64_t end_lsn = proc.log().Append(EndCheckpointRecord{begin_lsn});
  pending_begin_lsn_ = begin_lsn;
  pending_end_lsn_ = end_lsn;
  // The bracket lives on the meta shard (the whole log when unsharded).
  // Its publish gate is that log's *own* durable horizon reaching one past
  // the end record — captured here, right after the append, so it covers
  // the end record regardless of how frames pack.
  pending_end_horizon_ =
      proc.log().sharded() ? proc.log().shard_next_lsn(0) : proc.log().next_lsn();
  pending_end_append_ms_ = sim->clock().NowMs();
  pending_ref_lsns_ = std::move(refs);
  ++checkpoints_taken_;
  sim->metrics()
      .GetCounter("phoenix.checkpoint.taken", obs::LabelSet{{"process", label}})
      .Increment();
  span.AddArg(obs::Arg("begin_lsn", begin_lsn));
  span.AddArg(obs::Arg("end_lsn", end_lsn));
  // The buffer may already have spilled (capacity force); publish if so.
  MaybePublishCheckpoint();
  return begin_lsn;
}

void CheckpointManager::MaybePublishCheckpoint() {
  if (pending_begin_lsn_ == kInvalidLsn) return;
  // The gate reads the durable horizon of the log that holds the bracket —
  // on a sharded WAL the meta shard's (shard 0's), which is exactly what
  // LogManager::durable_lsn() reports in both layouts. A composite-LSN
  // IsStable() check through the forcing chain's touched-shard view could
  // answer from the wrong shard's horizon; the horizon captured at the end
  // append cannot.
  if (process_->log().durable_lsn() < pending_end_horizon_) return;
  Simulation* sim = process_->simulation();
  std::string label = ProcLabel(process_);
  if (pending_begin_lsn_ == published_begin_lsn_) {
    // Publish-once latch: this checkpoint is already in the well-known
    // file. Every interceptor force site (and the background sweep) calls
    // in here, so repeats are common and must be no-ops — re-writing the
    // well-known file would re-externalize and re-trigger GC.
    ++publish_skips_;
    sim->metrics()
        .GetCounter("phoenix.checkpoint.publish_skips",
                    obs::LabelSet{{"process", label}})
        .Increment();
    return;
  }
  // §4.3: once the checkpoint is flushed, force the begin LSN into the
  // well-known file; recovery starts its first pass there.
  uint64_t published_lsn = pending_begin_lsn_;
  process_->log().WriteWellKnownLsn(published_lsn);
  // The well-known file now points into the stable checkpoint bracket;
  // recovery depends on those bytes, so a torn tail may no longer eat them.
  process_->NoteExternalization();
  published_begin_lsn_ = published_lsn;
  // The published entries reference these LSNs until the next publish.
  published_ref_lsns_ = pending_ref_lsns_;
  ++checkpoints_published_;
  sim->metrics()
      .GetCounter("phoenix.checkpoint.published",
                  obs::LabelSet{{"process", label}})
      .Increment();
  sim->tracer().Instant("checkpoint", "publish", label, sim->Current(),
                        {obs::Arg("begin_lsn", published_lsn)});
  if (process_->async_checkpoint_active()) {
    sim->metrics()
        .GetCounter("phoenix.checkpoint.async.publishes",
                    obs::LabelSet{{"process", label}})
        .Increment();
    sim->metrics()
        .GetHistogram("phoenix.checkpoint.async.lag_ms",
                      obs::LabelSet{{"process", label}})
        .Record(sim->clock().NowMs() - pending_end_append_ms_);
  }
  if (process_->simulation()->options().auto_truncate_log) {
    GarbageCollect();
  }
}

Status CheckpointManager::RelogStatelessOrigins() {
  Process& proc = *process_;
  // Nothing to move past before the first publish; a single log's order is
  // its LSN, a sharded one's is the gsn (composite LSNs on different
  // shards do not order).
  Result<uint64_t> well_known = proc.log().ReadWellKnownLsn();
  if (!well_known.ok()) return Status::OK();
  Result<uint64_t> checkpoint_order = proc.log().OrderOfRecordAt(*well_known);
  if (!checkpoint_order.ok()) return Status::OK();
  for (const auto& [context_id, ctx] : proc.contexts()) {
    if (context_id == 0 || ctx->busy() || ctx->serving()) continue;
    if (IsStatefulKind(ctx->parent_kind())) continue;
    uint64_t origin = ctx->recovery_lsn();
    if (origin == kInvalidLsn) continue;
    // An origin not yet stable on its shard cannot be ordered; the next
    // checkpoint tries again.
    Result<uint64_t> origin_order = proc.log().OrderOfRecordAt(origin);
    if (!origin_order.ok() || *origin_order >= *checkpoint_order) continue;
    PHX_RETURN_IF_ERROR(RelogOrigin(*ctx));
    proc.simulation()
        ->metrics()
        .GetCounter("phoenix.checkpoint.origin_relogs",
                    obs::LabelSet{{"process", ProcLabel(&proc)}})
        .Increment();
  }
  return Status::OK();
}

Status CheckpointManager::RelogOrigin(Context& ctx) {
  Process& proc = *process_;
  // A copy of the creation record is a valid origin only when nothing
  // before it is replay input: with specialized kinds the context's calls
  // are never logged and carry no call IDs, and a self-contained creation
  // replays without a logged reply. A context with a state record
  // restarts from that record, which a copy would not move.
  if (proc.simulation()->options().use_specialized_kinds &&
      ctx.creation_self_contained() && ctx.state_record_lsn() == kInvalidLsn) {
    // The origin precedes the published checkpoint, so it is stable.
    Result<LogRecord> origin = proc.log().ReadRecordAtLsn(ctx.creation_lsn());
    const auto* creation =
        origin.ok() ? std::get_if<CreationRecord>(&*origin) : nullptr;
    if (creation != nullptr && creation->context_id == ctx.id()) {
      // Not forced, like the original: until a later force makes the copy
      // stable, recovery starts the context from the published entry.
      ctx.set_creation_lsn(proc.log().Append(*creation));
      return Status::OK();
    }
  }
  return SaveContextState(ctx).status();
}

uint64_t CheckpointManager::GarbageCollect() {
  Process& proc = *process_;
  LogManager& log = proc.log();
  Simulation* sim = proc.simulation();
  std::string label = ProcLabel(process_);

  // Nothing is reclaimable before the first published checkpoint: recovery
  // would scan from the very beginning.
  Result<uint64_t> well_known = log.ReadWellKnownLsn();
  if (!well_known.ok()) return 0;
  Result<uint64_t> begin_order = log.OrderOfRecordAt(*well_known);
  if (!begin_order.ok()) return 0;

  // One pin pass for every layout (a single log is shard 0). Composite LSNs
  // cannot be min'd across shards, so each pin lowers only the shard its
  // record lives on; kInvalidLsn marks a shard no pin touches.
  std::vector<ShardPin> pins(log.shard_count());
  auto pin = [&pins](uint64_t lsn, const std::string& pinned_by) {
    if (lsn == kInvalidLsn) return;
    ShardPin& shard = pins[ShardOfLsn(lsn)];
    if (LocalOfLsn(lsn) >= shard.local) return;
    shard.local = LocalOfLsn(lsn);
    shard.pinned_by = pinned_by;
  };
  // Live pins first, so a tie names the context or reply rather than the
  // bracket entry that captured it.
  for (const auto& [context_id, ctx] : proc.contexts()) {
    pin(ctx->recovery_lsn(), StrCat("context ", context_id));
  }
  for (const auto& [key, entry] : proc.last_calls().entries()) {
    pin(entry.reply_lsn, "last_call");
  }
  // The published bracket itself. A checkpoint in flight (taken, not yet
  // published) pins its own bracket and everything its captured entries
  // reference: with async capture the live tables can advance past the
  // captured LSNs before the publish, and recovery may still land on this
  // bracket once it publishes. The *published* bracket's captured refs
  // stay pinned too — its entries keep pointing at them even after the
  // live context saves newer state.
  const std::string ref = "checkpoint_ref";
  pin(*well_known, ref);
  pin(pending_begin_lsn_, ref);
  for (uint64_t lsn : pending_ref_lsns_) pin(lsn, ref);
  for (uint64_t lsn : published_ref_lsns_) pin(lsn, ref);

  uint64_t reclaimed = 0;
  for (uint32_t s = 0; s < log.shard_count(); ++s) {
    ShardPin& lowest = pins[s];
    uint64_t cut = std::min(lowest.local, log.shard_stable_end(s));
    if (lowest.local == kInvalidLsn) {
      // Unpinned shard (never shard 0, which holds the bracket): recovery
      // reads it only from the published checkpoint's global sequence
      // number on — cut at the first record at or past that gsn, the whole
      // stable shard when none is.
      lowest.pinned_by = ref;
      LogReader reader(log.ShardStableView(s), log.shard_head_base(s));
      reader.EnableGsnPrefix();
      while (auto parsed = reader.Next()) {
        if (parsed->order >= *begin_order) {
          cut = parsed->lsn;
          break;
        }
      }
    }
    uint64_t before = log.shard_head_base(s);
    uint64_t bytes = cut > before ? cut - before : 0;
    if (bytes > 0) log.TrimShardHead(s, cut);
    reclaimed += bytes;
    // Emitted when nothing was reclaimed too: pinned_by then names what
    // holds the head back.
    sim->tracer().Instant("checkpoint", "trim", label, sim->Current(),
                          {obs::Arg("shard", static_cast<uint64_t>(s)),
                           obs::Arg("head", before + bytes),
                           obs::Arg("bytes", bytes),
                           obs::Arg("pinned_by", lowest.pinned_by)});
  }
  if (reclaimed > 0) {
    sim->metrics()
        .GetCounter("phoenix.checkpoint.bytes_reclaimed",
                    obs::LabelSet{{"process", label}})
        .Increment(reclaimed);
  }
  return reclaimed;
}

bool CheckpointManager::HasDeferredIdleContext() const {
  for (uint64_t id : deferred_contexts_) {
    Context* ctx = process_->FindContext(id);
    if (ctx == nullptr) continue;  // destroyed since the deferral
    if (!ctx->busy() && !ctx->serving()) return true;
  }
  return false;
}

bool CheckpointManager::AsyncSweepDue(uint32_t interval) const {
  Process& proc = *process_;
  if (!proc.alive() || proc.recovering()) return false;
  // The process-wide incoming-call counter is monotone across restarts, so
  // a call-count cadence stays deterministic under crashes.
  if (proc.incoming_calls() >= last_sweep_incoming_calls_ + interval) {
    return true;
  }
  return HasDeferredIdleContext();
}

Status CheckpointManager::RunAsyncSweep() {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  if (!proc.alive() || proc.recovering()) {
    return Status::Unavailable("process not running");
  }
  last_sweep_incoming_calls_ = proc.incoming_calls();
  ++async_sweeps_;
  std::string label = ProcLabel(&proc);
  sim->metrics()
      .GetCounter("phoenix.checkpoint.async.sweeps",
                  obs::LabelSet{{"process", label}})
      .Increment();
  obs::Tracer::Span span =
      sim->tracer().StartSpan("checkpoint", "async_sweep", label, sim->Current());
  TraceFrameScope trace_frame(sim, span);

  // §4.2's "not active" rule, re-checked here because the capturing chain
  // no longer owns the context: only a context with no call in flight may
  // be captured. Busy/serving contexts are deferred — AsyncSweepDue re-arms
  // as soon as one goes idle.
  std::set<uint64_t> deferred;
  uint64_t saved = 0;
  for (const auto& [context_id, ctx] : proc.contexts()) {
    auto dirty = calls_since_save_.find(context_id);
    if (dirty == calls_since_save_.end() || dirty->second == 0) continue;
    if (ctx->busy() || ctx->serving()) {
      deferred.insert(context_id);
      ++async_deferrals_;
      sim->metrics()
          .GetCounter("phoenix.checkpoint.async.deferred",
                      obs::LabelSet{{"process", label}})
          .Increment();
      continue;
    }
    Result<uint64_t> lsn = SaveContextState(*ctx);
    if (!lsn.ok()) return lsn.status();  // injected crash mid-save
    dirty->second = 0;
    ++saved;
  }
  deferred_contexts_ = std::move(deferred);
  span.AddArg(obs::Arg("contexts_saved", saved));
  span.AddArg(
      obs::Arg("contexts_deferred", static_cast<uint64_t>(deferred_contexts_.size())));

  Result<uint64_t> begin = TakeProcessCheckpoint();
  if (!begin.ok()) return std::move(begin).status();
  // §4.3's ordering is unchanged: the bracket went out unforced and the
  // well-known file flips only once the end record is durable. The force
  // that makes it durable runs on this background chain (parking into the
  // group-commit pipeline when one is active), so foreground sends never
  // pay for it.
  PHX_RETURN_IF_ERROR(proc.WaitDurable(ForcePoint::kAsyncCheckpoint));
  MaybePublishCheckpoint();
  return Status::OK();
}

}  // namespace phoenix
