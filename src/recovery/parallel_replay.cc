#include "recovery/parallel_replay.h"

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <variant>

#include "common/macros.h"
#include "common/strings.h"
#include "runtime/process.h"
#include "runtime/session.h"
#include "runtime/simulation.h"

namespace phoenix {

RecoveryLanes::RecoveryLanes(SimClock& clock, uint32_t lanes)
    : clock_(clock), start_ms_(clock.NowMs()) {
  if (lanes > 1 && !clock.in_parallel()) {
    clock.BeginParallel(lanes);
    lane_avail_.assign(lanes, start_ms_);
    lanes_ = lanes;
  }
}

int RecoveryLanes::Take(double ready_ms) {
  if (!open()) return -1;
  int lane = EarliestStartLane(lane_avail_, ready_ms);
  clock_.SetLane(lane);
  clock_.AdvanceLaneToMs(ready_ms);
  return lane;
}

void RecoveryLanes::Release(int lane) {
  if (open()) lane_avail_[lane] = clock_.NowMs();
}

double RecoveryLanes::EarliestStartMs(double ready_ms) const {
  if (!open()) return std::max(ready_ms, clock_.NowMs());
  return std::max(ready_ms,
                  *std::min_element(lane_avail_.begin(), lane_avail_.end()));
}

void RecoveryLanes::ShowLatestLane() {
  if (!open()) return;
  clock_.SetLane(static_cast<int>(
      std::max_element(lane_avail_.begin(), lane_avail_.end()) -
      lane_avail_.begin()));
}

double RecoveryLanes::BusyUntilMs() const {
  if (!open()) return clock_.NowMs();
  return *std::max_element(lane_avail_.begin(), lane_avail_.end());
}

double RecoveryLanes::Close() {
  if (!open()) return clock_.NowMs() - start_ms_;
  lane_avail_.clear();
  return clock_.EndParallel();
}

namespace {

// Rebuilds the CallMessage a logged incoming call was delivered as. A
// ranked method is named through `parent`'s registry. A method the registry
// lacks means the record is not what was logged; replaying some other
// method in its place would diverge, so it is Corruption.
Result<CallMessage> MessageFromRecord(const IncomingCallRecord& record,
                                      const Component& parent,
                                      const MethodRegistry& methods) {
  const std::string* name = nullptr;
  if (record.method_rank.has_value()) {
    name = methods.NameOfRank(*record.method_rank);
  } else if (methods.Find(record.method) != nullptr) {
    name = &record.method;
  }
  if (name == nullptr) {
    return Status::Corruption(StrCat(
        "incoming call record names method ",
        record.method_rank.has_value() ? StrCat("#", *record.method_rank)
                                       : record.method,
        ", which ", parent.type_name(), " lacks"));
  }
  CallMessage msg;
  msg.target_uri = parent.uri();
  msg.method = *name;
  msg.args = record.args;
  if (!record.call_id.caller.machine.empty() || record.call_id.seq != 0 ||
      record.client_kind != ComponentKind::kExternal) {
    // External callers carry no ID (an empty caller key marks them).
    msg.has_call_id = record.client_kind != ComponentKind::kExternal;
    msg.call_id = record.call_id;
  }
  if (record.client_kind != ComponentKind::kExternal) {
    msg.has_sender_info = true;
    msg.sender_kind = record.client_kind;
  }
  return msg;
}

}  // namespace

ParallelReplayEngine::ParallelReplayEngine(Process* process,
                                           const ReplayPlan* plan,
                                          uint32_t sessions,
                                          obs::SpanLink parent,
                                          std::string label)
    : process_(process),
      plan_(plan),
      sessions_(sessions),
      parent_(parent),
      label_(std::move(label)) {}

void ParallelReplayEngine::BuildTasks(
    const std::map<uint64_t, double>& context_ready_ms) {
  tasks_.reserve(plan_->total_units());
  chain_first_task_.assign(plan_->chains.size(), 0);
  chain_tasks_left_.assign(plan_->chains.size(), 0);
  chain_spans_.resize(plan_->chains.size());
  for (uint32_t c = 0; c < plan_->chains.size(); ++c) {
    const ReplayChain& chain = plan_->chains[c];
    chain_of_context_[chain.context_id] = c;
    chain_first_task_[c] = tasks_.size();
    auto ready = context_ready_ms.find(chain.context_id);
    for (uint32_t u = 0; u < chain.units.size(); ++u) {
      Task task;
      task.context_id = chain.context_id;
      task.order = chain.units[u].order();
      task.ref = UnitRef{c, u};
      task.final = u + 1 == chain.units.size();
      task.ready_ms = ready != context_ready_ms.end() ? ready->second
                                                      : lanes_->start_ms();
      if (task.final) {
        finals_.push_back(tasks_.size());
      } else {
        ++chain_tasks_left_[c];
      }
      tasks_.push_back(std::move(task));
    }
  }
  std::sort(finals_.begin(), finals_.end(), [this](size_t a, size_t b) {
    return tasks_[a].order < tasks_[b].order;
  });

  for (size_t t = 0; t < tasks_.size(); ++t) {
    Task& task = tasks_[t];
    if (task.final) continue;
    // Chain order is itself a dependency.
    if (task.ref.index > 0) {
      ++task.unmet;
      tasks_[t - 1].dependents.push_back(t);
    }
    // Cross-chain edges between two non-final units. Edges touching a final
    // unit are dropped: a final source replays in the final phase *after*
    // all of this, and a final target is automatically ordered after every
    // non-final task.
    for (const UnitRef& dep : plan_->unit(task.ref).deps) {
      size_t d = chain_first_task_[dep.chain] + dep.index;
      if (tasks_[d].final) continue;
      ++task.unmet;
      tasks_[d].dependents.push_back(t);
    }
    ++remaining_;
    if (task.unmet == 0) ready_.push_back(t);
  }
}

size_t ParallelReplayEngine::PopReady() {
  PHX_CHECK(!ready_.empty());
  auto key = [this](size_t t) {
    return std::make_pair(lanes_->EarliestStartMs(tasks_[t].ready_ms),
                          tasks_[t].order);
  };
  auto best = std::min_element(
      ready_.begin(), ready_.end(),
      [&key](size_t a, size_t b) { return key(a) < key(b); });
  size_t t = *best;
  ready_.erase(best);
  return t;
}

Status ParallelReplayEngine::ReplayUnit(uint64_t context_id,
                                        const PlannedUnit& unit) {
  Context* ctx = process_->FindContext(context_id);
  if (ctx == nullptr) {
    return Status::Internal(
        StrCat("pending replay for unknown context ", context_id));
  }
  // The unit's logged replies, read in place.
  ReplayFeed feed;
  feed.reserve(unit.records.size() - 1);
  for (size_t r = 1; r < unit.records.size(); ++r) {
    feed.push_back(&std::get<ReplyReceivedRecord>(unit.records[r].record));
  }

  const LogRecord& opening = unit.records.front().record;
  if (const auto* creation = std::get_if<CreationRecord>(&opening)) {
    if (ctx->parent_initialized()) return Status::OK();  // created live
    ++creations_replayed_;
    return ctx->ReplayCreation(creation->ctor_args, feed);
  }

  ++calls_replayed_;
  Component* parent = ctx->parent();
  PHX_CHECK(parent != nullptr);
  PHX_ASSIGN_OR_RETURN(
      CallMessage msg,
      MessageFromRecord(std::get<IncomingCallRecord>(opening), *parent,
                        ctx->parent_slot()->methods));
  Result<ReplyMessage> reply = ctx->ReplayIncoming(msg, feed);
  if (!reply.ok()) return std::move(reply).status();
  // Condition 5: the reply stays with the recovery manager. The last-call
  // table was updated inside ReplayIncoming; a retrying client will be
  // answered from there.
  return Status::OK();
}

bool ParallelReplayEngine::ReplayTask(size_t t) {
  Simulation* sim = process_->simulation();
  Task& task = tasks_[t];
  task.started = true;
  uint32_t chain = task.ref.chain;
  if (!task.final && !chain_spans_[chain].has_value()) {
    chain_spans_[chain] = sim->tracer().StartSpan(
        "recovery", "replay_chain", label_, parent_,
        {obs::Arg("context", task.context_id),
         obs::Arg("units", static_cast<uint64_t>(chain_tasks_left_[chain]))});
  }
  Status status = ReplayUnit(task.context_id, plan_->unit(task.ref));
  if (status.ok() && !process_->alive()) {
    status = Status::Crashed("process died during recovery replay");
  }
  if (status_.ok()) status_ = status;
  return status.ok();
}

void ParallelReplayEngine::Finish(size_t t) {
  Task& task = tasks_[t];
  task.done = true;
  if (task.final) return;
  double finish_ms = process_->simulation()->clock().NowMs();
  for (size_t d : task.dependents) {
    Task& dependent = tasks_[d];
    dependent.ready_ms = std::max(dependent.ready_ms, finish_ms);
    if (--dependent.unmet == 0 && !dependent.started) ready_.push_back(d);
  }
  --remaining_;
  if (--chain_tasks_left_[task.ref.chain] == 0) {
    chain_spans_[task.ref.chain].reset();  // ends the span at lane time
  }
}

void ParallelReplayEngine::ReplayThrough(uint64_t context_id,
                                         const CallMessage& msg) {
  auto found = chain_of_context_.find(context_id);
  if (found == chain_of_context_.end() || !status_.ok()) return;
  uint32_t c = found->second;
  const ReplayChain& chain = plan_->chains[c];
  // The last unit to replay: in the final phase the chain's final; in the
  // engine phase the one that logged this call.
  size_t through = chain.units.size() - 1;
  if (!final_phase_) {
    if (!msg.has_call_id) return;
    auto logged = std::find_if(
        chain.units.begin(), chain.units.end(), [&msg](const PlannedUnit& u) {
          const auto* incoming =
              std::get_if<IncomingCallRecord>(&u.records.front().record);
          return incoming != nullptr && incoming->call_id == msg.call_id;
        });
    through = logged - chain.units.begin();
  }
  if (through >= chain.units.size()) return;  // no such unit

  for (size_t u = 0; u <= through; ++u) {
    size_t t = chain_first_task_[c] + u;
    Task& task = tasks_[t];
    if (task.done) continue;
    // In flight further up this or another session's stack: the units
    // behind it cannot pass it.
    if (task.started) return;
    if (!task.final) {
      auto queued = std::find(ready_.begin(), ready_.end(), t);
      if (queued != ready_.end()) ready_.erase(queued);
      // The caller's lane waits for the context's restore.
      if (lanes_->open()) {
        process_->simulation()->clock().AdvanceLaneToMs(task.ready_ms);
      }
    }
    if (!ReplayTask(t)) return;
    Finish(t);
  }
}

void ParallelReplayEngine::WorkerLoop() {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  // Inline on one lane: a scheduler on the stack belongs to the chain this
  // recovery is nested in, and is not parked on.
  SessionScheduler* sched = sessions_ > 1 ? sim->session_scheduler() : nullptr;
  PHX_CHECK(sessions_ == 1 || sched != nullptr);

  // All work this chain performs — replayed calls, live functional sends —
  // joins the causal tree under the parallel-replay span.
  bool framed = parent_.trace_id != 0;
  if (framed) sim->Push(parent_);

  for (;;) {
    if (!status_.ok() || !proc.alive()) break;
    if (ready_.empty()) {
      if (remaining_ == 0) break;
      // Alone, a worker always finds the lowest remaining unit ready.
      PHX_CHECK(sched != nullptr);
      // Every runnable unit is blocked on one another worker still holds;
      // park until a completion refills the frontier (or the run ends).
      sched->ParkUntil([this] {
        return !ready_.empty() || remaining_ == 0 || !status_.ok();
      });
      continue;
    }
    size_t t = PopReady();

    // List scheduling: run the unit on the lane giving the earliest start
    // (a lane idles until the unit is ready).
    int lane = lanes_->Take(tasks_[t].ready_ms);
    if (!ReplayTask(t)) break;
    if (lane >= 0) sim->clock().SetLane(lane);  // re-pin: replay may park
    if (proc.MaybeCrash(FailurePoint::kBetweenReplayUnits)) {
      status_ = Status::Crashed("crashed between replay units");
      break;
    }
    Finish(t);
    lanes_->Release(lane);
    // Hand the baton back between units so the session interleaving really
    // overlaps chains (and the seeded scheduler decides the order in which
    // commuting units execute).
    if (sched != nullptr && remaining_ > 0) {
      sched->ParkUntil([] { return true; });
    }
  }
  if (framed) sim->Pop();
}

Status ParallelReplayEngine::Run(
    RecoveryLanes& lanes, const std::map<uint64_t, double>& context_ready_ms) {
  lanes_ = &lanes;
  BuildTasks(context_ready_ms);
  // A plan without non-final units still replays its finals on one lane.
  sessions_used_ =
      static_cast<uint32_t>(std::clamp<size_t>(remaining_, 1, sessions_));
  if (remaining_ == 0) return Status::OK();

  Simulation* sim = process_->simulation();
  if (sessions_ == 1) {
    WorkerLoop();
  } else {
    std::vector<std::function<void()>> bodies;
    bodies.reserve(sessions_used_);
    for (uint32_t w = 0; w < sessions_used_; ++w) {
      bodies.push_back([this] { WorkerLoop(); });
    }
    sim->RunSessions(std::move(bodies));
  }
  chain_spans_.clear();  // end any spans a failed run left open

  if (status_.ok() && remaining_ != 0) {
    // Workers exited early (process death) without recording a status.
    status_ = Status::Crashed("parallel replay aborted");
  }
  return status_;
}

Status ParallelReplayEngine::ReplayFinals() {
  final_phase_ = true;
  for (size_t t : finals_) {
    if (tasks_[t].started) continue;  // replayed on demand
    ReplayTask(t);
    if (!process_->alive()) {
      return Status::Crashed("process died during recovery replay");
    }
    // A failed final fails the recovery, this one or one a live call
    // replayed on demand inside it.
    if (!status_.ok()) return status_;
    Finish(t);
    if (process_->MaybeCrash(FailurePoint::kDuringEndOfLogFlush)) {
      return Status::Crashed("crashed during end-of-log flush");
    }
  }
  return Status::OK();
}

}  // namespace phoenix
