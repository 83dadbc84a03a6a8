#include "recovery/parallel_replay.h"

#include <algorithm>
#include <map>

#include "common/macros.h"
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

ParallelReplayEngine::ParallelReplayEngine(Process* process, ReplayPlan* plan,
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
  // Every unit but each chain's last is schedulable here; finals go to the
  // caller's end-of-log flush.
  std::map<UnitRef, size_t> task_of;
  size_t schedulable = 0;
  for (const ReplayChain& chain : plan_->chains) {
    if (!chain.units.empty()) schedulable += chain.units.size() - 1;
  }
  tasks_.reserve(schedulable);
  chain_first_task_.assign(plan_->chains.size(), 0);
  final_replayed_.assign(plan_->chains.size(), false);
  for (uint32_t c = 0; c < plan_->chains.size(); ++c) {
    const ReplayChain& chain = plan_->chains[c];
    chain_of_context_[chain.context_id] = c;
    chain_first_task_[c] = tasks_.size();
    if (chain.units.size() < 2) continue;
    auto ready = context_ready_ms.find(chain.context_id);
    for (uint32_t u = 0; u + 1 < chain.units.size(); ++u) {
      Task task;
      task.context_id = chain.context_id;
      task.order = chain.units[u].replay.order;
      task.ref = UnitRef{c, u};
      task.ready_ms = ready != context_ready_ms.end() ? ready->second
                                                      : lanes_->start_ms();
      task_of[UnitRef{c, u}] = tasks_.size();
      tasks_.push_back(std::move(task));
    }
  }
  chain_tasks_left_.assign(plan_->chains.size(), 0);
  chain_spans_.resize(plan_->chains.size());

  for (auto& [ref, t] : task_of) {
    Task& task = tasks_[t];
    ++chain_tasks_left_[ref.chain];
    // Chain order is itself a dependency.
    if (ref.index > 0) {
      auto prev = task_of.find(UnitRef{ref.chain, ref.index - 1});
      PHX_CHECK(prev != task_of.end());
      ++task.unmet;
      tasks_[prev->second].dependents.push_back(t);
    }
    // Cross-chain edges between two schedulable units. Edges touching a
    // final unit are dropped: a final source replays in the tail *after*
    // all of this, and a final target is automatically ordered after every
    // task here.
    for (const UnitRef& dep : plan_->unit(ref).deps) {
      auto it = task_of.find(dep);
      if (it == task_of.end()) continue;
      ++task.unmet;
      tasks_[it->second].dependents.push_back(t);
    }
  }

  remaining_ = tasks_.size();
  for (size_t t = 0; t < tasks_.size(); ++t) {
    if (tasks_[t].unmet == 0) ready_.push_back(t);
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

bool ParallelReplayEngine::Replay(uint64_t context_id, PendingReplay unit) {
  Status status = (*replay_)(context_id, std::move(unit));
  if (status.ok() && !process_->alive()) {
    status = Status::Crashed("process died during recovery replay");
  }
  if (status_.ok()) status_ = status;
  return status.ok();
}

bool ParallelReplayEngine::ReplayTask(size_t t) {
  Simulation* sim = process_->simulation();
  Task& task = tasks_[t];
  task.started = true;
  uint32_t chain = task.ref.chain;
  if (!chain_spans_[chain].has_value()) {
    chain_spans_[chain] = sim->tracer().StartSpan(
        "recovery", "replay_chain", label_, parent_,
        {obs::Arg("context", task.context_id),
         obs::Arg("units", static_cast<uint64_t>(chain_tasks_left_[chain]))});
  }
  if (!Replay(task.context_id,
              std::move(plan_->chains[chain].units[task.ref.index].replay))) {
    return false;
  }
  ++units_replayed_;
  return true;
}

void ParallelReplayEngine::Finish(size_t t) {
  Task& task = tasks_[t];
  task.done = true;
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
                                         const CallId& call_id) {
  auto found = chain_of_context_.find(context_id);
  if (found == chain_of_context_.end() || !status_.ok()) return;
  uint32_t c = found->second;
  ReplayChain& chain = plan_->chains[c];
  size_t through = chain.units.size();
  for (size_t u = 0; u < chain.units.size(); ++u) {
    const PendingReplay& unit = chain.units[u].replay;
    if (!unit.is_creation && unit.incoming.call_id == call_id) {
      through = u;
      break;
    }
  }
  if (through == chain.units.size()) return;

  for (size_t u = 0; u <= through; ++u) {
    if (u + 1 == chain.units.size()) {
      if (final_replayed_[c]) return;
      final_replayed_[c] = true;
      Replay(context_id, std::move(chain.units[u].replay));
      return;
    }
    size_t t = chain_first_task_[c] + u;
    Task& task = tasks_[t];
    if (task.done) continue;
    // In flight further up this or another session's stack: the units
    // behind it cannot pass it.
    if (task.started) return;
    auto queued = std::find(ready_.begin(), ready_.end(), t);
    if (queued != ready_.end()) ready_.erase(queued);
    // The caller's lane waits for the context's restore.
    if (lanes_->open()) {
      process_->simulation()->clock().AdvanceLaneToMs(task.ready_ms);
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
    RecoveryLanes& lanes, const std::map<uint64_t, double>& context_ready_ms,
    const UnitReplayFn& replay) {
  lanes_ = &lanes;
  replay_ = &replay;
  BuildTasks(context_ready_ms);
  // A plan without non-final units still replays its finals on one lane.
  sessions_used_ = static_cast<uint32_t>(
      std::clamp<size_t>(tasks_.size(), 1, sessions_));
  if (tasks_.empty()) return Status::OK();

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

}  // namespace phoenix
