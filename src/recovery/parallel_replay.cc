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
  // caller's sequential tail.
  std::map<UnitRef, size_t> task_of;
  for (uint32_t c = 0; c < plan_->chains.size(); ++c) {
    ReplayChain& chain = plan_->chains[c];
    if (chain.units.size() < 2) continue;
    auto ready = context_ready_ms.find(chain.context_id);
    for (uint32_t u = 0; u + 1 < chain.units.size(); ++u) {
      Task task;
      task.context_id = chain.context_id;
      task.order = chain.units[u].replay.order;
      task.chain = c;
      task.unit = std::move(chain.units[u].replay);
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
    // all of this — the same relative order the sequential replayer's
    // end-of-log flush produces — and a final target is automatically
    // ordered after every task here.
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

void ParallelReplayEngine::WorkerLoop(const UnitReplayFn& replay) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  SessionScheduler* sched = sim->session_scheduler();
  PHX_CHECK(sched != nullptr);

  // All work this chain performs — replayed calls, live functional sends —
  // joins the causal tree under the parallel-replay span.
  bool framed = parent_.trace_id != 0;
  if (framed) sim->Push(parent_);

  for (;;) {
    if (!status_.ok() || !proc.alive()) break;
    if (ready_.empty()) {
      if (remaining_ == 0) break;
      // Every runnable unit is blocked on one another worker still holds;
      // park until a completion refills the frontier (or the run ends).
      sched->ParkUntil([this] {
        return !ready_.empty() || remaining_ == 0 || !status_.ok();
      });
      continue;
    }
    size_t t = PopReady();
    Task& task = tasks_[t];

    // List scheduling: run the unit on the lane giving the earliest start
    // (a lane idles until the unit is ready).
    int lane = lanes_->Take(task.ready_ms);

    if (!chain_spans_[task.chain].has_value()) {
      chain_spans_[task.chain] = sim->tracer().StartSpan(
          "recovery", "replay_chain", label_, parent_,
          {obs::Arg("context", task.context_id),
           obs::Arg("units",
                    static_cast<uint64_t>(chain_tasks_left_[task.chain]))});
    }

    Status status = replay(task.context_id, std::move(task.unit));
    if (status.ok() && !proc.alive()) {
      status = Status::Crashed("process died during recovery replay");
    }
    if (!status.ok()) {
      status_ = status;
      break;
    }
    if (lane >= 0) sim->clock().SetLane(lane);  // re-pin: replay may park
    ++units_replayed_;
    if (proc.MaybeCrash(FailurePoint::kBetweenReplayUnits)) {
      status_ = Status::Crashed("crashed between replay units");
      break;
    }
    double finish_ms = sim->clock().NowMs();
    lanes_->Release(lane);
    for (size_t d : task.dependents) {
      Task& dependent = tasks_[d];
      dependent.ready_ms = std::max(dependent.ready_ms, finish_ms);
      if (--dependent.unmet == 0) ready_.push_back(d);
    }
    --remaining_;
    if (--chain_tasks_left_[task.chain] == 0) {
      chain_spans_[task.chain].reset();  // ends the span at lane time
    }
    // Hand the baton back between units so the session interleaving really
    // overlaps chains (and the seeded scheduler decides the order in which
    // commuting units execute).
    if (remaining_ > 0) {
      sched->ParkUntil([] { return true; });
    }
  }
  if (framed) sim->Pop();
}

Status ParallelReplayEngine::Run(
    RecoveryLanes& lanes, const std::map<uint64_t, double>& context_ready_ms,
    const UnitReplayFn& replay) {
  lanes_ = &lanes;
  BuildTasks(context_ready_ms);
  if (tasks_.empty()) return Status::OK();

  Simulation* sim = process_->simulation();
  sessions_used_ =
      static_cast<uint32_t>(std::min<size_t>(sessions_, tasks_.size()));
  std::vector<std::function<void()>> bodies;
  bodies.reserve(sessions_used_);
  for (uint32_t w = 0; w < sessions_used_; ++w) {
    bodies.push_back([this, &replay] { WorkerLoop(replay); });
  }
  sim->RunSessions(std::move(bodies));
  chain_spans_.clear();  // end any spans a failed run left open

  if (status_.ok() && remaining_ != 0) {
    // Workers exited early (process death) without recording a status.
    status_ = Status::Crashed("parallel replay aborted");
  }
  return status_;
}

}  // namespace phoenix
