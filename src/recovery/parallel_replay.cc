#include "recovery/parallel_replay.h"

#include <algorithm>
#include <map>

#include "common/macros.h"
#include "runtime/process.h"
#include "runtime/session.h"
#include "runtime/simulation.h"

namespace phoenix {

ParallelReplayEngine::ParallelReplayEngine(Process* process, ReplayPlan* plan,
                                          uint32_t sessions,
                                          obs::SpanLink parent,
                                          std::string label)
    : process_(process),
      plan_(plan),
      sessions_(sessions),
      parent_(parent),
      label_(std::move(label)) {}

void ParallelReplayEngine::BuildTasks() {
  // Every unit but each chain's last is schedulable here; finals go to the
  // caller's sequential tail.
  std::map<UnitRef, size_t> task_of;
  for (uint32_t c = 0; c < plan_->chains.size(); ++c) {
    ReplayChain& chain = plan_->chains[c];
    if (chain.units.size() < 2) continue;
    for (uint32_t u = 0; u + 1 < chain.units.size(); ++u) {
      Task task;
      task.context_id = chain.context_id;
      task.order = chain.units[u].replay.order;
      task.chain = c;
      task.unit = std::move(chain.units[u].replay);
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
      task.deps.push_back(prev->second);
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
      task.deps.push_back(it->second);
      tasks_[it->second].dependents.push_back(t);
    }
    task.unmet = task.deps.size();
  }

  remaining_ = tasks_.size();
  for (size_t t = 0; t < tasks_.size(); ++t) {
    if (tasks_[t].unmet == 0) ready_.insert({tasks_[t].order, t});
  }
}

void ParallelReplayEngine::WorkerLoop(const UnitReplayFn& replay) {
  Process& proc = *process_;
  Simulation* sim = proc.simulation();
  SimClock& clock = sim->clock();
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
    auto it = ready_.begin();
    size_t t = it->second;
    ready_.erase(it);
    Task& task = tasks_[t];

    // List scheduling: run the unit on the lane giving the earliest start
    // (a lane idles until the latest prerequisite finished).
    double dep_ready = 0.0;
    for (size_t dep : task.deps) {
      dep_ready = std::max(dep_ready, tasks_[dep].finish_abs_ms);
    }
    int lane = EarliestStartLane(lane_avail_, dep_ready);
    clock.SetLane(lane);
    clock.AdvanceLaneToMs(dep_ready);

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
    clock.SetLane(lane);  // re-pin: replay may have parked and migrated
    ++units_replayed_;
    if (proc.MaybeCrash(FailurePoint::kBetweenReplayUnits)) {
      status_ = Status::Crashed("crashed between replay units");
      break;
    }
    task.done = true;
    task.finish_abs_ms = clock.NowMs();
    lane_avail_[lane] = task.finish_abs_ms;
    for (size_t d : task.dependents) {
      if (--tasks_[d].unmet == 0) {
        ready_.insert({tasks_[d].order, d});
      }
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

Status ParallelReplayEngine::Run(const UnitReplayFn& replay) {
  BuildTasks();
  if (tasks_.empty()) return Status::OK();

  Simulation* sim = process_->simulation();
  sessions_used_ = static_cast<uint32_t>(std::min<size_t>(
      std::max<uint32_t>(sessions_, 1), tasks_.size()));

  sim->clock().BeginParallel(sessions_used_);
  lane_avail_.assign(sessions_used_, sim->clock().NowMs());
  std::vector<std::function<void()>> bodies;
  bodies.reserve(sessions_used_);
  for (uint32_t w = 0; w < sessions_used_; ++w) {
    bodies.push_back([this, &replay] { WorkerLoop(replay); });
  }
  sim->RunSessions(std::move(bodies));
  chain_spans_.clear();  // end any spans a failed run left open
  makespan_ms_ = sim->clock().EndParallel();

  if (status_.ok() && remaining_ != 0) {
    // Workers exited early (process death) without recording a status.
    status_ = Status::Crashed("parallel replay aborted");
  }
  return status_;
}

}  // namespace phoenix
