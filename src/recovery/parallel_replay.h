#ifndef PHOENIX_RECOVERY_PARALLEL_REPLAY_H_
#define PHOENIX_RECOVERY_PARALLEL_REPLAY_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/tracer.h"
#include "recovery/replay_plan.h"
#include "runtime/message.h"

namespace phoenix {

class Process;
class SimClock;

// The recovery lanes: one SimClock parallel region of K lanes that the
// redo phase's restores and the replay engine's units share, list-
// scheduled by one rule (EarliestStartLane: earliest start, ties to the
// fullest lane). Work is charged to the lane that can start it earliest at
// or after its ready time, and the region costs the lanes' makespan. With
// one lane — or when the clock is already inside a parallel region, i.e.
// this recovery was triggered from another process's replay lane — no
// region opens, Take and Release do nothing, and every cost lands on the
// current clock in order: the serial sum. The destructor closes the region
// on every exit, error returns and crashes included.
class RecoveryLanes {
 public:
  RecoveryLanes(SimClock& clock, uint32_t lanes);
  ~RecoveryLanes() { Close(); }

  RecoveryLanes(const RecoveryLanes&) = delete;
  RecoveryLanes& operator=(const RecoveryLanes&) = delete;

  // Charges what runs next to the lane that can start it earliest at or
  // after `ready_ms` (absolute), which idles until then. Returns the lane;
  // -1 when no region is open.
  int Take(double ready_ms);
  // `lane` (from Take) is busy until now.
  void Release(int lane);
  // When work ready at `ready_ms` would start if taken now.
  double EarliestStartMs(double ready_ms) const;
  // Selects the lane busy the longest, so clock reads (a phase boundary)
  // see the region's makespan so far.
  void ShowLatestLane();
  // Absolute time the busiest lane frees up; the current time when no
  // region is open.
  double BusyUntilMs() const;
  // Closes the region (if one is open; EndParallel also leaves the lane)
  // and returns its elapsed time: the lanes' makespan, or the serial sum
  // without a region.
  double Close();

  bool open() const { return !lane_avail_.empty(); }
  uint32_t lanes() const { return lanes_; }
  double start_ms() const { return start_ms_; }

 private:
  SimClock& clock_;
  double start_ms_;
  uint32_t lanes_ = 1;
  // Absolute time each lane frees up; empty when no region is open.
  std::vector<double> lane_avail_;
};

// Recovery's one pass-2 executor: it owns every unit of a replay plan and
// replays them in two phases.
//
// The engine phase (Run) replays the non-final units on K lanes. K replay
// workers pull ready units off a shared dependency frontier as overlapping
// scheduler sessions (runtime/session.h), parking
// (SessionScheduler::ParkUntil) when every remaining unit is blocked on one
// still in flight. With one lane the same pop loop runs inline on the
// calling chain — no sessions, no park — which is also how a recovery
// nested in a running session chain replays. Elapsed sim time is
// list-scheduled on the recovery lanes the redo phase's restores already
// occupy: each unit is charged to the lane that can start it earliest,
// once its chain predecessor, its edges and the restores it needs (its
// context ready time) are done — so replay of a context restored early
// overlaps the restores still running, and recovery cost is bounded by
// max(critical path, work / K) instead of total log length. Among ready
// units the one that can start earliest pops first, ties by replay order;
// on one lane every unit can start at once, so the schedule is ascending
// replay order, which the plan's edges always respect. Which session
// happens to execute a unit does not enter the timing model; the session
// interleaving decides only the (dependency-legal) execution order.
//
// Non-final units are provably complete — the context's next incoming
// record is on the stable log, and the log is written in prefix order, so
// every logged reply the unit needs precedes that record — which makes
// their replay self-contained: outgoing calls are answered from the feed
// (or re-executed against stateless functional components), and nothing
// escapes the process. Complete units of different chains commute;
// dependency edges (and the per-chain order) are honored so the schedule
// and the timing model still follow causality.
//
// The final phase (ReplayFinals), once the caller has closed the lanes,
// replays each chain's final unit — the one that runs into live execution
// on an intact log — on the calling chain, oldest first.
//
// ReplayThrough is the demand flusher of both phases: a live call into a
// context first replays the units it must not overtake. In the engine
// phase that is the context's chain through the unit that logged the same
// call — a salvage gap can take a logged reply from a complete unit, which
// then calls out live while the callee's unit for that call still waits
// behind it in the plan — so the call is answered from the last-call table
// instead of executing twice. In the final phase it is the context's final
// unit, whatever the call, since a context must be recovered to its last
// send before it serves anyone.
//
// Determinism: one runnable session at a time, pops decided by lane times
// and replay order, and the scheduler's choice among runnable workers drawn
// from the simulation-seeded PRNG — a given (seed, log) always produces the
// same schedule, lane times and metrics.
class ParallelReplayEngine {
 public:
  // `plan` must outlive the engine, which replays its units in place: the
  // reply feeds point into them. `sessions` is K, the lane count; at 1 the
  // pop loop runs inline. `parent` is the span the per-chain spans (and all
  // live work the replay does) nest under; `label` the process label for
  // spans ("machine/pid").
  ParallelReplayEngine(Process* process, const ReplayPlan* plan,
                       uint32_t sessions, obs::SpanLink parent,
                       std::string label);

  ParallelReplayEngine(const ParallelReplayEngine&) = delete;
  ParallelReplayEngine& operator=(const ParallelReplayEngine&) = delete;

  // The engine phase: replays every non-final unit on `lanes`, which the
  // caller closes. `context_ready_ms` holds, per context, the absolute time
  // before which none of its units may start; a context absent from it is
  // ready at once. The between-replay-units crash point fires after each
  // unit a worker pops.
  Status Run(RecoveryLanes& lanes,
             const std::map<uint64_t, double>& context_ready_ms);
  // The final phase, after a successful Run: replays each chain's final
  // unit that ReplayThrough has not, in ascending replay order on the
  // calling chain. The end-of-log flush crash point fires after each.
  Status ReplayFinals();

  // The demand flusher (Process::SetPendingFlusher): called before the live
  // call `msg` enters `context_id`, it replays in chain order, on the
  // calling lane, the context's units that have not started — in the
  // engine phase through the one whose incoming record carries the call's
  // ID (nothing when the call has none or the context logged no such
  // call), in the final phase through its final unit. Stops at a unit
  // still in flight; a failure fails the recovery.
  void ReplayThrough(uint64_t context_id, const CallMessage& msg);

  uint32_t sessions_used() const { return sessions_used_; }
  uint64_t calls_replayed() const { return calls_replayed_; }
  uint64_t creations_replayed() const { return creations_replayed_; }

 private:
  // One unit of the plan plus its scheduling state. A chain's final unit is
  // a task of the final phase: it joins no dependency edge and no frontier.
  struct Task {
    uint64_t context_id = 0;
    // Replay order of the unit (PlannedUnit::order): the start LSN on a
    // single log, the global sequence number on a sharded WAL.
    uint64_t order = 0;
    // The unit in the plan.
    UnitRef ref;
    bool final = false;  // the chain's last unit
    // Task indices waiting on this one (chain order + edges).
    std::vector<size_t> dependents;
    size_t unmet = 0;  // prerequisites not yet replayed
    bool started = false;  // popped, or replayed on demand
    bool done = false;
    // Absolute time the unit may start: its context's ready time, raised
    // to each prerequisite's finish.
    double ready_ms = 0.0;
  };

  void BuildTasks(const std::map<uint64_t, double>& context_ready_ms);
  // Removes and returns the ready task that can start earliest.
  size_t PopReady();
  // Re-executes one unit of `context_id`: its creation, or its incoming
  // call against the logged reply feed.
  Status ReplayUnit(uint64_t context_id, const PlannedUnit& unit);
  // Replays task `t` on the current lane; a failure, or a process that
  // died in it, goes to status_ and returns false.
  bool ReplayTask(size_t t);
  // Marks task `t` replayed: releases its dependents, ends its chain's span
  // after the chain's last non-final task.
  void Finish(size_t t);
  void WorkerLoop();

  Process* process_;
  const ReplayPlan* plan_;
  uint32_t sessions_;
  obs::SpanLink parent_;
  std::string label_;

  RecoveryLanes* lanes_ = nullptr;
  // Every unit; a chain's tasks are adjacent, in unit order.
  std::vector<Task> tasks_;
  // Per context its chain, and per chain the index of its first task.
  std::map<uint64_t, uint32_t> chain_of_context_;
  std::vector<size_t> chain_first_task_;
  // The final phase's tasks, oldest first, and whether it has begun.
  std::vector<size_t> finals_;
  bool final_phase_ = false;
  // Dependency frontier of the engine phase: at most one unit per chain.
  std::vector<size_t> ready_;
  size_t remaining_ = 0;  // non-final tasks not yet done
  Status status_ = Status::OK();

  // Per-chain span bookkeeping: non-final unit counts and the open span.
  std::vector<size_t> chain_tasks_left_;
  std::vector<std::optional<obs::Tracer::Span>> chain_spans_;

  uint32_t sessions_used_ = 0;
  uint64_t calls_replayed_ = 0;
  uint64_t creations_replayed_ = 0;
};

}  // namespace phoenix

#endif  // PHOENIX_RECOVERY_PARALLEL_REPLAY_H_
