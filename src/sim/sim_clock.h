#ifndef PHOENIX_SIM_SIM_CLOCK_H_
#define PHOENIX_SIM_SIM_CLOCK_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace phoenix {

// Discrete simulated clock, in milliseconds. The entire Phoenix runtime is
// single-threaded and synchronous (the paper's components are single-threaded
// by design — piece-wise determinism is the premise of replay), so elapsed
// time is modelled by explicitly advancing this clock as work is performed:
// marshalling, network transfer, disk rotation, replay, etc.
//
// All performance results in the benchmark harness are read off this clock,
// which makes every experiment exactly reproducible.
//
// Parallel lanes: cooperative overlapping work (parallel recovery replay)
// needs elapsed time to be the *makespan* of the overlapped lanes, not their
// sum. Inside a BeginParallel/EndParallel region each lane accumulates its
// own local time on top of the region start; EndParallel folds the region
// back into the global clock as start + max(lane totals). Reads and
// advances off any lane (SetLane(-1), the scheduler/driver view) see the
// region start. Lane switching is explicit because the runtime is
// cooperative: exactly one lane executes at any instant.
class SimClock {
 public:
  SimClock() = default;

  SimClock(const SimClock&) = delete;
  SimClock& operator=(const SimClock&) = delete;

  // Current simulated time in milliseconds since simulation start. Inside a
  // parallel region this is the executing lane's local view.
  double NowMs() const {
    if (lane_ >= 0) return region_start_ + lane_ms_[lane_];
    return now_ms_;
  }

  // Advances the clock by `ms` (>= 0); charged to the executing lane inside
  // a parallel region.
  void AdvanceMs(double ms) {
    if (ms <= 0) return;
    if (lane_ >= 0) {
      lane_ms_[lane_] += ms;
    } else {
      now_ms_ += ms;
    }
  }

  // --- parallel lanes -----------------------------------------------------

  // Opens a parallel region with `lanes` lanes, all starting at the current
  // global time. Regions cannot nest. The caller stays on the driver view
  // (no lane selected) until SetLane.
  void BeginParallel(size_t lanes);

  // Selects which lane subsequent advances charge; -1 returns to the driver
  // view. A cooperative worker re-pins its lane every time it resumes.
  void SetLane(int lane);

  // Lane-local wait: lifts the executing lane's time to at least `abs_ms`
  // (an absolute time, e.g. another lane's completion point). Models
  // idling until a cross-lane dependency is satisfied.
  void AdvanceLaneToMs(double abs_ms);

  bool in_parallel() const { return in_parallel_; }

  // Closes the region: global time becomes start + max(lane totals) — the
  // makespan of the overlapped work. Returns that makespan.
  double EndParallel();

 private:
  double now_ms_ = 0.0;

  bool in_parallel_ = false;
  double region_start_ = 0.0;
  int lane_ = -1;
  std::vector<double> lane_ms_;
};

// List scheduling's lane choice: the lane on which work whose prerequisites
// are done at `ready_ms` starts earliest (`lane_avail` holds the absolute
// time each lane frees up; a lane idles until `ready_ms`). Ties go to the
// *fullest* such lane, so a chain successor lands back on the lane that ran
// its predecessor instead of lifting a fresh lane up to the chain's time
// (which would serialize every lane onto one chain).
int EarliestStartLane(const std::vector<double>& lane_avail, double ready_ms);

}  // namespace phoenix

#endif  // PHOENIX_SIM_SIM_CLOCK_H_
