#include "sim/sim_clock.h"

#include <algorithm>

#include "common/macros.h"

namespace phoenix {

void SimClock::BeginParallel(size_t lanes) {
  PHX_CHECK(!in_parallel_ && "parallel clock regions cannot nest");
  PHX_CHECK(lanes > 0);
  in_parallel_ = true;
  region_start_ = now_ms_;
  lane_ = -1;
  lane_ms_.assign(lanes, 0.0);
}

void SimClock::SetLane(int lane) {
  PHX_CHECK(in_parallel_);
  PHX_CHECK(lane >= -1 && lane < static_cast<int>(lane_ms_.size()));
  lane_ = lane;
}

void SimClock::AdvanceLaneToMs(double abs_ms) {
  PHX_CHECK(in_parallel_ && lane_ >= 0);
  double local = abs_ms - region_start_;
  if (local > lane_ms_[lane_]) lane_ms_[lane_] = local;
}

double SimClock::EndParallel() {
  PHX_CHECK(in_parallel_);
  double makespan = 0.0;
  for (double lane : lane_ms_) makespan = std::max(makespan, lane);
  now_ms_ = region_start_ + makespan;
  in_parallel_ = false;
  lane_ = -1;
  lane_ms_.clear();
  return makespan;
}

int EarliestStartLane(const std::vector<double>& lane_avail, double ready_ms) {
  PHX_CHECK(!lane_avail.empty());
  int lane = 0;
  double best_start = std::max(lane_avail[0], ready_ms);
  for (size_t l = 1; l < lane_avail.size(); ++l) {
    double start = std::max(lane_avail[l], ready_ms);
    if (start < best_start ||
        (start == best_start && lane_avail[l] > lane_avail[lane])) {
      lane = static_cast<int>(l);
      best_start = start;
    }
  }
  return lane;
}

}  // namespace phoenix
