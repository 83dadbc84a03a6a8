#ifndef PHOENIX_CORE_RETRY_H_
#define PHOENIX_CORE_RETRY_H_

#include <algorithm>

#include "common/random.h"
#include "core/options.h"

namespace phoenix {

// One retry loop's backoff schedule under a BackoffPolicy (core/options.h):
// a call's retries (condition 4) or the recovery supervisor's attempts.
// The jitter stream is only consumed when a sleep actually happens, so
// fault-free runs never draw from it.
class RetryBackoff {
 public:
  explicit RetryBackoff(const BackoffPolicy& policy)
      : policy_(policy), next_ms_(policy.initial_ms) {}

  // The sleep before the next retry, or a negative value when the call's
  // backoff budget is exhausted and the caller should give up.
  double NextDelayMs(Random& jitter_rng) {
    const double budget_ms = policy_.budget_ms;
    if (budget_ms > 0.0 && spent_ms_ >= budget_ms) return -1.0;
    double base = next_ms_;
    next_ms_ = std::min(next_ms_ * policy_.multiplier, policy_.max_ms);
    double delay = base;
    if (policy_.jitter > 0.0 && base > 0.0) {
      delay += base * policy_.jitter * jitter_rng.NextDouble();
    }
    if (budget_ms > 0.0) delay = std::min(delay, budget_ms - spent_ms_);
    spent_ms_ += delay;
    return delay;
  }

  double spent_ms() const { return spent_ms_; }

 private:
  BackoffPolicy policy_;
  double next_ms_;
  double spent_ms_ = 0.0;
};

}  // namespace phoenix

#endif  // PHOENIX_CORE_RETRY_H_
