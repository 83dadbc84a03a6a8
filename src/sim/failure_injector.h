#ifndef PHOENIX_SIM_FAILURE_INJECTOR_H_
#define PHOENIX_SIM_FAILURE_INJECTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"

namespace phoenix {

// Where in the message protocol a crash is injected. These refine the three
// failure points of Figure 2 (a failure "before message 3", "after message 3
// but before message 2", "after message 2") with the log-force boundaries
// that matter for the external-client window of vulnerability (§3.1.2).
enum class FailurePoint : int {
  kBeforeIncomingLogged = 0,  // message 1 arrived, not yet logged
  kAfterIncomingLogged = 1,   // message 1 logged, before execution
  kBeforeOutgoingSend = 2,    // Fig. 2 point 1: before message 3 leaves
  kAfterOutgoingReply = 3,    // Fig. 2 point 2: message 4 received
  kBeforeReplySend = 4,       // processing done, before message 2 is sent
  kAfterReplySend = 5,        // Fig. 2 point 3: message 2 already sent
  kDuringStateSave = 6,       // mid context-state save
  kDuringCheckpoint = 7,      // mid process checkpoint (after begin record)
  kDuringGroupFlush = 8,      // mid group-commit flush: the whole parked
                              // batch loses its unforced tail at once

  // Recovery-phase points: recovery itself is a fault domain. These hooks
  // only fire when RuntimeOptions.inject_failures_during_recovery is set
  // (otherwise the recovering process skips the injector entirely and the
  // hit counters below stay untouched).
  kDuringRecoveryAnalysis = 9,   // pass-1 analysis scan, per record
  kDuringRecoveryRestore = 10,   // checkpoint-state reinstatement, per ctx
  kBetweenReplayUnits = 11,      // pass 2, after each non-final unit a
                                 // replay worker pops
  kDuringEndOfLogFlush = 12,     // pass 2's final phase, after each final
                                 // unit it replays
};

constexpr int kNumFailurePoints = 13;

// Returns a short name for the failure point (for test diagnostics).
const char* FailurePointName(FailurePoint point);

// Storage attacks on a process's well-known recovery files, applied by the
// recovery supervisor *between* recovery attempts: the process died, an
// attempt failed, and the disk rots under the retry.
enum class RecoveryAttack : int {
  kCorruptWellKnownFile = 0,    // flip bits in <log>.wkf
  kCorruptNewestStateRecord = 1,  // flip bits in the newest readable
                                  // context-state record
  kTearStableTail = 2,          // shear bytes off the stable tail (clamped
                                // to the externalized floor, as all tears)
};

// Returns a short name for the attack kind (for reports and diagnostics).
const char* RecoveryAttackName(RecoveryAttack kind);

// Deterministic crash scheduler. The runtime consults it at each hook; when
// a trigger fires the hosting process is killed on the spot: volatile state
// and unforced log buffers are dropped, the stable log survives.
class FailureInjector {
 public:
  FailureInjector() : rng_(0) {}

  FailureInjector(const FailureInjector&) = delete;
  FailureInjector& operator=(const FailureInjector&) = delete;

  // Crash process `process_id` on `machine` the `fire_on_hit`-th time it
  // reaches `point` counted from NOW (1-based, relative to registration, so
  // setup traffic that already touched the hook does not shift schedules;
  // counts persist across restarts).
  void AddTrigger(const std::string& machine, uint32_t process_id,
                  FailurePoint point, uint64_t fire_on_hit = 1);

  // Additionally crash at any hook with probability `p` (seeded — random
  // schedules are still reproducible).
  void EnableRandomCrashes(double p, uint64_t seed);

  // Torn-tail injection: with probability `p`, a crash also tears up to
  // `max_tear_bytes` off the end of the crashing process's *stable* log —
  // a partially completed sector write. The runtime clamps the tear to the
  // process's externalized floor (bytes whose effects already left the
  // process can never be un-written by a torn sector; they were stable
  // before the send).
  void EnableTornTails(double p, uint64_t seed, uint32_t max_tear_bytes = 48);

  // Consulted when a process dies: bytes to tear off its stable tail
  // (0 = none). Consumes randomness only when torn tails are enabled.
  uint64_t MaybeTearBytes();

  // Tear decisions that returned nonzero so far.
  uint64_t torn_tails_fired() const { return torn_tails_fired_; }

  // Called by the runtime at each hook. True => the process must die now.
  bool ShouldCrash(const std::string& machine, uint32_t process_id,
                   FailurePoint point);

  // Number of crashes this injector has caused so far.
  uint64_t crashes_fired() const { return crashes_fired_; }

  // Schedule a storage attack against `process_id`'s recovery files,
  // applied by the recovery supervisor just before recovery attempt
  // `before_attempt` (1-based: 1 = before the first attempt). Attempt
  // numbering restarts with each supervisor invocation, not each trigger
  // registration — schedules are normally installed while the target is
  // already dead.
  void AddRecoveryAttack(const std::string& machine, uint32_t process_id,
                         uint64_t before_attempt, RecoveryAttack kind);

  // Consumes and returns the attacks scheduled for `attempt` (in
  // registration order). Called by the recovery supervisor.
  std::vector<RecoveryAttack> TakeRecoveryAttacks(const std::string& machine,
                                                  uint32_t process_id,
                                                  uint64_t attempt);

  // Attacks handed out by TakeRecoveryAttacks so far.
  uint64_t recovery_attacks_fired() const { return recovery_attacks_fired_; }

  // Hook hit counts, for tests asserting a schedule actually executed.
  uint64_t HitCount(const std::string& machine, uint32_t process_id,
                    FailurePoint point) const;

  void Clear();

 private:
  using Key = std::tuple<std::string, uint32_t, int>;
  std::map<Key, uint64_t> hit_counts_;
  std::map<Key, std::vector<uint64_t>> triggers_;  // pending fire_on_hit lists
  // (machine, pid) -> pending (before_attempt, kind) attacks.
  std::map<std::pair<std::string, uint32_t>,
           std::vector<std::pair<uint64_t, RecoveryAttack>>>
      recovery_attacks_;
  uint64_t recovery_attacks_fired_ = 0;
  double random_p_ = 0.0;
  Random rng_;
  uint64_t crashes_fired_ = 0;
  double torn_p_ = 0.0;
  uint32_t max_tear_bytes_ = 48;
  Random tear_rng_{0};
  uint64_t torn_tails_fired_ = 0;
};

}  // namespace phoenix

#endif  // PHOENIX_SIM_FAILURE_INJECTOR_H_
