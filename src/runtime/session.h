#ifndef PHOENIX_RUNTIME_SESSION_H_
#define PHOENIX_RUNTIME_SESSION_H_

#include <ucontext.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/tracer.h"
#include "wal/commit_pipeline.h"

namespace phoenix {

class Context;

// Cooperative overlapping call chains ("sessions") for one simulation.
//
// The simulator's call model is depth-first C++ recursion: one chain of
// nested RouteCall frames. To give group commit concurrency to harvest
// without giving up determinism, the scheduler runs N session bodies as
// stackful coroutines (ucontext) on the thread that calls Run. Exactly one
// of them executes at any instant, and the only yield points are explicit
// parks, each a switch back to the scheduler's context:
//
//  - ParkUntilDurable: a chain reached a durability wait (WaitDurable with
//    group commit on) and suspends until the pipeline's durable horizon
//    passes its LSN;
//  - ParkUntil: a chain hit a busy context (single-threaded contexts,
//    §3.2.1) and suspends until the predicate holds.
//
// When no session is runnable, every live chain is stalled on durability —
// that is the group-commit harvest point: the scheduler flushes the
// pipeline with the most parked waiters, satisfying the whole batch with
// one disk write, and wakes them.
//
// Determinism: one session runs at a time, parks only at fixed program
// points, and the choice among ready sessions drawn from a seeded PRNG —
// so a given (seed, workload) always produces the same interleaving, the
// same batches, and byte-identical metrics.
class SessionScheduler : public CommitPipeline::Scheduler {
 public:
  explicit SessionScheduler(uint64_t seed);
  ~SessionScheduler() override;

  SessionScheduler(const SessionScheduler&) = delete;
  SessionScheduler& operator=(const SessionScheduler&) = delete;

  // Runs every body to completion, interleaving at park points. Each body
  // gets an 8 MB stack (reserved, backed only as it is touched) with a
  // guard page below it; the stacks are unmapped before Run returns. Must
  // not be called from inside one of this scheduler's sessions.
  void Run(std::vector<std::function<void()>> bodies);

  // CommitPipeline::Scheduler. Returns false when the caller is not one of
  // this scheduler's sessions (the caller then flushes inline).
  bool ParkUntilDurable(CommitPipeline* pipeline, uint64_t lsn) override;

  // Sessions currently parked on `pipeline`'s durability — the max-batch
  // policy asks before parking one more.
  size_t ParkedWaiters(const CommitPipeline* pipeline) const override;

  // Suspends the calling session until `ready()` holds. Returns false (and
  // does nothing) off sessions. The predicate is evaluated on the
  // scheduler's context while every session is suspended, so it may read
  // any simulation state; current_session() is -1 inside it.
  bool ParkUntil(std::function<bool()> ready);

  // Index of the session that is running, or -1 off sessions.
  int current_session() const;

  // The running session's execution-context stack, or nullptr off
  // sessions. Simulation::PushContext/PopContext delegate here so each
  // chain tracks its own nesting.
  std::vector<Context*>* current_context_stack();

  // The running session's trace-span stack (the chain's current causal
  // position, obs::SpanLink), or nullptr off sessions.
  std::vector<obs::SpanLink>* current_trace_stack();

 private:
  struct Session {
    int index = 0;
    std::function<void()> body;
    ucontext_t context{};
    char* stack = nullptr;  // lowest usable byte; the guard page is below
    enum class State { kReady, kRunning, kParked, kDone };
    State state = State::kReady;
    // Exactly one of these describes a park: a durability wait...
    CommitPipeline* wait_pipeline = nullptr;
    uint64_t wait_lsn = 0;
    uint64_t wait_epoch = 0;
    double wait_since_ms = 0.0;  // sim time the durability park began
    // ...or a generic predicate.
    std::function<bool()> ready_pred;
    std::vector<Context*> context_stack;
    std::vector<obs::SpanLink> trace_stack;
  };

  static bool ParkSatisfied(const Session& s);
  // Picks the pipeline with the most parked durability waiters and batch-
  // flushes it. Returns false when nobody is parked on durability.
  bool TryGroupFlush();
  // Every session's index, state and wait, one line each.
  std::string DeadlockReport() const;
  // makecontext entry point: `this`, split into two 32-bit halves.
  static void SessionMain(uint32_t self_hi, uint32_t self_lo);
  // Scheduler side: runs `s` until it parks or finishes.
  void Resume(Session* s);
  // Session side: marks `s` parked and switches to the scheduler; returns
  // once the scheduler resumes `s`.
  void Park(Session* s);

  Random rng_;
  size_t page_bytes_;
  ucontext_t scheduler_context_{};
  // Where the scheduler's own stack lies, as ASan reports it on the first
  // switch into a session; handed back on every switch out of one.
  const void* scheduler_stack_bottom_ = nullptr;
  size_t scheduler_stack_size_ = 0;
  Session* current_ = nullptr;  // the running session, nullptr otherwise
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace phoenix

#endif  // PHOENIX_RUNTIME_SESSION_H_
