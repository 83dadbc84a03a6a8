#ifndef PHOENIX_RUNTIME_SIMULATION_H_
#define PHOENIX_RUNTIME_SIMULATION_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "core/options.h"
#include "obs/bench_reporter.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "runtime/component.h"
#include "runtime/machine.h"
#include "runtime/message.h"
#include "runtime/session.h"
#include "sim/cost_model.h"
#include "sim/failure_injector.h"
#include "sim/network_model.h"
#include "sim/sim_clock.h"
#include "sim/stable_storage.h"

namespace phoenix {

// Knobs for the simulated hardware.
struct SimulationParams {
  DiskParams disk;
  NetworkParams network;
  CostModel costs;
  uint64_t seed = 1;
  // Non-empty: mirror stable storage into this real directory (and load
  // what a previous run left there), so Phoenix state survives restarts of
  // the hosting OS process. See StableStorage::EnablePersistence.
  std::string persistence_dir;
  // Record structured trace events (src/obs/tracer.h). Metrics are always
  // collected; tracing is opt-in because events accumulate in memory.
  bool trace_enabled = false;
  // Flight recorder: keep the last N trace events per component in a
  // bounded ring even when full tracing is off (0 disables). Cheap enough
  // to leave on in chaos campaigns; dumped post-mortem on crash.
  size_t flight_recorder_events = 0;
  // Non-empty: every Process::Kill rewrites this file with the flight
  // recorder's merged ring contents, so the last pre-crash events survive
  // the run for triage.
  std::string flight_dump_path;
};

// The root object: the whole distributed system under test. Owns the clock,
// stable storage, failure injector, network, every machine, the component
// factory registry and the runtime option switches — and implements the
// transport that routes call messages between contexts. Also implements
// obs::TraceScope: the per-chain stack of causal span links that parents
// every span a chain creates (including WAL-layer forces and parks).
class Simulation : public obs::TraceScope {
 public:
  explicit Simulation(RuntimeOptions options = {},
                      SimulationParams params = {});
  ~Simulation() override;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // --- topology ---
  Machine& AddMachine(const std::string& name);
  Machine* GetMachine(const std::string& name);

  // --- shared services ---
  SimClock& clock() { return clock_; }
  // Observability (src/obs/): the sim-time metrics registry and the
  // structured event tracer every subsystem reports into.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  StableStorage& storage() { return storage_; }
  FailureInjector& injector() { return injector_; }
  NetworkModel& network() { return network_; }
  const CostModel& costs() const { return params_.costs; }
  const DiskParams& params_disk() const { return params_.disk; }
  RuntimeOptions& options() { return options_; }
  const RuntimeOptions& options() const { return options_; }
  ComponentFactoryRegistry& factories() { return factories_; }
  uint64_t seed() const { return params_.seed; }
  // Seeded jitter stream for the capped-exponential retry backoff. Only
  // consumed when a retry actually sleeps, so fault-free runs never draw
  // from it.
  Random& retry_rng() { return retry_rng_; }

  // --- transport ---

  // Routes `msg` from `source_machine` ("" for a co-located driver) to its
  // target process, charging marshalling, interception, attachment and
  // network costs. One attempt: kUnavailable surfaces to the caller, whose
  // interceptor implements retry (condition 4).
  Result<ReplyMessage> RouteCall(const std::string& source_machine,
                                 const CallMessage& msg);

  // Resolves a URI to its hosting process (nullptr if machine/process
  // unknown).
  Process* ResolveProcess(const std::string& uri);

  // --- overlapping sessions ---

  // Runs `sessions` as overlapping cooperative call chains (see
  // runtime/session.h): deterministic seeded interleaving, yielding only
  // at durability waits and busy contexts. Blocks until all complete.
  // While active, processes route their durability waits through the
  // session scheduler, so group commit (RuntimeOptions.group_commit) has
  // concurrent waiters to coalesce.
  void RunSessions(std::vector<std::function<void()>> sessions);

  // Non-null only inside RunSessions.
  SessionScheduler* session_scheduler() const { return session_scheduler_; }

  // --- execution-context tracking (one call stack per chain) ---
  Context* current_context() const {
    const std::vector<Context*>& stack = CurrentContextStack();
    return stack.empty() ? nullptr : stack.back();
  }
  void PushContext(Context* ctx) { CurrentContextStack().push_back(ctx); }
  void PopContext() { CurrentContextStack().pop_back(); }

  // --- obs::TraceScope: the calling chain's causal span stack ---
  obs::SpanLink Current() const override {
    const std::vector<obs::SpanLink>& stack = CurrentTraceStack();
    return stack.empty() ? obs::SpanLink{} : stack.back();
  }
  void Push(obs::SpanLink link) override {
    CurrentTraceStack().push_back(link);
  }
  void Pop() override { CurrentTraceStack().pop_back(); }

  // Writes the flight-recorder rings to params.flight_dump_path (no-op when
  // either knob is unset). Process::Kill calls this so every crash —
  // injected or scripted — leaves a post-mortem file.
  void DumpFlightRecorderOnCrash();

  // --- aggregate statistics (benchmarks read deltas) ---
  uint64_t TotalForces() const;
  uint64_t TotalAppends() const;
  uint64_t TotalBytesForced() const;

  // Copies this run's aggregate log counters and per-call latency
  // distribution into a bench-report variant (obs/bench_reporter.h). The
  // Total*() counters sum the *live* writers — they reset when recovery
  // recreates a process — matching what the paper's tables charge to a
  // workload. Call after the workload, before the Simulation dies.
  void CaptureBench(obs::BenchVariant& variant) const;

 private:
  // The un-instrumented transport path; RouteCall wraps it with metrics and
  // trace spans.
  Result<ReplyMessage> RouteCallInner(const std::string& source_machine,
                                      const CallMessage& msg);

  void RecordNetworkDrop(const std::string& src, const std::string& dst,
                         const std::string& method, NetLeg leg,
                         obs::SpanLink link);

  // The calling chain's context stack: the session's own stack inside a
  // session, the simulation's own stack otherwise.
  std::vector<Context*>& CurrentContextStack();
  const std::vector<Context*>& CurrentContextStack() const;
  std::vector<obs::SpanLink>& CurrentTraceStack();
  const std::vector<obs::SpanLink>& CurrentTraceStack() const;

  RuntimeOptions options_;
  SimulationParams params_;
  SimClock clock_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_{&clock_};
  StableStorage storage_;
  FailureInjector injector_;
  NetworkModel network_;
  ComponentFactoryRegistry factories_;
  std::map<std::string, std::unique_ptr<Machine>> machines_;
  std::vector<Context*> context_stack_;
  std::vector<obs::SpanLink> trace_stack_;
  Random retry_rng_{0};
  uint64_t next_disk_seed_ = 101;
  SessionScheduler* session_scheduler_ = nullptr;
};

// Pushes a span onto the chain's causal stack (Simulation::TraceScope) for
// the enclosing scope, so everything the scope does — nested calls, log
// appends/forces, durability parks — parents under the span. Inert when
// the span is inert (tracer disabled).
class TraceFrameScope {
 public:
  TraceFrameScope(Simulation* sim, const obs::Tracer::Span& span) {
    if (span.span_id() != 0) {
      sim_ = sim;
      sim_->Push(span.link());
    }
  }
  ~TraceFrameScope() {
    if (sim_ != nullptr) sim_->Pop();
  }
  TraceFrameScope(const TraceFrameScope&) = delete;
  TraceFrameScope& operator=(const TraceFrameScope&) = delete;

 private:
  Simulation* sim_ = nullptr;
};

}  // namespace phoenix

#endif  // PHOENIX_RUNTIME_SIMULATION_H_
