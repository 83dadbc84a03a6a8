// Checkpoint-interval ablation (the design choice §5.4 ends on): sweep the
// context-state save interval and measure both the runtime overhead during
// normal execution and the recovery time after a crash at the end of the
// workload. The paper's rule: save every ~400 calls or more. Intervals
// past the replay-debt break-even save at it instead (DESIGN.md §10).

#include <cstdio>

#include "bench/bench_components.h"
#include "obs/bench_reporter.h"
#include "runtime/simulation.h"
#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"

namespace phoenix::bench {
namespace {

struct IntervalResult {
  double run_ms = 0;       // workload elapsed (simulated)
  double recovery_ms = 0;  // recovery elapsed after crash at the end
  uint64_t state_saves = 0;
};

IntervalResult Measure(obs::BenchVariant& variant, uint32_t interval,
                       int workload_calls) {
  RuntimeOptions opts;
  opts.save_context_state_every = interval;
  opts.process_checkpoint_every = interval > 0 ? interval * 2 : 0;
  Simulation sim(opts);
  RegisterBenchComponents(sim.factories());
  Machine& ma = sim.AddMachine("ma");
  Process& proc = ma.CreateProcess();
  ExternalClient client(&sim, "ma");
  auto server = client.CreateComponent(proc, "CounterServer", "server",
                                       ComponentKind::kPersistent, {});

  double t0 = sim.clock().NowMs();
  for (int i = 0; i < workload_calls; ++i) {
    client.Call(*server, "Add", MakeArgs(int64_t{1})).value();
  }
  IntervalResult out;
  out.run_ms = sim.clock().NowMs() - t0;
  out.state_saves = proc.checkpoints().state_saves();

  proc.Kill();
  double r0 = sim.clock().NowMs();
  ma.recovery_service().EnsureProcessAlive(proc.pid());
  out.recovery_ms = sim.clock().NowMs() - r0;
  sim.CaptureBench(variant);
  variant.SetMetric("interval", static_cast<uint64_t>(interval));
  variant.SetMetric("workload_ms", out.run_ms);
  variant.SetMetric("recovery_ms", out.recovery_ms);
  variant.SetMetric("state_saves", out.state_saves);
  return out;
}

void Run() {
  obs::BenchReporter reporter("ablation_checkpoint_interval");
  const int kCalls = 2000;
  std::printf("Checkpoint-interval ablation (%d-call workload, crash at the "
              "end)\n",
              kCalls);
  std::printf("%10s %12s %14s %14s %12s\n", "interval", "saves",
              "workload (ms)", "recovery (ms)", "overhead %");
  IntervalResult base =
      Measure(reporter.AddVariant("interval_0"), 0, kCalls);
  for (uint32_t interval : {0u, 25u, 50u, 100u, 200u, 400u, 800u, 1600u}) {
    IntervalResult r =
        interval == 0
            ? base
            : Measure(reporter.AddVariant(StrCat("interval_", interval)),
                      interval, kCalls);
    std::printf("%10u %12llu %14.0f %14.0f %11.2f%%\n", interval,
                static_cast<unsigned long long>(r.state_saves), r.run_ms,
                r.recovery_ms, 100.0 * (r.run_ms - base.run_ms) / base.run_ms);
  }
  std::printf(
      "\nShape check: tighter intervals buy cheaper recovery (less replay)\n"
      "at growing runtime overhead; past ~400 calls the replay saved per\n"
      "state record exceeds the ~60 ms restore cost, matching §5.4.\n"
      "Intervals past that break-even are capped by the replay-debt rule:\n"
      "a context also saves once replaying its calls since its origin\n"
      "would cost more than a restore (462 calls), so 800 and 1600 save\n"
      "every 462 calls and recover no slower than 400.\n");

  obs::AnnounceReport(reporter);
}

}  // namespace
}  // namespace phoenix::bench

int main(int argc, char** argv) {
  phoenix::obs::InitBenchMain(argc, argv);
  phoenix::bench::Run();
  return 0;
}
