// Table 8: the online bookstore application (Figure 10) at the three
// optimization levels — elapsed time and number of log forces for the
// paper's scripted BookBuyer session.

#include "common/macros.h"
#include "common/strings.h"
#include "obs/bench_reporter.h"
#include "runtime/simulation.h"
#include "bench/bench_util.h"
#include "bookstore/setup.h"

namespace phoenix::bench {
namespace {

using bookstore::Deploy;
using bookstore::Deployment;
using bookstore::OptionsForLevel;
using bookstore::OptLevel;
using bookstore::RegisterBookstoreComponents;
using bookstore::RunBuyerSession;

struct LevelResult {
  double elapsed_ms = 0;
  uint64_t forces = 0;
};

LevelResult Run(obs::BenchVariant& variant, OptLevel level) {
  Simulation sim(OptionsForLevel(level));
  RegisterBookstoreComponents(sim.factories());
  sim.AddMachine("client");
  Machine& server = sim.AddMachine("server");
  auto deployment = Deploy(sim, server, /*num_stores=*/2, level);
  if (!deployment.ok()) return {};

  // The BookBuyer runs on one machine, all server components on the other
  // (§5.5.1). A warm-up session lets server types be learned.
  ExternalClient buyer(&sim, "client");
  RunBuyerSession(sim, *deployment, buyer, "warmup", "WA").value();

  double t0 = sim.clock().NowMs();
  uint64_t f0 = sim.TotalForces();
  RunBuyerSession(sim, *deployment, buyer, "alice", "WA").value();
  LevelResult result{sim.clock().NowMs() - t0, sim.TotalForces() - f0};
  sim.CaptureBench(variant);
  variant.SetMetric("session_ms", result.elapsed_ms);
  variant.SetMetric("session_forces", result.forces);
  return result;
}

// Log-head truncation guard: kTruncatingSessions specialized sessions with
// the state-save / checkpoint cadence and auto_truncate_log on, then a
// crash and recovery. The read-only grabber and functional tax calculator
// never reach the cadence (it counts logged calls), so the retained log
// stays bounded only because each checkpoint relogs their creation records.
constexpr int kTruncatingSessions = 10000;

void RunTruncating(obs::BenchVariant& variant) {
  RuntimeOptions opts = OptionsForLevel(OptLevel::kSpecialized);
  opts.save_context_state_every = 50;
  opts.process_checkpoint_every = 50;
  opts.auto_truncate_log = true;
  Simulation sim(opts);
  RegisterBookstoreComponents(sim.factories());
  sim.AddMachine("client");
  Machine& server = sim.AddMachine("server");
  Deployment deployment =
      Deploy(sim, server, /*num_stores=*/2, OptLevel::kSpecialized).value();
  ExternalClient buyer(&sim, "client");
  for (int i = 0; i < kTruncatingSessions; ++i) {
    RunBuyerSession(sim, deployment, buyer, StrCat("buyer", i % 8), "WA")
        .value();
  }

  sim.CaptureBench(variant);
  Process& proc = *deployment.server_process;
  uint64_t retained = proc.log().StableLog().size();
  uint64_t reclaimed =
      sim.metrics().CounterTotal("phoenix.checkpoint.bytes_reclaimed");
  proc.Kill();
  double t0 = sim.clock().NowMs();
  PHX_CHECK_OK(server.recovery_service().EnsureProcessAlive(proc.pid()));
  double recovery_ms = sim.clock().NowMs() - t0;
  // The recovered deployment still serves a whole session.
  RunBuyerSession(sim, deployment, buyer, "after", "WA").value();

  variant.SetMetric("sessions", static_cast<uint64_t>(kTruncatingSessions));
  variant.SetMetric("retained_log_bytes", retained);
  variant.SetMetric("bytes_reclaimed", reclaimed);
  variant.SetMetric(
      "origin_relogs",
      sim.metrics().CounterTotal("phoenix.checkpoint.origin_relogs"));
  variant.SetMetric("recovery_ms", recovery_ms);
  std::printf(
      "\nTruncating run: %d specialized sessions, retained log %llu bytes "
      "(%llu reclaimed), recovery %.1f ms.\n",
      kTruncatingSessions, static_cast<unsigned long long>(retained),
      static_cast<unsigned long long>(reclaimed), recovery_ms);
}

void Main() {
  obs::BenchReporter reporter("table8_bookstore");
  LevelResult baseline =
      Run(reporter.AddVariant("baseline"), OptLevel::kBaseline);
  LevelResult optimized =
      Run(reporter.AddVariant("optimized_logging"), OptLevel::kOptimizedLogging);
  LevelResult specialized =
      Run(reporter.AddVariant("specialized"), OptLevel::kSpecialized);

  std::vector<PaperRow> time_rows = {
      {"Baseline", 589, baseline.elapsed_ms},
      {"Optimized logging for persistent components", 382,
       optimized.elapsed_ms},
      {"Specialized components and read-only methods", 296,
       specialized.elapsed_ms},
  };
  PrintTable("Table 8: online bookstore session — elapsed time (ms)", "(ms)",
             time_rows);

  std::vector<PaperRow> force_rows = {
      {"Baseline", 64, static_cast<double>(baseline.forces)},
      {"Optimized logging for persistent components", 46,
       static_cast<double>(optimized.forces)},
      {"Specialized components and read-only methods", 34,
       static_cast<double>(specialized.forces)},
  };
  PrintTable("Table 8: online bookstore session — number of log forces", "",
             force_rows);

  std::printf(
      "\nShape checks: optimized logging removes forces on receives and\n"
      "send-record writes; specialized kinds remove whole interactions from\n"
      "the log. Forces strictly decrease (paper: 64 -> 46 -> 34) and the\n"
      "response time roughly halves end to end (paper: 589 -> 296 ms).\n"
      "Ours: %.0f ms/%llu forces -> %.0f ms/%llu -> %.0f ms/%llu.\n",
      baseline.elapsed_ms, static_cast<unsigned long long>(baseline.forces),
      optimized.elapsed_ms, static_cast<unsigned long long>(optimized.forces),
      specialized.elapsed_ms,
      static_cast<unsigned long long>(specialized.forces));

  RunTruncating(reporter.AddVariant("specialized_truncating"));

  obs::AnnounceReport(reporter);
}

}  // namespace
}  // namespace phoenix::bench

int main(int argc, char** argv) {
  phoenix::obs::InitBenchMain(argc, argv);
  phoenix::bench::Main();
  return 0;
}
