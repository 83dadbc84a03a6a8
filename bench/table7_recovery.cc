// Table 7: recovery time vs number of method calls replayed, recovering
// from the creation record vs from a saved context state. Also derives the
// paper's engineering rule: checkpoints pay off once replay would exceed
// the ~60 ms cost of restoring a state record (~400+ calls).

#include "bench/bench_components.h"
#include "obs/bench_reporter.h"
#include "runtime/simulation.h"
#include "bench/bench_util.h"
#include "common/macros.h"
#include "common/random.h"
#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "recovery/replay_plan.h"
#include "wal/log_reader.h"

namespace phoenix::bench {
namespace {

// Adds the recovery-phase counters this bench is about on top of the
// standard capture; restore_makespan_ms is the redo phase's share of
// recovery_ms (summed over recoveries).
void CaptureRecovery(obs::BenchVariant& variant, Simulation& sim,
                     double recovery_ms) {
  sim.CaptureBench(variant);
  variant.SetMetric("recovery_ms", recovery_ms);
  variant.SetMetric(
      "records_scanned",
      sim.metrics().CounterTotal("phoenix.recovery.records_scanned"));
  variant.SetMetric(
      "calls_replayed",
      sim.metrics().CounterTotal("phoenix.recovery.calls_replayed"));
  variant.SetMetric("restore_makespan_ms",
                    sim.metrics()
                        .MergedHistogram("phoenix.recovery.restore.makespan_ms")
                        .sum());
}

// Recovery time (simulated ms) after `calls` calls issued *after* the
// recovery origin (creation, or a state record + published checkpoint).
double MeasureRecovery(obs::BenchVariant& variant, int calls,
                       bool from_state) {
  Simulation sim;
  RegisterBenchComponents(sim.factories());
  Machine& ma = sim.AddMachine("ma");
  Process& proc = ma.CreateProcess();
  ExternalClient client(&sim, "ma");
  auto server = client.CreateComponent(proc, "CounterServer", "server",
                                       ComponentKind::kPersistent, {});

  if (from_state) {
    Context* ctx = proc.FindContextOfComponent("server");
    proc.checkpoints().SaveContextState(*ctx);
    proc.checkpoints().TakeProcessCheckpoint();
  }
  for (int i = 0; i < calls; ++i) {
    client.Call(*server, "Add", MakeArgs(int64_t{1}));
  }
  if (from_state && calls == 0) {
    // Nothing after the checkpoint flushed it; force by hand.
    proc.log().Force();
    proc.checkpoints().MaybePublishCheckpoint();
  }

  proc.Kill();
  double t0 = sim.clock().NowMs();
  Status s = ma.recovery_service().EnsureProcessAlive(proc.pid());
  if (!s.ok()) return -1;
  double recovery_ms = sim.clock().NowMs() - t0;
  CaptureRecovery(variant, sim, recovery_ms);
  return recovery_ms;
}

// --- Parallel replay: sequential vs plan-driven multi-session recovery ---

struct ParallelRecoveryRun {
  double recovery_ms = -1;
  uint64_t chains = 0;
  uint64_t edges = 0;
  uint64_t fallbacks = 0;
  uint64_t salvaged_parallel = 0;
  uint64_t chains_demoted = 0;
  uint64_t state_hash = 0;
};

// First LSN strictly inside a reply-bearing replay unit's extent, found by
// planning against the stable log the same way recovery does. Corrupting
// that record forces salvage while leaving every other chain's units
// intact, so the planner can keep the plan parallel and demote only the
// touched chain.
uint64_t FindInteriorLsn(Process& proc) {
  LogView view = proc.log().StableView();
  ReplayPlanInputs inputs;
  inputs.machine = proc.machine_name();
  inputs.process_id = proc.pid();
  ReplayPlan plan = PlanLogReplay(proc.log(), std::move(inputs));
  for (const ReplayChain& chain : plan.chains) {
    for (const PlannedUnit& unit : chain.units) {
      if (unit.extent_end_lsn <= unit.replay.start_lsn) continue;
      LogReader reader(view, proc.log().head_base());
      while (auto parsed = reader.Next()) {
        if (parsed->lsn > unit.replay.start_lsn &&
            parsed->lsn < unit.extent_end_lsn) {
          return parsed->lsn;
        }
      }
    }
  }
  return kInvalidLsn;
}

// Multi-context recovery workload: `pairs` BatchCaller -> CounterServer
// pairs all hosted by ONE process (2*pairs replay chains plus the
// activator's), driven round-robin so the contexts' call chains interleave
// in the log. Each caller's in-process calls to its server put
// cross-context call edges in the replay plan. After recovery the servers'
// counters are folded into an FNV-1a fingerprint — the state the
// sequential-vs-parallel divergence check compares.
ParallelRecoveryRun RunParallelRecovery(obs::BenchVariant* variant, int pairs,
                                        int rounds, int calls_per_round,
                                        bool parallel, uint32_t sessions,
                                        uint64_t seed,
                                        bool corrupt_interior = false,
                                        uint32_t wal_shards = 1) {
  RuntimeOptions options;
  options.parallel_replay = parallel;
  if (parallel) options.parallel_replay_sessions = sessions;
  options.wal_shards = wal_shards;
  SimulationParams params;
  params.seed = seed;
  Simulation sim(options, params);
  RegisterBenchComponents(sim.factories());
  Machine& ma = sim.AddMachine("ma");
  Process& proc = ma.CreateProcess();
  ExternalClient admin(&sim, "ma");

  std::vector<std::string> callers, servers;
  for (int i = 0; i < pairs; ++i) {
    auto server =
        admin.CreateComponent(proc, "CounterServer", StrCat("psrv", i),
                              ComponentKind::kPersistent, {});
    PHX_CHECK(server.ok());
    auto caller = admin.CreateComponent(
        proc, "BatchCaller", StrCat("pcaller", i), ComponentKind::kPersistent,
        MakeArgs(*server, "Add"));
    PHX_CHECK(caller.ok());
    servers.push_back(*server);
    callers.push_back(*caller);
  }
  Random workload(seed * 2957 + 11);
  for (int r = 0; r < rounds; ++r) {
    for (int i = 0; i < pairs; ++i) {
      int64_t n = 1 + static_cast<int64_t>(
                          workload.Uniform(
                              static_cast<uint64_t>(calls_per_round)));
      ExternalClient driver(&sim, "ma");
      PHX_CHECK(driver.Call(callers[i], "RunBatch", MakeArgs(n)).ok());
    }
  }

  proc.Kill();
  if (corrupt_interior) {
    // Bit-rot one record inside a reply-bearing unit's extent: the plan is
    // salvaged, but only the touched chain loses eligibility.
    uint64_t interior = FindInteriorLsn(proc);
    PHX_CHECK(interior != kInvalidLsn);
    // +8 lands in the payload, past the length/CRC header.
    sim.storage().CorruptLog(proc.log_name(), interior + 8, /*flip_count=*/2);
  }
  double t0 = sim.clock().NowMs();
  Status recovered = ma.recovery_service().EnsureProcessAlive(proc.pid());
  PHX_CHECK(recovered.ok());

  ParallelRecoveryRun run;
  run.recovery_ms = sim.clock().NowMs() - t0;
  run.chains = sim.metrics().CounterTotal("phoenix.recovery.replay.chains");
  run.edges = sim.metrics().CounterTotal("phoenix.recovery.replay.edges");
  run.fallbacks =
      sim.metrics().CounterTotal("phoenix.recovery.replay.fallbacks");
  run.salvaged_parallel = sim.metrics().CounterTotal(
      "phoenix.recovery.replay.salvaged_parallel");
  run.chains_demoted =
      sim.metrics().CounterTotal("phoenix.recovery.replay.chains_demoted");

  uint64_t h = 1469598103934665603ull;  // FNV-1a
  ExternalClient probe(&sim, "ma");
  for (int i = 0; i < pairs; ++i) {
    auto v = probe.Call(servers[i], "Get", {});
    PHX_CHECK(v.ok());
    auto x = static_cast<uint64_t>(v->AsInt());
    for (int b = 0; b < 8; ++b) {
      h = (h ^ ((x >> (8 * b)) & 0xff)) * 1099511628211ull;
    }
  }
  run.state_hash = h;

  if (variant != nullptr) {
    CaptureRecovery(*variant, sim, run.recovery_ms);
    variant->SetMetric("pairs", static_cast<uint64_t>(pairs));
    variant->SetMetric("replay_sessions",
                       static_cast<uint64_t>(parallel ? sessions : 0));
    variant->SetMetric("replay_chains", run.chains);
    variant->SetMetric("replay_edges", run.edges);
    variant->SetMetric("replay_fallbacks", run.fallbacks);
    variant->SetInfo("state_hash", StrCat(run.state_hash));
  }
  return run;
}

double MeasureEmptyLog(obs::BenchVariant& variant) {
  Simulation sim;
  RegisterBenchComponents(sim.factories());
  Machine& ma = sim.AddMachine("ma");
  Process& proc = ma.CreateProcess();
  proc.Kill();
  double t0 = sim.clock().NowMs();
  ma.recovery_service().EnsureProcessAlive(proc.pid());
  double recovery_ms = sim.clock().NowMs() - t0;
  CaptureRecovery(variant, sim, recovery_ms);
  return recovery_ms;
}

void Run() {
  obs::BenchReporter reporter("table7_recovery");
  std::vector<PaperRow> rows;
  rows.push_back(
      {"Empty log", 492, MeasureEmptyLog(reporter.AddVariant("empty_log"))});
  PrintTable("Table 7 (part 1): base recovery cost (ms)", "(ms)", rows);

  const double paper_creation[] = {575, 728, 868, 1007, 1100, 1199};
  const double paper_state[] = {638, 794, 875, 1162, 1252, 1507};
  std::vector<SeriesPoint> creation_series, state_series;
  for (int i = 0; i <= 5; ++i) {
    int calls = i * 1000;
    creation_series.push_back(
        SeriesPoint{static_cast<double>(calls), paper_creation[i],
                    MeasureRecovery(
                        reporter.AddVariant(StrCat("creation_", calls,
                                                   "_calls")),
                        calls, /*from_state=*/false)});
    state_series.push_back(
        SeriesPoint{static_cast<double>(calls), paper_state[i],
                    MeasureRecovery(
                        reporter.AddVariant(StrCat("state_", calls, "_calls")),
                        calls, true)});
  }
  PrintSeries("Table 7 (part 2): recovery from creation, vs #calls replayed",
              "#calls", "(ms)", creation_series);
  PrintSeries("Table 7 (part 3): recovery from state record, vs #calls "
              "replayed",
              "#calls", "(ms)", state_series);

  // Crossover: a state record helps once it skips more replay than its
  // restore cost. The paper estimates ~60 ms of restore == ~400 calls.
  double restore_extra =
      state_series[0].measured - creation_series[0].measured;
  double per_call = (creation_series[5].measured -
                     creation_series[0].measured) /
                    5000.0;
  std::printf(
      "\nDerived: restoring a state record costs %.0f ms extra; replaying a\n"
      "call costs %.3f ms; so context states should be saved every ~%.0f\n"
      "calls or more (the paper concludes ~400).\n",
      restore_extra, per_call, restore_extra / per_call);

  // Parallel replay ablation: the same multi-context log recovered
  // sequentially and then plan-driven at 1..32 replay sessions. Parallel
  // recovery is bounded by the critical-path chain, so ms falls with the
  // session count until the longest chain dominates; the recovered state
  // fingerprint must match the sequential one at every width.
  constexpr int kPairs = 8, kRounds = 10, kCallsPerRound = 40;
  constexpr uint64_t kParallelSeed = 424243;
  ParallelRecoveryRun seq = RunParallelRecovery(
      &reporter.AddVariant("parallel_seq_baseline"), kPairs, kRounds,
      kCallsPerRound, /*parallel=*/false, 0, kParallelSeed);
  std::printf(
      "\nTable 7 (part 4): parallel replay, %d caller/server pairs "
      "(sequential recovery %.1f ms)\n"
      "%10s %14s %10s %8s %8s %12s\n",
      kPairs, seq.recovery_ms, "sessions", "recovery_ms", "speedup",
      "chains", "edges", "state_match");
  const uint32_t kReplaySessions[] = {1, 2, 4, 8, 16, 32};
  uint64_t pinned_divergences = 0;
  ParallelRecoveryRun par8;
  for (uint32_t n : kReplaySessions) {
    obs::BenchVariant& v = reporter.AddVariant(StrCat("parallel_s", n));
    ParallelRecoveryRun par = RunParallelRecovery(
        &v, kPairs, kRounds, kCallsPerRound, /*parallel=*/true, n,
        kParallelSeed);
    if (n == 8) par8 = par;
    bool match = par.state_hash == seq.state_hash;
    if (!match) ++pinned_divergences;
    v.SetMetric("state_matches_sequential", match ? int64_t{1} : int64_t{0});
    v.SetMetric("speedup_vs_sequential", seq.recovery_ms / par.recovery_ms);
    std::printf("%10u %14.1f %9.2fx %8llu %8llu %12s\n", n, par.recovery_ms,
                seq.recovery_ms / par.recovery_ms,
                static_cast<unsigned long long>(par.chains),
                static_cast<unsigned long long>(par.edges),
                match ? "yes" : "DIVERGED");
  }

  // Salvaged-log recovery: the same workload with one bit-rotted record
  // inside a replay unit. The planner demotes only the touched chain, so
  // recovery still takes the parallel path — the torn log no longer
  // serializes replay — and the end state must match a sequential recovery
  // of the identical damaged log.
  ParallelRecoveryRun salv_seq = RunParallelRecovery(
      &reporter.AddVariant("salvaged_seq_baseline"), kPairs, kRounds,
      kCallsPerRound, /*parallel=*/false, 0, kParallelSeed,
      /*corrupt_interior=*/true);
  obs::BenchVariant& sv = reporter.AddVariant("salvaged_parallel_s8");
  ParallelRecoveryRun salv = RunParallelRecovery(
      &sv, kPairs, kRounds, kCallsPerRound, /*parallel=*/true, 8,
      kParallelSeed, /*corrupt_interior=*/true);
  bool salv_match = salv.state_hash == salv_seq.state_hash;
  double salv_ratio = salv.recovery_ms / par8.recovery_ms;
  sv.SetMetric("salvaged_parallel_replays", salv.salvaged_parallel);
  sv.SetMetric("replay_chains_demoted", salv.chains_demoted);
  sv.SetMetric("state_matches_sequential",
               salv_match ? int64_t{1} : int64_t{0});
  sv.SetMetric("ratio_vs_unsalvaged_parallel", salv_ratio);
  std::printf(
      "\nTable 7 (part 5): salvaged-log recovery, one bit-rotted record\n"
      "  sequential %.1f ms; parallel s8 %.1f ms (%.2fx of unsalvaged s8,\n"
      "  %llu chain(s) demoted, salvaged-parallel path taken %llu time(s),\n"
      "  state %s sequential)\n",
      salv_seq.recovery_ms, salv.recovery_ms, salv_ratio,
      static_cast<unsigned long long>(salv.chains_demoted),
      static_cast<unsigned long long>(salv.salvaged_parallel),
      salv_match ? "matches" : "DIVERGED from");
  PHX_CHECK(salv.salvaged_parallel >= 1);
  PHX_CHECK(salv.fallbacks == 0);

  // Sharded-WAL recovery: the identical workload and seed logged across
  // 2/4/8 shard logs, recovered through the gsn-ordered k-way merge (both
  // sequentially and plan-driven at 8 sessions). The recovered-state
  // fingerprint must equal the single-log sequential recovery's at every
  // shard count — the merge IS the single log's order.
  std::printf(
      "\nTable 7 (part 6): sharded-WAL recovery, %d caller/server pairs "
      "(single-log sequential %.1f ms)\n"
      "%10s %16s %16s %14s\n",
      kPairs, seq.recovery_ms, "shards", "seq recovery_ms", "par8 "
      "recovery_ms", "state_match");
  uint64_t shard_divergences = 0;
  for (uint32_t shards : {2u, 4u, 8u}) {
    obs::BenchVariant& vs =
        reporter.AddVariant(StrCat("sharded", shards, "_seq"));
    ParallelRecoveryRun shard_seq = RunParallelRecovery(
        &vs, kPairs, kRounds, kCallsPerRound, /*parallel=*/false, 0,
        kParallelSeed, /*corrupt_interior=*/false, shards);
    obs::BenchVariant& vp =
        reporter.AddVariant(StrCat("sharded", shards, "_par_s8"));
    ParallelRecoveryRun shard_par = RunParallelRecovery(
        &vp, kPairs, kRounds, kCallsPerRound, /*parallel=*/true, 8,
        kParallelSeed, /*corrupt_interior=*/false, shards);
    bool match = shard_seq.state_hash == seq.state_hash &&
                 shard_par.state_hash == seq.state_hash;
    if (!match) ++shard_divergences;
    vs.SetMetric("wal_shards", static_cast<uint64_t>(shards));
    vp.SetMetric("wal_shards", static_cast<uint64_t>(shards));
    vs.SetMetric("state_matches_single_log",
                 shard_seq.state_hash == seq.state_hash ? int64_t{1}
                                                        : int64_t{0});
    vp.SetMetric("state_matches_single_log",
                 shard_par.state_hash == seq.state_hash ? int64_t{1}
                                                        : int64_t{0});
    std::printf("%10u %16.1f %16.1f %14s\n", shards, shard_seq.recovery_ms,
                shard_par.recovery_ms, match ? "yes" : "DIVERGED");
  }
  PHX_CHECK(shard_divergences == 0);

  // Seeded divergence sweep: randomized workload shapes, each recovered
  // both ways; the recovered-state fingerprints must agree run by run.
  constexpr int kSweepRuns = 100;
  uint64_t sweep_divergences = 0;
  for (int run = 0; run < kSweepRuns; ++run) {
    uint64_t seed = 777000 + static_cast<uint64_t>(run);
    Random shape(seed);
    int pairs = 2 + static_cast<int>(shape.Uniform(7));
    int rounds = 1 + static_cast<int>(shape.Uniform(5));
    int cpr = 1 + static_cast<int>(shape.Uniform(8));
    ParallelRecoveryRun s =
        RunParallelRecovery(nullptr, pairs, rounds, cpr, false, 0, seed);
    ParallelRecoveryRun p =
        RunParallelRecovery(nullptr, pairs, rounds, cpr, true, 8, seed);
    if (s.state_hash != p.state_hash) ++sweep_divergences;
  }
  obs::BenchVariant& sweep = reporter.AddVariant("parallel_hash_sweep");
  sweep.SetMetric("runs", static_cast<uint64_t>(kSweepRuns));
  sweep.SetMetric("pinned_divergences", pinned_divergences);
  sweep.SetMetric("divergences", sweep_divergences);
  std::printf(
      "\nDivergence sweep: %d randomized workloads recovered sequentially\n"
      "and at 8 replay sessions: %llu state divergence(s).\n",
      kSweepRuns, static_cast<unsigned long long>(sweep_divergences));

  obs::AnnounceReport(reporter);
}

}  // namespace
}  // namespace phoenix::bench

int main(int argc, char** argv) {
  phoenix::obs::InitBenchMain(argc, argv);
  phoenix::bench::Run();
  return 0;
}
