// Real-wall-clock microbenchmarks (google-benchmark) of the substrate the
// simulation runs on: checksums, serialization, log framing, the disk
// model, and whole simulated calls per real second. These are about the
// implementation's own efficiency, not the paper's simulated numbers.

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <vector>

#include "bench/bench_components.h"
#include "obs/bench_reporter.h"
#include "runtime/session.h"
#include "runtime/simulation.h"
#include "common/crc32c.h"
#include "common/strings.h"
#include "recovery/recovery_service.h"
#include "serde/codec.h"
#include "wal/log_writer.h"

namespace phoenix::bench {
namespace {

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data(state.range(0), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EncodeValue(benchmark::State& state) {
  Value::List list;
  for (int i = 0; i < 16; ++i) {
    list.emplace_back(StrCat("field-", i));
    list.emplace_back(int64_t{i * 7919});
  }
  Value value(std::move(list));
  for (auto _ : state) {
    Encoder enc;
    enc.PutValue(value);
    benchmark::DoNotOptimize(enc.buffer());
  }
}
BENCHMARK(BM_EncodeValue);

void BM_DecodeValue(benchmark::State& state) {
  Value::List list;
  for (int i = 0; i < 16; ++i) list.emplace_back(int64_t{i});
  Encoder enc;
  enc.PutValue(Value(std::move(list)));
  for (auto _ : state) {
    Decoder dec(enc.buffer());
    benchmark::DoNotOptimize(dec.GetValue());
  }
}
BENCHMARK(BM_DecodeValue);

void BM_LogAppendForce(benchmark::State& state) {
  StableStorage storage;
  DiskModel disk(DiskParams{}, 1);
  SimClock clock;
  std::vector<uint8_t> payload(256, 0x42);
  LogWriter writer("m/p.log", &storage, &disk, &clock);
  for (auto _ : state) {
    writer.AppendPayload(payload);
    writer.Force();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogAppendForce);

void BM_DiskModelWrite(benchmark::State& state) {
  DiskModel disk(DiskParams{}, 1);
  double now = 0;
  for (auto _ : state) {
    now += disk.WriteLatencyMs(now, 1024);
    benchmark::DoNotOptimize(now);
  }
}
BENCHMARK(BM_DiskModelWrite);

// Host cost of one session park and resume: 4 sessions each park N times
// on a predicate that already holds, so every park is one switch to the
// scheduler and one back. `ns_per_park` is the wall time per round trip,
// stack set-up included.
void BM_SessionParkResume(benchmark::State& state) {
  constexpr int kSessions = 4;
  const int64_t parks = state.range(0);
  auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    SessionScheduler scheduler(7);
    std::vector<std::function<void()>> bodies;
    for (int s = 0; s < kSessions; ++s) {
      bodies.push_back([&scheduler, parks] {
        for (int64_t k = 0; k < parks; ++k) {
          scheduler.ParkUntil([] { return true; });
        }
      });
    }
    scheduler.Run(std::move(bodies));
  }
  std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  int64_t total = state.iterations() * kSessions * parks;
  state.SetItemsProcessed(total);
  state.counters["ns_per_park"] = elapsed.count() / static_cast<double>(total);
}
BENCHMARK(BM_SessionParkResume)->Arg(1000);

void BM_SimulatedPersistentCall(benchmark::State& state) {
  Simulation sim;
  RegisterBenchComponents(sim.factories());
  Machine& ma = sim.AddMachine("ma");
  Process& proc = ma.CreateProcess();
  ExternalClient client(&sim, "ma");
  auto server = client.CreateComponent(proc, "CounterServer", "server",
                                       ComponentKind::kPersistent, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Call(*server, "Add", MakeArgs(int64_t{1})));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_ms_per_call"] =
      sim.clock().NowMs() / static_cast<double>(state.iterations());
}
BENCHMARK(BM_SimulatedPersistentCall);

void BM_CrashRecoveryCycle(benchmark::State& state) {
  Simulation sim;
  RegisterBenchComponents(sim.factories());
  Machine& ma = sim.AddMachine("ma");
  Process& proc = ma.CreateProcess();
  ExternalClient client(&sim, "ma");
  auto server = client.CreateComponent(proc, "CounterServer", "server",
                                       ComponentKind::kPersistent, {});
  for (int i = 0; i < 50; ++i) {
    client.Call(*server, "Add", MakeArgs(int64_t{1})).value();
  }
  for (auto _ : state) {
    proc.Kill();
    benchmark::DoNotOptimize(
        ma.recovery_service().EnsureProcessAlive(proc.pid()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CrashRecoveryCycle);

// The BENCH_*.json artifact must be byte-identical across runs, which
// wall-clock timings are not. So the report comes from a fixed simulated
// workload (same shape as BM_SimulatedPersistentCall / BM_CrashRecoveryCycle)
// whose numbers are all sim-time.
void WriteDeterministicReport() {
  obs::BenchReporter reporter("micro_substrate_bench");

  {
    obs::BenchVariant& variant = reporter.AddVariant("persistent_calls_400");
    Simulation sim;
    RegisterBenchComponents(sim.factories());
    Machine& ma = sim.AddMachine("ma");
    Process& proc = ma.CreateProcess();
    ExternalClient client(&sim, "ma");
    auto server = client.CreateComponent(proc, "CounterServer", "server",
                                         ComponentKind::kPersistent, {});
    for (int i = 0; i < 400; ++i) {
      client.Call(*server, "Add", MakeArgs(int64_t{1})).value();
    }
    sim.CaptureBench(variant);
  }

  {
    obs::BenchVariant& variant = reporter.AddVariant("crash_recovery_cycles_5");
    Simulation sim;
    RegisterBenchComponents(sim.factories());
    Machine& ma = sim.AddMachine("ma");
    Process& proc = ma.CreateProcess();
    ExternalClient client(&sim, "ma");
    auto server = client.CreateComponent(proc, "CounterServer", "server",
                                         ComponentKind::kPersistent, {});
    for (int i = 0; i < 50; ++i) {
      client.Call(*server, "Add", MakeArgs(int64_t{1})).value();
    }
    for (int i = 0; i < 5; ++i) {
      proc.Kill();
      (void)ma.recovery_service().EnsureProcessAlive(proc.pid());
    }
    sim.CaptureBench(variant);
    variant.SetMetric(
        "recoveries",
        sim.metrics().CounterTotal("phoenix.recovery.recoveries"));
  }

  obs::AnnounceReport(reporter);
}

}  // namespace
}  // namespace phoenix::bench

// Custom main instead of benchmark_main: run the wall-clock benchmarks, then
// emit the deterministic sim-time JSON report.
int main(int argc, char** argv) {
  phoenix::obs::InitBenchMain(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  phoenix::bench::WriteDeterministicReport();
  return 0;
}
