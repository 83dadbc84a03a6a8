#ifndef PHOENIX_BENCHMARK_E2E_H_
#define PHOENIX_BENCHMARK_E2E_H_

// Shared declarations of the end-to-end benchmark (phoenix_e2e): the
// benchmark's own host-time spans, the driver-side record of a run, the
// workload interface the harness in phoenix_e2e.cc drives, and the
// per-layer metrics of layers.cc.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/phoenix.h"

namespace phoenix::e2e {

// Host time is the CPU time of the benchmark process, in seconds: the
// simulator's own cost, and the clock least disturbed by other work on the
// machine. Session threads run one at a time, so it is not inflated by
// parallelism.
double HostSeconds();

// Host-time spans the benchmark records around its own calls into a layer's
// public functions (the program itself is not instrumented). Kept in
// memory; written as JSON when the run ends. Parents are explicit because
// session bodies interleave and a per-thread stack would misattribute.
class HostTracer {
 public:
  struct Span {
    uint32_t id = 0;
    uint32_t parent = 0;
    const char* name = "";
    double start_us = 0;
    double end_us = 0;
  };

  HostTracer() : origin_s_(HostSeconds()) {}

  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Opens a span and returns its id (0, and nothing recorded, when
  // disabled). `name` must be a string literal.
  uint32_t Begin(const char* name, uint32_t parent);
  void End(uint32_t id);

  // Times the enclosing scope.
  class Scope {
   public:
    Scope(HostTracer& tracer, const char* name, uint32_t parent)
        : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostTracer& tracer_;
    uint32_t id_;
  };

  // Total duration (microseconds) and count of the spans named `name`.
  std::pair<double, uint64_t> Total(const std::string& name) const;

  std::string ToJson(const std::string& workload, uint64_t seed) const;

 private:
  double NowUs() const;

  bool enabled_ = false;
  double origin_s_;
  std::vector<Span> spans_;
};

// Everything the driver observes during one run. Times are sim time unless
// named host_*.
struct RunRecord {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::vector<double> call_ms;
  // Driver-initiated restarts: Kill until EnsureProcessAlive returns OK.
  std::vector<double> recovery_ms;
  std::vector<double> host_recovery_ms;
  std::vector<std::pair<double, double>> restart_windows_ms;
  std::vector<uint64_t> retained_bytes_at_crash;
  // Retained stable log over all processes, summed over one sample after
  // every driver call.
  double retained_bytes_sum = 0;
  uint64_t retained_samples = 0;
  // Time the oracle's own calls took; kept out of throughput.
  double oracle_sim_ms = 0;
  double oracle_host_s = 0;
};

struct WorkloadParams {
  uint64_t seed = 2026;
  bool trace = false;
};

// One workload: a deployment, a closed-loop driver, and a driver-side model
// the oracle checks the system against.
class Workload {
 public:
  Workload(WorkloadParams params, HostTracer& host)
      : params_(params), host_(host), rng_(params.seed * 1000003 + 7) {}
  virtual ~Workload() = default;

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Builds the simulation and the deployment, then warms up with a fixed
  // number of driver calls, which also finishes lazy set-up such as the
  // bookstore's per-buyer baskets.
  virtual void Setup() = 0;
  // Runs the next `n` driver calls.
  virtual void RunOps(uint64_t n, uint32_t host_parent) = 0;
  // The process the harness crashes and restarts at the end of every slice.
  virtual Process& RestartTarget() = 0;

  Simulation& sim() { return *sim_; }
  RunRecord& record() { return record_; }
  const std::vector<Process*>& processes() const { return processes_; }
  // Stable-log bytes appended since the logs began (their logical ends),
  // over every process and shard.
  uint64_t AppendedLogBytes();

  // Kills `process`, restarts it through its machine's recovery service,
  // records the sim and host time until it serves again, and runs the
  // oracle.
  void Restart(Process& process, uint32_t host_parent);

 protected:
  // Compares the driver model with the system; counts mismatches.
  virtual void Verify() = 0;
  // Runs Verify with its cost kept out of the run's throughput.
  void VerifyUntimed();

  void MakeSim(RuntimeOptions options);
  // Samples the retained stable log; called after every driver call.
  void SampleRetained();

  WorkloadParams params_;
  HostTracer& host_;
  Random rng_;
  std::unique_ptr<Simulation> sim_;
  std::vector<Process*> processes_;
  RunRecord record_;
};

struct WorkloadSpec {
  const char* name;
  double calls_per_second;  // driver calls per second of --seconds
  std::unique_ptr<Workload> (*make)(WorkloadParams params, HostTracer& host);
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// Stable-log bytes of `process` not yet garbage-collected, over its shards.
uint64_t RetainedBytes(Simulation& sim, Process& process);

// --- per-layer metrics (layers.cc) ---

// `kind` says how a metric is measured: "sim" metrics are read off the
// simulated clock and counters and are exact for a seed and a size; "host"
// metrics are CPU time or memory of the benchmark process.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string kind = "sim";
};

// Sim-time split of a traced run, accumulated slice by slice.
struct TraceSplit {
  // obs::BuildProfile buckets of the spans inside call chains.
  std::map<std::string, double> chained_ms;
  // Summed over "recover" spans: their analysis / redo / replay children,
  // contexts created by replayed creation records, contexts restored from
  // state records.
  std::map<std::string, double> recovery_phase_ms;
  uint64_t recover_spans = 0;
  double contexts_created = 0;
  double contexts_restored = 0;
  // "recover" span time inside driver-initiated restarts.
  double recover_ms_in_restarts = 0;
};

// Harvests the tracer's events into `split` and clears them, so a traced
// run holds one slice of events at a time.
void HarvestTrace(Simulation& sim, const RunRecord& record, TraceSplit& split);

// Counter, gauge and histogram totals read off the metrics registry.
std::map<std::string, double> RegistryTotals(const Simulation& sim);

// Work done by TimeLogLayers, the denominators of its host times.
struct LogLayerCounts {
  uint64_t crc_bytes = 0;
  uint64_t scan_records = 0;
  uint64_t merge_records = 0;
  uint64_t codec_records = 0;
  uint64_t decode_errors = 0;
  uint64_t plans = 0;
};

// Runs the layers' own functions (CRC, log scan, shard merge, codec, replay
// planning) over the stable logs of `processes`, timing each with a host
// span under `parent`.
LogLayerCounts TimeLogLayers(const std::vector<Process*>& processes,
                             HostTracer& host, uint32_t parent);

// What one run measured (phoenix_e2e.cc runs it).
struct Outcome {
  RunRecord record;
  std::vector<double> setup_s;
  double peak_rss_mb = 0;  // when the timed phase ended
  std::vector<double> slice_calls_per_s;
  double host_timed_s = 0;
  double sim_timed_ms = 0;
  uint64_t log_bytes = 0;     // appended during the timed phase
  double retained_bytes = 0;  // mean over the timed phase's calls
  // Registry totals at the start and end of the timed phase.
  std::map<std::string, double> before, after;
  // Traced runs only.
  TraceSplit split;
  LogLayerCounts logs;
};

// The per-layer metrics of a traced run whose host spans are in `host`.
std::vector<Metric> LayerMetrics(const Outcome& traced, const HostTracer& host,
                                 double trace_overhead_pct);

}  // namespace phoenix::e2e

#endif  // PHOENIX_BENCHMARK_E2E_H_
