#ifndef PHOENIX_OBS_BENCH_REPORTER_H_
#define PHOENIX_OBS_BENCH_REPORTER_H_

// Machine-readable benchmark reporting. Every bench binary serializes its
// run into BENCH_<name>.json with a stable schema ("phoenix.bench.v1"):
//
//   {
//     "schema": "phoenix.bench.v1",
//     "bench": "table4_log_optimizations",
//     "variants": [
//       {
//         "name": "persistent_persistent_optimized_remote",
//         "metrics": {"forces": 928, "appends": 1392, "bytes_forced": ...},
//         "latency_ms": {"count":..., "mean":..., "p50":..., "p95":...,
//                        "p99":..., "min":..., "max":...}
//       }, ...
//     ]
//   }
//
// Variants appear in insertion order; metrics are sorted by name; all
// numbers are deterministic sim-time values, so a same-seed rerun emits a
// byte-identical file.
//
// Reports additionally carry an additive "meta" block after "variants"
// describing every metric that appears in the report — its unit and its
// direction of improvement:
//
//   "meta": {
//     "metrics": {
//       "forces": {"direction": "lower_is_better", "unit": "count"},
//       "recovery_ms": {"direction": "lower_is_better", "unit": "ms"},
//       ...
//     }
//   }
//
// The block is derived metadata only (no measured values live there), so
// adding it never perturbs the measured values that tools/phoenix_benchdiff
// pins against bench/baselines/; the diff uses it to classify cross-run
// deltas as improvements or regressions.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/metrics.h"

namespace phoenix::obs {

inline constexpr char kBenchSchema[] = "phoenix.bench.v1";

// Which way a metric improves: smaller (times, forced writes), larger
// (speedups, contract booleans like state_matches_sequential), or neither —
// workload descriptors and injected-fault counters are "informational" and
// never classify as a regression.
enum class MetricDirection {
  kLowerIsBetter,
  kHigherIsBetter,
  kInformational,
};

// JSON spelling used in the report meta block ("lower_is_better", ...).
const char* MetricDirectionName(MetricDirection direction);

// Inverse of MetricDirectionName. Returns false on unknown spellings.
bool ParseMetricDirection(std::string_view name, MetricDirection* out);

// Unit + direction for one metric.
struct MetricMeta {
  std::string unit;  // "ms", "count", "bytes", "ratio", "bool", "" unknown
  MetricDirection direction = MetricDirection::kInformational;
};

// Built-in metadata for the metric names the benches and report producers
// emit (forces, recovery_ms, ms_per_call, ...). nullptr when unknown.
const MetricMeta* DefaultMetricMeta(const std::string& metric);

// Metadata for an arbitrary metric name: the default table when the name is
// known, otherwise a suffix heuristic (`*_ms*` counts as milliseconds) with
// direction informational.
MetricMeta ResolveMetricMeta(const std::string& metric);

// One measured configuration of a bench (an "algorithm variant").
class BenchVariant {
 public:
  explicit BenchVariant(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  BenchVariant& SetMetric(const std::string& metric, double value);
  BenchVariant& SetMetric(const std::string& metric, uint64_t value);
  BenchVariant& SetMetric(const std::string& metric, int64_t value);

  // Non-numeric annotation (e.g. the flight-recorder dump attached to a
  // violating chaos run). Emitted as an "info" object, sorted by key.
  BenchVariant& SetInfo(const std::string& key, std::string value);

  // Per-call latency distribution for this variant.
  BenchVariant& SetLatency(const Histogram& histogram);
  BenchVariant& SetLatency(const LatencySummary& summary);

  // Metric name -> deterministically formatted number, sorted by name.
  const std::map<std::string, std::string>& metrics() const {
    return metrics_;
  }

  void WriteJson(JsonWriter& w) const;

 private:
  std::string name_;
  std::map<std::string, std::string> metrics_;  // name -> formatted number
  std::map<std::string, std::string> info_;     // key -> free-form string
  bool has_latency_ = false;
  LatencySummary latency_;
};

class BenchReporter {
 public:
  // `schema` tags the report format; benches use the default, other report
  // producers (e.g. the chaos-campaign harness, "phoenix.chaos.v1") pass
  // their own.
  explicit BenchReporter(std::string bench_name,
                         std::string schema = kBenchSchema)
      : bench_name_(std::move(bench_name)), schema_(std::move(schema)) {}

  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;

  const std::string& bench_name() const { return bench_name_; }
  const std::string& schema() const { return schema_; }

  BenchVariant& AddVariant(const std::string& name);
  const std::vector<BenchVariant>& variants() const { return variants_; }

  // Overrides (or supplies, for names the default table doesn't know) the
  // meta-block entry for `metric`. Bench mains only need this for bench-local
  // metrics; everything in CaptureBench and the common sweeps is covered by
  // DefaultMetricMeta.
  BenchReporter& DescribeMetric(const std::string& metric, std::string unit,
                                MetricDirection direction);

  // The meta-block entry that ToJson will emit for `metric`: the DescribeMetric
  // override when present, else ResolveMetricMeta.
  MetricMeta MetaFor(const std::string& metric) const;

  std::string ToJson() const;

  // Writes ToJson() to `path`; empty path means "BENCH_<bench_name>.json"
  // in the current directory. Returns the path written.
  Result<std::string> WriteFile(const std::string& path = "") const;

 private:
  std::string bench_name_;
  std::string schema_;
  std::vector<BenchVariant> variants_;
  std::map<std::string, MetricMeta> metric_meta_;  // DescribeMetric overrides
};

// --- artifact placement ---
//
// Bench binaries historically wrote BENCH_<name>.json into whatever the
// current directory happened to be. Relative artifact paths now resolve
// against an output directory chosen in this order: SetBenchOutDir (the
// --out-dir flag), the PHOENIX_BENCH_DIR environment variable, the current
// directory. Absolute paths pass through untouched.

// Explicit override; wins over PHOENIX_BENCH_DIR. Empty resets to the
// environment/cwd default.
void SetBenchOutDir(std::string dir);

// Resolves a report/trace/flight-dump filename against the output
// directory, creating the directory on first use.
std::string ResolveBenchPath(const std::string& filename);

// Standard bench prologue: consumes --out-dir=DIR from the command line,
// removing it from argv (other arguments are left for the bench — or a
// wrapped framework like google-benchmark — to parse).
void InitBenchMain(int& argc, char** argv);

// Writes the report (WriteFile) and names the artifact on stdout so the
// human-readable table and the JSON stay associated. The single exit path
// every bench binary and report producer goes through.
void AnnounceReport(const BenchReporter& reporter, const std::string& path = "");

}  // namespace phoenix::obs

#endif  // PHOENIX_OBS_BENCH_REPORTER_H_
