#include "obs/bench_reporter.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <unordered_map>

namespace phoenix::obs {
namespace {

// "" means unset; resolution falls through to PHOENIX_BENCH_DIR, then cwd.
std::string& OutDirOverride() {
  static std::string dir;
  return dir;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace

const char* MetricDirectionName(MetricDirection direction) {
  switch (direction) {
    case MetricDirection::kLowerIsBetter:
      return "lower_is_better";
    case MetricDirection::kHigherIsBetter:
      return "higher_is_better";
    case MetricDirection::kInformational:
      return "informational";
  }
  return "informational";
}

bool ParseMetricDirection(std::string_view name, MetricDirection* out) {
  if (name == "lower_is_better") {
    *out = MetricDirection::kLowerIsBetter;
  } else if (name == "higher_is_better") {
    *out = MetricDirection::kHigherIsBetter;
  } else if (name == "informational") {
    *out = MetricDirection::kInformational;
  } else {
    return false;
  }
  return true;
}

const MetricMeta* DefaultMetricMeta(const std::string& metric) {
  // Direction calls follow the paper's economics: forced log writes and
  // per-call / recovery latencies shrink as the optimizations land, contract
  // booleans (state_matches_*) and speedups grow, and workload descriptors
  // (sessions, pairs, seeds) or injected-fault tallies carry no direction.
  static const std::unordered_map<std::string, MetricMeta> kTable = {
      // Forced-write economics (Tables 4-6, figure 9).
      {"forces", {"count", MetricDirection::kLowerIsBetter}},
      {"appends", {"count", MetricDirection::kLowerIsBetter}},
      {"bytes_forced", {"bytes", MetricDirection::kLowerIsBetter}},
      {"forced_bytes_per_call", {"bytes", MetricDirection::kLowerIsBetter}},
      {"forces_per_call", {"ratio", MetricDirection::kLowerIsBetter}},
      {"grabber_forces", {"count", MetricDirection::kLowerIsBetter}},
      {"session_forces", {"count", MetricDirection::kLowerIsBetter}},
      {"state_saves", {"count", MetricDirection::kInformational}},
      // Log-head truncation: the stable log a recovery may scan.
      {"retained_log_bytes", {"bytes", MetricDirection::kLowerIsBetter}},
      {"bytes_reclaimed", {"bytes", MetricDirection::kInformational}},
      // phoenix.checkpoint.origin_relogs: read-only / functional contexts
      // whose origin a checkpoint relogged so it stops pinning the head.
      {"origin_relogs", {"count", MetricDirection::kInformational}},
      // Latencies.
      {"per_call_ms", {"ms", MetricDirection::kLowerIsBetter}},
      {"per_iteration_ms", {"ms", MetricDirection::kLowerIsBetter}},
      {"ms_per_call", {"ms", MetricDirection::kLowerIsBetter}},
      {"session_ms", {"ms", MetricDirection::kLowerIsBetter}},
      {"workload_ms", {"ms", MetricDirection::kLowerIsBetter}},
      {"search_ms", {"ms", MetricDirection::kLowerIsBetter}},
      {"delay_ms", {"ms", MetricDirection::kLowerIsBetter}},
      {"sim_time_ms", {"ms", MetricDirection::kLowerIsBetter}},
      {"rotational_wait_ms", {"ms", MetricDirection::kLowerIsBetter}},
      // Durability-wait attribution.
      {"park_ms_total", {"ms", MetricDirection::kLowerIsBetter}},
      {"park_ms_per_call", {"ms", MetricDirection::kLowerIsBetter}},
      {"own_force_wait_ms_total", {"ms", MetricDirection::kLowerIsBetter}},
      {"own_force_wait_ms_per_call", {"ms", MetricDirection::kLowerIsBetter}},
      {"park_waits", {"count", MetricDirection::kInformational}},
      // Group commit: batch shape is a policy trade-off, not a score.
      {"group_flushes", {"count", MetricDirection::kInformational}},
      {"group_coalesced", {"count", MetricDirection::kInformational}},
      {"group_commit_flushes", {"count", MetricDirection::kInformational}},
      {"group_commit_coalesced", {"count", MetricDirection::kInformational}},
      {"group_commit_runs", {"count", MetricDirection::kInformational}},
      {"group_batch_mean", {"count", MetricDirection::kInformational}},
      {"group_batch_max", {"count", MetricDirection::kInformational}},
      // Recovery (Table 7) and the replay planner/engine.
      {"recovery_ms", {"ms", MetricDirection::kLowerIsBetter}},
      // phoenix.recovery.restore.makespan_ms: the redo phase's restores.
      {"restore_makespan_ms", {"ms", MetricDirection::kLowerIsBetter}},
      {"recoveries", {"count", MetricDirection::kInformational}},
      {"records_scanned", {"count", MetricDirection::kInformational}},
      {"calls_replayed", {"count", MetricDirection::kInformational}},
      {"replay_chains", {"count", MetricDirection::kInformational}},
      {"replay_edges", {"count", MetricDirection::kInformational}},
      {"replay_sessions", {"count", MetricDirection::kInformational}},
      {"replay_fallbacks", {"count", MetricDirection::kLowerIsBetter}},
      {"replay_chains_demoted", {"count", MetricDirection::kLowerIsBetter}},
      {"salvaged_parallel_replays",
       {"count", MetricDirection::kHigherIsBetter}},
      {"speedup_vs_sequential", {"ratio", MetricDirection::kHigherIsBetter}},
      {"ratio_vs_unsalvaged_parallel",
       {"ratio", MetricDirection::kLowerIsBetter}},
      // Correctness contracts: 1 means the invariant held.
      {"state_matches_sequential", {"bool", MetricDirection::kHigherIsBetter}},
      {"state_matches_single_log", {"bool", MetricDirection::kHigherIsBetter}},
      {"state_matches_oracle", {"bool", MetricDirection::kHigherIsBetter}},
      {"divergences", {"count", MetricDirection::kLowerIsBetter}},
      {"oracle_mismatches", {"count", MetricDirection::kLowerIsBetter}},
      {"pinned_divergences", {"count", MetricDirection::kLowerIsBetter}},
      {"state_hash_divergences", {"count", MetricDirection::kLowerIsBetter}},
      {"violations", {"count", MetricDirection::kLowerIsBetter}},
      {"merge_inversions", {"count", MetricDirection::kLowerIsBetter}},
      {"merge_records", {"count", MetricDirection::kInformational}},
      // Supervisor / degradation ladder: giving up or cold-starting loses
      // data, so fewer is strictly better.
      {"supervisor_attempts", {"count", MetricDirection::kInformational}},
      {"supervisor_gave_up", {"count", MetricDirection::kLowerIsBetter}},
      {"cold_starts", {"count", MetricDirection::kLowerIsBetter}},
      {"degraded_mode_attempts", {"count", MetricDirection::kInformational}},
      // Workload descriptors and sweep coordinates.
      {"sessions", {"count", MetricDirection::kInformational}},
      {"sessions_per_run", {"count", MetricDirection::kInformational}},
      {"sessions_total", {"count", MetricDirection::kInformational}},
      {"calls", {"count", MetricDirection::kInformational}},
      {"calls_routed", {"count", MetricDirection::kInformational}},
      {"pairs", {"count", MetricDirection::kInformational}},
      {"runs", {"count", MetricDirection::kInformational}},
      {"run", {"id", MetricDirection::kInformational}},
      {"seed", {"id", MetricDirection::kInformational}},
      {"interval", {"count", MetricDirection::kInformational}},
      {"stores", {"count", MetricDirection::kInformational}},
      {"reply_bytes", {"bytes", MetricDirection::kInformational}},
      {"max_batch", {"count", MetricDirection::kInformational}},
      {"max_wait_ms", {"ms", MetricDirection::kInformational}},
      {"max_overlap", {"count", MetricDirection::kInformational}},
      {"wal_shards", {"count", MetricDirection::kInformational}},
      {"concurrent_runs", {"count", MetricDirection::kInformational}},
      {"parallel_replay_runs", {"count", MetricDirection::kInformational}},
      {"depth1_runs", {"count", MetricDirection::kInformational}},
      {"depth2_runs", {"count", MetricDirection::kInformational}},
      {"depth3_runs", {"count", MetricDirection::kInformational}},
      // Injected-fault tallies: the campaign chooses these, the system
      // doesn't earn them.
      {"crashes_fired", {"count", MetricDirection::kInformational}},
      {"recovery_crashes_fired", {"count", MetricDirection::kInformational}},
      {"crashes_at_analysis", {"count", MetricDirection::kInformational}},
      {"crashes_at_restore", {"count", MetricDirection::kInformational}},
      {"crashes_between_units", {"count", MetricDirection::kInformational}},
      {"crashes_at_endlog_flush", {"count", MetricDirection::kInformational}},
      {"storage_attack_runs", {"count", MetricDirection::kInformational}},
      {"storage_attacks_applied", {"count", MetricDirection::kInformational}},
      {"net_messages_dropped", {"count", MetricDirection::kInformational}},
      {"net_messages_duplicated", {"count", MetricDirection::kInformational}},
      {"torn_tails_injected", {"count", MetricDirection::kInformational}},
      {"torn_tails_salvaged", {"count", MetricDirection::kInformational}},
      {"salvage_ranges_skipped", {"count", MetricDirection::kInformational}},
      {"salvage_full_scan_fallbacks",
       {"count", MetricDirection::kInformational}},
      {"salvage_state_record_fallbacks",
       {"count", MetricDirection::kInformational}},
      {"salvage_wkf_fallbacks", {"count", MetricDirection::kInformational}},
      {"interceptor_retries", {"count", MetricDirection::kInformational}},
      {"dedupe_hits", {"count", MetricDirection::kInformational}},
      // phoenix.intercept.same_log_sends: sends and replies whose force the
      // shared log made unnecessary — where forces went, not a score.
      {"same_log_sends", {"count", MetricDirection::kInformational}},
      {"wov_duplicate_executions", {"count", MetricDirection::kInformational}},
  };
  auto it = kTable.find(metric);
  return it == kTable.end() ? nullptr : &it->second;
}

MetricMeta ResolveMetricMeta(const std::string& metric) {
  if (const MetricMeta* meta = DefaultMetricMeta(metric)) return *meta;
  MetricMeta meta;
  if (EndsWith(metric, "_ms") || EndsWith(metric, "_ms_total") ||
      EndsWith(metric, "_ms_per_call")) {
    meta.unit = "ms";
  }
  return meta;
}

void SetBenchOutDir(std::string dir) { OutDirOverride() = std::move(dir); }

std::string ResolveBenchPath(const std::string& filename) {
  if (!filename.empty() && filename.front() == '/') return filename;
  std::string dir = OutDirOverride();
  if (dir.empty()) {
    const char* env = std::getenv("PHOENIX_BENCH_DIR");
    if (env != nullptr) dir = env;
  }
  if (dir.empty()) {
    // Never litter a source checkout: when a bench (or chaos/trace tool) is
    // launched from a repo root with no --out-dir / PHOENIX_BENCH_DIR, its
    // artifacts land in bench_out/ instead of the repo root.
    std::error_code ec;
    if (std::filesystem::exists(".git", ec)) dir = "bench_out";
  }
  if (dir.empty()) return filename;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort; open reports
  while (dir.size() > 1 && dir.back() == '/') dir.pop_back();
  return dir + "/" + filename;
}

void InitBenchMain(int& argc, char** argv) {
  constexpr char kPrefix[] = "--out-dir=";
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kPrefix, sizeof(kPrefix) - 1) == 0) {
      SetBenchOutDir(argv[i] + sizeof(kPrefix) - 1);
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  argv[argc] = nullptr;
}

BenchVariant& BenchVariant::SetMetric(const std::string& metric,
                                      double value) {
  metrics_[metric] = JsonNumber(value);
  return *this;
}

BenchVariant& BenchVariant::SetMetric(const std::string& metric,
                                      uint64_t value) {
  metrics_[metric] = JsonNumber(value);
  return *this;
}

BenchVariant& BenchVariant::SetMetric(const std::string& metric,
                                      int64_t value) {
  metrics_[metric] = JsonNumber(value);
  return *this;
}

BenchVariant& BenchVariant::SetInfo(const std::string& key,
                                    std::string value) {
  info_[key] = std::move(value);
  return *this;
}

BenchVariant& BenchVariant::SetLatency(const Histogram& histogram) {
  return SetLatency(Summarize(histogram));
}

BenchVariant& BenchVariant::SetLatency(const LatencySummary& summary) {
  has_latency_ = true;
  latency_ = summary;
  return *this;
}

void BenchVariant::WriteJson(JsonWriter& w) const {
  w.BeginObject();
  w.Key("name").String(name_);
  w.Key("metrics").BeginObject();
  for (const auto& [metric, value] : metrics_) {
    w.Key(metric).Raw(value);
  }
  w.EndObject();
  if (!info_.empty()) {
    w.Key("info").BeginObject();
    for (const auto& [key, value] : info_) {
      w.Key(key).String(value);
    }
    w.EndObject();
  }
  if (has_latency_) {
    w.Key("latency_ms").BeginObject();
    WriteLatencySummaryJson(w, latency_);
    w.EndObject();
  }
  w.EndObject();
}

BenchVariant& BenchReporter::AddVariant(const std::string& name) {
  variants_.emplace_back(name);
  return variants_.back();
}

BenchReporter& BenchReporter::DescribeMetric(const std::string& metric,
                                             std::string unit,
                                             MetricDirection direction) {
  metric_meta_[metric] = MetricMeta{std::move(unit), direction};
  return *this;
}

MetricMeta BenchReporter::MetaFor(const std::string& metric) const {
  auto it = metric_meta_.find(metric);
  if (it != metric_meta_.end()) return it->second;
  return ResolveMetricMeta(metric);
}

std::string BenchReporter::ToJson() const {
  JsonWriter w(/*indent=*/2);
  w.BeginObject();
  w.Key("schema").String(schema_);
  w.Key("bench").String(bench_name_);
  w.Key("variants").BeginArray();
  for (const BenchVariant& variant : variants_) {
    variant.WriteJson(w);
  }
  w.EndArray();
  // Additive meta block: unit + direction for the union of metric names
  // across all variants, sorted. Derived metadata only — phoenix_benchdiff
  // pins the measured values above, which this block never touches.
  std::set<std::string> names;
  for (const BenchVariant& variant : variants_) {
    for (const auto& [metric, value] : variant.metrics()) names.insert(metric);
  }
  if (!names.empty()) {
    w.Key("meta").BeginObject();
    w.Key("metrics").BeginObject();
    for (const std::string& metric : names) {
      MetricMeta meta = MetaFor(metric);
      w.Key(metric).BeginObject();
      w.Key("direction").String(MetricDirectionName(meta.direction));
      w.Key("unit").String(meta.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndObject();
  return w.str() + "\n";
}

Result<std::string> BenchReporter::WriteFile(const std::string& path) const {
  std::string target =
      ResolveBenchPath(path.empty() ? "BENCH_" + bench_name_ + ".json" : path);
  std::FILE* f = std::fopen(target.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open " + target + " for writing");
  }
  std::string json = ToJson();
  size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::Internal("short write to " + target);
  }
  return target;
}

void AnnounceReport(const BenchReporter& reporter, const std::string& path) {
  Result<std::string> written = reporter.WriteFile(path);
  if (written.ok()) {
    std::printf("\nbench report: %s\n", written->c_str());
  } else {
    std::printf("\nbench report FAILED: %s\n",
                written.status().ToString().c_str());
  }
}

}  // namespace phoenix::obs
