#ifndef PHOENIX_OBS_BENCHDIFF_H_
#define PHOENIX_OBS_BENCHDIFF_H_

// Cross-run performance sentinel. Loads two trees of phoenix.bench.v1
// reports — a committed baseline (bench/baselines/) and a fresh candidate
// run — aligns benches, variants and metrics, and classifies every delta as
// improvement / regression / neutral / new / removed using each metric's
// direction metadata (the report meta block, falling back to the built-in
// table) and a per-metric tolerance band. On top of the diff it evaluates
// declarative SLO budgets (bench/slo.json) and maintains the bench history
// ledger (bench/history.json): one row of headline metrics per PR.
//
// Everything here is a pure function of its inputs: same report trees, same
// phoenix.benchdiff.v1 bytes, so CI can cmp two runs of the sentinel.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "obs/bench_reporter.h"

namespace phoenix::obs {

inline constexpr char kBenchDiffSchema[] = "phoenix.benchdiff.v1";
inline constexpr char kSloSchema[] = "phoenix.slo.v1";
inline constexpr char kHistorySchema[] = "phoenix.history.v1";

// --- parsed bench reports ------------------------------------------------

struct ParsedVariant {
  std::string name;
  std::map<std::string, double> metrics;  // sorted by name, parsed values
};

struct ParsedReport {
  std::string bench;
  std::string schema;
  std::vector<ParsedVariant> variants;          // file order
  std::map<std::string, MetricMeta> meta;       // from the report meta block
};

// Parses one phoenix.bench.v1 (or schema-compatible) document.
Result<ParsedReport> ParseBenchReport(std::string_view text);

// Loads every BENCH_*.json directly inside `dir`, sorted by filename so the
// result (and everything derived from it) is deterministic. A missing or
// empty directory is an error: a sentinel silently diffing against nothing
// would pass every gate.
Result<std::vector<ParsedReport>> LoadBenchReportDir(const std::string& dir);

// --- delta classification ------------------------------------------------

enum class DeltaClass { kImprovement, kRegression, kNeutral, kNew, kRemoved };

const char* DeltaClassName(DeltaClass cls);

// A delta with |candidate - baseline| <= max(abs, rel * |baseline|) is
// neutral; only deltas beyond the band classify by direction.
struct ToleranceBand {
  double abs = 0;
  double rel = 0;  // fraction of |baseline|, not percent
};

struct DiffOptions {
  ToleranceBand default_band;                        // exact by default
  std::map<std::string, ToleranceBand> metric_band;  // per metric name
};

DeltaClass ClassifyDelta(double baseline, double candidate,
                         MetricDirection direction, const ToleranceBand& band);

struct MetricDelta {
  std::string metric;
  MetricMeta meta;
  DeltaClass cls = DeltaClass::kNeutral;
  bool in_baseline = false;
  bool in_candidate = false;
  double baseline = 0;
  double candidate = 0;
  double delta = 0;      // candidate - baseline (both present)
  double delta_rel = 0;  // delta / |baseline| (0 when baseline == 0)
  bool moved = false;    // both present and outside the band, any direction
};

struct VariantDiff {
  std::string name;
  DeltaClass cls = DeltaClass::kNeutral;  // kNew / kRemoved when unmatched
  std::vector<MetricDelta> metrics;
};

struct BenchDiffEntry {
  std::string bench;
  DeltaClass cls = DeltaClass::kNeutral;  // kNew / kRemoved when unmatched
  std::vector<VariantDiff> variants;
};

// --- budgets (shared by the SLO table and phoenix_prof --budget-ms) ------

struct Budget {
  std::string key;  // "bench/variant.metric" for SLOs, a phase for prof
  double max = 0;
};

struct BudgetOutcome {
  Budget budget;
  double value = 0;
  bool present = false;   // key found in `values`
  bool violated = false;  // present && value > max
};

// Evaluates each budget against `values`; outcomes keep budget order.
// Missing keys report present=false, violated=false — the caller decides
// whether absence is a failure (the SLO gate: yes; prof phase budgets: an
// absent phase spent 0 ms and trivially passes).
std::vector<BudgetOutcome> CheckBudgets(
    const std::map<std::string, double>& values,
    const std::vector<Budget>& budgets);

// --- SLO config (bench/slo.json, schema phoenix.slo.v1) ------------------

struct SloConfig {
  // Budget keys are "bench/variant.metric"; max is the inclusive ceiling.
  std::vector<Budget> budgets;
  // Extra tolerance per metric name, merged into DiffOptions::metric_band.
  std::map<std::string, ToleranceBand> tolerances;
  // "bench/variant.metric" keys recorded per PR in the history ledger.
  std::vector<std::string> headlines;
};

Result<SloConfig> ParseSloConfig(std::string_view text);

// Flattens candidate reports to "bench/variant.metric" -> value.
std::map<std::string, double> FlattenMetrics(
    const std::vector<ParsedReport>& reports);

// --- the diff itself -----------------------------------------------------

struct BenchDiff {
  std::vector<BenchDiffEntry> benches;  // sorted by bench name
  std::vector<BudgetOutcome> slo;       // budget order; empty without config
  // Metric-level tallies (metrics of new/removed variants and benches count
  // under added/removed).
  uint64_t improvements = 0;
  uint64_t regressions = 0;
  uint64_t neutral = 0;
  uint64_t added = 0;
  uint64_t removed = 0;
  uint64_t slo_checked = 0;
  uint64_t slo_violations = 0;  // violated or required metric missing
  uint64_t moved = 0;  // matched metrics outside their band, any direction

  // The CI gate pins the baselines: the benches are deterministic, so any
  // out-of-band move (a regression, an improvement or an informational
  // metric), any new or removed metric and any SLO violation fails until
  // a deliberate change re-baselines them.
  bool GateFails() const {
    return moved > 0 || added > 0 || removed > 0 || slo_violations > 0;
  }
};

BenchDiff DiffBenchReports(const std::vector<ParsedReport>& baseline,
                           const std::vector<ParsedReport>& candidate,
                           const DiffOptions& options);

// Evaluates `config` budgets against `candidate` and fills diff->slo /
// slo_checked / slo_violations. A budget whose metric is absent from the
// candidate counts as a violation.
void CheckSlo(const SloConfig& config,
              const std::vector<ParsedReport>& candidate, BenchDiff* diff);

// Machine-readable report (schema phoenix.benchdiff.v1), pretty-printed,
// deterministic. Labels name the two trees (typically the directories).
std::string BenchDiffToJson(const BenchDiff& diff,
                            const std::string& baseline_label,
                            const std::string& candidate_label);

// Human-readable markdown: summary counts, the SLO table, and every
// non-neutral delta.
std::string BenchDiffToMarkdown(const BenchDiff& diff,
                                const std::string& baseline_label,
                                const std::string& candidate_label);

// --- history ledger (bench/history.json, schema phoenix.history.v1) ------

// Returns `history_text` (or a fresh ledger when empty) with the row labeled
// `label` appended — or replaced in place, so re-running the sentinel for
// the same PR is idempotent. The row holds every headline key present in
// `candidate`, sorted.
Result<std::string> UpdateHistory(std::string_view history_text,
                                  const std::string& label,
                                  const std::vector<std::string>& headlines,
                                  const std::vector<ParsedReport>& candidate);

}  // namespace phoenix::obs

#endif  // PHOENIX_OBS_BENCHDIFF_H_
