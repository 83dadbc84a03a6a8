#include "obs/benchdiff.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#include "common/strings.h"
#include "obs/json.h"

namespace phoenix::obs {
namespace {

Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  return content;
}

// Resolution order for a metric's meta: the candidate report's meta block
// (authoritative — it came from the code under test), the baseline's (still
// present after a metric is removed), then the built-in table.
MetricMeta MetaForMetric(const ParsedReport* baseline,
                         const ParsedReport* candidate,
                         const std::string& metric) {
  if (candidate != nullptr) {
    auto it = candidate->meta.find(metric);
    if (it != candidate->meta.end()) return it->second;
  }
  if (baseline != nullptr) {
    auto it = baseline->meta.find(metric);
    if (it != baseline->meta.end()) return it->second;
  }
  return ResolveMetricMeta(metric);
}

bool OutOfBand(double baseline, double candidate, const ToleranceBand& band) {
  double allowance = std::max(band.abs, band.rel * std::fabs(baseline));
  return std::fabs(candidate - baseline) > allowance;
}

const ToleranceBand& BandFor(const DiffOptions& options,
                             const std::string& metric) {
  auto it = options.metric_band.find(metric);
  return it == options.metric_band.end() ? options.default_band : it->second;
}

// One-sided metric entry (new or removed): still carries its value so the
// report shows what appeared/disappeared.
MetricDelta OneSidedDelta(const std::string& metric, const MetricMeta& meta,
                          double value, bool in_candidate) {
  MetricDelta d;
  d.metric = metric;
  d.meta = meta;
  d.cls = in_candidate ? DeltaClass::kNew : DeltaClass::kRemoved;
  d.in_baseline = !in_candidate;
  d.in_candidate = in_candidate;
  (in_candidate ? d.candidate : d.baseline) = value;
  return d;
}

VariantDiff OneSidedVariant(const ParsedReport* baseline,
                            const ParsedReport* candidate,
                            const ParsedVariant& variant, bool in_candidate) {
  VariantDiff vd;
  vd.name = variant.name;
  vd.cls = in_candidate ? DeltaClass::kNew : DeltaClass::kRemoved;
  for (const auto& [metric, value] : variant.metrics) {
    vd.metrics.push_back(OneSidedDelta(
        metric, MetaForMetric(baseline, candidate, metric), value,
        in_candidate));
  }
  return vd;
}

VariantDiff DiffVariant(const ParsedReport* base_report,
                        const ParsedReport* cand_report,
                        const ParsedVariant& base, const ParsedVariant& cand,
                        const DiffOptions& options) {
  VariantDiff vd;
  vd.name = base.name;
  auto bi = base.metrics.begin();
  auto ci = cand.metrics.begin();
  while (bi != base.metrics.end() || ci != cand.metrics.end()) {
    int order = bi == base.metrics.end()   ? 1
                : ci == cand.metrics.end() ? -1
                : bi->first.compare(ci->first) < 0 ? -1
                : bi->first == ci->first           ? 0
                                                   : 1;
    if (order < 0) {
      vd.metrics.push_back(OneSidedDelta(
          bi->first, MetaForMetric(base_report, cand_report, bi->first),
          bi->second, /*in_candidate=*/false));
      ++bi;
    } else if (order > 0) {
      vd.metrics.push_back(OneSidedDelta(
          ci->first, MetaForMetric(base_report, cand_report, ci->first),
          ci->second, /*in_candidate=*/true));
      ++ci;
    } else {
      MetricDelta d;
      d.metric = bi->first;
      d.meta = MetaForMetric(base_report, cand_report, d.metric);
      d.in_baseline = d.in_candidate = true;
      d.baseline = bi->second;
      d.candidate = ci->second;
      d.delta = d.candidate - d.baseline;
      d.delta_rel = d.baseline == 0 ? 0 : d.delta / std::fabs(d.baseline);
      const ToleranceBand& band = BandFor(options, d.metric);
      d.cls = ClassifyDelta(d.baseline, d.candidate, d.meta.direction, band);
      d.moved = OutOfBand(d.baseline, d.candidate, band);
      vd.metrics.push_back(std::move(d));
      ++bi;
      ++ci;
    }
  }
  return vd;
}

BenchDiffEntry DiffBench(const ParsedReport* base, const ParsedReport* cand,
                         const DiffOptions& options) {
  BenchDiffEntry entry;
  entry.bench = base != nullptr ? base->bench : cand->bench;
  if (base == nullptr || cand == nullptr) {
    entry.cls = cand != nullptr ? DeltaClass::kNew : DeltaClass::kRemoved;
    const ParsedReport* present = base != nullptr ? base : cand;
    for (const ParsedVariant& v : present->variants) {
      entry.variants.push_back(
          OneSidedVariant(base, cand, v, /*in_candidate=*/cand != nullptr));
    }
    return entry;
  }
  std::map<std::string, const ParsedVariant*> cand_by_name;
  for (const ParsedVariant& v : cand->variants) cand_by_name[v.name] = &v;
  std::set<std::string> matched;
  // Baseline order first (matched + removed), then candidate-only variants
  // in candidate order: stable under re-runs, natural to read.
  for (const ParsedVariant& v : base->variants) {
    auto it = cand_by_name.find(v.name);
    if (it == cand_by_name.end()) {
      entry.variants.push_back(
          OneSidedVariant(base, cand, v, /*in_candidate=*/false));
    } else {
      matched.insert(v.name);
      entry.variants.push_back(DiffVariant(base, cand, v, *it->second,
                                           options));
    }
  }
  for (const ParsedVariant& v : cand->variants) {
    if (matched.count(v.name) == 0 &&
        std::none_of(base->variants.begin(), base->variants.end(),
                     [&](const ParsedVariant& b) { return b.name == v.name; })) {
      entry.variants.push_back(
          OneSidedVariant(base, cand, v, /*in_candidate=*/true));
    }
  }
  return entry;
}

void CountDeltas(const BenchDiffEntry& entry, BenchDiff* diff) {
  for (const VariantDiff& vd : entry.variants) {
    for (const MetricDelta& d : vd.metrics) {
      if (d.moved) ++diff->moved;
      switch (d.cls) {
        case DeltaClass::kImprovement:
          ++diff->improvements;
          break;
        case DeltaClass::kRegression:
          ++diff->regressions;
          break;
        case DeltaClass::kNeutral:
          ++diff->neutral;
          break;
        case DeltaClass::kNew:
          ++diff->added;
          break;
        case DeltaClass::kRemoved:
          ++diff->removed;
          break;
      }
    }
  }
}

Result<ToleranceBand> ParseBand(const JsonValue& value) {
  ToleranceBand band;
  if (const JsonValue* abs = value.Find("abs")) band.abs = abs->AsNumber();
  if (const JsonValue* rel = value.Find("rel_pct")) {
    band.rel = rel->AsNumber() / 100.0;
  }
  if (band.abs < 0 || band.rel < 0) {
    return Status::InvalidArgument("negative tolerance band");
  }
  return band;
}

}  // namespace

const char* DeltaClassName(DeltaClass cls) {
  switch (cls) {
    case DeltaClass::kImprovement:
      return "improvement";
    case DeltaClass::kRegression:
      return "regression";
    case DeltaClass::kNeutral:
      return "neutral";
    case DeltaClass::kNew:
      return "new";
    case DeltaClass::kRemoved:
      return "removed";
  }
  return "neutral";
}

Result<ParsedReport> ParseBenchReport(std::string_view text) {
  Result<JsonValue> parsed = ParseJson(text);
  if (!parsed.ok()) return parsed.status();
  ParsedReport report;
  const JsonValue* bench = parsed->Find("bench");
  if (bench == nullptr || bench->kind() != JsonValue::Kind::kString) {
    return Status::InvalidArgument("bench report missing \"bench\" name");
  }
  report.bench = bench->AsString();
  if (const JsonValue* schema = parsed->Find("schema")) {
    report.schema = schema->AsString();
  }
  const JsonValue* variants = parsed->Find("variants");
  if (variants == nullptr || variants->kind() != JsonValue::Kind::kArray) {
    return Status::InvalidArgument("bench report missing \"variants\"");
  }
  for (const JsonValue& v : variants->AsArray()) {
    const JsonValue* name = v.Find("name");
    if (name == nullptr) {
      return Status::InvalidArgument("variant missing \"name\"");
    }
    ParsedVariant variant;
    variant.name = name->AsString();
    if (const JsonValue* metrics = v.Find("metrics")) {
      for (const auto& [metric, value] : metrics->AsObject()) {
        if (value.kind() != JsonValue::Kind::kNumber) continue;
        variant.metrics[metric] = value.AsNumber();
      }
    }
    report.variants.push_back(std::move(variant));
  }
  if (const JsonValue* meta = parsed->Find("meta")) {
    if (const JsonValue* metrics = meta->Find("metrics")) {
      for (const auto& [metric, entry] : metrics->AsObject()) {
        MetricMeta mm;
        if (const JsonValue* unit = entry.Find("unit")) {
          mm.unit = unit->AsString();
        }
        if (const JsonValue* dir = entry.Find("direction")) {
          (void)ParseMetricDirection(dir->AsString(), &mm.direction);
        }
        report.meta[metric] = std::move(mm);
      }
    }
  }
  return report;
}

Result<std::vector<ParsedReport>> LoadBenchReportDir(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return Status::NotFound("bench report dir missing: " + dir);
  }
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (StartsWith(name, "BENCH_") && name.size() > 5 &&
        name.substr(name.size() - 5) == ".json") {
      names.push_back(name);
    }
  }
  if (ec) return Status::Internal("cannot list " + dir);
  std::sort(names.begin(), names.end());
  if (names.empty()) {
    return Status::NotFound("no BENCH_*.json reports in " + dir);
  }
  std::vector<ParsedReport> reports;
  for (const std::string& name : names) {
    Result<std::string> text = ReadTextFile(dir + "/" + name);
    if (!text.ok()) return text.status();
    Result<ParsedReport> report = ParseBenchReport(*text);
    if (!report.ok()) {
      return Status::InvalidArgument(name + ": " +
                                     report.status().ToString());
    }
    reports.push_back(*std::move(report));
  }
  return reports;
}

DeltaClass ClassifyDelta(double baseline, double candidate,
                         MetricDirection direction,
                         const ToleranceBand& band) {
  if (!OutOfBand(baseline, candidate, band) ||
      direction == MetricDirection::kInformational) {
    return DeltaClass::kNeutral;
  }
  double delta = candidate - baseline;
  bool better = direction == MetricDirection::kLowerIsBetter ? delta < 0
                                                             : delta > 0;
  return better ? DeltaClass::kImprovement : DeltaClass::kRegression;
}

std::vector<BudgetOutcome> CheckBudgets(
    const std::map<std::string, double>& values,
    const std::vector<Budget>& budgets) {
  std::vector<BudgetOutcome> outcomes;
  outcomes.reserve(budgets.size());
  for (const Budget& budget : budgets) {
    BudgetOutcome outcome;
    outcome.budget = budget;
    auto it = values.find(budget.key);
    if (it != values.end()) {
      outcome.present = true;
      outcome.value = it->second;
      outcome.violated = outcome.value > budget.max;
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

Result<SloConfig> ParseSloConfig(std::string_view text) {
  Result<JsonValue> parsed = ParseJson(text);
  if (!parsed.ok()) return parsed.status();
  SloConfig config;
  if (const JsonValue* budgets = parsed->Find("budgets")) {
    for (const JsonValue& row : budgets->AsArray()) {
      const JsonValue* bench = row.Find("bench");
      const JsonValue* variant = row.Find("variant");
      const JsonValue* metric = row.Find("metric");
      const JsonValue* max = row.Find("max");
      if (bench == nullptr || variant == nullptr || metric == nullptr ||
          max == nullptr) {
        return Status::InvalidArgument(
            "slo budget rows need bench/variant/metric/max");
      }
      config.budgets.push_back(Budget{
          bench->AsString() + "/" + variant->AsString() + "." +
              metric->AsString(),
          max->AsNumber()});
    }
  }
  if (const JsonValue* tolerances = parsed->Find("tolerances")) {
    for (const auto& [metric, value] : tolerances->AsObject()) {
      Result<ToleranceBand> band = ParseBand(value);
      if (!band.ok()) return band.status();
      config.tolerances[metric] = *band;
    }
  }
  if (const JsonValue* headlines = parsed->Find("headlines")) {
    for (const JsonValue& row : headlines->AsArray()) {
      const JsonValue* bench = row.Find("bench");
      const JsonValue* variant = row.Find("variant");
      const JsonValue* metric = row.Find("metric");
      if (bench == nullptr || variant == nullptr || metric == nullptr) {
        return Status::InvalidArgument(
            "slo headline rows need bench/variant/metric");
      }
      config.headlines.push_back(bench->AsString() + "/" +
                                 variant->AsString() + "." +
                                 metric->AsString());
    }
  }
  return config;
}

std::map<std::string, double> FlattenMetrics(
    const std::vector<ParsedReport>& reports) {
  std::map<std::string, double> values;
  for (const ParsedReport& report : reports) {
    for (const ParsedVariant& variant : report.variants) {
      for (const auto& [metric, value] : variant.metrics) {
        values[report.bench + "/" + variant.name + "." + metric] = value;
      }
    }
  }
  return values;
}

BenchDiff DiffBenchReports(const std::vector<ParsedReport>& baseline,
                           const std::vector<ParsedReport>& candidate,
                           const DiffOptions& options) {
  BenchDiff diff;
  std::map<std::string, const ParsedReport*> base_by_name;
  std::map<std::string, const ParsedReport*> cand_by_name;
  for (const ParsedReport& r : baseline) base_by_name[r.bench] = &r;
  for (const ParsedReport& r : candidate) cand_by_name[r.bench] = &r;
  std::set<std::string> names;
  for (const auto& [name, r] : base_by_name) names.insert(name);
  for (const auto& [name, r] : cand_by_name) names.insert(name);
  for (const std::string& name : names) {
    auto bi = base_by_name.find(name);
    auto ci = cand_by_name.find(name);
    BenchDiffEntry entry =
        DiffBench(bi == base_by_name.end() ? nullptr : bi->second,
                  ci == cand_by_name.end() ? nullptr : ci->second, options);
    CountDeltas(entry, &diff);
    diff.benches.push_back(std::move(entry));
  }
  return diff;
}

void CheckSlo(const SloConfig& config,
              const std::vector<ParsedReport>& candidate, BenchDiff* diff) {
  diff->slo = CheckBudgets(FlattenMetrics(candidate), config.budgets);
  diff->slo_checked = diff->slo.size();
  diff->slo_violations = 0;
  for (const BudgetOutcome& outcome : diff->slo) {
    if (outcome.violated || !outcome.present) ++diff->slo_violations;
  }
}

std::string BenchDiffToJson(const BenchDiff& diff,
                            const std::string& baseline_label,
                            const std::string& candidate_label) {
  JsonWriter w(/*indent=*/2);
  w.BeginObject();
  w.Key("schema").String(kBenchDiffSchema);
  w.Key("baseline").String(baseline_label);
  w.Key("candidate").String(candidate_label);
  w.Key("summary").BeginObject();
  w.Key("improvements").Number(diff.improvements);
  w.Key("regressions").Number(diff.regressions);
  w.Key("neutral").Number(diff.neutral);
  w.Key("new").Number(diff.added);
  w.Key("removed").Number(diff.removed);
  w.Key("moved").Number(diff.moved);
  w.Key("phoenix.slo.checked").Number(diff.slo_checked);
  w.Key("phoenix.slo.violations").Number(diff.slo_violations);
  w.Key("gate").String(diff.GateFails() ? "fail" : "pass");
  w.EndObject();
  w.Key("slo").BeginArray();
  for (const BudgetOutcome& outcome : diff.slo) {
    w.BeginObject();
    w.Key("key").String(outcome.budget.key);
    w.Key("max").Raw(JsonNumber(outcome.budget.max));
    if (outcome.present) {
      w.Key("value").Raw(JsonNumber(outcome.value));
    } else {
      w.Key("value").Null();
    }
    w.Key("status").String(!outcome.present ? "missing"
                           : outcome.violated ? "violation"
                                              : "ok");
    w.EndObject();
  }
  w.EndArray();
  w.Key("benches").BeginArray();
  for (const BenchDiffEntry& entry : diff.benches) {
    w.BeginObject();
    w.Key("bench").String(entry.bench);
    w.Key("status").String(DeltaClassName(entry.cls));
    w.Key("variants").BeginArray();
    for (const VariantDiff& vd : entry.variants) {
      w.BeginObject();
      w.Key("name").String(vd.name);
      w.Key("status").String(DeltaClassName(vd.cls));
      w.Key("metrics").BeginArray();
      for (const MetricDelta& d : vd.metrics) {
        w.BeginObject();
        w.Key("metric").String(d.metric);
        w.Key("direction").String(MetricDirectionName(d.meta.direction));
        w.Key("unit").String(d.meta.unit);
        if (d.in_baseline) w.Key("baseline").Raw(JsonNumber(d.baseline));
        if (d.in_candidate) w.Key("candidate").Raw(JsonNumber(d.candidate));
        if (d.in_baseline && d.in_candidate) {
          w.Key("delta").Raw(JsonNumber(d.delta));
          w.Key("delta_rel").Raw(JsonNumber(d.delta_rel));
        }
        w.Key("class").String(DeltaClassName(d.cls));
        w.EndObject();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str() + "\n";
}

std::string BenchDiffToMarkdown(const BenchDiff& diff,
                                const std::string& baseline_label,
                                const std::string& candidate_label) {
  std::string out;
  out += "# phoenix benchdiff\n\n";
  out += StrCat("- baseline: `", baseline_label, "`\n");
  out += StrCat("- candidate: `", candidate_label, "`\n");
  out += StrCat("- metrics: ", diff.improvements, " improvement(s), ",
                diff.regressions, " regression(s), ", diff.neutral,
                " neutral, ", diff.added, " new, ", diff.removed,
                " removed\n");
  out += StrCat("- moved: ", diff.moved,
                " metric(s) outside their band; any move, new or removed "
                "metric fails\n");
  out += StrCat("- SLO budgets: ", diff.slo_checked, " checked, ",
                diff.slo_violations, " violation(s)\n");
  out += StrCat("- gate: ", diff.GateFails() ? "**FAIL**" : "PASS", "\n");

  out += "\n## SLO budgets\n\n";
  if (diff.slo.empty()) {
    out += "(no SLO config)\n";
  } else {
    out += "| budget | limit | value | status |\n";
    out += "|---|---:|---:|---|\n";
    for (const BudgetOutcome& outcome : diff.slo) {
      out += StrCat("| `", outcome.budget.key, "` | <= ",
                    JsonNumber(outcome.budget.max), " | ",
                    outcome.present ? JsonNumber(outcome.value) : "-", " | ",
                    !outcome.present   ? "**missing**"
                    : outcome.violated ? "**violation**"
                                       : "ok",
                    " |\n");
    }
  }

  out += "\n## Non-neutral deltas\n\n";
  std::string rows;
  for (const BenchDiffEntry& entry : diff.benches) {
    if (entry.cls != DeltaClass::kNeutral) {
      rows += StrCat("| ", entry.bench, " | *(whole bench, ",
                     entry.variants.size(), " variant(s))* | | | | | | ",
                     DeltaClassName(entry.cls), " |\n");
      continue;
    }
    for (const VariantDiff& vd : entry.variants) {
      if (vd.cls != DeltaClass::kNeutral) {
        rows += StrCat("| ", entry.bench, " | ", vd.name, " | *(whole "
                       "variant, ", vd.metrics.size(), " metric(s))* | | | | "
                       "| ", DeltaClassName(vd.cls), " |\n");
        continue;
      }
      for (const MetricDelta& d : vd.metrics) {
        if (d.cls == DeltaClass::kNeutral && !d.moved) continue;
        rows += StrCat(
            "| ", entry.bench, " | ", vd.name, " | ", d.metric, " | ",
            MetricDirectionName(d.meta.direction), " | ",
            d.in_baseline ? JsonNumber(d.baseline) : "-", " | ",
            d.in_candidate ? JsonNumber(d.candidate) : "-", " | ",
            d.in_baseline && d.in_candidate
                ? StrCat(JsonNumber(d.delta), " (",
                         FormatDouble(d.delta_rel * 100.0, 2), "%)")
                : "-",
            " | ", d.cls == DeltaClass::kRegression
                       ? StrCat("**", DeltaClassName(d.cls), "**")
                   : d.cls == DeltaClass::kNeutral ? "moved"
                                                   : DeltaClassName(d.cls),
            " |\n");
      }
    }
  }
  if (rows.empty()) {
    out += "(none — candidate matches baseline everywhere)\n";
  } else {
    out +=
        "| bench | variant | metric | direction | baseline | candidate | "
        "delta | class |\n";
    out += "|---|---|---|---|---:|---:|---:|---|\n";
    out += rows;
  }
  return out;
}

Result<std::string> UpdateHistory(std::string_view history_text,
                                  const std::string& label,
                                  const std::vector<std::string>& headlines,
                                  const std::vector<ParsedReport>& candidate) {
  // Existing rows, kept verbatim in order: label -> (notes, metrics).
  struct Row {
    std::string label;
    std::string notes;
    std::map<std::string, double> metrics;
  };
  std::vector<Row> rows;
  if (!history_text.empty()) {
    Result<JsonValue> parsed = ParseJson(history_text);
    if (!parsed.ok()) return parsed.status();
    if (const JsonValue* existing = parsed->Find("rows")) {
      for (const JsonValue& row : existing->AsArray()) {
        Row r;
        const JsonValue* row_label = row.Find("label");
        if (row_label == nullptr) {
          return Status::InvalidArgument("history row missing \"label\"");
        }
        r.label = row_label->AsString();
        if (const JsonValue* notes = row.Find("notes")) {
          r.notes = notes->AsString();
        }
        if (const JsonValue* metrics = row.Find("metrics")) {
          for (const auto& [key, value] : metrics->AsObject()) {
            if (value.kind() == JsonValue::Kind::kNumber) {
              r.metrics[key] = value.AsNumber();
            }
          }
        }
        rows.push_back(std::move(r));
      }
    }
  }

  Row fresh;
  fresh.label = label;
  std::map<std::string, double> values = FlattenMetrics(candidate);
  for (const std::string& key : headlines) {
    auto it = values.find(key);
    if (it != values.end()) fresh.metrics[key] = it->second;
  }
  bool replaced = false;
  for (Row& row : rows) {
    if (row.label == label) {
      // Idempotent re-pin: keep the row's slot (and notes), refresh values.
      fresh.notes = row.notes;
      row = fresh;
      replaced = true;
      break;
    }
  }
  if (!replaced) rows.push_back(std::move(fresh));

  JsonWriter w(/*indent=*/2);
  w.BeginObject();
  w.Key("schema").String(kHistorySchema);
  w.Key("rows").BeginArray();
  for (const Row& row : rows) {
    w.BeginObject();
    w.Key("label").String(row.label);
    if (!row.notes.empty()) w.Key("notes").String(row.notes);
    w.Key("metrics").BeginObject();
    for (const auto& [key, value] : row.metrics) {
      w.Key(key).Raw(JsonNumber(value));
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str() + "\n";
}

}  // namespace phoenix::obs
