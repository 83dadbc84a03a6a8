// benchdiff: direction-aware cross-run classification, tolerance bands,
// alignment of new/removed metrics and variants, SLO budgets, the history
// ledger, and byte-determinism of the phoenix.benchdiff.v1 report.

#include "obs/benchdiff.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/bench_reporter.h"

namespace phoenix::obs {
namespace {

ParsedReport MakeReport(const std::string& bench,
                        const std::vector<ParsedVariant>& variants) {
  ParsedReport report;
  report.bench = bench;
  report.schema = kBenchSchema;
  report.variants = variants;
  return report;
}

const MetricDelta* FindDelta(const BenchDiff& diff, const std::string& bench,
                             const std::string& variant,
                             const std::string& metric) {
  for (const BenchDiffEntry& b : diff.benches) {
    if (b.bench != bench) continue;
    for (const VariantDiff& v : b.variants) {
      if (v.name != variant) continue;
      for (const MetricDelta& d : v.metrics) {
        if (d.metric == metric) return &d;
      }
    }
  }
  return nullptr;
}

TEST(ClassifyDeltaTest, DirectionDecidesImprovementVsRegression) {
  ToleranceBand exact;
  // Lower-is-better (recovery_ms-like): shrinking is the win.
  EXPECT_EQ(ClassifyDelta(100, 90, MetricDirection::kLowerIsBetter, exact),
            DeltaClass::kImprovement);
  EXPECT_EQ(ClassifyDelta(100, 110, MetricDirection::kLowerIsBetter, exact),
            DeltaClass::kRegression);
  // Higher-is-better (speedup-like): the same deltas flip class.
  EXPECT_EQ(ClassifyDelta(100, 90, MetricDirection::kHigherIsBetter, exact),
            DeltaClass::kRegression);
  EXPECT_EQ(ClassifyDelta(100, 110, MetricDirection::kHigherIsBetter, exact),
            DeltaClass::kImprovement);
  // Informational never classifies.
  EXPECT_EQ(ClassifyDelta(100, 1e9, MetricDirection::kInformational, exact),
            DeltaClass::kNeutral);
  // Equal values are neutral even with a zero-width band.
  EXPECT_EQ(ClassifyDelta(100, 100, MetricDirection::kLowerIsBetter, exact),
            DeltaClass::kNeutral);
}

TEST(ClassifyDeltaTest, ToleranceBandEdges) {
  // Relative band: 5% of |baseline| = 5. Exactly at the edge is neutral,
  // one ulp-ish beyond classifies.
  ToleranceBand rel{.abs = 0, .rel = 0.05};
  EXPECT_EQ(ClassifyDelta(100, 105, MetricDirection::kLowerIsBetter, rel),
            DeltaClass::kNeutral);
  EXPECT_EQ(ClassifyDelta(100, 105.001, MetricDirection::kLowerIsBetter, rel),
            DeltaClass::kRegression);
  EXPECT_EQ(ClassifyDelta(100, 95, MetricDirection::kLowerIsBetter, rel),
            DeltaClass::kNeutral);
  EXPECT_EQ(ClassifyDelta(100, 94.999, MetricDirection::kLowerIsBetter, rel),
            DeltaClass::kImprovement);
  // Absolute band wins when wider than the relative one.
  ToleranceBand abs{.abs = 10, .rel = 0.01};
  EXPECT_EQ(ClassifyDelta(100, 110, MetricDirection::kLowerIsBetter, abs),
            DeltaClass::kNeutral);
  EXPECT_EQ(ClassifyDelta(100, 110.5, MetricDirection::kLowerIsBetter, abs),
            DeltaClass::kRegression);
  // Relative band around a negative baseline uses |baseline|.
  EXPECT_EQ(ClassifyDelta(-100, -95, MetricDirection::kLowerIsBetter, rel),
            DeltaClass::kNeutral);
  // Zero baseline: relative band collapses, any delta classifies.
  EXPECT_EQ(ClassifyDelta(0, 0.001, MetricDirection::kLowerIsBetter, rel),
            DeltaClass::kRegression);
}

TEST(BenchDiffTest, ClassifiesByMetaDirection) {
  ParsedVariant base{"v", {{"recovery_ms", 2000.0},
                           {"speedup_vs_sequential", 1.5},
                           {"sessions", 8.0}}};
  ParsedVariant cand{"v", {{"recovery_ms", 1800.0},
                           {"speedup_vs_sequential", 1.2},
                           {"sessions", 16.0}}};
  BenchDiff diff = DiffBenchReports({MakeReport("t7", {base})},
                                    {MakeReport("t7", {cand})}, DiffOptions{});
  EXPECT_EQ(FindDelta(diff, "t7", "v", "recovery_ms")->cls,
            DeltaClass::kImprovement);
  EXPECT_EQ(FindDelta(diff, "t7", "v", "speedup_vs_sequential")->cls,
            DeltaClass::kRegression);
  // Workload descriptor: doubling the session count is not a regression.
  EXPECT_EQ(FindDelta(diff, "t7", "v", "sessions")->cls, DeltaClass::kNeutral);
  EXPECT_EQ(diff.improvements, 1u);
  EXPECT_EQ(diff.regressions, 1u);
  EXPECT_EQ(diff.neutral, 1u);
  EXPECT_TRUE(diff.GateFails());
}

TEST(BenchDiffTest, GateFailsOnAnyMove) {
  ParsedVariant base{"v", {{"recovery_ms", 2000.0},
                           {"records_scanned", 500.0},
                           {"forces", 10.0}}};
  ParsedVariant improved{"v", {{"recovery_ms", 1800.0},
                               {"records_scanned", 500.0},
                               {"forces", 10.0}}};
  ParsedVariant rescanned{"v", {{"recovery_ms", 2000.0},
                                {"records_scanned", 501.0},
                                {"forces", 10.0}}};
  ParsedVariant dropped{"v", {{"recovery_ms", 2000.0},
                              {"records_scanned", 500.0}}};
  auto diff = [](const ParsedVariant& b, const ParsedVariant& c) {
    return DiffBenchReports({MakeReport("t7", {b})}, {MakeReport("t7", {c})},
                            DiffOptions{});
  };

  // The gate pins the baselines: an improvement, a direction-free move and
  // a metric gone missing all fail it.
  BenchDiff improvement = diff(base, improved);
  EXPECT_EQ(improvement.improvements, 1u);
  EXPECT_EQ(improvement.moved, 1u);
  EXPECT_TRUE(improvement.GateFails());
  BenchDiff informational = diff(base, rescanned);
  EXPECT_EQ(FindDelta(informational, "t7", "v", "records_scanned")->cls,
            DeltaClass::kNeutral);
  EXPECT_TRUE(FindDelta(informational, "t7", "v", "records_scanned")->moved);
  EXPECT_TRUE(informational.GateFails());
  EXPECT_TRUE(diff(base, dropped).GateFails());
  // A candidate that reproduces the baseline passes.
  BenchDiff same = diff(base, base);
  EXPECT_EQ(same.moved, 0u);
  EXPECT_FALSE(same.GateFails());
}

TEST(BenchDiffTest, ReportMetaOverridesBuiltInTable) {
  // A bench can declare a custom direction for a name the built-in table
  // also knows; the report meta wins.
  ParsedReport base = MakeReport("b", {{"v", {{"recovery_ms", 100.0}}}});
  ParsedReport cand = MakeReport("b", {{"v", {{"recovery_ms", 200.0}}}});
  cand.meta["recovery_ms"] =
      MetricMeta{"ms", MetricDirection::kHigherIsBetter};
  BenchDiff diff = DiffBenchReports({base}, {cand}, DiffOptions{});
  EXPECT_EQ(FindDelta(diff, "b", "v", "recovery_ms")->cls,
            DeltaClass::kImprovement);
}

TEST(BenchDiffTest, NewAndRemovedMetricsVariantsBenches) {
  ParsedReport base = MakeReport(
      "b", {{"kept", {{"forces", 10.0}, {"old_metric", 1.0}}},
            {"dropped", {{"forces", 5.0}}}});
  ParsedReport cand = MakeReport(
      "b", {{"kept", {{"forces", 10.0}, {"fresh_metric", 2.0}}},
            {"added", {{"forces", 7.0}}}});
  ParsedReport cand_only = MakeReport("new_bench", {{"v", {{"runs", 3.0}}}});
  BenchDiff diff =
      DiffBenchReports({base}, {cand, cand_only}, DiffOptions{});

  EXPECT_EQ(FindDelta(diff, "b", "kept", "old_metric")->cls,
            DeltaClass::kRemoved);
  EXPECT_EQ(FindDelta(diff, "b", "kept", "fresh_metric")->cls,
            DeltaClass::kNew);
  EXPECT_EQ(FindDelta(diff, "b", "kept", "forces")->cls, DeltaClass::kNeutral);
  // Whole variants and whole benches surface as new/removed too.
  const BenchDiffEntry* b = &diff.benches[0];
  ASSERT_EQ(b->bench, "b");
  bool saw_dropped = false, saw_added = false;
  for (const VariantDiff& v : b->variants) {
    if (v.name == "dropped") {
      saw_dropped = true;
      EXPECT_EQ(v.cls, DeltaClass::kRemoved);
    }
    if (v.name == "added") {
      saw_added = true;
      EXPECT_EQ(v.cls, DeltaClass::kNew);
    }
  }
  EXPECT_TRUE(saw_dropped);
  EXPECT_TRUE(saw_added);
  ASSERT_EQ(diff.benches.size(), 2u);
  EXPECT_EQ(diff.benches[1].bench, "new_bench");
  EXPECT_EQ(diff.benches[1].cls, DeltaClass::kNew);
  // new: fresh_metric + added/forces + new_bench/v/runs; removed:
  // old_metric + dropped/forces. Structure changes fail the gate until the
  // baselines are re-baselined.
  EXPECT_EQ(diff.added, 3u);
  EXPECT_EQ(diff.removed, 2u);
  EXPECT_TRUE(diff.GateFails());
}

TEST(BenchDiffTest, MissingBaselineDirIsAnError) {
  auto missing = LoadBenchReportDir("/nonexistent/benchdiff_baselines");
  EXPECT_FALSE(missing.ok());
  // An existing but report-free dir also fails: a sentinel diffing against
  // nothing would pass every gate.
  std::string empty = ::testing::TempDir() + "/benchdiff_empty_dir";
  std::filesystem::create_directories(empty);
  auto no_reports = LoadBenchReportDir(empty);
  EXPECT_FALSE(no_reports.ok());
}

TEST(BenchDiffTest, LoadsRealReportsWrittenByBenchReporter) {
  std::string base_dir = ::testing::TempDir() + "/benchdiff_base";
  std::string cand_dir = ::testing::TempDir() + "/benchdiff_cand";
  std::filesystem::create_directories(base_dir);
  std::filesystem::create_directories(cand_dir);

  auto write = [](const std::string& dir, double recovery_ms) {
    BenchReporter reporter("mini_recovery");
    BenchVariant& v = reporter.AddVariant("pairs_8");
    v.SetMetric("recovery_ms", recovery_ms);
    v.SetMetric("sessions", uint64_t{8});
    ASSERT_TRUE(
        reporter.WriteFile(dir + "/BENCH_mini_recovery.json").ok());
  };
  write(base_dir, 2000.0);
  write(cand_dir, 1500.0);

  auto base = LoadBenchReportDir(base_dir);
  auto cand = LoadBenchReportDir(cand_dir);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_TRUE(cand.ok()) << cand.status().ToString();
  // The direction came through the report's own meta block.
  EXPECT_EQ((*cand)[0].meta.at("recovery_ms").direction,
            MetricDirection::kLowerIsBetter);

  BenchDiff diff = DiffBenchReports(*base, *cand, DiffOptions{});
  EXPECT_EQ(diff.improvements, 1u);
  EXPECT_EQ(diff.regressions, 0u);
  // An improvement is still a move off the pinned baseline.
  EXPECT_TRUE(diff.GateFails());
  EXPECT_FALSE(DiffBenchReports(*base, *base, DiffOptions{}).GateFails());
}

TEST(BenchDiffTest, SloBudgetsCheckAndMissingMetricViolates) {
  ParsedReport cand = MakeReport("t7", {{"pairs_8", {{"recovery_ms", 1800.0}}}});
  SloConfig config;
  config.budgets.push_back(Budget{"t7/pairs_8.recovery_ms", 2000});
  config.budgets.push_back(Budget{"t7/pairs_8.recovery_ms", 1500});
  config.budgets.push_back(Budget{"t7/gone.recovery_ms", 9000});
  BenchDiff diff = DiffBenchReports({cand}, {cand}, DiffOptions{});
  CheckSlo(config, {cand}, &diff);
  EXPECT_EQ(diff.slo_checked, 3u);
  EXPECT_EQ(diff.slo_violations, 2u);  // over budget + missing metric
  ASSERT_EQ(diff.slo.size(), 3u);
  EXPECT_FALSE(diff.slo[0].violated);
  EXPECT_TRUE(diff.slo[1].violated);
  EXPECT_FALSE(diff.slo[2].present);
  EXPECT_TRUE(diff.GateFails());
}

TEST(BenchDiffTest, SloConfigParses) {
  auto config = ParseSloConfig(R"({
    "schema": "phoenix.slo.v1",
    "budgets": [
      {"bench": "t7", "variant": "pairs_8", "metric": "recovery_ms",
       "max": 2000}
    ],
    "tolerances": {"ms_per_call": {"rel_pct": 0.5, "abs": 0.001}},
    "headlines": [
      {"bench": "t7", "variant": "pairs_8", "metric": "recovery_ms"}
    ]
  })");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config->budgets.size(), 1u);
  EXPECT_EQ(config->budgets[0].key, "t7/pairs_8.recovery_ms");
  EXPECT_DOUBLE_EQ(config->budgets[0].max, 2000);
  EXPECT_DOUBLE_EQ(config->tolerances.at("ms_per_call").rel, 0.005);
  EXPECT_DOUBLE_EQ(config->tolerances.at("ms_per_call").abs, 0.001);
  ASSERT_EQ(config->headlines.size(), 1u);
  EXPECT_EQ(config->headlines[0], "t7/pairs_8.recovery_ms");
}

TEST(BenchDiffTest, CheckBudgetsSharedWithProfUsage) {
  // The phoenix_prof --budget-ms path: phase totals, absent phase passes.
  std::map<std::string, double> phases{{"execution", 12.0},
                                       {"durability.park", 55.0}};
  auto outcomes = CheckBudgets(
      phases, {Budget{"durability.park", 50}, Budget{"checkpoint", 10},
               Budget{"execution", 20}});
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].violated);
  EXPECT_FALSE(outcomes[1].present);
  EXPECT_FALSE(outcomes[1].violated);
  EXPECT_FALSE(outcomes[2].violated);
}

TEST(BenchDiffTest, JsonAndMarkdownAreByteDeterministic) {
  ParsedReport base = MakeReport(
      "b", {{"v", {{"recovery_ms", 2000.0}, {"forces", 10.0}}}});
  ParsedReport cand = MakeReport(
      "b", {{"v", {{"recovery_ms", 1900.5}, {"forces", 12.0}}}});
  SloConfig config;
  config.budgets.push_back(Budget{"b/v.recovery_ms", 2000});

  auto run = [&] {
    BenchDiff diff = DiffBenchReports({base}, {cand}, DiffOptions{});
    CheckSlo(config, {cand}, &diff);
    return BenchDiffToJson(diff, "base", "cand") + "\x1f" +
           BenchDiffToMarkdown(diff, "base", "cand");
  };
  std::string a = run();
  std::string b = run();
  EXPECT_EQ(a, b);
  // The report carries the phoenix.slo.{checked,violations} summary keys.
  EXPECT_NE(a.find("\"phoenix.slo.checked\": 1"), std::string::npos);
  EXPECT_NE(a.find("\"phoenix.slo.violations\": 0"), std::string::npos);
  EXPECT_NE(a.find("\"schema\": \"phoenix.benchdiff.v1\""),
            std::string::npos);
}

TEST(BenchDiffTest, HistoryAppendAndIdempotentReplace) {
  ParsedReport cand = MakeReport("t7", {{"pairs_8", {{"recovery_ms", 1800.0}}}});
  std::vector<std::string> headlines{"t7/pairs_8.recovery_ms",
                                     "t7/pairs_8.not_there"};
  auto first = UpdateHistory("", "pr9", headlines, {cand});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NE(first->find("\"schema\": \"phoenix.history.v1\""),
            std::string::npos);
  EXPECT_NE(first->find("\"t7/pairs_8.recovery_ms\": 1800"),
            std::string::npos);
  // Replaying the same candidate replaces the row, not duplicates it.
  auto second = UpdateHistory(*first, "pr9", headlines, {cand});
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  // A later PR appends while earlier rows survive byte-for-byte.
  ParsedReport faster =
      MakeReport("t7", {{"pairs_8", {{"recovery_ms", 1500.0}}}});
  auto third = UpdateHistory(*second, "pr10", headlines, {faster});
  ASSERT_TRUE(third.ok());
  EXPECT_NE(third->find("\"label\": \"pr9\""), std::string::npos);
  EXPECT_NE(third->find("\"label\": \"pr10\""), std::string::npos);
  EXPECT_NE(third->find("\"t7/pairs_8.recovery_ms\": 1500"),
            std::string::npos);
}

TEST(BenchReporterMetaTest, MetaBlockDescribesEveryEmittedMetric) {
  BenchReporter reporter("meta_check");
  BenchVariant& v = reporter.AddVariant("v");
  v.SetMetric("recovery_ms", 12.5);
  v.SetMetric("bench_local_thing", uint64_t{3});
  reporter.DescribeMetric("bench_local_thing", "count",
                          MetricDirection::kHigherIsBetter);
  auto parsed = ParseBenchReport(reporter.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->meta.at("recovery_ms").direction,
            MetricDirection::kLowerIsBetter);
  EXPECT_EQ(parsed->meta.at("recovery_ms").unit, "ms");
  EXPECT_EQ(parsed->meta.at("bench_local_thing").direction,
            MetricDirection::kHigherIsBetter);
}

}  // namespace
}  // namespace phoenix::obs
