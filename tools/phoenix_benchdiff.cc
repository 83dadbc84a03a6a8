// phoenix_benchdiff — cross-run performance sentinel.
//
// Diffs a candidate tree of phoenix.bench.v1 reports against a committed
// baseline tree, classifies every metric delta as improvement / regression /
// neutral / new / removed using the reports' direction metadata, checks the
// declarative SLO budgets, and (optionally) appends the candidate's headline
// metrics to the bench history ledger. Prints the markdown report to stdout.
//
// Usage:
//   phoenix_benchdiff --baseline=DIR --candidate=DIR
//       [--slo=bench/slo.json] [--json=FILE] [--md=FILE]
//       [--history=bench/history.json --history-label=pr9]
//       [--tolerance=METRIC=REL_PCT]... [--default-tolerance=REL_PCT]
//
// Exit codes: 0 gate passes, 1 any out-of-band move (a regression, an
// improvement or an informational metric), any new or removed metric, or
// any SLO violation, 2 usage / unreadable inputs. The benches are
// deterministic, so the baselines are pinned: a deliberate change
// re-baselines them.
//
// Example (the CI sentinel):
//   bench/table7_recovery --out-dir=sentinel_out && ... all benches ...
//   phoenix_benchdiff --baseline=../bench/baselines --candidate=sentinel_out \
//       --slo=../bench/slo.json --md=benchdiff.md --json=benchdiff.json

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strings.h"
#include "obs/benchdiff.h"

namespace phoenix::tools {
namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --baseline=DIR --candidate=DIR [--slo=FILE] [--json=FILE]\n"
      "          [--md=FILE] [--history=FILE --history-label=LABEL]\n"
      "          [--tolerance=METRIC=REL_PCT] [--default-tolerance=REL_PCT]\n",
      argv0);
  return 2;
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  std::string prefix = "--" + name + "=";
  if (!StartsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool ReadTextFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return written == content.size();
}

int Main(int argc, char** argv) {
  std::string baseline_dir, candidate_dir, slo_path, json_path, md_path;
  std::string history_path, history_label;
  obs::DiffOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "baseline", &value)) {
      baseline_dir = value;
    } else if (ParseFlag(arg, "candidate", &value)) {
      candidate_dir = value;
    } else if (ParseFlag(arg, "slo", &value)) {
      slo_path = value;
    } else if (ParseFlag(arg, "json", &value)) {
      json_path = value;
    } else if (ParseFlag(arg, "md", &value)) {
      md_path = value;
    } else if (ParseFlag(arg, "history", &value)) {
      history_path = value;
    } else if (ParseFlag(arg, "history-label", &value)) {
      history_label = value;
    } else if (ParseFlag(arg, "default-tolerance", &value)) {
      options.default_band.rel = std::atof(value.c_str()) / 100.0;
    } else if (ParseFlag(arg, "tolerance", &value)) {
      size_t eq = value.find('=');
      if (eq == std::string::npos) return Usage(argv[0]);
      options.metric_band[value.substr(0, eq)].rel =
          std::atof(value.c_str() + eq + 1) / 100.0;
    } else {
      return Usage(argv[0]);
    }
  }
  if (baseline_dir.empty() || candidate_dir.empty()) return Usage(argv[0]);
  if (history_path.empty() != history_label.empty()) {
    std::fprintf(stderr, "--history and --history-label go together\n");
    return 2;
  }

  auto baseline = obs::LoadBenchReportDir(baseline_dir);
  if (!baseline.ok()) {
    std::fprintf(stderr, "baseline: %s\n",
                 baseline.status().ToString().c_str());
    return 2;
  }
  auto candidate = obs::LoadBenchReportDir(candidate_dir);
  if (!candidate.ok()) {
    std::fprintf(stderr, "candidate: %s\n",
                 candidate.status().ToString().c_str());
    return 2;
  }

  obs::SloConfig slo;
  if (!slo_path.empty()) {
    std::string text;
    if (!ReadTextFile(slo_path, &text)) {
      std::fprintf(stderr, "cannot open %s\n", slo_path.c_str());
      return 2;
    }
    auto parsed = obs::ParseSloConfig(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: %s\n", slo_path.c_str(),
                   parsed.status().ToString().c_str());
      return 2;
    }
    slo = *std::move(parsed);
    for (const auto& [metric, band] : slo.tolerances) {
      // Config tolerances lose to explicit --tolerance flags.
      options.metric_band.emplace(metric, band);
    }
  }

  obs::BenchDiff diff =
      obs::DiffBenchReports(*baseline, *candidate, options);
  if (!slo_path.empty()) obs::CheckSlo(slo, *candidate, &diff);

  std::string markdown =
      obs::BenchDiffToMarkdown(diff, baseline_dir, candidate_dir);
  std::fputs(markdown.c_str(), stdout);
  if (!md_path.empty() && !WriteTextFile(md_path, markdown)) {
    std::fprintf(stderr, "cannot write %s\n", md_path.c_str());
    return 2;
  }
  if (!json_path.empty() &&
      !WriteTextFile(json_path,
                     obs::BenchDiffToJson(diff, baseline_dir,
                                          candidate_dir))) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 2;
  }

  if (!history_path.empty()) {
    std::string text;
    ReadTextFile(history_path, &text);  // missing file starts a new ledger
    auto updated = obs::UpdateHistory(text, history_label, slo.headlines,
                                      *candidate);
    if (!updated.ok()) {
      std::fprintf(stderr, "%s: %s\n", history_path.c_str(),
                   updated.status().ToString().c_str());
      return 2;
    }
    if (!WriteTextFile(history_path, *updated)) {
      std::fprintf(stderr, "cannot write %s\n", history_path.c_str());
      return 2;
    }
    std::printf("\nhistory: %s row \"%s\" (%zu headline metric(s))\n",
                history_path.c_str(), history_label.c_str(),
                slo.headlines.size());
  }

  return diff.GateFails() ? 1 : 0;
}

}  // namespace
}  // namespace phoenix::tools

int main(int argc, char** argv) { return phoenix::tools::Main(argc, argv); }
