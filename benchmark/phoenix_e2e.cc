// phoenix_e2e: one run of one end-to-end workload.
//
//   phoenix_e2e --workload=NAME [--seed=S] [--seconds=T] [--trace=0|1]
//               [--scale=F] [--spans-dir=DIR]
//
// The run's size is --seconds times the workload's calibrated call rate
// times --scale, so a seed and a size always give the same sim-time
// numbers. Prints every metric it measured as "workload metric value unit
// kind" (kind: sim or host), then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}, whose metrics are those
// ./BENCHMARK.json lists as end_to_end (--trace=0) or per_layer
// (--trace=1). --trace=1 runs the workload at --scale (default 0.05) twice,
// untraced and traced, checks that both give the same sim-time metrics, and
// reports the per-layer metrics; with --spans-dir it writes the benchmark's
// host spans there as spans_<workload>_<seed>.json. Exits 1 when an oracle
// fails, 2 on a usage error or a metric BENCHMARK.json declares but no run
// measures.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "e2e.h"
#include "obs/json.h"

namespace phoenix::e2e {
namespace {

// The timed phase runs in slices. Each slice ends by crashing the
// workload's server after a seeded 0..kMaxRestartGap-1 extra calls and
// timing how long it takes to serve again, so every workload samples its
// time to recover at kSlices points spread over the run. Host metrics are
// medians over the slices.
constexpr int kSlices = 20;
constexpr uint64_t kMaxRestartGap = 64;
// setup_s is the median of kSetups set-ups. An end-to-end run does half of
// them before the timed phase, keeping the last simulation for it, and the
// rest after it, so the median samples the host's speed at both ends of the
// run rather than in one burst. Only one simulation is alive at a time, and
// peak_rss_mb is read before the later set-ups. A traced run sets up once.
constexpr int kSetups = 41;
constexpr double kTraceScale = 0.05;

struct Config {
  std::string workload;
  uint64_t seed = 2026;
  double seconds = 10;
  bool trace = false;
  double scale = 0;  // 0: 1 untraced, kTraceScale traced
  std::string spans_dir;
};

// Linear interpolation between closest ranks.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (rank - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

// VmHWM of this process image. (getrusage's ru_maxrss would also count the
// image the launcher had before exec, such as a forked Python interpreter.)
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// Shortest text that reads back as the same double.
std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

// The metric names BENCHMARK.json, in the working directory, declares for
// the result line: its end_to_end list, or per_layer for traced runs.
// Empty when the file cannot be read.
std::vector<std::string> DeclaredMetrics(bool trace) {
  std::ifstream in("BENCHMARK.json");
  std::stringstream text;
  text << in.rdbuf();
  Result<obs::JsonValue> bench = obs::ParseJson(text.str());
  const obs::JsonValue* list =
      bench.ok() ? bench->Find(trace ? "per_layer" : "end_to_end") : nullptr;
  std::vector<std::string> names;
  if (list == nullptr) return names;
  for (const obs::JsonValue& metric : list->AsArray()) {
    const obs::JsonValue* name = metric.Find("name");
    if (name != nullptr) names.push_back(name->AsString());
  }
  return names;
}

// One run: `setups` set-ups around the timed phase (see kSetups).
Outcome Run(const Config& cfg, uint64_t ops, bool trace, int setups,
            HostTracer& host) {
  Outcome out;
  WorkloadParams params{cfg.seed, trace};
  auto set_up = [&] {
    double t0 = HostSeconds();
    std::unique_ptr<Workload> w =
        FindWorkload(cfg.workload)->make(params, host);
    w->Setup();
    out.setup_s.push_back(HostSeconds() - t0);
    return w;
  };
  std::unique_ptr<Workload> w;
  for (int i = 0; i < (setups + 1) / 2; ++i) {
    w.reset();
    w = set_up();
  }
  Simulation& sim = w->sim();
  RunRecord& rec = w->record();
  rec = RunRecord{};  // the warm-up is not part of the run
  sim.tracer().Clear();
  host.set_enabled(trace);

  out.before = RegistryTotals(sim);
  uint64_t log0 = w->AppendedLogBytes();
  double sim0 = sim.clock().NowMs();
  Random gaps(cfg.seed);
  for (int s = 0; s < kSlices; ++s) {
    uint64_t calls0 = rec.attempted;
    double oracle0 = rec.oracle_host_s;
    double t0 = HostSeconds();
    uint32_t span = host.Begin("slice", 0);
    w->RunOps(ops / kSlices + gaps.Uniform(kMaxRestartGap), span);
    double host_s = HostSeconds() - t0 - (rec.oracle_host_s - oracle0);
    w->Restart(w->RestartTarget(), span);
    host.End(span);
    out.host_timed_s += host_s;
    out.slice_calls_per_s.push_back(
        static_cast<double>(rec.attempted - calls0) / host_s);
    if (trace) HarvestTrace(sim, rec, out.split);
  }
  out.sim_timed_ms = sim.clock().NowMs() - sim0 - rec.oracle_sim_ms;
  out.after = RegistryTotals(sim);
  out.log_bytes = w->AppendedLogBytes() - log0;
  out.retained_bytes =
      rec.retained_bytes_sum / static_cast<double>(rec.retained_samples);
  if (trace) {
    uint32_t span = host.Begin("log_layers", 0);
    out.logs = TimeLogLayers(w->processes(), host, span);
    host.End(span);
  }
  out.record = rec;
  host.set_enabled(false);
  out.peak_rss_mb = PeakRssMb();
  w.reset();
  for (int i = (setups + 1) / 2; i < setups; ++i) set_up();
  return out;
}

// Everything one run measures end to end. BENCHMARK.json decides which of
// these the result line reports.
std::vector<Metric> RunMetrics(const Outcome& o) {
  const RunRecord& rec = o.record;
  double calls = static_cast<double>(rec.attempted);
  return {
      {"call_p50_ms", Percentile(rec.call_ms, 50), "ms"},
      {"call_p99_ms", Percentile(rec.call_ms, 99), "ms"},
      {"sim_calls_per_s", calls / (o.sim_timed_ms / 1000.0), "1/s"},
      {"recovery_p50_ms", Percentile(rec.recovery_ms, 50), "ms"},
      {"recovery_p90_ms", Percentile(rec.recovery_ms, 90), "ms"},
      {"log_bytes_per_call", static_cast<double>(o.log_bytes) / calls, "B"},
      {"retained_log_mb", o.retained_bytes / 1e6, "MB"},
      {"failed_call_ratio", static_cast<double>(rec.failed) / calls, "ratio"},
      {"state_mismatches", static_cast<double>(rec.mismatches), "count"},
      {"setup_s", Percentile(o.setup_s, 50), "s", "host"},
      {"peak_rss_mb", o.peak_rss_mb, "MB", "host"},
      {"host_calls_per_s", Percentile(o.slice_calls_per_s, 50), "1/s", "host"},
      {"host_recovery_ms", Percentile(rec.host_recovery_ms, 50), "ms", "host"},
  };
}

bool SameSim(const Outcome& untraced, const Outcome& traced) {
  std::vector<Metric> u = RunMetrics(untraced);
  std::vector<Metric> t = RunMetrics(traced);
  bool same = true;
  for (size_t i = 0; i < u.size(); ++i) {
    if (u[i].kind == "sim" && u[i].value != t[i].value) {
      std::fprintf(stderr, "traced %s = %s, untraced %s\n", u[i].name.c_str(),
                   Number(t[i].value).c_str(), Number(u[i].value).c_str());
      same = false;
    }
  }
  return same;
}

// Prints every measured metric as "workload metric value unit kind", then
// the result line with the `reported` metrics; returns the exit code.
int Report(const Config& cfg, const std::vector<Metric>& measured,
           const std::vector<std::string>& reported, const RunRecord& rec,
           bool correct) {
  std::vector<const Metric*> result;
  for (const std::string& name : reported) {
    auto it = std::find_if(measured.begin(), measured.end(),
                           [&](const Metric& m) { return m.name == name; });
    if (it == measured.end()) {
      std::fprintf(stderr, "BENCHMARK.json declares %s, which %s does not "
                   "measure\n", name.c_str(),
                   cfg.trace ? "a traced run" : "an end-to-end run");
      return 2;
    }
    result.push_back(&*it);
  }
  for (const Metric& m : measured) {
    std::printf("%s %s %s %s %s\n", cfg.workload.c_str(), m.name.c_str(),
                Number(m.value).c_str(), m.unit.c_str(), m.kind.c_str());
  }
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct").Bool(correct);
  w.Key("attempted").Number(rec.attempted);
  w.Key("failed").Number(rec.failed);
  w.Key("metrics").BeginObject();
  for (const Metric* m : result) {
    w.Key(m->name).BeginObject();
    w.Key("value").Raw(Number(std::isfinite(m->value) ? m->value : 0));
    w.Key("unit").String(m->unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
  return correct ? 0 : 1;
}

uint64_t OpsFor(const Config& cfg, double scale) {
  double ops =
      FindWorkload(cfg.workload)->calls_per_second * cfg.seconds * scale;
  return std::max<uint64_t>(kSlices, static_cast<uint64_t>(std::llround(ops)));
}

int RunEndToEnd(const Config& cfg, const std::vector<std::string>& reported) {
  HostTracer host;
  Outcome o = Run(cfg, OpsFor(cfg, cfg.scale > 0 ? cfg.scale : 1.0), false,
                  kSetups, host);
  const RunRecord& rec = o.record;
  return Report(cfg, RunMetrics(o), reported, rec,
                rec.mismatches == 0 && rec.failed == 0);
}

int RunTraced(const Config& cfg, const std::vector<std::string>& reported) {
  uint64_t ops = OpsFor(cfg, cfg.scale > 0 ? cfg.scale : kTraceScale);
  HostTracer untraced_host;
  Outcome untraced = Run(cfg, ops, false, 1, untraced_host);
  HostTracer host;
  Outcome traced = Run(cfg, ops, true, 1, host);
  bool same = SameSim(untraced, traced);

  if (!cfg.spans_dir.empty()) {
    std::string path = cfg.spans_dir + "/spans_" + cfg.workload + "_" +
                       std::to_string(cfg.seed) + ".json";
    std::ofstream out(path, std::ios::trunc);
    out << host.ToJson(cfg.workload, cfg.seed) << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
  }
  // Host times come from the untraced run, sim values are the same in both.
  std::vector<Metric> metrics = LayerMetrics(
      traced, host,
      (traced.host_timed_s / untraced.host_timed_s - 1.0) * 100.0);
  // End-to-end metrics BENCHMARK.json reports per layer.
  for (Metric& m : RunMetrics(untraced)) {
    if (std::find(reported.begin(), reported.end(), m.name) != reported.end()) {
      metrics.push_back(std::move(m));
    }
  }
  const RunRecord& rec = traced.record;
  return Report(cfg, metrics, reported, rec,
                same && rec.mismatches == 0 && rec.failed == 0 &&
                    traced.logs.decode_errors == 0);
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: phoenix_e2e --workload=NAME [--seed=S] "
               "[--seconds=T] [--trace=0|1] [--scale=F] [--spans-dir=DIR]\n"
               "workloads: bookstore sessions4 crash_recover faults\n",
               msg);
  return 2;
}

int Main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string key = arg;
    std::string value;
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      key = arg.substr(0, eq);
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    }
    char* end = nullptr;
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--scale") {
      cfg.scale = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      cfg.trace = value == "1";
    } else if (key == "--spans-dir") {
      cfg.spans_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      return Usage(("bad number in " + arg).c_str());
    }
  }
  if (FindWorkload(cfg.workload) == nullptr) {
    return Usage(("unknown workload '" + cfg.workload + "'").c_str());
  }
  if (!(cfg.seconds > 0) || cfg.scale < 0) {
    return Usage("--seconds must be positive and --scale non-negative");
  }
  std::vector<std::string> reported = DeclaredMetrics(cfg.trace);
  if (reported.empty()) {
    std::fprintf(stderr, "no %s metrics in ./BENCHMARK.json\n",
                 cfg.trace ? "per_layer" : "end_to_end");
    return 2;
  }
  return cfg.trace ? RunTraced(cfg, reported) : RunEndToEnd(cfg, reported);
}

}  // namespace
}  // namespace phoenix::e2e

int main(int argc, char** argv) { return phoenix::e2e::Main(argc, argv); }
