// Per-layer metrics of the end-to-end benchmark: counters read off the
// simulation's metrics registry, the sim self-time split of a traced run
// (obs::BuildProfile buckets and recovery spans), and host times of the
// layers' own functions taken with the benchmark's spans.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "e2e.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "recovery/replay_plan.h"
#include "wal/log_reader.h"
#include "wal/merged_log_reader.h"

namespace phoenix::e2e {
namespace {

double ArgNumber(const obs::ProfileNode& node, const std::string& key) {
  for (const obs::TraceArg& arg : node.args) {
    if (arg.key == key) return std::strtod(arg.value.c_str(), nullptr);
  }
  return 0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// 0 for a bucket the run never charged.
double At(const std::map<std::string, double>& ms, const std::string& key) {
  auto it = ms.find(key);
  return it == ms.end() ? 0.0 : it->second;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return Ratio(sum, static_cast<double>(v.size()));
}

// Times the codec on one batch of records: encode each, then decode the
// payloads back. Returns the payloads that failed to decode.
uint64_t TimeCodec(const std::vector<LogRecord>& records, HostTracer& host,
                   uint32_t parent) {
  std::vector<std::vector<uint8_t>> payloads;
  payloads.reserve(records.size());
  {
    HostTracer::Scope span(host, "Encoder", parent);
    for (const LogRecord& record : records) {
      Encoder enc;
      EncodeLogRecord(record, enc);
      payloads.push_back(enc.Release());
    }
  }
  HostTracer::Scope span(host, "Decoder", parent);
  uint64_t errors = 0;
  for (const std::vector<uint8_t>& payload : payloads) {
    if (!DecodeLogRecord(payload.data(), payload.size()).ok()) ++errors;
  }
  return errors;
}

// One replay plan over `process`'s stable log, built the way recovery's
// analysis builds it.
void TimePlan(Process& process, const MergedLogScan* merged, HostTracer& host,
              uint32_t parent) {
  ReplayPlanInputs inputs;
  inputs.machine = process.machine_name();
  inputs.process_id = process.pid();
  HostTracer::Scope span(host, "BuildReplayPlan", parent);
  if (merged != nullptr) {
    DeriveReplayOriginsFromRecords(merged->records, &inputs.origins,
                                   &inputs.origin_orders);
    BuildReplayPlanFromRecords(merged->records, {}, 0, inputs);
    return;
  }
  LogView view = process.log().StableView();
  inputs.origins = DeriveReplayOrigins(view, process.log().head_base());
  uint64_t scan_start = process.log().head_base();
  for (const auto& [context_id, origin] : inputs.origins) {
    if (origin != kInvalidLsn) scan_start = std::min(scan_start, origin);
  }
  BuildReplayPlan(view, scan_start, inputs);
}

}  // namespace

uint32_t HostTracer::Begin(const char* name, uint32_t parent) {
  if (!enabled_) return 0;
  Span span;
  span.id = static_cast<uint32_t>(spans_.size()) + 1;
  span.parent = parent;
  span.name = name;
  span.start_us = NowUs();
  spans_.push_back(span);
  return span.id;
}

void HostTracer::End(uint32_t id) {
  if (id != 0) spans_[id - 1].end_us = NowUs();
}

double HostTracer::NowUs() const {
  return (HostSeconds() - origin_s_) * 1e6;
}

std::pair<double, uint64_t> HostTracer::Total(const std::string& name) const {
  double us = 0;
  uint64_t count = 0;
  for (const Span& span : spans_) {
    if (name != span.name) continue;
    us += span.end_us - span.start_us;
    ++count;
  }
  return {us, count};
}

std::string HostTracer::ToJson(const std::string& workload,
                               uint64_t seed) const {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(workload);
  w.Key("seed").Number(seed);
  w.Key("spans").BeginArray();
  for (const Span& span : spans_) {
    w.BeginObject();
    w.Key("id").Number(uint64_t{span.id});
    w.Key("parent").Number(uint64_t{span.parent});
    w.Key("name").String(span.name);
    w.Key("start_us").Number(span.start_us);
    w.Key("end_us").Number(span.end_us);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::map<std::string, double> RegistryTotals(const Simulation& sim) {
  const obs::MetricsRegistry& m = sim.metrics();
  std::map<std::string, double> out;
  for (const char* name :
       {"phoenix.log.appends", "phoenix.log.forces", "phoenix.log.bytes_forced",
        "phoenix.wal.shard.forces", "phoenix.intercept.retries",
        "phoenix.intercept.dedupe_hits", "phoenix.net.dropped",
        "phoenix.net.duplicated", "phoenix.checkpoint.state_saves",
        "phoenix.checkpoint.published", "phoenix.checkpoint.bytes_reclaimed",
        "phoenix.checkpoint.async.sweeps", "phoenix.checkpoint.async.deferred",
        "phoenix.recovery.recoveries", "phoenix.recovery.records_scanned",
        "phoenix.recovery.calls_replayed", "phoenix.recovery.replay.fallbacks",
        "phoenix.recovery.supervisor.attempts"}) {
    out[name] = static_cast<double>(m.CounterTotal(name));
  }
  for (const char* name :
       {"phoenix.wal.own_force_wait_ms", "phoenix.disk.seek_ms",
        "phoenix.disk.rotational_wait_ms", "phoenix.disk.transfer_ms",
        "phoenix.recovery.replay.parallelism"}) {
    out[name] = m.GaugeTotal(name);
  }
  for (const char* name :
       {"phoenix.wal.park_ms", "phoenix.wal.group_commit.batch_size",
        "phoenix.recovery.replay.makespan_ms",
        "phoenix.recovery.replay.critical_path_ms",
        "phoenix.checkpoint.async.lag_ms"}) {
    obs::Histogram h = m.MergedHistogram(name);
    out[std::string(name) + ".sum"] = h.sum();
    out[std::string(name) + ".count"] = static_cast<double>(h.count());
    out[std::string(name) + ".p50"] = h.Percentile(50);
  }
  return out;
}

void HarvestTrace(Simulation& sim, const RunRecord& record,
                  TraceSplit& split) {
  obs::ProfileReport report = obs::BuildProfile(sim.tracer().events());
  for (const auto& [bucket, ms] : report.total_phase_ms) {
    split.chained_ms[bucket] += ms;
  }
  for (const obs::ProfileNode& node : report.nodes) {
    if (node.category != "recovery") continue;
    if (node.name == "recover") {
      ++split.recover_spans;
      for (const auto& [t0, t1] : record.restart_windows_ms) {
        if (node.start_ms >= t0 && node.start_ms <= t1) {
          split.recover_ms_in_restarts += node.dur_ms;
        }
      }
    } else if (node.name == "analysis" || node.name == "redo" ||
               node.name == "replay") {
      split.recovery_phase_ms[node.name] += node.dur_ms;
    }
    if (node.name == "redo") {
      split.contexts_restored += ArgNumber(node, "contexts_restored_from_state");
    } else if (node.name == "replay") {
      split.contexts_created += ArgNumber(node, "creations_replayed");
    }
  }
  sim.tracer().Clear();
}

LogLayerCounts TimeLogLayers(const std::vector<Process*>& processes,
                             HostTracer& host, uint32_t parent) {
  LogLayerCounts counts;
  for (Process* process : processes) {
    LogManager& log = process->log();
    for (uint32_t s = 0; s < log.shard_count(); ++s) {
      LogView view = log.ShardStableView(s);
      {
        HostTracer::Scope span(host, "Crc32c", parent);
        counts.crc_bytes += view.bytes->size();
        (void)Crc32c(view.bytes->data(), view.bytes->size());
      }
      std::vector<LogRecord> records;
      {
        HostTracer::Scope span(host, "LogReader", parent);
        LogReader reader(view, view.base);
        if (log.sharded()) reader.EnableGsnPrefix();
        while (auto parsed = reader.Next()) {
          records.push_back(std::move(parsed->record));
        }
      }
      counts.scan_records += records.size();
      counts.decode_errors += TimeCodec(records, host, parent);
      counts.codec_records += records.size();
    }
    if (log.sharded()) {
      MergedLogScan merged = [&] {
        HostTracer::Scope span(host, "MergedLogScan", parent);
        return ScanShardedLog(log);
      }();
      counts.merge_records += merged.records.size();
      TimePlan(*process, &merged, host, parent);
    } else {
      TimePlan(*process, nullptr, host, parent);
    }
    ++counts.plans;
  }
  return counts;
}

std::vector<Metric> LayerMetrics(const Outcome& traced, const HostTracer& host,
                                 double trace_overhead_pct) {
  const RunRecord& rec = traced.record;
  const TraceSplit& split = traced.split;
  const LogLayerCounts& logs = traced.logs;
  auto delta = [&](const std::string& name) {
    return traced.after.at(name) - traced.before.at(name);
  };
  auto last = [&](const std::string& name) { return traced.after.at(name); };
  double calls = static_cast<double>(rec.attempted);
  auto per_call = [&](double x) { return Ratio(x, calls); };
  auto chained = [&](const std::string& bucket) {
    return At(split.chained_ms, bucket);
  };
  auto host_us = [&](const std::string& name) { return host.Total(name).first; };
  // Driver calls made inside RunSessions: all of them or none.
  double session_calls = host.Total("RunSessions").second > 0 ? calls : 0;
  double recoveries = delta("phoenix.recovery.recoveries");
  double recover_spans = static_cast<double>(split.recover_spans);
  auto phase = [&](const std::string& name) {
    return Ratio(At(split.recovery_phase_ms, name), recover_spans);
  };
  double restart_ms = 0;
  for (double ms : rec.recovery_ms) restart_ms += ms;
  std::vector<double> retained(rec.retained_bytes_at_crash.begin(),
                               rec.retained_bytes_at_crash.end());

  return {
      {"runtime.execution_ms_per_call", per_call(chained("execution")), "ms"},
      {"runtime.retries_per_call",
       per_call(delta("phoenix.intercept.retries")), "count"},
      {"runtime.dedupe_hits", delta("phoenix.intercept.dedupe_hits"), "count"},
      {"runtime.session_host_us_per_call",
       Ratio(host_us("RunSessions"), session_calls), "us", "host"},
      {"net.ms_per_call", per_call(chained("network")), "ms"},
      {"net.drops", delta("phoenix.net.dropped"), "count"},
      {"net.dups", delta("phoenix.net.duplicated"), "count"},
      {"wal.appends_per_call", per_call(delta("phoenix.log.appends")),
       "count"},
      {"wal.forces_per_call", per_call(delta("phoenix.log.forces")), "count"},
      {"wal.own_force_ms_per_call",
       per_call(delta("phoenix.wal.own_force_wait_ms")), "ms"},
      {"wal.park_ms_per_call", per_call(delta("phoenix.wal.park_ms.sum")),
       "ms"},
      {"wal.group_batch_mean",
       Ratio(delta("phoenix.wal.group_commit.batch_size.sum"),
             delta("phoenix.wal.group_commit.batch_size.count")),
       "count"},
      {"wal.shard_forces_per_call",
       per_call(delta("phoenix.wal.shard.forces")), "count"},
      {"wal.retained_bytes_at_crash", Mean(retained), "B"},
      {"wal.scan_ns_per_record",
       Ratio(host_us("LogReader") * 1000, logs.scan_records), "ns", "host"},
      {"wal.crc_ns_per_kb",
       Ratio(host_us("Crc32c") * 1000, logs.crc_bytes / 1024.0), "ns",
       "host"},
      {"wal.merge_ns_per_record",
       Ratio(host_us("MergedLogScan") * 1000, logs.merge_records), "ns",
       "host"},
      {"disk.seek_ms_per_call", per_call(delta("phoenix.disk.seek_ms")), "ms"},
      {"disk.rotational_ms_per_call",
       per_call(delta("phoenix.disk.rotational_wait_ms")), "ms"},
      {"disk.transfer_ms_per_call",
       per_call(delta("phoenix.disk.transfer_ms")), "ms"},
      {"checkpoint.fg_ms_per_call", per_call(chained("checkpoint")), "ms"},
      {"checkpoint.state_saves", delta("phoenix.checkpoint.state_saves"),
       "count"},
      {"checkpoint.published", delta("phoenix.checkpoint.published"),
       "count"},
      {"checkpoint.reclaimed_ratio",
       Ratio(delta("phoenix.checkpoint.bytes_reclaimed"),
             delta("phoenix.log.bytes_forced")),
       "ratio"},
      {"checkpoint.async_sweeps", delta("phoenix.checkpoint.async.sweeps"),
       "count"},
      {"checkpoint.async_deferred",
       delta("phoenix.checkpoint.async.deferred"), "count"},
      {"checkpoint.async_lag_ms_p50",
       last("phoenix.checkpoint.async.lag_ms.p50"), "ms"},
      {"recovery.init_ms",
       Ratio(restart_ms - split.recover_ms_in_restarts,
             static_cast<double>(rec.recovery_ms.size())),
       "ms"},
      {"recovery.analysis_ms", phase("analysis"), "ms"},
      {"recovery.redo_ms", phase("redo"), "ms"},
      {"recovery.replay_ms", phase("replay"), "ms"},
      {"recovery.records_scanned",
       Ratio(delta("phoenix.recovery.records_scanned"), recoveries), "count"},
      {"recovery.calls_replayed",
       Ratio(delta("phoenix.recovery.calls_replayed"), recoveries), "count"},
      {"recovery.contexts_created", Ratio(split.contexts_created, recover_spans),
       "count"},
      {"recovery.contexts_restored",
       Ratio(split.contexts_restored, recover_spans), "count"},
      {"recovery.replay_makespan_ms",
       Ratio(delta("phoenix.recovery.replay.makespan_ms.sum"),
             delta("phoenix.recovery.replay.makespan_ms.count")),
       "ms"},
      {"recovery.replay_critical_path_ms",
       Ratio(delta("phoenix.recovery.replay.critical_path_ms.sum"),
             delta("phoenix.recovery.replay.critical_path_ms.count")),
       "ms"},
      {"recovery.replay_parallelism",
       last("phoenix.recovery.replay.parallelism"), "count"},
      {"recovery.replay_fallbacks", delta("phoenix.recovery.replay.fallbacks"),
       "count"},
      {"recovery.supervisor_attempts",
       delta("phoenix.recovery.supervisor.attempts"), "count"},
      {"recovery.plan_build_ms",
       Ratio(host_us("BuildReplayPlan") / 1000, logs.plans), "ms", "host"},
      {"serde.encode_ns_per_record",
       Ratio(host_us("Encoder") * 1000, logs.codec_records), "ns", "host"},
      {"serde.decode_ns_per_record",
       Ratio(host_us("Decoder") * 1000, logs.codec_records), "ns", "host"},
      {"obs.trace_overhead_pct", trace_overhead_pct, "%", "host"},
  };
}

}  // namespace phoenix::e2e
