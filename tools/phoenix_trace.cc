// phoenix_trace — scenario runner and log inspector.
//
// Runs the Figure 10 bookstore under a chosen optimization level, optionally
// injecting crashes, then prints run statistics and (on request) the
// recovery log and the runtime tables of Table 1. A debugging/teaching tool:
// every record the interceptors write is visible here.
//
// Usage:
//   phoenix_trace [--level=baseline|optimized|specialized]
//                 [--sessions=N] [--stores=N] [--wal-shards=N]
//                 [--crash=<point>:<hit>]...    (point: see --list-points)
//                 [--net-drop=P] [--net-dup=P] [--torn-tail=P]
//                 [--save-every=N] [--checkpoint-every=N] [--gc]
//                 [--multicall] [--dump-log] [--plan] [--dump-tables]
//                 [--trace-jsonl=FILE] [--trace-chrome=FILE]
//                 [--metrics-json=FILE]
//                 [--flight-events=N] [--flight-jsonl=FILE]
//                 [--list-points]
//   phoenix_trace --dump-trace=FILE [--component=SUBSTR] [--cat=CATEGORY]
//                 [--from-ms=T0] [--to-ms=T1]
//
// Examples:
//   phoenix_trace --level=specialized --sessions=2 --dump-log
//   phoenix_trace --crash=before_reply_send:3 --dump-tables
//   phoenix_trace --trace-jsonl=run.jsonl --trace-chrome=run.trace.json
//   phoenix_trace --crash=during_checkpoint:1 --flight-jsonl=crash.jsonl
//   phoenix_trace --dump-trace=run.jsonl --component=server/1 --cat=log

#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "bookstore/setup.h"
#include "common/strings.h"
#include "obs/json.h"
#include "obs/tracer.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/replay_plan.h"
#include "wal/log_dump.h"
#include "wal/merged_log_reader.h"
#include "wal/shard_router.h"

namespace phoenix::tools {
namespace {

// Ring depth when --flight-jsonl is given without --flight-events.
constexpr size_t kDefaultFlightEvents = 256;

struct Options {
  bookstore::OptLevel level = bookstore::OptLevel::kSpecialized;
  int sessions = 1;
  int stores = 2;
  uint32_t wal_shards = 1;  // >1 shards the server's WAL (--wal-shards)
  std::vector<std::pair<FailurePoint, uint64_t>> crashes;
  uint32_t save_every = 0;
  uint32_t checkpoint_every = 0;
  // Hostile-environment injection (see docs/FAULTS.md).
  double net_drop = 0.0;   // per-message drop probability on every link
  double net_dup = 0.0;    // per-call duplicate probability on every link
  double torn_tail = 0.0;  // probability a crash tears the stable tail
  bool gc = false;
  bool multicall = false;
  bool dump_log = false;
  bool plan = false;  // annotate --dump-log with the replay planner's view
  bool dump_tables = false;
  // Trace recording (scenario mode).
  std::string trace_jsonl;   // write the run's trace as JSONL here
  std::string trace_chrome;  // write the run's Chrome trace_event JSON here
  std::string metrics_json;  // write the run's metrics snapshot here
  // Flight recorder: bounded last-N-events-per-component ring; dumped to
  // flight_jsonl on every crash (and at exit if no crash fired).
  size_t flight_events = 0;
  std::string flight_jsonl;
  // Trace dump mode: read a previously written JSONL trace instead of
  // running a scenario.
  std::string dump_trace;
  std::string component;  // substring filter on the component label
  std::string category;   // exact-match filter on the event category
  double from_ms = 0;
  double to_ms = std::numeric_limits<double>::infinity();
};

bool ParsePoint(const std::string& name, FailurePoint* out) {
  for (int p = 0; p < kNumFailurePoints; ++p) {
    auto point = static_cast<FailurePoint>(p);
    if (name == FailurePointName(point)) {
      *out = point;
      return true;
    }
  }
  return false;
}

void ListPoints() {
  std::printf("failure points:\n");
  for (int p = 0; p < kNumFailurePoints; ++p) {
    std::printf("  %s\n", FailurePointName(static_cast<FailurePoint>(p)));
  }
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--level=...] [--sessions=N] [--stores=N] "
               "[--wal-shards=N] "
               "[--crash=point:hit] [--net-drop=P] [--net-dup=P] "
               "[--torn-tail=P] [--save-every=N] [--checkpoint-every=N] "
               "[--gc] [--multicall] [--dump-log] [--plan] [--dump-tables] "
               "[--trace-jsonl=F] [--trace-chrome=F] [--metrics-json=F] "
               "[--flight-events=N] [--flight-jsonl=F] "
               "[--list-points]\n"
               "       %s --dump-trace=F [--component=S] [--cat=C] "
               "[--from-ms=T] [--to-ms=T]\n",
               argv0, argv0);
  return 2;
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  std::string prefix = "--" + name + "=";
  if (!StartsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  if (written != content.size()) {
    std::fprintf(stderr, "short write to %s\n", path.c_str());
    return false;
  }
  return true;
}

// Reads a JSONL trace written by --trace-jsonl (or a Simulation) and prints
// the events that survive the component/time-range filter.
int DumpTrace(const Options& opts) {
  std::FILE* f = std::fopen(opts.dump_trace.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", opts.dump_trace.c_str());
    return 1;
  }
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);

  auto events = obs::ParseTraceJsonl(content);
  if (!events.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 events.status().ToString().c_str());
    return 1;
  }
  std::vector<obs::TraceEvent> filtered = obs::FilterTrace(
      *events, opts.component, opts.category, opts.from_ms, opts.to_ms);
  std::printf("%zu of %zu event(s) match\n", filtered.size(), events->size());
  for (const obs::TraceEvent& ev : filtered) {
    std::string ids;
    if (ev.trace_id != 0) ids += StrCat(" trace=", ev.trace_id);
    if (ev.span_id != 0) ids += StrCat(" span=", ev.span_id);
    if (ev.parent_span_id != 0) ids += StrCat(" parent=", ev.parent_span_id);
    std::string args;
    for (const obs::TraceArg& a : ev.args) {
      args += StrCat(" ", a.key, "=", a.value);
    }
    std::printf("%12.3f ms  %s %-10s %-24s %-18s%s%s\n", ev.ts_ms,
                obs::TracePhaseName(ev.phase), ev.category.c_str(),
                ev.name.c_str(), ev.component.c_str(), ids.c_str(),
                args.c_str());
  }
  return 0;
}

void DumpTables(Process& proc) {
  std::printf("\ncontext table of %s:\n", proc.log_name().c_str());
  for (const auto& [context_id, ctx] : proc.contexts()) {
    Component* parent = ctx->parent();
    std::printf(
        "  ctx %llu  parent %s (%s %s)  out-seq %llu  state-lsn %s  "
        "creation-lsn %s\n",
        static_cast<unsigned long long>(context_id),
        parent != nullptr ? parent->name().c_str() : "?",
        parent != nullptr ? ComponentKindName(parent->kind()) : "?",
        parent != nullptr ? parent->type_name().c_str() : "?",
        static_cast<unsigned long long>(ctx->last_outgoing_seq()),
        ctx->state_record_lsn() == kInvalidLsn
            ? "-"
            : StrCat(ctx->state_record_lsn()).c_str(),
        ctx->creation_lsn() == kInvalidLsn
            ? "-"
            : StrCat(ctx->creation_lsn()).c_str());
  }

  std::printf("last call table (%zu entries):\n", proc.last_calls().size());
  for (const auto& [key, entry] : proc.last_calls().entries()) {
    std::printf("  client %s -> ctx %llu  seq %llu  reply %s  lsn %s\n",
                key.first.ToString().c_str(),
                static_cast<unsigned long long>(entry.context_id),
                static_cast<unsigned long long>(entry.seq),
                entry.reply_in_memory ? "in-memory" : "on-log",
                entry.reply_lsn == kInvalidLsn
                    ? "-"
                    : StrCat(entry.reply_lsn).c_str());
  }

  std::printf("remote component table (%zu entries):\n",
              proc.remote_types().entries().size());
  for (const auto& [uri, info] : proc.remote_types().entries()) {
    std::printf("  %s is %s %s\n", uri.c_str(), ComponentKindName(info.kind),
                info.type_name.c_str());
  }
}

int Run(const Options& opts) {
  RuntimeOptions runtime = bookstore::OptionsForLevel(opts.level);
  runtime.save_context_state_every = opts.save_every;
  runtime.process_checkpoint_every = opts.checkpoint_every;
  runtime.auto_truncate_log = opts.gc;
  runtime.multi_call_optimization = opts.multicall;
  runtime.wal_shards = opts.wal_shards;

  SimulationParams params;
  params.trace_enabled =
      !opts.trace_jsonl.empty() || !opts.trace_chrome.empty();
  params.flight_recorder_events =
      opts.flight_events > 0
          ? opts.flight_events
          : (opts.flight_jsonl.empty() ? 0 : kDefaultFlightEvents);
  params.flight_dump_path = opts.flight_jsonl;
  Simulation sim(runtime, params);
  bookstore::RegisterBookstoreComponents(sim.factories());
  sim.AddMachine("client");
  Machine& server = sim.AddMachine("server");
  auto deployment = bookstore::Deploy(sim, server, opts.stores, opts.level);
  if (!deployment.ok()) {
    std::fprintf(stderr, "deploy failed: %s\n",
                 deployment.status().ToString().c_str());
    return 1;
  }
  Process& proc = *deployment->server_process;

  for (const auto& [point, hit] : opts.crashes) {
    sim.injector().AddTrigger("server", proc.pid(), point, hit);
  }
  if (opts.net_drop > 0.0 || opts.net_dup > 0.0) {
    LinkFaults faults;
    faults.drop_p = opts.net_drop;
    faults.dup_p = opts.net_dup;
    sim.network().fault_plan().SetDefaultFaults(faults);
  }
  if (opts.torn_tail > 0.0) {
    sim.injector().EnableTornTails(opts.torn_tail, params.seed * 131 + 7);
  }

  ExternalClient buyer(&sim, "client");
  double t0 = sim.clock().NowMs();
  for (int i = 0; i < opts.sessions; ++i) {
    auto session = bookstore::RunBuyerSession(
        sim, *deployment, buyer, "buyer" + std::to_string(i), "WA");
    if (!session.ok()) {
      std::printf("session %d FAILED: %s\n", i,
                  session.status().ToString().c_str());
    } else {
      std::printf("session %d: %lld hits, %lld in basket, total $%s, "
                  "%lld removed\n",
                  i, static_cast<long long>(session->search_hits),
                  static_cast<long long>(session->items_in_basket),
                  FormatDouble(session->total_with_tax, 2).c_str(),
                  static_cast<long long>(session->items_removed));
    }
  }

  std::printf(
      "\n%s, %d session(s): %.1f simulated ms, %llu forces, %llu appends, "
      "%llu crash(es), %llu recover(ies), log %llu bytes (head at %llu)\n",
      bookstore::OptLevelName(opts.level), opts.sessions,
      sim.clock().NowMs() - t0,
      static_cast<unsigned long long>(sim.TotalForces()),
      static_cast<unsigned long long>(sim.TotalAppends()),
      static_cast<unsigned long long>(sim.injector().crashes_fired()),
      static_cast<unsigned long long>(
          server.recovery_service().recoveries_performed()),
      static_cast<unsigned long long>(proc.log().StableLog().size()),
      static_cast<unsigned long long>(proc.log().head_base()));

  if (opts.dump_log) {
    LogAnnotations annotations;
    if (opts.plan) {
      // Build the same plan the replay engine would run for a crash
      // right now, and pin its chain/edge view to the records that open
      // replay units. On a sharded log those are composite LSNs, so the
      // annotations land on the matching per-shard lines.
      ReplayPlanInputs inputs;
      inputs.machine = proc.machine_name();
      inputs.process_id = proc.pid();
      ReplayPlan plan = PlanLogReplay(proc.log(), std::move(inputs));
      for (uint32_t c = 0; c < plan.chains.size(); ++c) {
        const ReplayChain& chain = plan.chains[c];
        for (uint32_t u = 0; u < chain.units.size(); ++u) {
          const PlannedUnit& unit = chain.units[u];
          std::string note = StrCat("[plan: chain ", c, " unit ", u);
          for (const UnitRef& dep : unit.deps) {
            note += StrCat("  <- chain ", dep.chain, " unit ", dep.index);
          }
          note += "]";
          annotations[unit.start_lsn()] = std::move(note);
        }
      }
      double unit_ms = proc.simulation()->costs().recovery_replay_call_ms;
      std::printf(
          "\nreplay plan: %zu chain(s), %llu cross edge(s), "
          "critical path %.2f ms of %.2f ms total\n",
          plan.chains.size(),
          static_cast<unsigned long long>(plan.cross_edges),
          CriticalPathMs(plan, unit_ms, /*ready_ms=*/{}, /*lanes_only=*/false),
          static_cast<double>(plan.total_units()) * unit_ms);
    }
    // A logged incoming call names its method by its rank in the callee's
    // method table; the live context's table names it again.
    OrderedLogCursor cursor(proc.log(), proc.log().head_order());
    while (std::optional<OrderedRecord> rec = cursor.Next()) {
      const auto* in = std::get_if<IncomingCallRecord>(&rec->record);
      if (in == nullptr || !in->method_rank.has_value()) continue;
      Context* ctx = proc.FindContext(in->context_id);
      ComponentSlot* slot = ctx != nullptr ? ctx->parent_slot() : nullptr;
      const std::string* name =
          slot != nullptr ? slot->methods.NameOfRank(*in->method_rank)
                          : nullptr;
      if (name == nullptr) continue;
      std::string& note = annotations[rec->lsn];
      note = StrCat("[method ", *name, "]", note.empty() ? "" : "  ", note);
    }
    if (proc.log().sharded()) {
      std::printf("\nsharded recovery log of %s (%u shard(s)):\n",
                  proc.log_name().c_str(), proc.log().shard_count());
    } else {
      std::printf("\nrecovery log of %s:\n", proc.log_name().c_str());
    }
    std::printf("%s", phoenix::DumpLog(proc.log(), annotations).c_str());
  }
  if (opts.dump_tables) DumpTables(proc);

  bool io_ok = true;
  if (!opts.trace_jsonl.empty()) {
    io_ok &= WriteTextFile(opts.trace_jsonl, sim.tracer().ExportJsonl());
    if (io_ok) {
      std::printf("trace: %zu event(s) -> %s\n", sim.tracer().events().size(),
                  opts.trace_jsonl.c_str());
    }
  }
  if (!opts.trace_chrome.empty()) {
    io_ok &= WriteTextFile(opts.trace_chrome, sim.tracer().ExportChromeTrace());
    if (io_ok) {
      std::printf("chrome trace: %s (load in chrome://tracing)\n",
                  opts.trace_chrome.c_str());
    }
  }
  if (!opts.metrics_json.empty()) {
    obs::JsonWriter w(2);
    sim.metrics().WriteJson(w);
    io_ok &= WriteTextFile(opts.metrics_json, w.str() + "\n");
    if (io_ok) {
      std::printf("metrics: %s\n", opts.metrics_json.c_str());
    }
  }
  if (!opts.flight_jsonl.empty()) {
    // Crashes already rewrote the file from Process::Kill; without one,
    // write the final ring contents so the flag always yields a file.
    if (sim.injector().crashes_fired() == 0) {
      io_ok &=
          WriteTextFile(opts.flight_jsonl, sim.tracer().ExportFlightRecorder());
    }
    std::printf("flight recorder: last %zu event(s)/component -> %s\n",
                sim.tracer().flight_recorder_capacity(),
                opts.flight_jsonl.c_str());
  }
  return io_ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--list-points") {
      ListPoints();
      return 0;
    } else if (ParseFlag(arg, "level", &value)) {
      if (value == "baseline") {
        opts.level = bookstore::OptLevel::kBaseline;
      } else if (value == "optimized") {
        opts.level = bookstore::OptLevel::kOptimizedLogging;
      } else if (value == "specialized") {
        opts.level = bookstore::OptLevel::kSpecialized;
      } else {
        return Usage(argv[0]);
      }
    } else if (ParseFlag(arg, "sessions", &value)) {
      opts.sessions = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "stores", &value)) {
      opts.stores = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "wal-shards", &value)) {
      opts.wal_shards = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "save-every", &value)) {
      opts.save_every = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "checkpoint-every", &value)) {
      opts.checkpoint_every = static_cast<uint32_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "net-drop", &value)) {
      opts.net_drop = std::atof(value.c_str());
    } else if (ParseFlag(arg, "net-dup", &value)) {
      opts.net_dup = std::atof(value.c_str());
    } else if (ParseFlag(arg, "torn-tail", &value)) {
      opts.torn_tail = std::atof(value.c_str());
    } else if (arg == "--gc") {
      opts.gc = true;
    } else if (arg == "--multicall") {
      opts.multicall = true;
    } else if (arg == "--dump-log") {
      opts.dump_log = true;
    } else if (arg == "--plan") {
      opts.plan = true;
      opts.dump_log = true;  // the annotations live on the dump's lines
    } else if (arg == "--dump-tables") {
      opts.dump_tables = true;
    } else if (ParseFlag(arg, "trace-jsonl", &value)) {
      opts.trace_jsonl = value;
    } else if (ParseFlag(arg, "trace-chrome", &value)) {
      opts.trace_chrome = value;
    } else if (ParseFlag(arg, "metrics-json", &value)) {
      opts.metrics_json = value;
    } else if (ParseFlag(arg, "flight-events", &value)) {
      opts.flight_events = static_cast<size_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "flight-jsonl", &value)) {
      opts.flight_jsonl = value;
    } else if (ParseFlag(arg, "dump-trace", &value)) {
      opts.dump_trace = value;
    } else if (ParseFlag(arg, "component", &value)) {
      opts.component = value;
    } else if (ParseFlag(arg, "cat", &value)) {
      opts.category = value;
    } else if (ParseFlag(arg, "from-ms", &value)) {
      opts.from_ms = std::atof(value.c_str());
    } else if (ParseFlag(arg, "to-ms", &value)) {
      opts.to_ms = std::atof(value.c_str());
    } else if (ParseFlag(arg, "crash", &value)) {
      size_t colon = value.find(':');
      std::string point_name =
          colon == std::string::npos ? value : value.substr(0, colon);
      uint64_t hit = colon == std::string::npos
                         ? 1
                         : std::strtoull(value.c_str() + colon + 1, nullptr,
                                         10);
      FailurePoint point;
      if (!ParsePoint(point_name, &point)) {
        std::fprintf(stderr, "unknown failure point '%s'\n",
                     point_name.c_str());
        ListPoints();
        return 2;
      }
      opts.crashes.emplace_back(point, hit);
    } else {
      return Usage(argv[0]);
    }
  }
  if (opts.wal_shards < 1 || opts.wal_shards > kMaxWalShards) {
    std::fprintf(stderr, "--wal-shards must be in 1..%u\n", kMaxWalShards);
    return 2;
  }
  if (!opts.dump_trace.empty()) return DumpTrace(opts);
  return Run(opts);
}

}  // namespace
}  // namespace phoenix::tools

int main(int argc, char** argv) { return phoenix::tools::Main(argc, argv); }
