#include "runtime/simulation.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "runtime/context.h"
#include "runtime/process.h"
#include "wal/shard_router.h"

namespace phoenix {

Simulation::Simulation(RuntimeOptions options, SimulationParams params)
    : options_(options),
      params_(params),
      injector_(),
      network_(params_.network) {
  // A configuration that cannot work fails here, naming the field, instead
  // of being clamped into something else.
  PHX_CHECK(options_.wal_shards >= 1 && options_.wal_shards <= kMaxWalShards);
  PHX_CHECK(options_.parallel_replay_sessions >= 1);
  PHX_CHECK(options_.async_checkpoint_interval >= 1);
  PHX_CHECK(options_.recovery_supervisor_attempts_per_rung >= 1);
  network_.SeedFaults(params_.seed * 6271 + 17);
  retry_rng_ = Random(params_.seed * 9973 + 29);
  tracer_.set_enabled(params_.trace_enabled);
  if (params_.flight_recorder_events > 0) {
    tracer_.EnableFlightRecorder(params_.flight_recorder_events);
  }
  if (!params_.persistence_dir.empty()) {
    PHX_CHECK_OK(storage_.EnablePersistence(params_.persistence_dir));
  }
}

Simulation::~Simulation() = default;

Machine& Simulation::AddMachine(const std::string& name) {
  auto [it, inserted] = machines_.emplace(
      name,
      std::make_unique<Machine>(this, name,
                                params_.seed * 7919 + next_disk_seed_++));
  PHX_CHECK(inserted);
  return *it->second;
}

Machine* Simulation::GetMachine(const std::string& name) {
  auto it = machines_.find(name);
  return it == machines_.end() ? nullptr : it->second.get();
}

Process* Simulation::ResolveProcess(const std::string& uri) {
  Result<ParsedUri> parsed = ParseComponentUri(uri);
  if (!parsed.ok()) return nullptr;
  Machine* machine = GetMachine(parsed->machine);
  if (machine == nullptr) return nullptr;
  return machine->GetProcess(parsed->process_id);
}

Result<ReplyMessage> Simulation::RouteCall(const std::string& source_machine,
                                           const CallMessage& msg) {
  // Message interception point: every cross-context call passes through
  // here, so this is where per-call latency is attributed.
  Process* target = ResolveProcess(msg.target_uri);
  std::string label =
      target != nullptr
          ? StrCat(target->machine_name(), "/", target->pid())
          : "unroutable";

  double t0 = clock_.NowMs();
  Result<ReplyMessage> result = [&]() -> Result<ReplyMessage> {
    if (!tracer_.enabled()) return RouteCallInner(source_machine, msg);
    // Causal identity: join the sender's chain when the message carries
    // one, otherwise this is a root call entering the system and gets a
    // fresh trace id. The span's own id rides on the message so the
    // receiving interceptor parents under it across the process boundary.
    obs::SpanLink parent = msg.has_trace
                               ? obs::SpanLink{msg.trace_id, msg.parent_span}
                               : obs::SpanLink{tracer_.NewTraceId(), 0};
    std::vector<obs::TraceArg> begin_args = {
        obs::Arg("target", msg.target_uri),
        obs::Arg("source",
                 source_machine.empty() ? "external" : source_machine)};
    if (msg.has_call_id) {
      begin_args.push_back(obs::Arg("call_id", msg.call_id.ToString()));
    }
    obs::Tracer::Span span = tracer_.StartSpan("call", msg.method, label,
                                               parent, std::move(begin_args));
    CallMessage traced = msg;
    traced.has_trace = true;
    traced.trace_id = span.trace_id();
    traced.parent_span = span.span_id();
    Push(span.link());
    Result<ReplyMessage> inner = RouteCallInner(source_machine, traced);
    Pop();
    span.AddArg(obs::Arg("elapsed_ms", clock_.NowMs() - t0));
    span.AddArg(obs::Arg("ok", inner.ok() ? "true" : "false"));
    return inner;
  }();
  double elapsed = clock_.NowMs() - t0;

  obs::LabelSet labels{{"process", label}};
  metrics_.GetCounter("phoenix.call.routed", labels).Increment();
  if (!result.ok()) {
    metrics_.GetCounter("phoenix.call.errors", labels).Increment();
  }
  metrics_.GetHistogram("phoenix.call.latency_ms", labels).Record(elapsed);
  return result;
}

Result<ReplyMessage> Simulation::RouteCallInner(
    const std::string& source_machine, const CallMessage& msg) {
  Process* target = ResolveProcess(msg.target_uri);
  if (target == nullptr) {
    return Status::NotFound("unroutable target: " + msg.target_uri);
  }

  // Software path: marshalling at both ends plus the interceptor hooks; the
  // optimized system's kind attachments add their parse/compose cost.
  clock_.AdvanceMs(params_.costs.marshal_roundtrip_local_ms +
                   params_.costs.interception_ms);
  if (msg.has_sender_info) {
    clock_.AdvanceMs(params_.costs.type_attachment_ms);
  }

  bool cross_machine =
      !source_machine.empty() && source_machine != target->machine_name();
  bool duplicate_call = false;
  // The chain position the message carries; net legs and fault instants
  // attach under the sender's call span.
  obs::SpanLink chain{msg.trace_id, msg.parent_span};
  if (cross_machine) {
    obs::Tracer::Span net_span;
    if (tracer_.enabled()) {
      net_span = tracer_.StartSpan(
          "net", "xfer", "network", chain,
          {obs::Arg("leg", "call"), obs::Arg("method", msg.method),
           obs::Arg("bytes",
                    static_cast<uint64_t>(msg.EncodedSizeHint()))});
    }
    clock_.AdvanceMs(network_.TransferLatencyMs(msg.EncodedSizeHint()));
    network_.CountMessage();
    if (network_.faults_enabled()) {
      NetworkDelivery d = network_.DecideDelivery(
          source_machine, target->machine_name(), msg.method, NetLeg::kCall);
      if (d.extra_delay_ms > 0.0) {
        clock_.AdvanceMs(d.extra_delay_ms);
        metrics_.GetGauge("phoenix.net.jitter_delay_ms").Add(d.extra_delay_ms);
        net_span.AddArg(obs::Arg("jitter_ms", d.extra_delay_ms));
      }
      if (d.drop) {
        net_span.AddArg(obs::Arg("outcome", "dropped"));
        RecordNetworkDrop(source_machine, target->machine_name(), msg.method,
                          NetLeg::kCall, chain);
        return Status::Unavailable("network dropped call " + msg.method +
                                   " to " + msg.target_uri);
      }
      duplicate_call = d.duplicate;
    }
  }

  if (!target->alive()) {
    return Status::Unavailable("process " + target->machine_name() + "/" +
                               std::to_string(target->pid()) + " is down");
  }

  Result<ReplyMessage> reply = target->DeliverCall(msg);
  if (!reply.ok()) {
    if (reply.status().IsCrashed()) {
      // The server process died mid-call; to the caller that is simply an
      // unavailable server (a .NET remoting channel exception, §2.4).
      return Status::Unavailable("server crashed during call");
    }
    return reply;
  }

  if (duplicate_call && target->alive()) {
    // The network delivered a second copy of the call message. The server's
    // interceptor must eliminate it via the last-call table (same call ID);
    // the duplicate's reply is discarded — the caller already has one in
    // flight.
    metrics_.GetCounter("phoenix.net.duplicated").Increment();
    tracer_.Instant("net", "duplicate", "network", chain,
                    {obs::Arg("method", msg.method),
                     obs::Arg("target", msg.target_uri)});
    clock_.AdvanceMs(network_.TransferLatencyMs(msg.EncodedSizeHint()));
    network_.CountMessage();
    Result<ReplyMessage> dup_reply = target->DeliverCall(msg);
    (void)dup_reply;
  }

  if (cross_machine) {
    obs::Tracer::Span net_span;
    if (tracer_.enabled()) {
      net_span = tracer_.StartSpan(
          "net", "xfer", "network", chain,
          {obs::Arg("leg", "reply"), obs::Arg("method", msg.method),
           obs::Arg("bytes",
                    static_cast<uint64_t>(reply->EncodedSizeHint()))});
    }
    clock_.AdvanceMs(network_.TransferLatencyMs(reply->EncodedSizeHint()));
    network_.CountMessage();
    if (network_.faults_enabled()) {
      NetworkDelivery d =
          network_.DecideDelivery(target->machine_name(), source_machine,
                                  msg.method, NetLeg::kReply);
      if (d.extra_delay_ms > 0.0) {
        clock_.AdvanceMs(d.extra_delay_ms);
        metrics_.GetGauge("phoenix.net.jitter_delay_ms").Add(d.extra_delay_ms);
        net_span.AddArg(obs::Arg("jitter_ms", d.extra_delay_ms));
      }
      if (d.drop) {
        // The server already executed and logged the call; losing the reply
        // forces the caller to retry with the same call ID, exercising the
        // duplicate-elimination path end to end.
        net_span.AddArg(obs::Arg("outcome", "dropped"));
        RecordNetworkDrop(target->machine_name(), source_machine, msg.method,
                          NetLeg::kReply, chain);
        return Status::Unavailable("network dropped reply for " + msg.method +
                                   " from " + msg.target_uri);
      }
    }
  }
  return reply;
}

void Simulation::RecordNetworkDrop(const std::string& src,
                                   const std::string& dst,
                                   const std::string& method, NetLeg leg,
                                   obs::SpanLink link) {
  metrics_.GetCounter("phoenix.net.dropped", {{"leg", NetLegName(leg)}})
      .Increment();
  tracer_.Instant("net", "drop", "network", link,
                  {obs::Arg("leg", NetLegName(leg)),
                   obs::Arg("method", method), obs::Arg("src", src),
                   obs::Arg("dst", dst)});
}

std::vector<Context*>& Simulation::CurrentContextStack() {
  if (session_scheduler_ != nullptr) {
    if (std::vector<Context*>* stack =
            session_scheduler_->current_context_stack()) {
      return *stack;
    }
  }
  return context_stack_;
}

const std::vector<Context*>& Simulation::CurrentContextStack() const {
  return const_cast<Simulation*>(this)->CurrentContextStack();
}

std::vector<obs::SpanLink>& Simulation::CurrentTraceStack() {
  if (session_scheduler_ != nullptr) {
    if (std::vector<obs::SpanLink>* stack =
            session_scheduler_->current_trace_stack()) {
      return *stack;
    }
  }
  return trace_stack_;
}

const std::vector<obs::SpanLink>& Simulation::CurrentTraceStack() const {
  return const_cast<Simulation*>(this)->CurrentTraceStack();
}

void Simulation::DumpFlightRecorderOnCrash() {
  if (params_.flight_dump_path.empty() ||
      tracer_.flight_recorder_capacity() == 0) {
    return;
  }
  std::ofstream out(params_.flight_dump_path,
                    std::ios::binary | std::ios::trunc);
  if (!out) return;
  out << tracer_.ExportFlightRecorder();
}

void Simulation::RunSessions(std::vector<std::function<void()>> sessions) {
  PHX_CHECK(session_scheduler_ == nullptr);  // no nesting
  // A distinct stream from the network/retry/disk seeds so adding
  // sessions never perturbs their draws.
  SessionScheduler scheduler(params_.seed * 77003 + 13);
  session_scheduler_ = &scheduler;
  // Processes started (or restarted by recovery) while the scheduler is
  // active pick it up in Process::Start; wire the ones already running.
  for (const auto& [name, machine] : machines_) {
    for (const auto& [pid, process] : machine->processes()) {
      for (uint32_t s = 0; s < process->log().shard_count(); ++s) {
        process->log().pipeline(s).SetScheduler(&scheduler);
      }
    }
  }
  std::vector<Process*> async_checkpoint_procs;
  if (options_.async_checkpoint) {
    // One background checkpoint session per live process. The foreground
    // bodies are wrapped with a completion latch: the checkpoint sessions
    // must outlive every caller chain (a late bracket still publishes) but
    // exit once all of them are done — otherwise Run() would never return.
    auto remaining = std::make_shared<int>(static_cast<int>(sessions.size()));
    for (std::function<void()>& body : sessions) {
      body = [body = std::move(body), remaining] {
        body();
        --*remaining;
      };
    }
    uint32_t interval = options_.async_checkpoint_interval;
    for (const auto& [name, machine] : machines_) {
      for (const auto& [pid, process] : machine->processes()) {
        Process* proc = process.get();
        if (!proc->alive()) continue;
        async_checkpoint_procs.push_back(proc);
        proc->set_async_checkpoint_active(true);
        sessions.push_back([proc, remaining, interval, &scheduler] {
          while (true) {
            bool sweep = false;
            // Evaluated while every chain is quiesced, so reading process
            // state here is race-free. Exit wins over a due sweep: once
            // the workload is drained there is nothing left to protect.
            scheduler.ParkUntil([proc, remaining, interval, &sweep] {
              if (*remaining == 0) return true;
              if (proc->checkpoints().AsyncSweepDue(interval)) {
                sweep = true;
                return true;
              }
              return false;
            });
            if (!sweep) break;
            // A crash mid-sweep surfaces as Crashed; the session simply
            // re-parks and resumes sweeping after recovery restarts the
            // process. checkpoints() is re-fetched every iteration —
            // Process::Start rebuilds the manager.
            (void)proc->checkpoints().RunAsyncSweep();
          }
        });
      }
    }
  }
  scheduler.Run(std::move(sessions));
  for (Process* proc : async_checkpoint_procs) {
    proc->set_async_checkpoint_active(false);
  }
  session_scheduler_ = nullptr;
  for (const auto& [name, machine] : machines_) {
    for (const auto& [pid, process] : machine->processes()) {
      for (uint32_t s = 0; s < process->log().shard_count(); ++s) {
        process->log().pipeline(s).SetScheduler(nullptr);
      }
    }
  }
}

uint64_t Simulation::TotalForces() const {
  uint64_t total = 0;
  for (const auto& [name, machine] : machines_) {
    for (const auto& [pid, process] : machine->processes()) {
      total += process->log().num_forces();
    }
  }
  return total;
}

uint64_t Simulation::TotalAppends() const {
  uint64_t total = 0;
  for (const auto& [name, machine] : machines_) {
    for (const auto& [pid, process] : machine->processes()) {
      total += process->log().num_appends();
    }
  }
  return total;
}

uint64_t Simulation::TotalBytesForced() const {
  uint64_t total = 0;
  for (const auto& [name, machine] : machines_) {
    for (const auto& [pid, process] : machine->processes()) {
      total += process->log().bytes_forced();
    }
  }
  return total;
}

void Simulation::CaptureBench(obs::BenchVariant& variant) const {
  variant.SetMetric("forces", TotalForces());
  variant.SetMetric("appends", TotalAppends());
  variant.SetMetric("bytes_forced", TotalBytesForced());
  variant.SetMetric("sim_time_ms", clock_.NowMs());
  variant.SetMetric("calls_routed",
                    metrics_.CounterTotal("phoenix.call.routed"));
  variant.SetLatency(metrics_.MergedHistogram("phoenix.call.latency_ms"));
}

}  // namespace phoenix
