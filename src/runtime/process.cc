#include "runtime/process.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"
#include "recovery/checkpoint_manager.h"
#include "recovery/recovery_service.h"
#include "runtime/machine.h"
#include "runtime/simulation.h"

namespace phoenix {
namespace {

// The built-in activator (component id 0 of every process). Component
// creation is one of its persistent method calls, so creations ride on the
// ordinary logging / duplicate-elimination / replay machinery. Create is
// idempotent per component name, which is what makes replaying it safe.
class ActivatorComponent : public Component {
 public:
  explicit ActivatorComponent(Process* process) : process_(process) {}

  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Create", [this](const ArgList& args) {
      return DoCreate(args);
    });
  }

 private:
  Result<Value> DoCreate(const ArgList& args) {
    // args: type_name, name, kind, ctor_args(list)
    if (args.size() != 4 || args[0].kind() != Value::Kind::kString ||
        args[1].kind() != Value::Kind::kString ||
        args[2].kind() != Value::Kind::kInt ||
        args[3].kind() != Value::Kind::kList) {
      return Status::InvalidArgument(
          "Create(type_name, name, kind, ctor_args)");
    }
    auto kind = static_cast<ComponentKind>(args[2].AsInt());
    PHX_ASSIGN_OR_RETURN(
        std::string uri,
        process_->CreateComponent(args[0].AsString(), args[1].AsString(),
                                  kind, args[3].AsList()));
    return Value(uri);
  }

  Process* process_;
};

}  // namespace

Process::Process(Machine* machine, uint32_t pid)
    : machine_(machine), pid_(pid) {
  Start();
}

Process::~Process() = default;

Simulation* Process::simulation() const { return machine_->simulation(); }

const std::string& Process::machine_name() const { return machine_->name(); }

std::string Process::log_name() const {
  return StrCat(machine_->name(), "/proc", pid_, ".log");
}

std::string Process::ActivatorUri() const {
  return MakeComponentUri(machine_name(), pid_, kActivatorName);
}

Status Process::WaitDurable(ForcePoint reason) {
  if (!alive_) return Status::Crashed("process is down");
  // The park below may outlive this incarnation.
  IncarnationPin pin(this);
  // A parked wait can resume after another chain crashed this process, and
  // even after it restarted it: the waiting chain then belongs to a dead
  // incarnation and unwinds with Crashed, although its own wait was met.
  uint64_t incarnation = crash_count_;
  auto died = [this, incarnation] {
    return !alive_ || crash_count_ != incarnation;
  };
  // Recovery must not yield: its replay is itself driven from a chain that
  // other sessions may be parked behind.
  if (!log_->sharded()) {
    Status status = log_->WaitDurable(log_->next_lsn(), reason,
                                      /*allow_park=*/!recovering_);
    if (status.ok() && died()) return Status::Crashed("process is down");
    return status;
  }
  // Sharded WAL: force only the shards this chain has appended to since
  // its last wait (a cross-shard send must not pay for other chains'
  // shards), in ascending shard order so the interleaving is
  // deterministic. While the chain is parked only other chains run, and
  // their appends accrue to their own masks — so the mask read here is
  // stable across the loop.
  int key = CurrentChainKey();
  uint64_t mask = 0;
  if (auto it = chain_touched_shards_.find(key);
      it != chain_touched_shards_.end()) {
    mask = it->second;
  }
  for (uint32_t s = 0; mask != 0 && s < log_->shard_count(); ++s) {
    if ((mask & (uint64_t{1} << s)) == 0) continue;
    Status status =
        log_->WaitDurableShard(s, reason, /*allow_park=*/!recovering_);
    if (!status.ok()) return status;
    if (died()) return Status::Crashed("process is down");
  }
  chain_touched_shards_.erase(key);
  return Status::OK();
}

bool Process::SharesLog() const { return !log_->sharded(); }

void Process::NoteShardAppend(uint32_t shard) {
  chain_touched_shards_[CurrentChainKey()] |= uint64_t{1} << shard;
}

int Process::CurrentChainKey() const {
  SessionScheduler* scheduler = simulation()->session_scheduler();
  return scheduler != nullptr ? scheduler->current_session() : -1;
}

bool Process::MaybeCrash(FailurePoint point) {
  Simulation* sim = simulation();
  if (recovering_ && !sim->options().inject_failures_during_recovery) {
    return false;
  }
  if (sim->injector().ShouldCrash(machine_name(), pid_, point)) {
    Kill();
    return true;
  }
  return false;
}

void Process::NoteExternalization() {
  // The observable world may reflect records on any shard, so every
  // shard's floor conservatively rises to its current stable end.
  for (uint32_t s = 0; s < externalized_floor_.size(); ++s) {
    externalized_floor_[s] =
        std::max(externalized_floor_[s], log_->shard_stable_end(s));
  }
}

void Process::Kill() {
  if (!alive_) return;
  alive_ = false;
  ++crash_count_;
  pending_flusher_ = nullptr;
  chain_touched_shards_.clear();
  // Everything volatile dies with the process: unforced log records, the
  // contexts (component states), and the global tables of Table 1.
  // DropBuffer also aborts the commit pipeline so sessions parked on a
  // durability wait wake and unwind with Crashed.
  log_->DropBuffer();
  MaybeTearStableTail();
  // The contexts join this incarnation's corpse: a frame may still be
  // executing inside one of them (it holds a pin).
  corpses_[incarnation_].contexts = std::move(contexts_);
  contexts_.clear();
  component_to_context_.clear();
  last_calls_.Clear();
  remote_types_.Clear();
  next_parent_id_ = 1;
  Simulation* sim = simulation();
  std::string label = StrCat(machine_name(), "/", pid_);
  sim->metrics()
      .GetCounter("phoenix.process.crashes", obs::LabelSet{{"process", label}})
      .Increment();
  sim->tracer().Instant("process", "crash", label, sim->Current(),
                        {obs::Arg("crash_count", crash_count_)});
  // Post-mortem: the flight recorder's last events per component, written
  // out while they still exist (the rings survive in the tracer, but a
  // later crash would overwrite the file with fresher context anyway).
  sim->DumpFlightRecorderOnCrash();
  machine_->recovery_service().NotifyCrashed(pid_);
  FreeUnpinnedCorpses();
}

Process::IncarnationPin::IncarnationPin(Process* process)
    : process_(process), incarnation_(process->incarnation_) {
  ++process_->live_pins_;
}

Process::IncarnationPin::~IncarnationPin() {
  if (incarnation_ == process_->incarnation_) {
    --process_->live_pins_;
  } else {
    --process_->corpses_.at(incarnation_).pins;
  }
}

void Process::FreeUnpinnedCorpses() {
  std::erase_if(corpses_, [this](const auto& entry) {
    const auto& [incarnation, corpse] = entry;
    return (incarnation == incarnation_ ? live_pins_ : corpse.pins) == 0;
  });
}

void Process::MaybeTearStableTail() {
  uint64_t tear = simulation()->injector().MaybeTearBytes();
  if (tear == 0) return;
  InjectTornTail(tear);
}

void Process::InjectTornTail(uint64_t tear) {
  Simulation* sim = simulation();
  if (tear == 0) return;
  // Tear the shard with the largest un-externalized stable span (ties to
  // the lowest shard id; a single log is shard 0); the other shards keep
  // their tails, which is exactly the case the per-shard salvage path must
  // handle.
  auto floor_of = [this](uint32_t s) {
    return std::max(externalized_floor_[s], log_->shard_head_base(s));
  };
  uint32_t shard = 0;
  uint64_t best_span = 0;
  for (uint32_t s = 0; s < log_->shard_count(); ++s) {
    uint64_t end = log_->shard_stable_end(s);
    uint64_t span = end > floor_of(s) ? end - floor_of(s) : 0;
    if (span > best_span) {
      best_span = span;
      shard = s;
    }
  }
  if (best_span == 0) return;  // nothing un-externalized on any shard
  uint64_t stable_end = log_->shard_stable_end(shard);
  uint64_t floor = floor_of(shard);
  uint64_t target = stable_end > tear ? stable_end - tear : 0;
  if (target < floor) target = floor;
  sim->storage().TruncateLog(log_->shard_log_name(shard), target);
  std::string label = StrCat(machine_name(), "/", pid_);
  sim->metrics()
      .GetCounter("phoenix.storage.torn_tail_injected",
                  obs::LabelSet{{"process", label}})
      .Increment();
  sim->tracer().Instant("storage", "torn_tail_injected", label,
                        {obs::Arg("torn_at_lsn", target),
                         obs::Arg("bytes_torn", stable_end - target)});
  // Start() recreates the LogWriter from the (now shorter) storage image,
  // so the writer realigns automatically at restart.
}

void Process::Start() {
  Simulation* sim = simulation();
  if (log_ != nullptr) {
    // The previous incarnation's managers join its corpse (Kill already
    // moved its contexts there), and so do its pins.
    Corpse& corpse = corpses_[incarnation_++];
    corpse.log = std::move(log_);
    corpse.checkpoints = std::move(checkpoints_);
    corpse.pins = live_pins_;
    live_pins_ = 0;
    FreeUnpinnedCorpses();
  }
  log_ = std::make_unique<LogManager>(log_name(), &sim->storage(),
                                      &machine_->disk(), &sim->clock(),
                                      &sim->costs(), sim->options().wal_shards,
                                      sim->options().wal_shard_seed);
  // The registry-backed log series survive this restart (the LogManager's
  // own per-instance stats do not).
  log_->BindObs(&sim->metrics(), &sim->tracer(),
                StrCat(machine_name(), "/", pid_));
  log_->SetTraceScope(sim);
  for (uint32_t s = 0; s < log_->shard_count(); ++s) {
    log_->pipeline(s).SetGroupCommit(sim->options().group_commit);
    log_->pipeline(s).SetScheduler(sim->session_scheduler());
    log_->pipeline(s).SetGroupCommitPolicy(
        sim->options().group_commit_max_wait_ms,
        sim->options().group_commit_max_batch);
    log_->pipeline(s).SetCrashHook(
        [this] { return MaybeCrash(FailurePoint::kDuringGroupFlush); });
  }
  // Everything stable at (re)start is conservatively treated as already
  // externalized: only bytes forced after this point without leaving the
  // process are candidates for a future torn tail.
  externalized_floor_.assign(log_->shard_count(), 0);
  NoteExternalization();
  chain_touched_shards_.clear();
  if (log_->sharded()) {
    log_->SetAppendObserver(
        [this](uint32_t shard) { NoteShardAppend(shard); });
  }
  checkpoints_ = std::make_unique<CheckpointManager>(this);
  contexts_.clear();
  component_to_context_.clear();
  last_calls_.Clear();
  remote_types_.Clear();
  next_parent_id_ = 1;
  alive_ = true;

  // The activator lives in context 0 and is never logged as created — it is
  // reconstructed identically at every start.
  Context* ctx = CreateRawContext(0);
  ctx->AddComponent(std::make_unique<ActivatorComponent>(this), "_Activator",
                    kActivatorName, ComponentKind::kPersistent, 0);
  component_to_context_[kActivatorName] = 0;
}

Result<std::string> Process::CreateComponent(const std::string& type_name,
                                             const std::string& name,
                                             ComponentKind kind,
                                             ArgList ctor_args) {
  if (!alive_) return Status::Unavailable("process is down");
  if (kind == ComponentKind::kExternal) {
    return Status::InvalidArgument(
        "external components are not created inside Phoenix processes");
  }
  if (kind == ComponentKind::kSubordinate) {
    return Status::InvalidArgument(
        "subordinates are created by their parent via CreateSubordinate");
  }
  // Idempotent per name: replayed/retried Create calls find the first one.
  if (auto it = component_to_context_.find(name);
      it != component_to_context_.end()) {
    Context* ctx = FindContext(it->second);
    ComponentSlot* slot = ctx->FindSlot(name);
    PHX_CHECK(slot != nullptr);
    return slot->instance->uri();
  }

  Simulation* sim = simulation();
  PHX_ASSIGN_OR_RETURN(std::unique_ptr<Component> instance,
                       sim->factories().Create(type_name));

  uint64_t id = next_parent_id_++;
  Context* ctx = CreateRawContext(id);
  Component* comp =
      ctx->AddComponent(std::move(instance), type_name, name, kind, id);
  component_to_context_[name] = id;

  // The creation record is the context's replay origin (§4.4 treats it like
  // an incoming call). Not forced: the activator's reply force covers it.
  CreationRecord rec;
  rec.context_id = id;
  rec.type_name = type_name;
  rec.name = name;
  rec.kind = kind;
  rec.ctor_args = ctor_args;
  uint64_t lsn = log_->Append(rec);
  ctx->set_creation_lsn(lsn);

  Status init = ctx->RunInitialize(ctor_args);
  if (init.IsCrashed()) return init;
  if (!init.ok()) return init;
  return comp->uri();
}

Context* Process::FindContext(uint64_t context_id) {
  auto it = contexts_.find(context_id);
  return it == contexts_.end() ? nullptr : it->second.get();
}

Context* Process::FindContextOfComponent(const std::string& name) {
  auto it = component_to_context_.find(name);
  return it == component_to_context_.end() ? nullptr
                                           : FindContext(it->second);
}

ComponentSlot* Process::FindComponent(const std::string& name) {
  Context* ctx = FindContextOfComponent(name);
  return ctx == nullptr ? nullptr : ctx->FindSlot(name);
}

void Process::IndexComponentName(const std::string& name,
                                 uint64_t context_id) {
  component_to_context_[name] = context_id;
}

Context* Process::CreateRawContext(uint64_t context_id) {
  auto [it, inserted] = contexts_.emplace(
      context_id, std::make_unique<Context>(this, context_id));
  PHX_CHECK(inserted);
  return it->second.get();
}

void Process::set_recovering(bool r) {
  recovering_ = r;
  recovery_scheduler_ = r ? simulation()->session_scheduler() : nullptr;
  recovery_chain_ = CurrentChainKey();
}

Result<ReplyMessage> Process::DeliverCall(const CallMessage& msg) {
  if (!alive_) return Status::Unavailable("process is down");
  if (recovering_ && recovery_scheduler_ != nullptr &&
      recovery_scheduler_ == simulation()->session_scheduler() &&
      CurrentChainKey() != recovery_chain_) {
    // A recovery running on a session chain can park (its live replay
    // calls wait on other processes' durability). Another chain's call
    // waits for the recovery to end rather than enter a context that is
    // still replaying. Calls from the recovering chain itself, and from
    // the replay sessions of a recovery that owns its own scheduler, go
    // through.
    recovery_scheduler_->ParkUntil([this] { return !recovering_; });
    if (!alive_) return Status::Unavailable("process is down");
  }
  PHX_ASSIGN_OR_RETURN(ParsedUri target, ParseComponentUri(msg.target_uri));
  Context* ctx = FindContextOfComponent(target.component_name);
  if (ctx == nullptr) {
    return Status::NotFound("no component " + target.component_name);
  }
  if (recovering_ && pending_flusher_ != nullptr) {
    // Finish recovering the target context before serving live traffic.
    pending_flusher_(ctx->id(), msg);
    if (!alive_) return Status::Unavailable("process is down");
    ctx = FindContextOfComponent(target.component_name);
    if (ctx == nullptr) {
      return Status::NotFound("no component " + target.component_name);
    }
  }
  ComponentSlot* slot = ctx->FindSlot(target.component_name);
  PHX_CHECK(slot != nullptr);
  if (slot->instance->kind() == ComponentKind::kSubordinate) {
    // §3.2.1: only the parent accepts calls from outside the context.
    return Status::FailedPrecondition(
        StrCat("subordinate ", target.component_name,
               " only serves calls from inside its context"));
  }
  return ctx->HandleIncoming(msg);
}

}  // namespace phoenix
