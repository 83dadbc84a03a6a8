#include "recovery/recovery_service.h"

#include <optional>

#include "common/strings.h"
#include "core/retry.h"
#include "recovery/recovery_manager.h"
#include "runtime/machine.h"
#include "runtime/process.h"
#include "runtime/simulation.h"
#include "serde/codec.h"
#include "wal/log_reader.h"
#include "wal/merged_log_reader.h"

namespace phoenix {
namespace {

constexpr int kNumRungs = 3;

// Backoff between failed recovery attempts. No time budget: the attempt
// count per rung alone ends the ladder.
constexpr BackoffPolicy kSupervisorBackoff{};

RecoveryMode ModeForRung(int rung) {
  switch (rung) {
    case 0:
      return RecoveryMode::kNormal;
    case 1:
      return RecoveryMode::kSalvageAssessed;
    default:
      return RecoveryMode::kColdStart;
  }
}

}  // namespace

RecoveryService::RecoveryService(Machine* machine) : machine_(machine) {}

std::string RecoveryService::TableFileName() const {
  return machine_->name() + "/.recovery_service";
}

void RecoveryService::PersistTable() {
  Encoder enc;
  enc.PutVarint(registered_.size());
  for (const auto& [pid, log_name] : registered_) {
    enc.PutVarint(pid);
    enc.PutString(log_name);
  }
  Simulation* sim = machine_->simulation();
  sim->storage().WriteFile(TableFileName(), enc.buffer());
  // The paper force-writes registration updates to the service's log.
  sim->clock().AdvanceMs(
      machine_->disk().WriteLatencyMs(sim->clock().NowMs(), enc.size()));
  table_dirty_ = false;
  sim->metrics()
      .GetCounter("phoenix.recovery.service.table_forces",
                  obs::LabelSet{{"machine", machine_->name()}})
      .Increment();
}

void RecoveryService::PersistTableIfDirty() {
  if (table_dirty_) {
    PersistTable();
    return;
  }
  // A restart changes no registration: pid and log name are stable across
  // failures by design. Re-forcing the identical table here was pure disk
  // traffic — skip it and keep the skip visible.
  machine_->simulation()
      ->metrics()
      .GetCounter("phoenix.recovery.service.table_force_skips",
                  obs::LabelSet{{"machine", machine_->name()}})
      .Increment();
}

uint32_t RecoveryService::RegisterProcess() {
  uint32_t pid = next_pid_++;
  registered_[pid] = StrCat(machine_->name(), "/proc", pid, ".log");
  table_dirty_ = true;
  PersistTable();
  return pid;
}

void RecoveryService::NotifyCrashed(uint32_t pid) {
  // The monitor notices the abnormal exit; restart happens on demand
  // (EnsureProcessAlive / RestartAllDead).
  (void)pid;
}

Status RecoveryService::EnsureProcessAlive(uint32_t pid) {
  Process* process = machine_->GetProcess(pid);
  if (process == nullptr) {
    return Status::NotFound(StrCat("unknown process ", pid));
  }
  if (process->alive()) return Status::OK();
  return SuperviseRecovery(pid, process);
}

void RotNewestStateRecord(StableStorage& storage, const LogManager& log) {
  std::optional<OrderedRecord> newest;
  OrderedLogCursor cursor(log, log.head_order());
  while (std::optional<OrderedRecord> rec = cursor.Next()) {
    if (std::holds_alternative<ContextStateRecord>(rec->record)) {
      newest = std::move(rec);
    }
  }
  if (!newest.has_value()) return;
  uint64_t payload = FramePayloadLsn(log.ShardStableView(newest->shard),
                                     LocalOfLsn(newest->lsn))
                         .value();
  storage.CorruptLog(log.shard_log_name(newest->shard), payload,
                     /*flip_count=*/2);
}

void RecoveryService::ApplyRecoveryAttacks(Process* process,
                                           uint64_t attempt) {
  Simulation* sim = machine_->simulation();
  std::vector<RecoveryAttack> attacks = sim->injector().TakeRecoveryAttacks(
      machine_->name(), process->pid(), attempt);
  if (attacks.empty()) return;
  std::string label = StrCat(machine_->name(), "/", process->pid());
  const std::string log_name = process->log().log_name();
  for (RecoveryAttack kind : attacks) {
    switch (kind) {
      case RecoveryAttack::kCorruptWellKnownFile:
        sim->storage().CorruptFile(log_name + ".wkf", 0, /*flip_count=*/2);
        break;
      case RecoveryAttack::kCorruptNewestStateRecord:
        RotNewestStateRecord(sim->storage(), process->log());
        break;
      case RecoveryAttack::kTearStableTail:
        process->InjectTornTail(24);
        break;
    }
    sim->metrics()
        .GetCounter("phoenix.recovery.supervisor.storage_attacks",
                    obs::LabelSet{{"process", label},
                                  {"attack", RecoveryAttackName(kind)}})
        .Increment();
    sim->tracer().Instant("recovery", "supervisor_storage_attack", label,
                          {obs::Arg("attack", RecoveryAttackName(kind)),
                           obs::Arg("before_attempt", attempt)});
  }
}

Status RecoveryService::SuperviseRecovery(uint32_t pid, Process* process) {
  Simulation* sim = machine_->simulation();
  const RuntimeOptions& opts = sim->options();
  std::string label = StrCat(machine_->name(), "/", pid);
  obs::LabelSet labels{{"process", label}};

  const int attempts_per_rung = opts.recovery_supervisor_attempts_per_rung;
  RetryBackoff backoff(kSupervisorBackoff);

  // Recovery only reads the stable log, so it is idempotent: if the process
  // is killed again mid-recovery (inject_failures_during_recovery), the
  // supervisor restarts it — first at the same rung, then one rung harder.
  // The fault-free path runs exactly one attempt with no sleep and no rng
  // draw, so pinned benchmarks cannot be perturbed by the ladder.
  Status status = Status::Crashed("not attempted");
  uint64_t attempt = 0;
  bool budget_exhausted = false;
  for (int rung = 0; rung < kNumRungs && !budget_exhausted; ++rung) {
    sim->metrics()
        .GetGauge("phoenix.recovery.supervisor.rung", labels)
        .Set(rung);
    if (rung > 0) {
      sim->tracer().Instant(
          "recovery", "supervisor_escalate", label,
          {obs::Arg("rung", static_cast<uint64_t>(rung)),
           obs::Arg("mode", RecoveryModeName(ModeForRung(rung)))});
    }
    for (int a = 0; a < attempts_per_rung; ++a) {
      ++attempt;
      ApplyRecoveryAttacks(process, attempt);
      sim->metrics()
          .GetCounter("phoenix.recovery.supervisor.attempts",
                      obs::LabelSet{{"process", label},
                                    {"rung",
                                     RecoveryModeName(ModeForRung(rung))}})
          .Increment();
      process->Start();
      process->set_recovering(true);
      RecoveryManager recovery(process, ModeForRung(rung));
      status = recovery.Recover();
      process->set_recovering(false);
      process->SetPendingFlusher(nullptr);
      if (status.ok() && process->alive()) {
        ++recoveries_performed_;
        PersistTableIfDirty();
        return Status::OK();
      }
      if (process->alive()) process->Kill();
      if (status.ok()) {
        status = Status::Crashed("process died during recovery");
      }
      sim->tracer().Instant("recovery", "supervisor_attempt_failed", label,
                            {obs::Arg("attempt", attempt),
                             obs::Arg("rung", static_cast<uint64_t>(rung))});
      if (!status.IsCrashed()) break;  // structural failure: escalate now
      if (a + 1 < attempts_per_rung) {
        double delay = backoff.NextDelayMs(sim->retry_rng());
        if (delay < 0) {
          budget_exhausted = true;
          break;
        }
        sim->clock().AdvanceMs(delay);
      }
    }
  }

  sim->metrics()
      .GetCounter("phoenix.recovery.supervisor.gave_up", labels)
      .Increment();
  sim->tracer().Instant("recovery", "supervisor_gave_up", label,
                        {obs::Arg("attempts", attempt),
                         obs::Arg("budget_exhausted", budget_exhausted)});
  return Status::Unavailable(
      StrCat("recovery supervisor gave up on ", label, " after ", attempt,
             " attempt(s): ", status.ToString()));
}

Status RecoveryService::RestartAllDead() {
  for (const auto& [pid, log_name] : registered_) {
    PHX_RETURN_IF_ERROR(EnsureProcessAlive(pid));
  }
  return Status::OK();
}

int RecoveryService::dead_count() const {
  int dead = 0;
  for (const auto& [pid, log_name] : registered_) {
    Process* process =
        const_cast<Machine*>(machine_)->GetProcess(pid);
    if (process != nullptr && !process->alive()) ++dead;
  }
  return dead;
}

Result<std::map<uint32_t, std::string>> RecoveryService::ReadDurableTable()
    const {
  PHX_ASSIGN_OR_RETURN(
      std::vector<uint8_t> data,
      machine_->simulation()->storage().ReadFile(TableFileName()));
  Decoder dec(data);
  PHX_ASSIGN_OR_RETURN(uint64_t n, dec.GetVarint());
  std::map<uint32_t, std::string> table;
  for (uint64_t i = 0; i < n; ++i) {
    PHX_ASSIGN_OR_RETURN(uint64_t pid, dec.GetVarint());
    PHX_ASSIGN_OR_RETURN(std::string log_name, dec.GetString());
    table[static_cast<uint32_t>(pid)] = std::move(log_name);
  }
  return table;
}

}  // namespace phoenix
