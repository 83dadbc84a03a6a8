#ifndef PHOENIX_RECOVERY_RECOVERY_SERVICE_H_
#define PHOENIX_RECOVERY_RECOVERY_SERVICE_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/result.h"

namespace phoenix {

class LogManager;
class Machine;
class Process;
class StableStorage;

// Rots the newest readable state record (in append order; on a sharded log
// in whichever shard file holds it): two bit flips in its payload, past the
// frame header. A storage attack between recovery attempts, and the chaos
// engine's mid-run bit rot.
void RotNewestStateRecord(StableStorage& storage, const LogManager& log);

// The per-machine recovery service (Figure 4 / §2.4). Processes hosting
// persistent components register at start; the service assigns their
// logical process IDs (stable across failures — they are part of every
// method call ID), force-writes its registration table to stable storage,
// detects abnormal exits, and restarts/recovers dead processes.
//
// Restarting is supervised: each dead process gets a bounded number of
// recovery attempts per rung of a degradation ladder (normal recovery →
// salvage-assessed recovery → state-record cold start; RecoveryMode in
// recovery_manager.h), with capped-exponential backoff between failed
// attempts and a terminal kUnavailable status when the ladder is exhausted
// — never an unbounded retry loop. Storage attacks registered with the
// failure injector (FailureInjector::AddRecoveryAttack) are applied between
// attempts, so recovery is tested against a disk that keeps rotting under
// it. Per-rung progress is visible as
// phoenix.recovery.supervisor.{attempts,rung,gave_up}.
class RecoveryService {
 public:
  explicit RecoveryService(Machine* machine);

  RecoveryService(const RecoveryService&) = delete;
  RecoveryService& operator=(const RecoveryService&) = delete;

  // Registers a new process: assigns the next logical pid and durably
  // records it. Returns the pid.
  uint32_t RegisterProcess();

  // Called by Process::Kill so the service learns of the abnormal exit.
  void NotifyCrashed(uint32_t pid);

  // Restarts and recovers `pid` if it is dead (callers' retry paths use
  // this; a real deployment's monitor would do it asynchronously).
  // Returns kNotFound for unknown pids.
  Status EnsureProcessAlive(uint32_t pid);

  // Restarts every dead registered process.
  Status RestartAllDead();

  // Number of dead registered processes.
  int dead_count() const;

  // Reads the durable registration table back (used on machine restart and
  // by tests asserting durability).
  Result<std::map<uint32_t, std::string>> ReadDurableTable() const;

  uint64_t recoveries_performed() const { return recoveries_performed_; }

 private:
  // One walk down the degradation ladder for a dead process; returns OK,
  // or the terminal status when every rung is exhausted.
  Status SuperviseRecovery(uint32_t pid, Process* process);
  // Applies the injector's storage attacks scheduled before `attempt`.
  void ApplyRecoveryAttacks(Process* process, uint64_t attempt);
  void PersistTable();
  // Persists only when a registration actually changed the table since the
  // last write; otherwise counts the skipped redundant force.
  void PersistTableIfDirty();
  std::string TableFileName() const;

  Machine* machine_;
  // pid -> log name. The durable copy lives in stable storage.
  std::map<uint32_t, std::string> registered_;
  bool table_dirty_ = false;
  uint32_t next_pid_ = 1;
  uint64_t recoveries_performed_ = 0;
};

}  // namespace phoenix

#endif  // PHOENIX_RECOVERY_RECOVERY_SERVICE_H_
