#ifndef PHOENIX_RUNTIME_PROCESS_H_
#define PHOENIX_RUNTIME_PROCESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "runtime/context.h"
#include "sim/failure_injector.h"
#include "runtime/last_call_table.h"
#include "runtime/message.h"
#include "runtime/remote_type_table.h"
#include "wal/log_manager.h"

namespace phoenix {

class Machine;
class Simulation;
class CheckpointManager;
class SessionScheduler;

// Name of the built-in activator component present in every process
// (context/component id 0). Component creation is a normal persistent
// method call to it, so creations are logged, deduplicated and replayed by
// exactly the same machinery as any other call.
inline constexpr char kActivatorName[] = "_activator";

// A simulated OS process hosting Phoenix contexts (Figure 7): the log
// manager, the global tables of Table 1 (context table = the Context
// objects themselves, component name table, remote component table, shared
// last-call table), and the crash/restart surface the recovery service
// drives.
class Process {
 public:
  Process(Machine* machine, uint32_t pid);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  // --- identity ---
  uint32_t pid() const { return pid_; }
  Machine* machine() const { return machine_; }
  Simulation* simulation() const;
  const std::string& machine_name() const;
  std::string log_name() const;
  std::string ActivatorUri() const;

  // --- subsystems ---
  LogManager& log() { return *log_; }

  // Durability wait for everything this process has appended so far: the
  // single API behind every interceptor force site (wal/force_point.h
  // names them). Parks the calling session under group commit; flushes
  // inline otherwise. Returns Crashed when the process died before the
  // wait was satisfied.
  Status WaitDurable(ForcePoint reason);
  // True when a send between two contexts of this process needs no force
  // (runtime/logging_policy.h): only on an unsharded log. The shards of a
  // sharded log become durable independently, so a send there still forces.
  bool SharesLog() const;

  LastCallTable& last_calls() { return last_calls_; }
  RemoteTypeTable& remote_types() { return remote_types_; }
  CheckpointManager& checkpoints() { return *checkpoints_; }

  // --- liveness ---
  bool alive() const { return alive_; }
  bool recovering() const { return recovering_; }
  // Also remembers the chain that runs the recovery: DeliverCall parks
  // other chains' calls until it ends (see there).
  void set_recovering(bool r);

  // Crash: all volatile state is dropped — contexts, tables, and the
  // unforced log buffer. The stable log and well-known file survive.
  void Kill();

  // Re-initializes the volatile runtime structures (empty tables, fresh
  // activator) after a crash; the recovery manager then repopulates them
  // from the log. Also used for the initial start.
  void Start();

  // --- components / contexts ---

  // Creates a component in a fresh context, writing its creation record and
  // running Initialize(). Idempotent per name (a re-created name returns
  // the existing URI). This is the internal path; remote callers go through
  // the activator's "Create" method.
  Result<std::string> CreateComponent(const std::string& type_name,
                                      const std::string& name,
                                      ComponentKind kind, ArgList ctor_args);

  Context* FindContext(uint64_t context_id);
  // Context owning component `name` (parents and subordinates).
  Context* FindContextOfComponent(const std::string& name);
  ComponentSlot* FindComponent(const std::string& name);
  const std::map<uint64_t, std::unique_ptr<Context>>& contexts() const {
    return contexts_;
  }

  // Registers component `name` as living in context `context_id`
  // (recovery uses this when rebuilding contexts from snapshots).
  void IndexComponentName(const std::string& name, uint64_t context_id);

  // Creates an empty context shell with a fixed id (recovery restore path).
  Context* CreateRawContext(uint64_t context_id);

  uint64_t next_parent_id() const { return next_parent_id_; }
  void set_next_parent_id(uint64_t id) { next_parent_id_ = id; }

  // --- transport entry point ---
  // Delivers `msg` to the context of its target component. Fails with
  // kUnavailable if this process is dead, kNotFound for unknown targets,
  // kFailedPrecondition for remote calls to subordinates.
  Result<ReplyMessage> DeliverCall(const CallMessage& msg);

  // Consults the failure injector at `point`; if a crash is due, kills this
  // process and returns true. Silent while recovering unless
  // options.inject_failures_during_recovery is set.
  bool MaybeCrash(FailurePoint point);

  // While recovering, DeliverCall flushes the target context's pending
  // replay through this hook before handling a live call `msg` — a context
  // must be recovered to its last send before serving anyone (condition 1).
  using PendingFlusher =
      std::function<void(uint64_t context_id, const CallMessage& msg)>;
  void SetPendingFlusher(PendingFlusher flusher) {
    pending_flusher_ = std::move(flusher);
  }

  // Called whenever this process's effects become visible outside it (a
  // message leaves, a reply returns, a checkpoint publishes). Raises the
  // externalized floor to the current stable end: bytes below it are
  // observable by the outside world, so an injected torn tail may never eat
  // them — tearing an acknowledged record would genuinely break
  // exactly-once, which is a storage contract violation, not a crash.
  // The floor is kept per shard (a single log is shard 0), and every
  // shard's floor rises to that shard's stable end (conservative — the
  // outside world may have observed any of them).
  void NoteExternalization();

  // Shears up to `bytes` off this process's *stable* log tail, clamped to
  // the externalized floor and the garbage-collected head base (the same
  // contract as crash-time torn tails). Used by the recovery supervisor's
  // between-attempt storage attacks; safe on a dead process.
  void InjectTornTail(uint64_t bytes);

  // --- asynchronous checkpointing ---
  // True while a dedicated background checkpoint session is sweeping this
  // process (Simulation::RunSessions with RuntimeOptions.async_checkpoint
  // set): the inline capture cadence in OnIncomingCallFinished stands down
  // and foreground chains mark contexts dirty, saving only at the
  // replay-debt break-even. Deliberately *not* reset by Kill/Start — the
  // background session outlives crashes and resumes sweeping once
  // recovery brings the process back.
  bool async_checkpoint_active() const { return async_checkpoint_active_; }
  void set_async_checkpoint_active(bool active) {
    async_checkpoint_active_ = active;
  }

  // --- incarnations ---
  // An incarnation runs from one Start() to the next. When it dies, its
  // contexts (at Kill), log manager and checkpoint manager (at the next
  // Start) become a corpse. A frame that can touch an incarnation's objects
  // across a nested call or a park pins it: a call still unwinding through
  // a context after an inline restart, or a session parked in a durability
  // wait. A corpse with no pin is freed at the next Kill, Start or end of
  // Simulation::RunSessions — never when a pin is released, since the
  // releasing frame is itself running inside the corpse.
  class IncarnationPin {
   public:
    explicit IncarnationPin(Process* process);
    ~IncarnationPin();
    IncarnationPin(const IncarnationPin&) = delete;
    IncarnationPin& operator=(const IncarnationPin&) = delete;

   private:
    Process* process_;
    uint64_t incarnation_;
  };

  // Frees every corpse no pin holds.
  void FreeUnpinnedCorpses();
  // Dead incarnations whose objects are still in memory.
  size_t held_incarnations() const { return corpses_.size(); }

  // --- statistics ---
  uint64_t incoming_calls() const { return incoming_calls_; }
  void CountIncomingCall() { ++incoming_calls_; }
  uint64_t crash_count() const { return crash_count_; }

 private:
  // Torn-tail injection: consults the failure injector when this process
  // dies and may rip bytes off the stable log tail, clamped to the
  // externalized floor and the garbage-collected head base.
  void MaybeTearStableTail();

  // Sharded WAL bookkeeping: records that the executing chain appended to
  // `shard`, so its next WaitDurable only forces the shards it touched.
  void NoteShardAppend(uint32_t shard);
  // Key of the executing chain in chain_touched_shards_: the session index
  // under a scheduler, -1 off sessions.
  int CurrentChainKey() const;

  Machine* machine_;
  uint32_t pid_;
  bool alive_ = false;
  bool recovering_ = false;
  // The scheduler and chain running the current recovery (nullptr when it
  // runs off any session).
  SessionScheduler* recovery_scheduler_ = nullptr;
  int recovery_chain_ = -1;
  bool async_checkpoint_active_ = false;

  std::unique_ptr<LogManager> log_;
  std::unique_ptr<CheckpointManager> checkpoints_;
  std::map<uint64_t, std::unique_ptr<Context>> contexts_;  // the context table
  std::map<std::string, uint64_t> component_to_context_;   // component table
  LastCallTable last_calls_;
  RemoteTypeTable remote_types_;
  uint64_t next_parent_id_ = 1;  // id 0 is the activator
  // Externalized floor per shard (shard-local offsets; one entry for a
  // single log).
  std::vector<uint64_t> externalized_floor_;
  // Sharded WAL only (unused when wal_shards == 1): per-chain bitmasks of
  // shards appended to since the chain's last successful durability wait.
  std::map<int, uint64_t> chain_touched_shards_;
  uint64_t incoming_calls_ = 0;
  uint64_t crash_count_ = 0;
  PendingFlusher pending_flusher_;

  // Dead incarnations still in memory, by incarnation number. A corpse
  // keeps what frames of its incarnation may still touch while they unwind
  // with Crashed, and lives only while one of them pins it (see
  // IncarnationPin). The live incarnation is incarnation_; its pin count
  // is live_pins_, which Start hands over to its corpse.
  struct Corpse {
    std::map<uint64_t, std::unique_ptr<Context>> contexts;
    std::unique_ptr<LogManager> log;
    std::unique_ptr<CheckpointManager> checkpoints;
    uint32_t pins = 0;
  };
  std::map<uint64_t, Corpse> corpses_;
  uint64_t incarnation_ = 0;
  uint32_t live_pins_ = 0;
};

}  // namespace phoenix

#endif  // PHOENIX_RUNTIME_PROCESS_H_
