#ifndef PHOENIX_CORE_OPTIONS_H_
#define PHOENIX_CORE_OPTIONS_H_

#include <cstdint>

namespace phoenix {

// Which logging discipline interceptors apply to persistent components.
enum class LoggingMode : int {
  // Algorithm 1 (the IDEAS'03 baseline): log AND force every one of the
  // four messages of every method call.
  kBaseline = 0,
  // Algorithms 2/3: log receive messages without forcing, never write send
  // messages, force the log only when a send "commits" component state
  // (external clients keep forced long/short records).
  kOptimized = 1,
};

// Capped-exponential backoff with seeded jitter (core/retry.h): attempt k
// sleeps min(initial_ms * multiplier^k, max_ms) plus a uniform jitter of up
// to jitter * that base, and budget_ms bounds the sum of all sleeps (0 = no
// bound).
struct BackoffPolicy {
  double initial_ms = 10.0;
  double multiplier = 2.0;
  double max_ms = 80.0;
  double jitter = 0.1;
  double budget_ms = 0.0;
};

// The prototype's switches (§5: "log optimizations and checkpointing can all
// be turned on or off via switches").
struct RuntimeOptions {
  LoggingMode logging_mode = LoggingMode::kOptimized;

  // Honor the specialized kinds of §3.2 (functional / read-only components,
  // read-only methods). When false they are logged as if persistent.
  // Subordinates are structural (they live inside the parent's context) and
  // are unaffected by this switch.
  bool use_specialized_kinds = true;

  // §3.5 multi-call optimization (not in the paper's prototype; implemented
  // here as an extension): within one method execution force only at the
  // first outgoing call, at a repeated call to the same server, and at the
  // reply.
  bool multi_call_optimization = false;

  // Save a context state record at least every N completed logged calls
  // per context (0 = never). N is an upper bound: a context also saves
  // once replaying its calls since its recovery origin would cost more
  // than restoring a state record, priced by the CostModel's
  // recovery_replay_call_ms and recovery_restore_state_ms (§5.4's
  // break-even, ~460 calls). That debt survives restarts; N counts calls
  // in the current incarnation only.
  uint32_t save_context_state_every = 0;

  // Take a process checkpoint every N incoming calls process-wide (0 =
  // never). The paper takes them "periodically"; a call-count period keeps
  // the simulation deterministic.
  uint32_t process_checkpoint_every = 0;

  // Asynchronous checkpointing: run state-record capture and process
  // checkpoints on a dedicated background session per process instead of
  // inline on the calling chain. Foreground calls mark their context
  // dirty; every `async_checkpoint_interval` completed incoming calls the
  // background session sweeps the dirty idle contexts (busy ones wait for
  // the next sweep), takes a process checkpoint, forces the bracket on its
  // own chain, and publishes. The one foreground capture is the replay-debt
  // save above, which runs even without a cadence, so a context never idle
  // at a sweep still saves. §4.3's publish ordering is unchanged — only
  // *which chain* pays for the disk writes moves. Off by default so the
  // inline cadence above stays the pinned reference behavior.
  bool async_checkpoint = false;
  uint32_t async_checkpoint_interval = 64;

  // How many times a caller re-sends a call that found the server dead
  // before giving up (condition 4 says "until it gets some response"; the
  // bound keeps broken test setups from spinning forever).
  int max_call_retries = 64;

  // Backoff between a call's retries and its total budget. The first sleep
  // equals the old fixed 10 ms schedule, so fault-free timings and the
  // Table 4 benchmark numbers are unchanged. The 250 ms budget keeps 64
  // retries from burning >4 s of sim time per permanently-dead server
  // (0 = retry until a response arrives).
  BackoffPolicy call_retry{.budget_ms = 250.0};

  // Whether ExternalClient retries unavailable calls too. Externals are
  // outside the guarantees; retrying lets the window-of-vulnerability tests
  // observe duplicate executions.
  bool external_client_retries = true;

  // Garbage-collect the log head every time a process checkpoint is
  // published: records below every recovery origin and live reply LSN can
  // never be read again. An engineering necessity the paper's checkpoints
  // enable; off by default so logs stay fully inspectable.
  bool auto_truncate_log = false;

  // Group commit: when a session scheduler is active, durability waits
  // park their session and the commit pipeline coalesces all concurrent
  // waits on one log into a single disk force (wal/commit_pipeline.h).
  // Off by default — and without overlapping sessions the flag changes
  // nothing — so single-session runs keep the paper's exact force counts.
  bool group_commit = false;

  // Group-commit batching policy. By default (both 0) the scheduler
  // harvests a flush only when every session is stalled, maximizing batch
  // size at the price of commit latency. `group_commit_max_wait_ms` bounds
  // how long (sim time) the oldest parked waiter may sit before its
  // pipeline is flushed even though runnable sessions remain;
  // `group_commit_max_batch` flushes as soon as that many waiters have
  // accumulated on one pipeline. Either knob trades forces for latency —
  // bench/concurrent_sessions sweeps both.
  double group_commit_max_wait_ms = 0.0;
  uint32_t group_commit_max_batch = 0;

  // Sharded WAL: number of shard logs per process. 1 (default) is the
  // single-log layout with plain byte-offset LSNs — the paper's setup,
  // byte-identical to every pre-sharding benchmark. With N > 1 shards,
  // a seeded hash of the replay-plan chain key (the context id) routes
  // each context's records to one shard log with its own commit pipeline
  // and durable horizon, so independent chains stop contending on one
  // force queue; every frame carries a global sequence number and
  // recovery k-way merges the shards back into append order
  // (wal/shard_router.h, wal/merged_log_reader.h). At most kMaxWalShards
  // (the per-chain touched-shard bitmask width).
  uint32_t wal_shards = 1;

  // Seed for the context -> shard router hash. Changing it re-partitions
  // contexts across shards; recovery derives the mapping from the log
  // contents, so any seed is safe across restarts.
  uint64_t wal_shard_seed = 0;

  // How many recovery lanes the restores and pass 2's replay engine share
  // (recovery/parallel_replay.h): parallel_replay_sessions when on, one
  // when off.
  bool parallel_replay = false;

  // The recovery lanes when parallel_replay is on.
  uint32_t parallel_replay_sessions = 8;

  // Allow failure-injection hooks to fire while a process is recovering.
  // Recovery is idempotent (it only reads the stable log), so crashes during
  // recovery simply restart it; off by default to keep schedules simple.
  bool inject_failures_during_recovery = false;

  // Recovery supervisor (RecoveryService::EnsureProcessAlive): each rung of
  // the degradation ladder — normal recovery, salvage-assessed recovery,
  // state-record cold start — gets this many attempts before escalating.
  int recovery_supervisor_attempts_per_rung = 5;
};

}  // namespace phoenix

#endif  // PHOENIX_CORE_OPTIONS_H_
