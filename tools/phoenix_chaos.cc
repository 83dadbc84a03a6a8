// phoenix_chaos — seeded chaos engine over the Phoenix/App feature product.
//
// Every run is one point in the product of the runtime's features:
// optimization level x topology x store count and placement (with the
// seller, or in their own process) x save/checkpoint cadence x
// wave width (with or without group commit) x WAL shard count x async
// checkpointing x parallel replay x the §3.5 multi-call optimization. Each
// fault domain is an arm that adds
// its own draws on top of that point:
//
//   crash     0-4 triggers at any protocol point 0-8 on the seller's
//             process or the stores' own one, the state-save and
//             checkpoint points included (they fire under the inline
//             cadence, or inside the background sweeps);
//   network   lossy links (drop/duplicate/jitter) and a targeted drop of
//             the first Checkout reply;
//   storage   crash-time torn tails, plus one mid-run kill that rots the
//             newest state record and/or the well-known file and tears one
//             shard's un-externalized tail, on the seller or the agent;
//   sweep     short-fuse crashes inside the async checkpoint sweeps;
//   recovery  the mid-run kill's recovery is crashed again at recovery-
//             phase points (nested up to depth 3), with storage attacks
//             between supervisor attempts.
//
// One run loop drives the buyer sessions in waves (a sequential run is a
// wave of 1), applies the mid-run kill between waves, and checks one
// exactly-once oracle: with a persistent agent every sale, every book's
// stock and every agent's session count must match what the seeded
// workload asked for; an external client (external_direct) may
// legitimately over-execute through the paper's §3.1.2 window of
// vulnerability, which the report counts, but never under-execute. A run
// with every arm off is the fault-free point of the product and must pass
// the same oracle.
//
// Flags pin one coordinate instead of choosing a campaign, so they combine:
// --wal-shards=N pins N shards, --async-checkpoint pins the sweeper on,
// --crash-during-recovery pins the recovery arm on, and --overlap=N caps
// the wave width (1 pins every run sequential). Unpinned coordinates are
// drawn. A combination that cannot run exits 2 with the reason.
//
// Each coordinate and arm draws from its own Random stream, split off
// (seed, run, stream), so pinning or adding one leaves every other draw
// unchanged. A rerun with the same flags writes a byte-identical
// phoenix.chaos.v1 report.
//
// Usage:
//   phoenix_chaos [--runs=N] [--seed=S] [--sessions=N] [--overlap=N]
//                 [--wal-shards=N] [--async-checkpoint]
//                 [--crash-during-recovery] [--out=FILE] [--verbose]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bookstore/setup.h"
#include "common/random.h"
#include "common/strings.h"
#include "obs/bench_reporter.h"
#include "recovery/recovery_service.h"

namespace phoenix::tools {
namespace {

inline constexpr char kChaosSchema[] = "phoenix.chaos.v1";

struct CampaignOptions {
  int runs = 500;
  uint64_t seed = 42;
  int sessions = 8;
  // Widest wave. Runs that overlap draw a width in 2..overlap; 1 pins every
  // run sequential.
  int overlap = 8;
  uint32_t wal_shards = 0;             // 0: drawn; N: pinned
  bool async_checkpoint = false;       // pins the sweeper on
  bool crash_during_recovery = false;  // pins the recovery arm on
  std::string out;  // empty: BenchReporter default (BENCH_<name>.json)
  bool verbose = false;
};

enum class Topology {
  kRemoteAgent,     // persistent agent on its own machine
  kColocatedAgent,  // persistent agent in a second process on the server
  kExternalDirect,  // external client drives the seller directly (WoV)
};

const char* TopologyName(Topology t) {
  switch (t) {
    case Topology::kRemoteAgent:
      return "remote_agent";
    case Topology::kColocatedAgent:
      return "colocated_agent";
    case Topology::kExternalDirect:
      return "external_direct";
  }
  return "?";
}

// Persistent workflow tier (same shape as the torture test's agent): one
// Session call adds a book to the buyer's basket and checks out. Its
// retries carry stable call IDs, so crashes and lost replies anywhere
// inside the session are fully masked by duplicate elimination.
class ShoppingAgent : public Component {
 public:
  void RegisterMethods(MethodRegistry& methods) override {
    methods.Register("Session", [this](const ArgList& a) -> Result<Value> {
      const std::string& buyer = a[0].AsString();
      const std::string& store = a[1].AsString();
      int64_t book = a[2].AsInt();
      PHX_RETURN_IF_ERROR(
          CallRef(seller_, "AddToBasket", MakeArgs(buyer, store, book))
              .status());
      PHX_ASSIGN_OR_RETURN(
          Value total,
          CallRef(seller_, "Checkout", MakeArgs(buyer, std::string("WA"))));
      ++sessions_done_;
      return total;
    });
    methods.Register(
        "SessionsDone",
        [this](const ArgList&) -> Result<Value> {
          return Value(sessions_done_);
        },
        MethodTraits{.read_only = true});
  }
  void RegisterFields(FieldRegistry& fields) override {
    fields.RegisterComponentRef("seller", &seller_);
    fields.RegisterInt("sessions_done", &sessions_done_);
  }
  Status Initialize(const ArgList& args) override {
    seller_.uri = args[0].AsString();
    return Status::OK();
  }

 private:
  ComponentRefField seller_;
  int64_t sessions_done_ = 0;
};

// Crash the target the `hit`-th time it reaches `point`, counted from when
// the trigger is armed. The target is the seller's process, or the stores'
// when they have their own.
struct Trigger {
  FailurePoint point;
  uint64_t hit;
  bool at_stores = false;
};

// One point of the product plus its arms' draws.
struct RunConfig {
  uint64_t sim_seed = 1;
  // Product coordinates.
  bookstore::OptLevel level = bookstore::OptLevel::kSpecialized;
  Topology topology = Topology::kRemoteAgent;
  int stores = 2;
  // The stores in their own process: the only server-tier calls that send
  // nothing before they reply, so only there can a crash after the reply
  // force tear an acknowledged call (the seller's sends raise the
  // externalized floor past its incoming record).
  bool split_stores = false;
  uint32_t save_every = 0;
  uint32_t checkpoint_every = 0;
  int overlap = 1;  // wave width; 1 = sequential
  bool group_commit = false;
  uint32_t wal_shards = 1;
  bool async_checkpoint = false;
  uint32_t async_interval = 8;
  bool parallel_replay = false;
  bool multi_call = false;
  // Crash arm.
  std::vector<Trigger> crashes;
  // Network arm.
  LinkFaults faults;
  bool targeted_drop = false;  // drop the first Checkout reply
  // Storage arm.
  double torn_p = 0.0;        // crash-time torn-tail probability
  bool bitrot_state = false;  // mid-run: rot the newest state record
  bool bitrot_wkf = false;    // mid-run: rot the well-known file
  bool tear_shard = false;    // mid-run: tear one shard's stable tail
  bool attack_agent = false;  // mid-run kill hits the agent process
  // Sweep arm (async checkpointing only).
  std::vector<Trigger> sweep_crashes;
  // Recovery arm.
  bool recovery_arm = false;
  std::vector<Trigger> recovery_crashes;  // cumulative per-point hits
  bool attack_wkf = false;    // before supervisor attempt 2
  bool attack_state = false;  // before supervisor attempt 2
  bool attack_tear = false;   // before supervisor attempt 3

  bool storage_attack() const {
    return bitrot_state || bitrot_wkf || tear_shard;
  }
  bool midrun_kill() const { return storage_attack() || recovery_arm; }
};

// The independent draw streams: one per coordinate and arm.
enum class Stream : uint64_t {
  kLevel = 1,
  kTopology,
  kStores,
  kCadence,
  kWave,
  kShards,
  kAsync,
  kReplay,
  kCrashArm,
  kNetworkArm,
  kStorageArm,
  kSweepArm,
  kRecoveryArm,
  kMultiCall,
};

Random StreamRng(uint64_t seed, int run, Stream stream) {
  Random mix(seed);
  mix = Random(mix.Next() ^ (static_cast<uint64_t>(run) + 1));
  return Random(mix.Next() ^ static_cast<uint64_t>(stream));
}

// Draws `count` triggers over `points` with short cumulative fuses: two
// triggers on one point crash consecutive rounds of it.
std::vector<Trigger> DrawCumulative(Random& rng, uint64_t count,
                                    const std::vector<FailurePoint>& points,
                                    uint64_t max_gap) {
  std::vector<Trigger> triggers;
  uint64_t cumulative[kNumFailurePoints] = {};
  for (uint64_t i = 0; i < count; ++i) {
    FailurePoint point = points[rng.Uniform(points.size())];
    cumulative[static_cast<int>(point)] += 1 + rng.Uniform(max_gap);
    triggers.push_back({point, cumulative[static_cast<int>(point)]});
  }
  return triggers;
}

// Compatibility rules, each applied here and nowhere else:
//  - async checkpointing needs group commit and waves of at least 2: the
//    background session only interleaves mid-wave, and only a parked
//    durability wait (group commit) lets the scheduler rotate into it;
//  - every crash trigger (crash and sweep arms) targets the server tier,
//    the seller's process or the stores' own one: their callers are all
//    persistent and mask every crash, whereas killing the agent mid-wave
//    interrupts its external driver's in-flight call and opens the window
//    of vulnerability — expected duplicates, not a defect;
//  - the mid-run kill fires between waves, so no chain is parked inside
//    the process it kills (see RunOne);
//  - agent topologies keep network faults off the admin/driver edge (see
//    ArmNetwork).
RunConfig MakeRunConfig(const CampaignOptions& campaign, int run) {
  auto rng = [&](Stream s) { return StreamRng(campaign.seed, run, s); };
  RunConfig cfg;
  cfg.sim_seed = campaign.seed * 7919ull + static_cast<uint64_t>(run) + 1;

  static const bookstore::OptLevel kLevels[] = {
      bookstore::OptLevel::kBaseline, bookstore::OptLevel::kOptimizedLogging,
      bookstore::OptLevel::kSpecialized};
  cfg.level = kLevels[rng(Stream::kLevel).Uniform(3)];
  cfg.topology = static_cast<Topology>(rng(Stream::kTopology).Uniform(3));
  Random stores = rng(Stream::kStores);
  cfg.stores = 1 + static_cast<int>(stores.Uniform(2));
  cfg.split_stores = stores.Bernoulli(0.5);
  static const uint32_t kSaveChoices[] = {0, 3, 7};
  cfg.save_every = kSaveChoices[rng(Stream::kCadence).Uniform(3)];
  cfg.checkpoint_every = cfg.save_every * 2;

  Random async = rng(Stream::kAsync);
  bool async_draw = async.Bernoulli(0.25);
  static const uint32_t kIntervals[] = {4, 8, 16};
  cfg.async_interval = kIntervals[async.Uniform(3)];
  cfg.async_checkpoint = campaign.overlap > 1 &&
                         (campaign.async_checkpoint || async_draw);

  Random wave = rng(Stream::kWave);
  bool overlapping = wave.Bernoulli(0.6);
  uint64_t widths = static_cast<uint64_t>(std::max(1, campaign.overlap - 1));
  int width = 2 + static_cast<int>(wave.Uniform(widths));
  bool group_commit = wave.Bernoulli(0.5);
  if (campaign.overlap > 1 && (overlapping || cfg.async_checkpoint)) {
    cfg.overlap = width;
    cfg.group_commit = group_commit || cfg.async_checkpoint;
  }

  static const uint32_t kShardChoices[] = {1, 2, 4};
  uint32_t shards = kShardChoices[rng(Stream::kShards).Uniform(3)];
  cfg.wal_shards = campaign.wal_shards > 0 ? campaign.wal_shards : shards;
  cfg.parallel_replay = rng(Stream::kReplay).Bernoulli(0.4);
  cfg.multi_call = rng(Stream::kMultiCall).Bernoulli(0.5);

  // Crash arm. The state-save, checkpoint and group-flush points are
  // reached far less often than the protocol hooks, so they get short
  // fuses.
  Random crash = rng(Stream::kCrashArm);
  uint64_t crash_count = crash.Uniform(5);
  for (uint64_t i = 0; i < crash_count; ++i) {
    auto point = static_cast<FailurePoint>(crash.Uniform(9));
    uint64_t hit = point >= FailurePoint::kDuringStateSave
                       ? 1 + crash.Uniform(6)
                       : 1 + crash.Uniform(100);
    bool at_stores = crash.Bernoulli(0.5);
    cfg.crashes.push_back({point, hit, at_stores && cfg.split_stores});
  }

  Random net = rng(Stream::kNetworkArm);
  bool lossy = net.Bernoulli(0.7);
  LinkFaults faults;
  faults.drop_p = net.NextDouble() * 0.08;
  faults.dup_p = net.NextDouble() * 0.05;
  faults.delay_jitter_ms = net.NextDouble() * 2.0;
  if (lossy) cfg.faults = faults;
  cfg.targeted_drop = net.Bernoulli(0.25);

  Random storage = rng(Stream::kStorageArm);
  bool torn = storage.Bernoulli(0.5);
  double torn_p = 0.1 + storage.NextDouble() * 0.5;
  if (torn) cfg.torn_p = torn_p;
  cfg.bitrot_state = storage.Bernoulli(0.35);
  cfg.bitrot_wkf = storage.Bernoulli(0.2);
  cfg.tear_shard = storage.Bernoulli(0.3);
  cfg.attack_agent = storage.Bernoulli(0.3);

  // Sweep arm: 1-3 triggers at the points only the background sweeper
  // reaches with the inline cadence standing down. A trigger whose count
  // outruns the run's sweeps simply never fires.
  Random sweep = rng(Stream::kSweepArm);
  std::vector<Trigger> sweep_crashes = DrawCumulative(
      sweep, 1 + sweep.Uniform(3),
      {FailurePoint::kDuringStateSave, FailurePoint::kDuringCheckpoint,
       FailurePoint::kDuringGroupFlush},
      3);
  if (cfg.async_checkpoint) cfg.sweep_crashes = std::move(sweep_crashes);

  Random recovery = rng(Stream::kRecoveryArm);
  bool recovery_draw = recovery.Bernoulli(0.2);
  cfg.recovery_arm = campaign.crash_during_recovery || recovery_draw;
  std::vector<Trigger> recovery_crashes = DrawCumulative(
      recovery, 1 + recovery.Uniform(3),
      {FailurePoint::kDuringRecoveryAnalysis,
       FailurePoint::kDuringRecoveryRestore, FailurePoint::kBetweenReplayUnits,
       FailurePoint::kDuringEndOfLogFlush},
      2);
  bool attack_wkf = recovery.Bernoulli(0.3);
  bool attack_state = recovery.Bernoulli(0.3);
  bool attack_tear = recovery.Bernoulli(0.2);
  if (cfg.recovery_arm) {
    cfg.recovery_crashes = std::move(recovery_crashes);
    cfg.attack_wkf = attack_wkf;
    cfg.attack_state = attack_state;
    cfg.attack_tear = attack_tear;
  }
  return cfg;
}

// The run's coordinates and active arms as report tags: the campaign
// counts runs per tag, and a violation names its full point.
std::vector<std::string> Tags(const RunConfig& cfg) {
  std::vector<std::string> tags = {
      StrCat("level.", bookstore::OptLevelName(cfg.level)),
      StrCat("topology.", TopologyName(cfg.topology)),
      StrCat("stores.", cfg.stores, cfg.split_stores ? ".own_process" : ""),
      StrCat("save_every.", cfg.save_every),
      StrCat("wave.", cfg.overlap),
      StrCat("group_commit.", cfg.group_commit ? "on" : "off"),
      StrCat("wal_shards.", cfg.wal_shards),
      StrCat("async_checkpoint.",
             cfg.async_checkpoint ? StrCat("interval", cfg.async_interval)
                                  : std::string("off")),
      StrCat("parallel_replay.", cfg.parallel_replay ? "on" : "off"),
      StrCat("multicall.", cfg.multi_call ? "on" : "off"),
  };
  bool any_arm = false;
  auto arm = [&](const char* name, bool on) {
    if (!on) return;
    tags.push_back(StrCat("arm.", name));
    any_arm = true;
  };
  arm("crash", !cfg.crashes.empty());
  arm("network", cfg.faults.any() || cfg.targeted_drop);
  arm("storage", cfg.torn_p > 0.0 || cfg.storage_attack());
  arm("sweep", !cfg.sweep_crashes.empty());
  arm("recovery", cfg.recovery_arm);
  if (!any_arm) tags.push_back("fault_free");
  return tags;
}

std::string Describe(const RunConfig& cfg) {
  std::string out;
  for (const std::string& tag : Tags(cfg)) {
    out += (out.empty() ? "" : " ") + tag;
  }
  return out;
}

// Fault the links that carry the traffic under test. In agent topologies
// that is the persistent agent <-> seller path; the admin/driver edge is
// left reliable because an external client losing a reply reissues under
// a fresh call id (the WoV), which would confound the exact oracle for the
// persistent tier. external_direct faults the driver edge on purpose —
// there the WoV is the measured subject.
void ArmNetwork(const RunConfig& cfg, Simulation& sim) {
  NetworkFaultPlan& plan = sim.network().fault_plan();
  if (cfg.faults.any()) {
    if (cfg.topology == Topology::kColocatedAgent) {
      plan.SetLinkFaults("server", "server", cfg.faults);
    } else {
      plan.SetLinkFaults("client", "server", cfg.faults);
      plan.SetLinkFaults("server", "client", cfg.faults);
    }
  }
  if (cfg.targeted_drop) {
    // Drop the first Checkout reply on the seller's outbound link; the
    // caller must mask it (or, for an external client, it opens the WoV).
    const char* caller_machine =
        cfg.topology == Topology::kColocatedAgent ? "server" : "client";
    plan.AddDropTrigger("server", caller_machine, "Checkout", NetLeg::kReply,
                        /*nth=*/1);
  }
}

// Per-campaign tallies: counters keyed by report metric name (a std::map,
// so the report order is fixed), and run counts per product tag.
struct Tally {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, uint64_t> tags;
  std::map<std::string, uint64_t> topology_violations;
  std::map<std::string, uint64_t> topology_wov;
};

// Registry counters harvested after every run: report name, metric name.
constexpr std::pair<const char*, const char*> kHarvested[] = {
    {"net_messages_dropped", "phoenix.net.dropped"},
    {"net_messages_duplicated", "phoenix.net.duplicated"},
    {"torn_tails_salvaged", "phoenix.wal.torn_tails"},
    {"salvage_wkf_fallbacks", "phoenix.recovery.salvage.wkf_fallback"},
    {"salvage_full_scan_fallbacks",
     "phoenix.recovery.salvage.full_scan_fallback"},
    {"salvage_ranges_skipped", "phoenix.recovery.salvage.ranges_skipped"},
    {"salvage_state_record_fallbacks",
     "phoenix.recovery.salvage.state_record_fallback"},
    {"dedupe_hits", "phoenix.intercept.dedupe_hits"},
    {"interceptor_retries", "phoenix.intercept.retries"},
    {"group_commit_flushes", "phoenix.wal.group_commit.flushes"},
    {"group_commit_coalesced", "phoenix.wal.group_commit.coalesced"},
    {"merge_records", "phoenix.recovery.merge.records"},
    {"merge_inversions", "phoenix.recovery.merge.inversions"},
    {"replay_chains", "phoenix.recovery.replay.chains"},
    {"replay_edges", "phoenix.recovery.replay.edges"},
    {"replay_fallbacks", "phoenix.recovery.replay.fallbacks"},
    {"replay_chains_demoted", "phoenix.recovery.replay.chains_demoted"},
    {"salvaged_parallel_replays", "phoenix.recovery.replay.salvaged_parallel"},
    {"async_sweeps", "phoenix.checkpoint.async.sweeps"},
    {"async_publishes", "phoenix.checkpoint.async.publishes"},
    {"async_deferrals", "phoenix.checkpoint.async.deferred"},
    {"checkpoints_published", "phoenix.checkpoint.published"},
    {"state_saves", "phoenix.checkpoint.state_saves"},
    {"supervisor_attempts", "phoenix.recovery.supervisor.attempts"},
    {"supervisor_gave_up", "phoenix.recovery.supervisor.gave_up"},
    {"degraded_mode_attempts", "phoenix.recovery.mode"},
    {"cold_starts", "phoenix.recovery.cold_starts"},
};

// Triggers armed on one process, kept as absolute hit counts (the injector
// counts a trigger from the hook's hits at arming time), so the harvest can
// tell which ones fired. Two triggers on the same absolute hit fire once.
struct ArmedTriggers {
  std::string machine;
  uint32_t pid = 0;
  std::set<std::pair<FailurePoint, uint64_t>> targets;

  void Arm(Simulation& sim, const std::vector<Trigger>& triggers) {
    for (const Trigger& t : triggers) {
      targets.insert(
          {t.point, sim.injector().HitCount(machine, pid, t.point) + t.hit});
      sim.injector().AddTrigger(machine, pid, t.point, t.hit);
    }
  }
  void CountFired(Simulation& sim, Tally& tally) const {
    for (const auto& [point, hit] : targets) {
      if (sim.injector().HitCount(machine, pid, point) >= hit) {
        ++tally.counters[StrCat("crashes_at.", FailurePointName(point))];
      }
    }
  }
};

// The mid-run kill, between waves: the target dies; the storage arm rots
// what salvage must tolerate and tears one shard's un-externalized stable
// tail (retries must mask it, the same contract as crash-time tears); the
// recovery arm crashes the recovery that follows and attacks the storage
// between supervisor attempts. The supervisor must still converge.
Status MidRunKill(const RunConfig& cfg, Simulation& sim, Process& target,
                  ArmedTriggers& recovery_triggers) {
  target.Kill();
  if (cfg.bitrot_state) RotNewestStateRecord(sim.storage(), target.log());
  if (cfg.bitrot_wkf) {
    sim.storage().CorruptFile(target.log_name() + ".wkf", 0,
                              /*flip_count=*/2);
  }
  if (cfg.tear_shard) target.InjectTornTail(24);
  if (cfg.recovery_arm) {
    recovery_triggers.machine = target.machine_name();
    recovery_triggers.pid = target.pid();
    recovery_triggers.Arm(sim, cfg.recovery_crashes);
    const std::pair<bool, std::pair<uint64_t, RecoveryAttack>> attacks[] = {
        {cfg.attack_wkf, {2, RecoveryAttack::kCorruptWellKnownFile}},
        {cfg.attack_state, {2, RecoveryAttack::kCorruptNewestStateRecord}},
        {cfg.attack_tear, {3, RecoveryAttack::kTearStableTail}},
    };
    for (const auto& [on, attack] : attacks) {
      if (on) {
        sim.injector().AddRecoveryAttack(target.machine_name(), target.pid(),
                                         attack.first, attack.second);
      }
    }
  }
  return target.machine()->recovery_service().EnsureProcessAlive(
      target.pid());
}

// Flight-recorder ring depth for every run: cheap enough to keep always-on,
// deep enough to show the last few calls before a violation.
constexpr size_t kFlightEvents = 256;

struct RunResult {
  std::string violation;  // "" when the run came out exact
  std::string flight_file;
};

// Builds the sim for one point of the product, arms its faults, runs the
// buyer sessions in waves, checks the oracle and harvests the counters.
// On a violation the flight recorder's rings are dumped (resolved against
// the bench out dir) before the sim dies.
RunResult RunOne(const RunConfig& cfg, int run, int sessions, Tally& tally) {
  RuntimeOptions runtime = bookstore::OptionsForLevel(cfg.level);
  runtime.save_context_state_every = cfg.save_every;
  runtime.process_checkpoint_every = cfg.checkpoint_every;
  // Condition 4 (retry until a response arrives) is what the exactly-once
  // oracle assumes; the per-call budget is an availability knob, so the
  // engine runs unbounded.
  runtime.call_retry.budget_ms = 0.0;
  runtime.group_commit = cfg.group_commit;
  runtime.wal_shards = cfg.wal_shards;
  runtime.async_checkpoint = cfg.async_checkpoint;
  runtime.async_checkpoint_interval = cfg.async_interval;
  runtime.parallel_replay = cfg.parallel_replay;
  runtime.multi_call_optimization = cfg.multi_call;
  runtime.inject_failures_during_recovery = cfg.recovery_arm;

  SimulationParams params;
  params.seed = cfg.sim_seed;
  params.flight_recorder_events = kFlightEvents;
  Simulation sim(runtime, params);
  bookstore::RegisterBookstoreComponents(sim.factories());
  sim.factories().Register<ShoppingAgent>("ShoppingAgent");
  Machine& server_machine = sim.AddMachine("server");
  Machine& client_machine = sim.AddMachine("client");
  auto deployment = bookstore::Deploy(sim, server_machine, cfg.stores,
                                      cfg.level, cfg.split_stores);
  if (!deployment.ok()) {
    return {"deploy failed: " + deployment.status().ToString(), ""};
  }
  Process& server_proc = *deployment->server_process;

  // One agent per wave slot: overlapping chains each own an agent context,
  // so they serialize only at the seller and their force-on-send waits can
  // coalesce on the agent process's log.
  ExternalClient admin(&sim, "client");
  std::vector<std::string> agent_uris;
  Process* agent_proc = nullptr;
  if (cfg.topology != Topology::kExternalDirect) {
    Machine& agent_machine = cfg.topology == Topology::kRemoteAgent
                                 ? client_machine
                                 : server_machine;
    agent_proc = &agent_machine.CreateProcess();
    for (int a = 0; a < cfg.overlap; ++a) {
      auto agent = admin.CreateComponent(
          *agent_proc, "ShoppingAgent", StrCat("agent", a),
          ComponentKind::kPersistent, MakeArgs(deployment->seller_uri));
      if (!agent.ok()) {
        return {"agent creation failed: " + agent.status().ToString(), ""};
      }
      agent_uris.push_back(*agent);
    }
  }

  ArmedTriggers seller_triggers{"server", server_proc.pid(), {}};
  ArmedTriggers store_triggers{"server", deployment->store_process->pid(), {}};
  for (const Trigger& t : cfg.crashes) {
    (t.at_stores ? store_triggers : seller_triggers).Arm(sim, {t});
  }
  seller_triggers.Arm(sim, cfg.sweep_crashes);
  ArmNetwork(cfg, sim);
  if (cfg.torn_p > 0.0) {
    sim.injector().EnableTornTails(cfg.torn_p, cfg.sim_seed * 131 + 7);
  }

  std::vector<int> expected_store(cfg.stores, 0);
  std::vector<std::vector<int>> expected_book(cfg.stores,
                                              std::vector<int>(11, 0));
  Random workload(cfg.sim_seed * 31 + 1);
  std::string failure;
  ArmedTriggers recovery_triggers;

  // One shopping session's call chain. Each chain drives its own external
  // client so overlapping chains never share driver state.
  auto run_session = [&](int i, int store, int book) -> Status {
    std::string buyer = "buyer" + std::to_string(i);
    ExternalClient driver(&sim, "client");
    if (cfg.topology == Topology::kExternalDirect) {
      auto add = driver.Call(deployment->seller_uri, "AddToBasket",
                             MakeArgs(buyer, deployment->store_uris[store],
                                      int64_t{book}));
      if (!add.ok()) return add.status();
      return driver
          .Call(deployment->seller_uri, "Checkout",
                MakeArgs(buyer, std::string("WA")))
          .status();
    }
    return driver
        .Call(agent_uris[i % agent_uris.size()], "Session",
              MakeArgs(buyer, deployment->store_uris[store], int64_t{book}))
        .status();
  };

  int kill_at = cfg.midrun_kill() && sessions >= 2 ? sessions / 2 : sessions;
  int next = 0;
  while (next < sessions && failure.empty()) {
    int wave_end =
        std::min(next + cfg.overlap, next < kill_at ? kill_at : sessions);
    struct Plan {
      int i;
      int store;
      int book;
      Status status = Status::OK();
    };
    // Drawn before the wave runs, so what the oracle expects never depends
    // on how the chains interleave.
    std::vector<Plan> wave;
    for (int i = next; i < wave_end; ++i) {
      wave.push_back({i, static_cast<int>(workload.Uniform(cfg.stores)),
                      static_cast<int>(workload.Uniform(10)) + 1});
    }
    std::vector<std::function<void()>> bodies;
    for (Plan& plan : wave) {
      bodies.push_back([&run_session, p = &plan] {
        p->status = run_session(p->i, p->store, p->book);
      });
    }
    if (cfg.overlap > 1) {
      sim.RunSessions(std::move(bodies));
    } else {
      bodies.front()();
    }
    for (const Plan& plan : wave) {
      if (!plan.status.ok()) {
        if (failure.empty()) {
          failure =
              StrCat("session ", plan.i, " failed: ", plan.status.ToString());
        }
        continue;
      }
      ++expected_store[plan.store];
      ++expected_book[plan.store][plan.book];
      ++tally.counters["sessions_total"];
    }
    next = wave_end;
    if (next == kill_at && next < sessions && failure.empty()) {
      Process& target = cfg.storage_attack() && cfg.attack_agent &&
                                agent_proc != nullptr
                            ? *agent_proc
                            : server_proc;
      Status recovered = MidRunKill(cfg, sim, target, recovery_triggers);
      if (!recovered.ok()) {
        failure = "recovery after mid-run kill failed: " + recovered.ToString();
      }
    }
  }

  // Oracle: with a persistent agent every count must be exact; an external
  // client may legitimately overcount (window of vulnerability), but never
  // undercount, and inventory must stay consistent with TotalSold.
  bool external = cfg.topology == Topology::kExternalDirect;
  for (size_t a = 0; a < agent_uris.size() && failure.empty(); ++a) {
    // Agent a serves the sessions i with i % width == a.
    int64_t want = 0;
    for (int i = 0; i < sessions; ++i) {
      if (static_cast<size_t>(i) % agent_uris.size() == a) ++want;
    }
    auto done = admin.Call(agent_uris[a], "SessionsDone", {});
    if (!done.ok()) {
      failure = "SessionsDone failed: " + done.status().ToString();
    } else if (done->AsInt() != want) {
      failure = StrCat("agent ", a, " SessionsDone=", done->AsInt(), " want ",
                       want);
    }
  }
  ExternalClient probe(&sim, "client");
  for (int s = 0; s < cfg.stores && failure.empty(); ++s) {
    auto sold = probe.Call(deployment->store_uris[s], "TotalSold", {});
    if (!sold.ok()) {
      failure = "TotalSold failed: " + sold.status().ToString();
      break;
    }
    int64_t sold_count = sold->AsInt();
    int64_t book_sold_sum = 0;
    for (int book = 1; book <= 10 && failure.empty(); ++book) {
      auto entry = probe.Call(deployment->store_uris[s], "GetBook",
                              MakeArgs(int64_t{book}));
      if (!entry.ok()) {
        failure = "GetBook failed: " + entry.status().ToString();
        break;
      }
      int64_t book_sold = 25 - entry->AsList()[3].AsInt();
      book_sold_sum += book_sold;
      int64_t want = expected_book[s][book];
      if (external ? book_sold < want : book_sold != want) {
        failure = StrCat("store ", s, " book ", book, " sold ", book_sold,
                         " want ", external ? ">= " : "", want);
      }
    }
    if (!failure.empty()) break;
    int64_t want = expected_store[s];
    if (book_sold_sum != sold_count) {
      failure = StrCat("store ", s, " inventory says ", book_sold_sum,
                       " sold but TotalSold=", sold_count);
    } else if (external ? sold_count < want : sold_count != want) {
      failure = StrCat("store ", s, " TotalSold=", sold_count, " want ",
                       external ? ">= " : "", want);
    } else if (external) {
      uint64_t dups = static_cast<uint64_t>(sold_count - want);
      tally.counters["wov_duplicate_executions"] += dups;
      tally.topology_wov[TopologyName(cfg.topology)] += dups;
    }
  }

  // Harvest per-run counters before the sim dies.
  tally.counters["crashes_fired"] += sim.injector().crashes_fired();
  tally.counters["torn_tails_injected"] += sim.injector().torn_tails_fired();
  tally.counters["recovery_attacks_applied"] +=
      sim.injector().recovery_attacks_fired();
  tally.counters["recoveries"] +=
      server_machine.recovery_service().recoveries_performed() +
      client_machine.recovery_service().recoveries_performed();
  for (const auto& [name, metric] : kHarvested) {
    tally.counters[name] += sim.metrics().CounterTotal(metric);
  }
  seller_triggers.CountFired(sim, tally);
  store_triggers.CountFired(sim, tally);
  recovery_triggers.CountFired(sim, tally);

  RunResult result{failure, ""};
  if (!failure.empty()) {
    std::string path =
        obs::ResolveBenchPath(StrCat("chaos_flight_run", run, ".jsonl"));
    std::string dump = sim.tracer().ExportFlightRecorder();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f != nullptr) {
      std::fwrite(dump.data(), 1, dump.size(), f);
      std::fclose(f);
      result.flight_file = path;
    }
  }
  return result;
}

int RunCampaign(const CampaignOptions& campaign) {
  Tally tally;
  struct ViolationRecord {
    int run;
    std::string config;
    RunResult result;
  };
  std::vector<ViolationRecord> violations;
  for (int run = 0; run < campaign.runs; ++run) {
    RunConfig cfg = MakeRunConfig(campaign, run);
    RunResult result = RunOne(cfg, run, campaign.sessions, tally);
    for (const std::string& tag : Tags(cfg)) ++tally.tags[tag];
    if (cfg.storage_attack()) ++tally.counters["storage_attack_runs"];
    if (!result.violation.empty()) {
      ++tally.topology_violations[TopologyName(cfg.topology)];
      std::fprintf(stderr, "VIOLATION run %d (%s): %s\n  flight recorder: %s\n",
                   run, Describe(cfg).c_str(), result.violation.c_str(),
                   result.flight_file.empty() ? "(write failed)"
                                              : result.flight_file.c_str());
      violations.push_back({run, Describe(cfg), std::move(result)});
    } else if (campaign.verbose) {
      std::printf("run %d ok (%s)\n", run, Describe(cfg).c_str());
    }
  }
  std::map<std::string, uint64_t>& c = tally.counters;
  c["runs"] = static_cast<uint64_t>(campaign.runs);
  c["violations"] = violations.size();

  obs::BenchReporter reporter("chaos_campaign", kChaosSchema);
  obs::BenchVariant& campaign_v = reporter.AddVariant("campaign");
  campaign_v.SetMetric("seed", campaign.seed)
      .SetMetric("sessions_per_run", static_cast<uint64_t>(campaign.sessions))
      .SetMetric("max_overlap", static_cast<uint64_t>(campaign.overlap))
      .SetMetric("pinned_wal_shards", uint64_t{campaign.wal_shards})
      .SetMetric("pinned_async_checkpoint",
                 uint64_t{campaign.async_checkpoint})
      .SetMetric("pinned_crash_during_recovery",
                 uint64_t{campaign.crash_during_recovery});
  for (const auto& [name, value] : c) campaign_v.SetMetric(name, value);
  // Runs per product coordinate and per active arm.
  obs::BenchVariant& product_v = reporter.AddVariant("product");
  for (const auto& [tag, runs] : tally.tags) product_v.SetMetric(tag, runs);
  for (int t = 0; t < 3; ++t) {
    const char* name = TopologyName(static_cast<Topology>(t));
    reporter.AddVariant(name)
        .SetMetric("runs", tally.tags[StrCat("topology.", name)])
        .SetMetric("violations", tally.topology_violations[name])
        .SetMetric("wov_duplicate_executions", tally.topology_wov[name]);
  }
  // Every violating run carries its post-mortem: the oracle failure, the
  // point of the product, and the flight-recorder dump.
  for (const ViolationRecord& rec : violations) {
    obs::BenchVariant& v =
        reporter.AddVariant(StrCat("violation_run", rec.run));
    v.SetMetric("run", static_cast<uint64_t>(rec.run));
    v.SetInfo("violation", rec.result.violation);
    v.SetInfo("config", rec.config);
    if (!rec.result.flight_file.empty()) {
      v.SetInfo("flight_recorder", rec.result.flight_file);
    }
  }
  auto written = reporter.WriteFile(campaign.out);
  if (!written.ok()) {
    std::fprintf(stderr, "report write failed: %s\n",
                 written.status().ToString().c_str());
    return 1;
  }

  auto n = [&c](const char* name) {
    return static_cast<unsigned long long>(c[name]);
  };
  auto runs = [&tally](const std::string& tag) {
    return static_cast<unsigned long long>(tally.tags[tag]);
  };
  // "1:159 2:159 4:182" for the tags under `prefix`.
  auto family = [&tally](const std::string& prefix) {
    std::string out;
    for (const auto& [tag, count] : tally.tags) {
      if (!StartsWith(tag, prefix)) continue;
      out += StrCat(out.empty() ? "" : " ", tag.substr(prefix.size()), ":",
                    count);
    }
    return out;
  };
  std::printf(
      "chaos campaign: %llu run(s), %llu violation(s), %llu WoV duplicate "
      "execution(s)\n"
      "  product: %llu overlapping (%llu group commit), wal shards %s, "
      "%llu async checkpoint, %llu parallel replay, multicall on %llu / "
      "off %llu, %llu fault-free\n"
      "  arms: crash %llu, network %llu, storage %llu, sweep %llu, "
      "recovery %llu run(s)\n"
      "  faults: %llu crash(es), %llu recover(ies), %llu dropped, "
      "%llu duplicated, %llu torn tail(s), %llu storage-attack run(s)\n"
      "  inside: %llu state-save, %llu checkpoint, %llu group-flush, "
      "%llu recovery-phase crash(es), %llu between-attempt attack(s)\n"
      "  salvage: %llu torn-tail truncation(s), %llu wkf fallback(s), "
      "%llu full-scan fallback(s), %llu range(s) skipped\n"
      "  masking: %llu dedupe hit(s), %llu retry(ies), %llu supervisor "
      "attempt(s), %llu cold start(s)\n"
      "  background: %llu sweep(s), %llu publish(es); group commit: %llu "
      "flush(es) coalescing %llu wait(s)\n"
      "report: %s\n",
      n("runs"), n("violations"), n("wov_duplicate_executions"),
      n("runs") - runs("wave.1"), runs("group_commit.on"),
      family("wal_shards.").c_str(),
      n("runs") - runs("async_checkpoint.off"), runs("parallel_replay.on"),
      runs("multicall.on"), runs("multicall.off"), runs("fault_free"),
      runs("arm.crash"), runs("arm.network"), runs("arm.storage"),
      runs("arm.sweep"), runs("arm.recovery"),
      n("crashes_fired"), n("recoveries"), n("net_messages_dropped"),
      n("net_messages_duplicated"), n("torn_tails_injected"),
      n("storage_attack_runs"), n("crashes_at.during_state_save"),
      n("crashes_at.during_checkpoint"), n("crashes_at.during_group_flush"),
      n("crashes_at.during_recovery_analysis") +
          n("crashes_at.during_recovery_restore") +
          n("crashes_at.between_replay_units") +
          n("crashes_at.during_endlog_flush"),
      n("recovery_attacks_applied"), n("torn_tails_salvaged"),
      n("salvage_wkf_fallbacks"), n("salvage_full_scan_fallbacks"),
      n("salvage_ranges_skipped"), n("dedupe_hits"), n("interceptor_retries"),
      n("supervisor_attempts"), n("cold_starts"), n("async_sweeps"),
      n("async_publishes"), n("group_commit_flushes"),
      n("group_commit_coalesced"), written->c_str());
  return violations.empty() ? 0 : 1;
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  std::string prefix = "--" + name + "=";
  if (!StartsWith(arg, prefix)) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int Main(int argc, char** argv) {
  CampaignOptions campaign;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (ParseFlag(arg, "runs", &value)) {
      campaign.runs = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "seed", &value)) {
      campaign.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "sessions", &value)) {
      campaign.sessions = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "overlap", &value)) {
      campaign.overlap = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "out", &value)) {
      campaign.out = value;
    } else if (arg == "--verbose") {
      campaign.verbose = true;
    } else if (arg == "--crash-during-recovery") {
      campaign.crash_during_recovery = true;
    } else if (arg == "--async-checkpoint") {
      campaign.async_checkpoint = true;
    } else if (ParseFlag(arg, "wal-shards", &value)) {
      campaign.wal_shards = static_cast<uint32_t>(std::atoi(value.c_str()));
      if (campaign.wal_shards < 1 || campaign.wal_shards > kMaxWalShards) {
        std::fprintf(stderr, "--wal-shards must be in 1..%u\n", kMaxWalShards);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: %s [--runs=N] [--seed=S] [--sessions=N] "
                   "[--overlap=N] [--wal-shards=N] [--out=FILE] [--verbose] "
                   "[--crash-during-recovery] [--async-checkpoint]\n",
                   argv[0]);
      return 2;
    }
  }
  if (campaign.runs <= 0 || campaign.sessions <= 0 || campaign.overlap <= 0) {
    std::fprintf(stderr,
                 "--runs, --sessions and --overlap must be positive\n");
    return 2;
  }
  if (campaign.async_checkpoint && campaign.overlap < 2) {
    std::fprintf(stderr,
                 "--async-checkpoint needs --overlap >= 2: the background "
                 "checkpoint session only runs inside overlapping waves\n");
    return 2;
  }
  return RunCampaign(campaign);
}

}  // namespace
}  // namespace phoenix::tools

int main(int argc, char** argv) { return phoenix::tools::Main(argc, argv); }
