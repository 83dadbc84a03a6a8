#ifndef PHOENIX_RECOVERY_REPLAY_PLAN_H_
#define PHOENIX_RECOVERY_REPLAY_PLAN_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "recovery/replay.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/merged_log_reader.h"

namespace phoenix {

// Log-analysis replay planning: one forward scan of the log in append order
// (an OrderedLogCursor, whatever the shard layout) that partitions the message records into per-context replay *chains* and links
// them with cross-chain dependency edges, so pass 2 of recovery can execute
// independent chains as overlapping scheduler sessions instead of walking
// the whole log serially (cf. dependency-aware parallel redo in Wu et al.
// and Yao et al.; here the dependency unit is the paper's per-context
// buffered replay call).
//
// Chain model. A chain is one context's replay units in log order — exactly
// the units the sequential replayer buffers (PendingReplay): the creation
// call, then one unit per logged incoming call, each with the reply feed of
// the outgoing calls it made. Units within a chain are totally ordered
// (context state evolves sequentially); that order is implicit and not
// represented as edges.
//
// Edge rule. When an incoming-call record of context B names a *local*
// caller context A (the CallId's ClientKey carries machine / logical pid /
// caller component id, and component id == the caller's context id), the
// planner adds one edge from A's unit that was open at that point in the
// log (the unit whose execution issued the call) to B's new unit. Edges
// therefore always point from a smaller-order unit to a larger one —
// the plan is a DAG by construction, and the edge order coincides with the
// order the sequential replayer flushes those units. Calls from external
// clients or from remote processes add no edge: their effects reach this
// log only through the records already in the chain.
//
// Salvage. When the scan had to salvage-skip unreadable ranges (or the
// tail is torn), the plan stays parallel per-chain instead of refusing
// outright: a chain is demoted (parallel_eligible = false) only when a
// skipped range falls strictly inside one of its units' record extents —
// that unit's reply feed may be missing records, so its replay can go live
// mid-unit and must not overlap freely with the rest. Demoted units are
// serialized against each other in global log order by extra dependency
// edges woven into the plan itself (serialization_edges); clean chains
// still overlap. Records lost to a gap are equally invisible to the
// sequential replayer — both engines replay exactly the readable records —
// so eligibility is about scheduling conservatism, not correctness of
// membership. The plan refuses parallel execution (fallback != kNone) only
// when fewer than two eligible chains remain. The recovery manager adds
// its own runtime condition (recovery triggered from inside a running
// session chain cannot nest a second scheduler).

// Position of one unit inside a plan: chain index + index within the chain.
struct UnitRef {
  uint32_t chain = 0;
  uint32_t index = 0;

  friend bool operator==(const UnitRef&, const UnitRef&) = default;
  friend auto operator<=>(const UnitRef& a, const UnitRef& b) {
    return std::tie(a.chain, a.index) <=> std::tie(b.chain, b.index);
  }
};

// One replay unit plus its cross-chain dependency edges.
struct PlannedUnit {
  PendingReplay replay;
  // Cross-chain units that must replay before this one (edge sources).
  std::vector<UnitRef> deps;
  // Reverse edges (edge targets), filled by the planner.
  std::vector<UnitRef> dependents;
  // LSN of the last record the scan attributed to this unit (the incoming /
  // creation record itself when no reply followed). A salvage gap strictly
  // inside [replay.start_lsn, extent_end_lsn] demotes the unit's chain.
  uint64_t extent_end_lsn = 0;
};

// All replay units of one context, in log order.
struct ReplayChain {
  uint64_t context_id = 0;
  std::vector<PlannedUnit> units;
  // False when a salvage gap intersected one of this chain's unit extents;
  // the chain's units are then serialized in log order against the other
  // demoted chains (see the Salvage paragraph above).
  bool parallel_eligible = true;
};

// Why a plan (or the recovery manager) refused parallel execution.
enum class PlanFallback {
  kNone = 0,
  kSalvagedLog,      // salvage gaps left fewer than two eligible chains
  kTooFewChains,     // fewer than two chains: nothing to overlap
  kNestedScheduler,  // recovery already runs inside a session chain
};

const char* PlanFallbackName(PlanFallback fallback);

struct ReplayPlan {
  std::vector<ReplayChain> chains;  // ordered by first-unit start LSN
  uint64_t cross_edges = 0;
  PlanFallback fallback = PlanFallback::kNone;
  // Records examined by the planning scan (recovery charges its scan cost).
  uint64_t records_scanned = 0;
  // Salvage accounting: the scan skipped unreadable ranges (or found a torn
  // tail), and how the per-chain eligibility check digested that.
  bool salvaged = false;
  uint64_t skipped_ranges = 0;       // gaps the scan salvaged over
  uint32_t demoted_chains = 0;       // chains with parallel_eligible=false
  uint64_t serialization_edges = 0;  // extra log-order edges among demoted

  bool parallel_eligible() const { return fallback == PlanFallback::kNone; }
  size_t total_units() const;
  size_t eligible_chains() const;
  const PlannedUnit& unit(UnitRef ref) const {
    return chains[ref.chain].units[ref.index];
  }
};

// Longest dependency-respecting path through `plan` when every unit takes
// `unit_ms` and no chain starts before its context's entry in `ready_ms`
// (ms from the start; 0 when absent). With `lanes_only`, each chain's last
// unit and the edges out of it are left out: recovery replays those in its
// tail, after the lanes close. Any schedule that honors chain order, the
// kept edges and the ready times — the recovery lanes' does — runs at
// least this long.
double CriticalPathMs(const ReplayPlan& plan, double unit_ms,
                      const std::map<uint64_t, double>& ready_ms,
                      bool lanes_only);

// What the planner needs to know about the recovering process.
struct ReplayPlanInputs {
  // Identity of the recovering process: calls whose ClientKey carries this
  // machine + logical pid come from a local context and produce edges.
  std::string machine;
  uint32_t process_id = 0;
  // Replay origin per context (pass 1's recovery LSNs), and the order of
  // each origin record; both maps carry the same contexts, and on a single
  // log an origin's order is its LSN. Records ordered below a context's
  // origin are covered by its restored state and are not planned; the
  // comparison uses the order, because composite LSNs of different shards
  // compare by shard id, not by append order. A context mapped to
  // kInvalidLsn is planned without a below-origin cut; contexts absent from
  // the maps are ignored entirely.
  std::map<uint64_t, uint64_t> origins;
  std::map<uint64_t, uint64_t> origin_orders;
};

// The planner: drains `cursor` (wal/merged_log_reader.h), planning every
// record it yields, and digests the damage it reports as salvage gaps. Pure
// analysis: never touches the clock, the process or any component.
// Mid-scan damage does not abort planning: the scan salvages past it and
// demotes only the chains whose unit extents the damage intersected
// (fallback = kSalvagedLog only when fewer than two eligible chains
// survive).
ReplayPlan BuildReplayPlan(OrderedLogCursor& cursor,
                           const ReplayPlanInputs& inputs);

// The planner pass 1 of crash recovery feeds (recovery_manager.h): the
// analysis scan hands it every record it reads, and once the scan has fixed
// the replay origins, Finish plans the kept records exactly as
// BuildReplayPlan plans the same range of the log. Origins are not known
// while the scan runs, so the records a plan is built from (creations,
// incoming calls, received replies) are kept per context. A state record at
// or above `cut` is pass 1's newest origin for its context so far — pass 1
// only ever moves an origin up from there — so every earlier record of
// that context lies below the final origin and is dropped on the spot,
// which keeps the records held close to what the plan will hold. (A
// restore that falls back to an older origin outdates the plan; recovery
// then plans again from a fresh scan.)
class ReplayPlanner {
 public:
  explicit ReplayPlanner(uint64_t cut) : cut_(cut) {}

  void Add(OrderedRecord rec);
  // Plans the kept records in log order against pass 1's final origins;
  // `gaps` are the scan's salvage gaps (OrderedLogCursor::gaps()).
  ReplayPlan Finish(const std::vector<SkippedRange>& gaps,
                    const ReplayPlanInputs& inputs) &&;

 private:
  uint64_t cut_;
  std::map<uint64_t, std::deque<OrderedRecord>> kept_;  // per context
};

// The plan a crash recovery of `log`'s stable image would replay right now,
// for tools and tests that have no RecoveryManager at hand: replay origins
// derived over the whole retained log with pass 1's rules (newest state
// record per context, else first creation record, refined by checkpoint
// context entries), then one planning scan of the same range (the
// activator's origin is the log head).
// `inputs` supplies the process identity and cost; its origin maps are
// filled here.
ReplayPlan PlanLogReplay(const LogManager& log, ReplayPlanInputs inputs);

// Entry points over a single log image or an already-merged record stream,
// onto the same planner and origin rules.
//
// Single log from `scan_start`; every origin's order is its LSN, so
// inputs.origin_orders is ignored.
ReplayPlan BuildReplayPlan(const LogView& log, uint64_t scan_start,
                           const ReplayPlanInputs& inputs);
// Records ordered below `start_order` are ignored; `gaps` are the stream's
// salvage gaps in composite coordinates (OrderedLogCursor::gaps()).
ReplayPlan BuildReplayPlanFromRecords(const std::vector<OrderedRecord>& records,
                                      const std::vector<SkippedRange>& gaps,
                                      uint64_t start_order,
                                      const ReplayPlanInputs& inputs);
// Replay origins of a single log scanned from `scan_start`.
std::map<uint64_t, uint64_t> DeriveReplayOrigins(const LogView& log,
                                                 uint64_t scan_start);
// Replay origins of a merged record stream, with their orders. A
// checkpoint entry's origin order is looked up in `records`.
void DeriveReplayOriginsFromRecords(
    const std::vector<OrderedRecord>& records,
    std::map<uint64_t, uint64_t>* origins,
    std::map<uint64_t, uint64_t>* origin_orders);

}  // namespace phoenix

#endif  // PHOENIX_RECOVERY_REPLAY_PLAN_H_
