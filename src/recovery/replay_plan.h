#ifndef PHOENIX_RECOVERY_REPLAY_PLAN_H_
#define PHOENIX_RECOVERY_REPLAY_PLAN_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/merged_log_reader.h"

namespace phoenix {

// Log-analysis replay planning: the records of the log in append order
// (an OrderedLogCursor, whatever the shard layout) are partitioned into
// per-context replay *chains*, linked by cross-chain dependency edges, so
// pass 2 of recovery can execute independent chains as overlapping
// scheduler sessions instead of walking the whole log serially (cf.
// dependency-aware parallel redo in Wu et al. and Yao et al.; here the
// dependency unit is the paper's per-context buffered replay call).
//
// Chain model. A chain is one context's replay units in log order: the
// creation call, then one unit per logged incoming call. A unit owns its
// records: the creation or incoming-call record that opens it, then the
// logged replies of the outgoing calls it made, which the replay engine
// feeds back to the re-executed call in place (runtime/context.h's
// ReplayFeed points into the unit). Units within a chain are totally
// ordered (context state evolves sequentially); that order is implicit and
// not represented as edges.
//
// Edge rule. When an incoming-call record of context B names a *local*
// caller context A (the CallId's ClientKey carries machine / logical pid /
// caller component id, and component id == the caller's context id), the
// planner adds one edge to B's new unit from A's unit that was open at
// that point in the log: A's last unit ordered below the call, the unit
// whose execution issued it. Edges therefore always point from a
// smaller-order unit to a larger one — the plan is a DAG by construction,
// and ascending order is a topological order: the one-lane schedule
// (parallel_replay.h). Calls from external clients or from remote
// processes add no edge: their effects reach this log only through the
// records already in the chain.
//
// Salvage. When the scan had to salvage-skip unreadable ranges (or the
// tail is torn), the plan stays parallel per-chain instead of refusing
// outright: a chain is demoted (parallel_eligible = false) only when a
// skipped range falls strictly inside one of its units' record extents —
// that unit's reply feed may be missing records, so its replay can go live
// mid-unit and must not overlap freely with the rest. Demoted units are
// serialized against each other in global log order by extra dependency
// edges woven into the plan itself (serialization_edges); clean chains
// still overlap. Records lost to a gap are invisible to replay whatever
// the schedule — the plan holds exactly the readable records — so
// eligibility is about scheduling conservatism, not correctness of
// membership. Every plan runs, salvaged or not, with any number of chains.

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
  // In log order: the creation or incoming-call record that opens the unit,
  // then the ReplyReceivedRecords of the outgoing calls it made.
  std::vector<OrderedRecord> records;
  // Cross-chain units that must replay before this one (edge sources).
  std::vector<UnitRef> deps;

  bool is_creation() const {
    return std::holds_alternative<CreationRecord>(records.front().record);
  }
  uint64_t start_lsn() const { return records.front().lsn; }
  // Global replay order of the unit's first record: equal to start_lsn on a
  // single log, the frame's global sequence number on a sharded WAL (where
  // composite LSNs of different shards are not comparable). Every ordering
  // decision — plan topological order, the replay engine's ready queue and
  // its final phase — keys on this, never on start_lsn.
  uint64_t order() const { return records.front().order; }
  // LSN of the unit's last record. A salvage gap strictly inside
  // [start_lsn, extent_end_lsn] demotes the unit's chain.
  uint64_t extent_end_lsn() const { return records.back().lsn; }
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

struct ReplayPlan {
  std::vector<ReplayChain> chains;  // ordered by first-unit order
  uint64_t cross_edges = 0;
  // Records handed to the planner (a whole-scan recovery charges its scan
  // cost by them).
  uint64_t records_scanned = 0;
  // Salvage accounting: the scan skipped unreadable ranges (or found a torn
  // tail), and how the per-chain eligibility check digested that.
  bool salvaged = false;
  uint64_t skipped_ranges = 0;       // gaps the scan salvaged over
  uint32_t demoted_chains = 0;       // chains with parallel_eligible=false
  uint64_t serialization_edges = 0;  // extra log-order edges among demoted

  size_t total_units() const;
  const PlannedUnit& unit(UnitRef ref) const {
    return chains[ref.chain].units[ref.index];
  }
};

// Longest dependency-respecting path through `plan` when every unit takes
// `unit_ms` and no chain starts before its context's entry in `ready_ms`
// (ms from the start; 0 when absent). With `lanes_only`, each chain's last
// unit and the edges out of it are left out: the replay engine replays
// those in its final phase, after the lanes close. Any schedule that honors chain order, the
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

// Plans every record `cursor` (wal/merged_log_reader.h) yields, and digests
// the damage it reports as salvage gaps. Pure analysis: never touches the
// clock, the process or any component. Mid-scan damage does not abort
// planning: the scan salvages past it and demotes only the chains whose
// unit extents the damage intersected.
ReplayPlan BuildReplayPlan(OrderedLogCursor& cursor,
                           const ReplayPlanInputs& inputs);

// The planner. Every plan is built by one: pass 1 of crash recovery
// (recovery_manager.h) feeds one with a checkpoint cut, the whole-scan
// entry points here feed one with none.
//
// With a cut, pass 1 reads the log from the cut to the end and hands the
// planner every record; once that read has fixed the replay origins, it
// reads the records from the lowest origin up to the cut (the back-fill)
// and hands those over too. Every back-filled record is ordered below
// every kept one, so Finish plans the records exactly as a planner without
// a cut plans the log from the lowest origin on. Origins are not known
// while the first read runs, so the records a plan is built from
// (creations, incoming calls, received replies) are held per context. A
// state record at or above the cut is pass 1's newest origin for its
// context so far — pass 1 only ever moves an origin up from there — so
// every earlier record of that context lies below the final origin and is
// dropped on the spot, which keeps the records held close to what the plan
// will hold. (A restore that falls back to an older origin outdates the
// plan; recovery then plans again from a fresh scan, without a cut, where
// a state record drops nothing.)
class ReplayPlanner {
 public:
  // Without a cut every record counts as back-filled.
  explicit ReplayPlanner(uint64_t cut = kInvalidLsn) : cut_(cut) {}

  // A record read for the plan: first those from the cut on, then the
  // back-fill, each in log order.
  void Add(OrderedRecord rec);
  // Plans the held records against the final origins (inputs): each
  // context's records become its chain's units, freed as they move, and
  // each incoming call from a local context gets its edge. `gaps` are the
  // reads' salvage gaps (OrderedLogCursor::gaps()).
  ReplayPlan Finish(const std::vector<SkippedRange>& gaps,
                    const ReplayPlanInputs& inputs) &&;

 private:
  // One context's records, each part in log order.
  struct Held {
    std::deque<OrderedRecord> backfill;  // below the cut
    std::deque<OrderedRecord> kept;      // from the cut on
  };

  uint64_t cut_;
  uint64_t records_added_ = 0;
  std::map<uint64_t, Held> held_;  // per context
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
// onto the same planner (without a cut) and origin rules.
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
