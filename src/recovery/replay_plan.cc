#include "recovery/replay_plan.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

namespace phoenix {

const char* PlanFallbackName(PlanFallback fallback) {
  switch (fallback) {
    case PlanFallback::kNone:
      return "none";
    case PlanFallback::kSalvagedLog:
      return "salvaged_log";
    case PlanFallback::kTooFewChains:
      return "too_few_chains";
    case PlanFallback::kNestedScheduler:
      return "nested_scheduler";
  }
  return "unknown";
}

size_t ReplayPlan::total_units() const {
  size_t n = 0;
  for (const ReplayChain& chain : chains) n += chain.units.size();
  return n;
}

size_t ReplayPlan::eligible_chains() const {
  size_t n = 0;
  for (const ReplayChain& chain : chains) n += chain.parallel_eligible ? 1 : 0;
  return n;
}

namespace {

// Modelled replay cost of the plan: per-unit weight plus the longest
// dependency-respecting path. Units are processed in replay order (== start
// LSN on a single log, global sequence number on a sharded one), which is a
// topological order: chain-internal order and every cross edge point from a
// smaller order to a larger one. Start LSNs are NOT usable here — composite
// LSNs of different shards compare by shard id, not by append order.
void ComputeCosts(ReplayPlan& plan, double unit_ms) {
  std::vector<std::pair<uint64_t, UnitRef>> order;
  order.reserve(plan.total_units());
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    const ReplayChain& chain = plan.chains[c];
    for (uint32_t u = 0; u < chain.units.size(); ++u) {
      order.emplace_back(chain.units[u].replay.order, UnitRef{c, u});
    }
  }
  std::sort(order.begin(), order.end());

  // finish[chain][index]: earliest completion honoring all ordering.
  std::vector<std::vector<double>> finish(plan.chains.size());
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    finish[c].assign(plan.chains[c].units.size(), 0.0);
  }
  double critical = 0.0;
  for (const auto& [lsn, ref] : order) {
    double start = ref.index > 0 ? finish[ref.chain][ref.index - 1] : 0.0;
    for (const UnitRef& dep : plan.unit(ref).deps) {
      start = std::max(start, finish[dep.chain][dep.index]);
    }
    finish[ref.chain][ref.index] = start + unit_ms;
    critical = std::max(critical, finish[ref.chain][ref.index]);
  }
  plan.total_replay_ms = static_cast<double>(plan.total_units()) * unit_ms;
  plan.critical_path_ms = critical;
}

// Incremental chain/edge construction, one ordered record at a time.
// Below-origin filtering compares replay orders (inputs.origin_orders).
class PlanBuilder {
 public:
  PlanBuilder(ReplayPlan& plan, const ReplayPlanInputs& inputs)
      : plan_(plan), inputs_(inputs) {}

  void Add(const OrderedRecord& rec) {
    ++plan_.records_scanned;
    if (const auto* creation = std::get_if<CreationRecord>(&rec.record)) {
      OnCreation(rec.lsn, rec.order, *creation);
    } else if (const auto* incoming =
                   std::get_if<IncomingCallRecord>(&rec.record)) {
      OnIncoming(rec.lsn, rec.order, *incoming);
    } else if (const auto* reply =
                   std::get_if<ReplyReceivedRecord>(&rec.record)) {
      OnReply(rec.lsn, *reply);
    }
    // Other record types were pass 1's business.
  }

 private:
  void OnCreation(uint64_t lsn, uint64_t order, const CreationRecord& rec) {
    // Only the origin creation record opens a chain; newer duplicates
    // (re-creations appended by a previous recovery) replay nothing.
    auto it = inputs_.origin_orders.find(rec.context_id);
    if (it == inputs_.origin_orders.end() || it->second == kInvalidLsn ||
        order != it->second) {
      return;
    }
    PendingReplay unit;
    unit.is_creation = true;
    unit.start_lsn = lsn;
    unit.order = order;
    unit.creation = rec;
    PushUnit(rec.context_id, std::move(unit));
  }

  void OnIncoming(uint64_t lsn, uint64_t order,
                  const IncomingCallRecord& rec) {
    auto it = inputs_.origin_orders.find(rec.context_id);
    if (it == inputs_.origin_orders.end()) return;
    if (it->second != kInvalidLsn && order < it->second) return;

    PendingReplay unit;
    unit.start_lsn = lsn;
    unit.order = order;
    unit.incoming = rec;
    UnitRef target = PushUnit(rec.context_id, std::move(unit));

    // Cross-chain edge: the call was issued by a local caller context
    // whose open unit must replay before this one (it is the unit whose
    // execution produced the call). The ClientKey's component id is the
    // caller's context id; external clients and remote processes fail
    // the machine/pid match and contribute no edge.
    const ClientKey& caller = rec.call_id.caller;
    if (caller.machine == inputs_.machine &&
        caller.process_id == inputs_.process_id &&
        caller.component_id != rec.context_id) {
      if (std::optional<UnitRef> source = OpenRef(caller.component_id);
          source.has_value() && source->chain != target.chain) {
        plan_.chains[target.chain].units[target.index].deps.push_back(
            *source);
        plan_.chains[source->chain].units[source->index].dependents
            .push_back(target);
        ++plan_.cross_edges;
      }
    }
  }

  void OnReply(uint64_t lsn, const ReplyReceivedRecord& rec) {
    if (std::optional<UnitRef> ref = OpenRef(rec.context_id);
        ref.has_value()) {
      PlannedUnit& unit = plan_.chains[ref->chain].units[ref->index];
      unit.replay.feed.replies[rec.seq] = rec;
      unit.extent_end_lsn = lsn;
    }
  }

  // The chain's currently-open unit: the one whose execution covers this
  // point of the log (its last planned unit, units being closed only by the
  // context's next incoming call).
  std::optional<UnitRef> OpenRef(uint64_t context_id) const {
    auto it = chain_of_.find(context_id);
    if (it == chain_of_.end()) return std::nullopt;
    const ReplayChain& chain = plan_.chains[it->second];
    if (chain.units.empty()) return std::nullopt;
    return UnitRef{it->second, static_cast<uint32_t>(chain.units.size() - 1)};
  }

  UnitRef PushUnit(uint64_t context_id, PendingReplay unit) {
    auto [it, inserted] =
        chain_of_.try_emplace(context_id, static_cast<uint32_t>(
                                              plan_.chains.size()));
    if (inserted) {
      plan_.chains.push_back(ReplayChain{context_id, {}});
    }
    ReplayChain& chain = plan_.chains[it->second];
    uint64_t start_lsn = unit.start_lsn;
    chain.units.push_back(PlannedUnit{std::move(unit), {}, {}, start_lsn});
    return UnitRef{it->second,
                   static_cast<uint32_t>(chain.units.size() - 1)};
  }

  ReplayPlan& plan_;
  const ReplayPlanInputs& inputs_;
  std::map<uint64_t, uint32_t> chain_of_;  // context id -> chain index
};

// Salvage digestion: demote every chain with a gap strictly inside one of
// its unit extents, then serialize the demoted units against each other
// in global replay order via extra edges. A torn tail counts as a gap past
// the last readable record — it can intersect no unit extent (the extent
// ends at a record the scan parsed), so a torn tail alone demotes nothing
// and no longer serializes the whole replay. Gap and extent coordinates
// live in the same space (plain LSNs on one log, composite LSNs sharded —
// where shard bits make cross-shard intersections provably empty), but the
// serialization sort keys on the units' replay order.
void DigestSalvageAndFinalize(ReplayPlan& plan,
                              const std::vector<SkippedRange>& gaps,
                              double replay_call_ms) {
  plan.salvaged = !gaps.empty();
  plan.skipped_ranges = gaps.size();
  if (plan.salvaged) {
    for (ReplayChain& chain : plan.chains) {
      for (const PlannedUnit& unit : chain.units) {
        for (const SkippedRange& gap : gaps) {
          if (gap.from_lsn < unit.extent_end_lsn &&
              gap.to_lsn > unit.replay.start_lsn) {
            chain.parallel_eligible = false;
          }
        }
      }
      if (!chain.parallel_eligible) ++plan.demoted_chains;
    }
    if (plan.demoted_chains > 0) {
      std::vector<std::pair<uint64_t, UnitRef>> demoted;
      for (uint32_t c = 0; c < plan.chains.size(); ++c) {
        if (plan.chains[c].parallel_eligible) continue;
        for (uint32_t u = 0; u < plan.chains[c].units.size(); ++u) {
          demoted.emplace_back(plan.chains[c].units[u].replay.order,
                               UnitRef{c, u});
        }
      }
      std::sort(demoted.begin(), demoted.end());
      for (size_t i = 1; i < demoted.size(); ++i) {
        const UnitRef& source = demoted[i - 1].second;
        const UnitRef& target = demoted[i].second;
        if (source.chain == target.chain) continue;  // chain order covers it
        std::vector<UnitRef>& deps =
            plan.chains[target.chain].units[target.index].deps;
        if (std::find(deps.begin(), deps.end(), source) != deps.end()) {
          continue;
        }
        deps.push_back(source);
        plan.chains[source.chain].units[source.index].dependents.push_back(
            target);
        ++plan.serialization_edges;
      }
    }
  }

  if (plan.salvaged && plan.eligible_chains() < 2) {
    plan.fallback = PlanFallback::kSalvagedLog;
    return;
  }
  if (plan.chains.size() < 2) {
    plan.fallback = PlanFallback::kTooFewChains;
  }
  ComputeCosts(plan, replay_call_ms);
}

// Order of the record at an LSN; kInvalidLsn when it is unreadable.
using OrderOfFn = std::function<uint64_t(uint64_t lsn)>;

// Pass 1's replay-origin rules (RecoveryManager::PassOne) for one record:
// newest state record per context, else first creation record, refined by
// checkpoint context entries. All of a context's origin candidates share
// one shard, so their LSNs compare.
void NoteOrigin(const OrderedRecord& rec, const OrderOfFn& order_of,
                std::map<uint64_t, uint64_t>* origins,
                std::map<uint64_t, uint64_t>* orders) {
  auto set = [&](uint64_t context_id, uint64_t lsn, uint64_t order) {
    (*origins)[context_id] = lsn;
    (*orders)[context_id] = order;
  };
  if (const auto* e = std::get_if<CheckpointContextEntryRecord>(&rec.record)) {
    auto it = origins->find(e->context_id);
    if (it == origins->end() || it->second == kInvalidLsn ||
        (e->recovery_lsn != kInvalidLsn && e->recovery_lsn > it->second)) {
      set(e->context_id, e->recovery_lsn, order_of(e->recovery_lsn));
    }
  } else if (const auto* c = std::get_if<CreationRecord>(&rec.record)) {
    auto it = origins->find(c->context_id);
    if (it == origins->end() || it->second == kInvalidLsn) {
      set(c->context_id, rec.lsn, rec.order);
    }
  } else if (const auto* s = std::get_if<ContextStateRecord>(&rec.record)) {
    set(s->context_id, rec.lsn, rec.order);
  }
}

// The activator context always recovers by replay from the scan start. It
// has no origin record, so only its order is known.
void NoteActivatorOrigin(uint64_t start_order,
                         std::map<uint64_t, uint64_t>* origins,
                         std::map<uint64_t, uint64_t>* orders) {
  origins->try_emplace(0, kInvalidLsn);
  auto [it, inserted] = orders->try_emplace(0, start_order);
  if (it->second == kInvalidLsn) it->second = start_order;
}

void DeriveOrigins(OrderedLogCursor& cursor, uint64_t start_order,
                   const OrderOfFn& order_of,
                   std::map<uint64_t, uint64_t>* origins,
                   std::map<uint64_t, uint64_t>* orders) {
  while (std::optional<OrderedRecord> rec = cursor.Next()) {
    NoteOrigin(*rec, order_of, origins, orders);
  }
  NoteActivatorOrigin(start_order, origins, orders);
}

}  // namespace

ReplayPlan BuildReplayPlan(OrderedLogCursor& cursor,
                           const ReplayPlanInputs& inputs) {
  ReplayPlan plan;
  PlanBuilder builder(plan, inputs);
  while (std::optional<OrderedRecord> rec = cursor.Next()) builder.Add(*rec);
  DigestSalvageAndFinalize(plan, cursor.gaps(), inputs.replay_call_ms);
  return plan;
}

ReplayPlan PlanLogReplay(const LogManager& log, ReplayPlanInputs inputs) {
  OrderedLogCursor origins_scan(log, log.head_order());
  DeriveOrigins(
      origins_scan, log.head_order(),
      [&log](uint64_t lsn) {
        Result<uint64_t> order = log.OrderOfRecordAt(lsn);
        return order.ok() ? *order : kInvalidLsn;
      },
      &inputs.origins, &inputs.origin_orders);
  // The activator's origin is the log head, the smallest origin order.
  OrderedLogCursor cursor(log, log.head_order());
  return BuildReplayPlan(cursor, inputs);
}

ReplayPlan BuildReplayPlan(const LogView& log, uint64_t scan_start,
                           const ReplayPlanInputs& inputs) {
  ReplayPlanInputs single = inputs;
  single.origin_orders = inputs.origins;
  OrderedLogCursor cursor({log}, scan_start);
  return BuildReplayPlan(cursor, single);
}

ReplayPlan BuildReplayPlanFromRecords(const std::vector<OrderedRecord>& records,
                                      const std::vector<SkippedRange>& gaps,
                                      uint64_t start_order,
                                      const ReplayPlanInputs& inputs) {
  ReplayPlan plan;
  PlanBuilder builder(plan, inputs);
  for (const OrderedRecord& rec : records) {
    if (rec.order >= start_order) builder.Add(rec);
  }
  DigestSalvageAndFinalize(plan, gaps, inputs.replay_call_ms);
  return plan;
}

std::map<uint64_t, uint64_t> DeriveReplayOrigins(const LogView& log,
                                                 uint64_t scan_start) {
  // On a single log every origin's order is its LSN, and the orders also
  // hold the activator's origin: the scan start.
  std::map<uint64_t, uint64_t> origins;
  std::map<uint64_t, uint64_t> orders;
  OrderedLogCursor cursor({log}, scan_start);
  DeriveOrigins(
      cursor, scan_start, [](uint64_t lsn) { return lsn; }, &origins,
      &orders);
  return orders;
}

void DeriveReplayOriginsFromRecords(
    const std::vector<OrderedRecord>& records,
    std::map<uint64_t, uint64_t>* origins,
    std::map<uint64_t, uint64_t>* origin_orders) {
  std::map<uint64_t, uint64_t> order_of;
  for (const OrderedRecord& rec : records) order_of[rec.lsn] = rec.order;
  auto lookup = [&order_of](uint64_t lsn) {
    auto it = order_of.find(lsn);
    return it == order_of.end() ? kInvalidLsn : it->second;
  };
  for (const OrderedRecord& rec : records) {
    NoteOrigin(rec, lookup, origins, origin_orders);
  }
  NoteActivatorOrigin(records.empty() ? 0 : records.front().order, origins,
                      origin_orders);
}

}  // namespace phoenix
