#include "recovery/replay_plan.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>

namespace phoenix {

size_t ReplayPlan::total_units() const {
  size_t n = 0;
  for (const ReplayChain& chain : chains) n += chain.units.size();
  return n;
}

double CriticalPathMs(const ReplayPlan& plan, double unit_ms,
                      const std::map<uint64_t, double>& ready_ms,
                      bool lanes_only) {
  // Units are processed in replay order (== start LSN on a single log,
  // global sequence number on a sharded one), which is a topological order:
  // chain-internal order and every cross edge point from a smaller order to
  // a larger one. Start LSNs are NOT usable here — composite LSNs of
  // different shards compare by shard id, not by append order.
  auto is_final = [&](UnitRef ref) {
    return ref.index + 1 == plan.chains[ref.chain].units.size();
  };
  std::vector<std::pair<uint64_t, UnitRef>> order;
  order.reserve(plan.total_units());
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    const ReplayChain& chain = plan.chains[c];
    for (uint32_t u = 0; u < chain.units.size(); ++u) {
      if (lanes_only && is_final(UnitRef{c, u})) continue;
      order.emplace_back(chain.units[u].order(), UnitRef{c, u});
    }
  }
  std::sort(order.begin(), order.end());

  // finish[chain][index]: earliest completion honoring all ordering.
  std::vector<std::vector<double>> finish(plan.chains.size());
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    finish[c].assign(plan.chains[c].units.size(), 0.0);
  }
  double critical = 0.0;
  for (const auto& [order_key, ref] : order) {
    double start;
    if (ref.index > 0) {
      start = finish[ref.chain][ref.index - 1];
    } else {
      auto ready = ready_ms.find(plan.chains[ref.chain].context_id);
      start = ready != ready_ms.end() ? ready->second : 0.0;
    }
    for (const UnitRef& dep : plan.unit(ref).deps) {
      // The lanes drop edges from a final unit: it replays after them all.
      if (lanes_only && is_final(dep)) continue;
      start = std::max(start, finish[dep.chain][dep.index]);
    }
    finish[ref.chain][ref.index] = start + unit_ms;
    critical = std::max(critical, finish[ref.chain][ref.index]);
  }
  return critical;
}

namespace {

// Salvage digestion: demote every chain with a gap strictly inside one of
// its unit extents, then serialize the demoted units against each other
// in global replay order via extra edges. A torn tail counts as a gap past
// the last readable record — it can intersect no unit extent (the extent
// ends at a record the scan parsed), so a torn tail alone demotes nothing
// and no longer serializes the whole replay. Gap and extent coordinates
// live in the same space (plain LSNs on one log, composite LSNs sharded —
// where shard bits make cross-shard intersections provably empty), but the
// serialization sort keys on the units' replay order.
void DigestSalvage(ReplayPlan& plan, const std::vector<SkippedRange>& gaps) {
  plan.salvaged = !gaps.empty();
  plan.skipped_ranges = gaps.size();
  if (!plan.salvaged) return;
  for (ReplayChain& chain : plan.chains) {
    for (const PlannedUnit& unit : chain.units) {
      for (const SkippedRange& gap : gaps) {
        if (gap.from_lsn < unit.extent_end_lsn() &&
            gap.to_lsn > unit.start_lsn()) {
          chain.parallel_eligible = false;
        }
      }
    }
    if (!chain.parallel_eligible) ++plan.demoted_chains;
  }
  std::vector<std::pair<uint64_t, UnitRef>> demoted;
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    if (plan.chains[c].parallel_eligible) continue;
    for (uint32_t u = 0; u < plan.chains[c].units.size(); ++u) {
      demoted.emplace_back(plan.chains[c].units[u].order(), UnitRef{c, u});
    }
  }
  std::sort(demoted.begin(), demoted.end());
  for (size_t i = 1; i < demoted.size(); ++i) {
    const UnitRef& source = demoted[i - 1].second;
    const UnitRef& target = demoted[i].second;
    if (source.chain == target.chain) continue;  // chain order covers it
    std::vector<UnitRef>& deps =
        plan.chains[target.chain].units[target.index].deps;
    if (std::find(deps.begin(), deps.end(), source) != deps.end()) continue;
    deps.push_back(source);
    ++plan.serialization_edges;
  }
}

// Whether `rec` opens a unit of a context whose origin has order
// `origin_order` (kInvalidLsn: planned without a below-origin cut). Only
// the origin creation record opens one — newer duplicates (re-creations
// appended by a previous recovery) replay nothing — and only incoming
// calls from the origin on.
bool OpensUnit(const OrderedRecord& rec, uint64_t origin_order) {
  if (std::holds_alternative<CreationRecord>(rec.record)) {
    return origin_order != kInvalidLsn && rec.order == origin_order;
  }
  return std::holds_alternative<IncomingCallRecord>(rec.record) &&
         (origin_order == kInvalidLsn || rec.order >= origin_order);
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
  ReplayPlanner planner;
  while (std::optional<OrderedRecord> rec = cursor.Next()) {
    planner.Add(std::move(*rec));
  }
  return std::move(planner).Finish(cursor.gaps(), inputs);
}

void ReplayPlanner::Add(OrderedRecord rec) {
  ++records_added_;
  uint64_t context_id = 0;
  if (const auto* creation = std::get_if<CreationRecord>(&rec.record)) {
    context_id = creation->context_id;
  } else if (const auto* incoming =
                 std::get_if<IncomingCallRecord>(&rec.record)) {
    context_id = incoming->context_id;
  } else if (const auto* reply =
                 std::get_if<ReplyReceivedRecord>(&rec.record)) {
    context_id = reply->context_id;
  } else {
    // Other record types were pass 1's business.
    const auto* state = std::get_if<ContextStateRecord>(&rec.record);
    if (state != nullptr && rec.order >= cut_) held_.erase(state->context_id);
    return;
  }
  Held& held = held_[context_id];
  (rec.order < cut_ ? held.backfill : held.kept).push_back(std::move(rec));
}

ReplayPlan ReplayPlanner::Finish(const std::vector<SkippedRange>& gaps,
                                 const ReplayPlanInputs& inputs) && {
  ReplayPlan plan;
  plan.records_scanned = records_added_;
  // Each context's records, which ascend by order, become its chain's
  // units; a reply joins the context's open unit. Contexts without an
  // origin are not planned.
  for (auto it = held_.begin(); it != held_.end(); it = held_.erase(it)) {
    auto origin = inputs.origin_orders.find(it->first);
    if (origin == inputs.origin_orders.end()) continue;
    ReplayChain chain{it->first, {}};
    for (std::deque<OrderedRecord>* records :
         {&it->second.backfill, &it->second.kept}) {
      for (; !records->empty(); records->pop_front()) {
        OrderedRecord& rec = records->front();
        if (OpensUnit(rec, origin->second)) {
          chain.units.emplace_back().records.push_back(std::move(rec));
        } else if (std::holds_alternative<ReplyReceivedRecord>(rec.record) &&
                   !chain.units.empty()) {
          chain.units.back().records.push_back(std::move(rec));
        }
      }
    }
    if (!chain.units.empty()) plan.chains.push_back(std::move(chain));
  }
  std::sort(plan.chains.begin(), plan.chains.end(),
            [](const ReplayChain& a, const ReplayChain& b) {
              return a.units.front().order() < b.units.front().order();
            });

  // Cross-chain edges: an incoming call issued by a local caller context
  // depends on the caller's unit that was open at that point in the log —
  // its last unit ordered below the call, whose execution produced it. The
  // ClientKey's component id is the caller's context id; external clients
  // and remote processes fail the machine/pid match and contribute no
  // edge. Orders, not LSNs: composite LSNs of different shards compare by
  // shard id.
  std::map<uint64_t, uint32_t> chain_of;  // context id -> chain index
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    chain_of[plan.chains[c].context_id] = c;
  }
  for (ReplayChain& chain : plan.chains) {
    for (PlannedUnit& unit : chain.units) {
      const auto* incoming =
          std::get_if<IncomingCallRecord>(&unit.records.front().record);
      if (incoming == nullptr) continue;
      const ClientKey& caller = incoming->call_id.caller;
      if (caller.machine != inputs.machine ||
          caller.process_id != inputs.process_id ||
          caller.component_id == chain.context_id) {
        continue;
      }
      auto source = chain_of.find(caller.component_id);
      if (source == chain_of.end()) continue;
      const std::vector<PlannedUnit>& units =
          plan.chains[source->second].units;
      auto after = std::partition_point(
          units.begin(), units.end(), [&unit](const PlannedUnit& u) {
            return u.order() < unit.order();
          });
      if (after == units.begin()) continue;
      unit.deps.push_back(UnitRef{
          source->second, static_cast<uint32_t>(after - units.begin() - 1)});
      ++plan.cross_edges;
    }
  }
  DigestSalvage(plan, gaps);
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
  ReplayPlanner planner;
  for (const OrderedRecord& rec : records) {
    if (rec.order >= start_order) planner.Add(rec);
  }
  return std::move(planner).Finish(gaps, inputs);
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
