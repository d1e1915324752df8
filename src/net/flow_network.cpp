#include "net/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace vdc::net {

namespace {
// A flow whose remaining volume drops below this is considered delivered.
// One byte of slack at double precision; avoids infinite zeno re-scheduling.
constexpr double kDoneEpsilon = 0.5;

// Anti-starvation floor for the water-filling shares. A port whose
// residual was clamped to zero by accumulated drift (or whose tiny
// capacity underflows when divided across its flows) would otherwise hand
// its remaining flows an exact-zero rate, tripping the "active flow with
// zero rate" invariant and freezing those flows forever. Flooring the
// share keeps every flow finite-time-completable; the slack this adds per
// port is at most flows * floor, negligible against any real capacity.
constexpr double kShareFloorFraction = 1e-9;
constexpr double kAbsoluteRateFloor = 1e-300;  // survives denormal caps

// A port bottlenecks a water-filling level when its share is within this
// relative tolerance of the level's smallest share.
constexpr double kBandTolerance = 1e-12;
// Extra relative width of the band that picks a level's candidate flows;
// it only has to exceed the rounding drift of shares within one level.
constexpr double kCandidateMargin = 1e-9;

// The completion heap is never compacted below this many entries.
constexpr std::size_t kCompactMinEntries = 1024;

double floored_share(double residual, std::uint32_t unfixed, double cap) {
  const double share = residual / unfixed;
  const double floor = std::max(cap * kShareFloorFraction,
                                kAbsoluteRateFloor);
  return std::max(share, floor);
}
}  // namespace

FlowNetwork::FlowNetwork(simkit::Simulator& sim) : sim_(sim) {}

PortId FlowNetwork::add_port(Rate capacity) {
  VDC_REQUIRE(capacity > 0.0, "port capacity must be positive");
  Port port;
  port.cap = capacity;
  ports_.push_back(std::move(port));
  return static_cast<PortId>(ports_.size() - 1);
}

void FlowNetwork::set_capacity(PortId port, Rate capacity) {
  VDC_REQUIRE(capacity > 0.0, "port capacity must be positive");
  VDC_ASSERT(port < ports_.size());
  settle_progress();
  ports_[port].cap = capacity;
  dirty_ports_.push_back(port);
  end_instant_later();
}

Rate FlowNetwork::capacity(PortId port) const {
  VDC_ASSERT(port < ports_.size());
  return ports_[port].cap;
}

FlowId FlowNetwork::start_flow(std::vector<PortId> path, Bytes bytes,
                               Callback on_complete, SimTime latency) {
  for (PortId p : path) VDC_ASSERT(p < ports_.size());
  VDC_ASSERT(latency >= 0.0);
  if (free_slots_.empty()) {
    VDC_ASSERT(flows_.size() < (std::size_t{1} << kSlotBits));
    free_slots_.push_back(static_cast<std::uint32_t>(flows_.size()));
    flows_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  const FlowId id = next_seq_++ << kSlotBits | slot;
  Flow& flow = flows_[slot];
  flow.id = id;
  flow.path = std::move(path);
  flow.remaining = static_cast<double>(bytes);
  flow.on_complete = std::move(on_complete);

  if (latency > 0.0) {
    flow.latency_event = sim_.after(latency, [this, slot] {
      flows_[slot].latency_event = simkit::kInvalidEvent;
      --pending_flows_;
      activate(slot);
    });
    ++pending_flows_;
    notify_count();
  } else {
    activate(slot);
  }
  return id;
}

void FlowNetwork::activate(std::uint32_t slot) {
  Flow& flow = flows_[slot];
  if (flow.remaining < kDoneEpsilon) {
    // Zero-length transfer: complete as its own event to keep callback
    // ordering uniform with real transfers.
    if (flow.on_complete)
      sim_.after(0.0, std::move(flow.on_complete));
    free_slot(slot);
    notify_count();
    return;
  }
  settle_progress();
  mark_dirty(flow.path);
  link(slot);
  notify_count();
}

void FlowNetwork::free_slot(std::uint32_t slot) {
  // Destroy the callback once the slot is free (captures may re-enter).
  const Flow dead = std::exchange(flows_[slot], Flow{});
  free_slots_.push_back(slot);
}

bool FlowNetwork::cancel_flow(FlowId id) {
  if (!live(id)) return false;
  const std::uint32_t slot = slot_of(id);
  Flow& flow = flows_[slot];
  if (flow.latency_event != simkit::kInvalidEvent) {
    sim_.cancel(flow.latency_event);
    --pending_flows_;
  } else {
    settle_progress();
    mark_dirty(flow.path);
    unlink(slot);
  }
  free_slot(slot);
  notify_count();
  return true;
}

void FlowNetwork::notify_count() {
  if (count_hook_) count_hook_();
}

Rate FlowNetwork::flow_rate(FlowId id) const {
  // A flow in latency has rate 0 until its first solve.
  return live(id) ? flows_[slot_of(id)].rate : 0.0;
}

void FlowNetwork::settle_progress() {
  const SimTime now = sim_.now();
  const double dt = now - last_settle_;
  last_settle_ = now;
  if (dt <= 0.0) return;
  for (std::uint32_t s : active_)
    flows_[s].remaining -= std::min(flows_[s].remaining, flows_[s].rate * dt);
}

void FlowNetwork::mark_dirty(const std::vector<PortId>& path) {
  dirty_ports_.insert(dirty_ports_.end(), path.begin(), path.end());
  end_instant_later();
}

void FlowNetwork::end_instant_later() {
  if (instant_end_pending_) return;
  instant_end_pending_ = true;
  sim_.at_instant_end([this] { end_instant(); });
}

void FlowNetwork::end_instant() {
  instant_end_pending_ = false;
  resolve_rates();
  const SimTime now = sim_.now();
  // Re-arm flows whose predicted finish has come due without finishing
  // them (an early prediction by a float ulp): refresh their entry at now.
  while (!completions_.empty() && completions_.front().at <= now) {
    const Completion c = completions_.front();
    pop_completion();
    if (!live(c.id) || flows_[slot_of(c.id)].due != c.at) continue;
    Flow& f = flows_[slot_of(c.id)];
    double at = now + f.remaining / f.rate;
    if (at <= now) at = std::nextafter(now, kInf);
    f.due = at;
    push_completion(Completion{at, c.id});
  }
  schedule_next_completion();
}

void FlowNetwork::link(std::uint32_t slot) {
  Flow& flow = flows_[slot];
  flow.active_at = static_cast<std::uint32_t>(active_.size());
  active_.push_back(slot);
  for (PortId p : flow.path) ports_[p].flows.push_back(slot);
}

void FlowNetwork::unlink(std::uint32_t slot) {
  const Flow& flow = flows_[slot];
  for (PortId p : flow.path) {
    std::vector<std::uint32_t>& on_port = ports_[p].flows;
    auto it = std::find(on_port.begin(), on_port.end(), slot);
    VDC_ASSERT(it != on_port.end());
    *it = on_port.back();
    on_port.pop_back();
  }
  flows_[active_.back()].active_at = flow.active_at;
  active_[flow.active_at] = active_.back();
  active_.pop_back();
}

void FlowNetwork::collect_component(PortId seed) {
  component_.clear();
  stack_.clear();
  seeds_.clear();
  component_ports_.clear();
  ++component_epoch_;
  merged_ = false;
  component_tainted_ = false;
  std::uint64_t earlier = 0;  // the earlier component of a port with a level
  const auto visit_port = [&](PortId p) {
    Port& port = ports_[p];
    if (port.visited == visit_epoch_) return;
    port.visited = visit_epoch_;
    component_ports_.push_back(p);
    if (port.dirty == visit_epoch_) seeds_.push_back(p);
    component_tainted_ = component_tainted_ || port.tainted;
    if (port.share != kInf) {
      if (earlier == 0) earlier = port.component;
      merged_ = merged_ || port.component != earlier;
    }
    port.component = component_epoch_;
    for (std::uint32_t s : port.flows) {
      Flow& f = flows_[s];
      if (f.visited == visit_epoch_) continue;
      f.visited = visit_epoch_;
      stack_.push_back(s);
    }
  };
  visit_port(seed);
  while (!stack_.empty()) {
    const Flow& f = flows_[stack_.back()];
    stack_.pop_back();
    component_.push_back(f.id);
    for (PortId p : f.path) visit_port(p);
  }
}

void FlowNetwork::solve_component(const std::vector<FlowId>& component) {
  // Water-filling on dense slot arrays. Flows are indexed by their
  // position in `component` (ascending id), ports by first appearance.
  const auto nflows = static_cast<std::uint32_t>(component.size());
  if (slot_of_port_.size() < ports_.size())
    slot_of_port_.resize(ports_.size(), kNoSlot);
  slot_port_.clear();
  path_slots_.clear();
  path_begin_.resize(nflows + 1);
  for (std::uint32_t fi = 0; fi < nflows; ++fi) {
    path_begin_[fi] = static_cast<std::uint32_t>(path_slots_.size());
    for (PortId p : flows_[slot_of(component[fi])].path) {
      std::uint32_t& slot = slot_of_port_[p];
      if (slot == kNoSlot) {
        slot = static_cast<std::uint32_t>(slot_port_.size());
        slot_port_.push_back(p);
      }
      path_slots_.push_back(slot);
    }
  }
  path_begin_[nflows] = static_cast<std::uint32_t>(path_slots_.size());
  const std::size_t nslots = slot_port_.size();

  // Slot -> flows table (a counting sort, so each slot's flows ascend);
  // unfixed_ doubles as the fill cursor and ends as the per-slot count.
  slot_begin_.assign(nslots + 1, 0);
  for (std::uint32_t s : path_slots_) ++slot_begin_[s + 1];
  for (std::size_t s = 0; s < nslots; ++s) slot_begin_[s + 1] += slot_begin_[s];
  slot_flows_.resize(path_slots_.size());
  unfixed_.assign(nslots, 0);
  for (std::uint32_t fi = 0; fi < nflows; ++fi)
    for (std::uint32_t k = path_begin_[fi]; k < path_begin_[fi + 1]; ++k) {
      const std::uint32_t s = path_slots_[k];
      slot_flows_[slot_begin_[s] + unfixed_[s]++] = fi;
    }

  residual_.resize(nslots);
  share_.resize(nslots);
  loaded_.clear();
  for (std::uint32_t s = 0; s < nslots; ++s) {
    const Rate cap = ports_[slot_port_[s]].cap;
    residual_[s] = cap;
    share_[s] = floored_share(cap, unfixed_[s], cap);
    loaded_.push_back(s);
  }
  fixed_.assign(nflows, 0);
  rates_.assign(nflows, 0.0);

  std::uint32_t remaining_flows = nflows;
  while (remaining_flows > 0) {
    // Find the smallest fair share among loaded slots, dropping drained
    // ones from the list.
    double best_share = kInf;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < loaded_.size(); ++i) {
      const std::uint32_t s = loaded_[i];
      if (unfixed_[s] == 0) continue;
      loaded_[kept++] = s;
      best_share = std::min(best_share, share_[s]);
    }
    loaded_.resize(kept);
    VDC_ASSERT(std::isfinite(best_share));
    VDC_ASSERT_MSG(best_share > 0.0, "water-filling share underflowed");
    const double band = best_share * (1.0 + kBandTolerance);

    // Test only the unfixed flows crossing a slot within the widened band.
    // Skipping the others is exact: a port with share r/u above the band
    // at the start of the level only gains share while flows freeze at
    // best_share b, because (r-b)/(u-1) > r/u when r/u > b, and k freezes
    // drift its computed share by about k * 2^-53 relative, far inside
    // kCandidateMargin. The candidates are tested in ascending order
    // against the same mid-level state, so every float op, and with it
    // every rate, equals the plain loop's (the oracle in
    // tests/flow_solver_equivalence_test.cpp).
    const double reach = band * (1.0 + kCandidateMargin);
    candidates_.clear();
    for (std::uint32_t s : loaded_) {
      if (share_[s] > reach) continue;
      for (std::uint32_t k = slot_begin_[s]; k < slot_begin_[s + 1]; ++k)
        if (!fixed_[slot_flows_[k]]) candidates_.push_back(slot_flows_[k]);
    }
    std::sort(candidates_.begin(), candidates_.end());
    candidates_.erase(std::unique(candidates_.begin(), candidates_.end()),
                      candidates_.end());

    // Freeze every candidate crossing a slot saturated at best_share
    // (within numerical tolerance).
    bool froze_any = false;
    for (std::uint32_t fi : candidates_) {
      const std::uint32_t* first = path_slots_.data() + path_begin_[fi];
      const std::uint32_t* last = path_slots_.data() + path_begin_[fi + 1];
      if (std::none_of(first, last,
                       [&](std::uint32_t s) { return share_[s] <= band; }))
        continue;
      rates_[fi] = best_share;
      fixed_[fi] = 1;
      froze_any = true;
      --remaining_flows;
      for (const std::uint32_t* s = first; s != last; ++s) {
        residual_[*s] -= best_share;
        if (residual_[*s] < 0.0) residual_[*s] = 0.0;
        --unfixed_[*s];
        share_[*s] = unfixed_[*s] == 0
                         ? kInf
                         : floored_share(residual_[*s], unfixed_[*s],
                                         ports_[slot_port_[*s]].cap);
      }
    }
    VDC_ASSERT_MSG(froze_any, "water-filling failed to make progress");
  }
  for (PortId p : slot_port_) slot_of_port_[p] = kNoSlot;
}

void FlowNetwork::full_solve() {
  std::sort(component_.begin(), component_.end());
  solve_component(component_);
  ++solver_fallbacks_;
  solver_flows_solved_ += component_.size();
  ++sweep_epoch_;  // no flow or port is mid-sweep
  for (std::size_t i = 0; i < component_.size(); ++i) {
    Flow& f = flows_[slot_of(component_[i])];
    f.rate = rates_[i];
    f.solved = true;
    f.bottleneck = kNoPort;  // reassigned below, once the shares are known
  }
  // Rebuild the kept state, and check that the solve met no near tie: each
  // port's level recomputes to the rate of every flow at it, stays within
  // the band while it freezes, and no other share lies within its band.
  // A port within a lower level's band is clean only if that level's
  // ports froze all its flows, which the bottlenecks found from the
  // other ports' shares show: it is walked again once they are known.
  bool clean = true;
  const auto walk = [&](PortId p) {
    Level level;
    if (!port_level(p, level)) return false;
    for (std::uint32_t k = level.below; k < level.flows; ++k)
      if (flows_[items_[k].slot].rate != level.share) return false;
    ports_[p].share = level.share;
    return level_holds(p, level);
  };
  retry_.clear();
  for (PortId p : slot_port_) {
    ports_[p].share = kInf;
    if (!walk(p)) retry_.push_back(p);
  }
  for (FlowId id : component_) {
    Flow& f = flows_[slot_of(id)];
    for (PortId p : f.path)
      if (ports_[p].share == f.rate) {
        f.bottleneck = p;
        break;
      }
    clean = clean && f.bottleneck != kNoPort;
  }
  for (PortId p : retry_) clean = walk(p) && clean;
  clean = clean && !near_tie(true);
  for (PortId p : slot_port_) ports_[p].tainted = !clean;
}

void FlowNetwork::refresh_due() {
  const SimTime now = sim_.now();
  for (FlowId id : component_) {
    Flow& f = flows_[slot_of(id)];
    VDC_ASSERT_MSG(f.rate > 0.0, "active flow with zero rate");
    const SimTime due = now + f.remaining / f.rate;
    // An unchanged `due` already has its live entry in the heap.
    if (due == f.due) continue;
    f.due = due;
    push_completion(Completion{due, f.id});
  }
}

void FlowNetwork::resolve_rates() {
  if (dirty_ports_.empty()) return;
  // Re-solve only the connected components the dirty ports belong to,
  // in ascending order of their lowest dirty port. A port left without
  // flows bottlenecks none.
  std::sort(dirty_ports_.begin(), dirty_ports_.end());
  dirty_ports_.erase(std::unique(dirty_ports_.begin(), dirty_ports_.end()),
                     dirty_ports_.end());
  ++visit_epoch_;
  for (PortId p : dirty_ports_) {
    ports_[p].dirty = visit_epoch_;
    if (!ports_[p].flows.empty()) continue;
    ports_[p].share = kInf;
    ports_[p].tainted = false;
  }
  for (PortId p : dirty_ports_) {
    // A port an earlier component's search reached belongs to that
    // component.
    if (ports_[p].visited == visit_epoch_ || ports_[p].flows.empty())
      continue;
    collect_component(p);
    ++solver_solves_;
    if (component_tainted_ || !local_solve()) full_solve();
    refresh_due();
  }
  dirty_ports_.clear();
}

// --- the local re-solve ------------------------------------------------------

bool FlowNetwork::near_tie(bool all) {
  probe_.clear();
  if (all) {
    for (PortId p : component_ports_)
      if (ports_[p].share != kInf) probe_.push_back(ports_[p].share);
  } else {
    probe_.assign(changed_.begin(), changed_.end());
  }
  if (probe_.empty()) return false;
  std::sort(probe_.begin(), probe_.end());
  probe_.erase(std::unique(probe_.begin(), probe_.end()), probe_.end());
  // The full solve's band test, with the lower share as best_share.
  const auto within = [](double lo, double hi) {
    return hi <= lo * (1.0 + kBandTolerance);
  };
  for (std::size_t i = 1; i < probe_.size(); ++i)
    if (within(probe_[i - 1], probe_[i])) return true;
  if (all) return false;
  for (PortId p : component_ports_) {
    const double share = ports_[p].share;
    if (share == kInf) continue;
    const auto it = std::lower_bound(probe_.begin(), probe_.end(), share);
    if (it != probe_.begin() && within(*(it - 1), share)) return true;
    const auto hi = it != probe_.end() && *it == share ? it + 1 : it;
    if (hi != probe_.end() && within(share, *hi)) return true;
  }
  return false;
}

bool FlowNetwork::port_level(PortId p, Level& level) {
  const Port& port = ports_[p];
  const auto n = static_cast<std::uint32_t>(port.flows.size());
  // (rate, id) is the full solve's (level, id) order wherever levels are
  // separate, which the near-tie checks below make sure of. Ports carry
  // few flows, so an insertion sort while gathering, unless this one is
  // a hub.
  const auto before = [](const Item& a, const Item& b) {
    return a.rate != b.rate ? a.rate < b.rate : a.id < b.id;
  };
  constexpr std::uint32_t kInsertionSortMax = 32;
  if (items_.size() < n) items_.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t s = port.flows[i];
    const Item item{walk_rate(flows_[s], p), flows_[s].id, s};
    std::uint32_t j = i;
    if (n <= kInsertionSortMax)
      for (; j > 0 && before(item, items_[j - 1]); --j)
        items_[j] = items_[j - 1];
    items_[j] = item;
  }
  if (n > kInsertionSortMax) std::sort(items_.begin(), items_.begin() + n, before);
  double residual = port.cap;
  double share = n == 0 ? kInf : floored_share(residual, n, port.cap);
  std::uint32_t k = 0;
  while (k < n) {
    // Is the port outside the band of the level that froze flow k?
    const double rate = items_[k].rate;
    const double band = rate * (1.0 + kBandTolerance);
    if (share <= band) {
      if (rate < share) {
        // The port falls within the band of flow k's lower level. If
        // every flow it has left froze at that level through another
        // port, the full solve freezes them there either way and the
        // port bottlenecks none; anything else is a near tie.
        for (std::uint32_t j = k; j < n; ++j) {
          const PortId q = flows_[items_[j].slot].bottleneck;
          if (items_[j].rate != rate || q == p || q == kNoPort ||
              ports_[q].share != rate)
            return false;
        }
        level = Level{kInf, residual, n, n};
        return true;
      }
      break;  // flow k is at the port's level
    }
    residual -= rate;
    if (residual < 0.0) residual = 0.0;
    ++k;
    if (k == n) {
      share = kInf;
      break;
    }
    share = floored_share(residual, n - k, port.cap);
    if (share <= band) return false;  // rounded into the band mid-level
  }
  level = Level{share, residual, k, n};
  return true;
}

bool FlowNetwork::level_holds(PortId p, const Level& level) const {
  // The port stays within the band while each flow at its level freezes
  // at its share, as the full solve tests it. Freezing j of u flows
  // drifts the share by at most about 2u ulps, far inside the band unless
  // u runs into the thousands, so small levels need no walk.
  const std::uint32_t at_level = level.flows - level.below;
  if (at_level <= kDriftFree) return true;
  const double band = level.share * (1.0 + kBandTolerance);
  double residual = level.residual;
  for (std::uint32_t left = at_level; left > 1; --left) {
    residual = std::max(residual - level.share, 0.0);
    if (floored_share(residual, left - 1, ports_[p].cap) > band) return false;
  }
  return true;
}

void FlowNetwork::enter(PortId p) {
  Port& port = ports_[p];
  if (port.tainted) sweep_ok_ = false;
  if (port.sweep == sweep_epoch_) return;
  port.sweep = sweep_epoch_;
  port.old_share = port.share;
  port.fresh = port.share;
  port.key = kInf;
  port.stale = false;
  port.saturated = false;
  touched_.push_back(p);
}

void FlowNetwork::queue(PortId p, double key) {
  Port& port = ports_[p];
  if (key == port.key) return;
  if (key < sweep_at_) {  // behind the sweep: not the clean case
    sweep_ok_ = false;
    return;
  }
  port.key = key;
  if (key == kInf) return;
  events_.emplace_back(key, p);
  std::push_heap(events_.begin(), events_.end(), std::greater<>{});
}

void FlowNetwork::touch(PortId p) {
  enter(p);
  if (!sweep_ok_) return;
  Port& port = ports_[p];
  Level level;
  // A port that froze its level keeps its share for the rest of the sweep.
  if (!port_level(p, level) ||
      (port.saturated && level.share != port.share)) {
    sweep_ok_ = false;
    return;
  }
  port.fresh = level.share;
  port.stale = false;
  // The port's next event: its old level passing, or saturating.
  queue(p, std::min(port.old_share, level.share));
}

void FlowNetwork::lowered(PortId p) {
  const bool entering = ports_[p].sweep != sweep_epoch_;
  enter(p);
  if (!sweep_ok_) return;
  ports_[p].stale = true;
  // Its old share is the earliest its next event can be.
  if (entering) queue(p, ports_[p].old_share);
}

void FlowNetwork::freeze(std::uint32_t slot, Rate rate, PortId p) {
  Flow& f = flows_[slot];
  if (f.sweep == sweep_epoch_ && f.frozen) {
    // Frozen at this level through another port already.
    if (f.rate != rate) sweep_ok_ = false;
    return;
  }
  const bool released = f.sweep == sweep_epoch_ || !f.solved;
  if (!released && f.rate == rate) return;  // already at this level
  f.sweep = sweep_epoch_;
  f.frozen = true;
  f.rate = rate;
  f.bottleneck = p;
  f.solved = true;
  ++solver_flows_solved_;
  for (PortId q : f.path)
    if (q != p) lowered(q);
}

void FlowNetwork::saturate(PortId p) {
  Port& port = ports_[p];
  const double share = port.fresh;
  // The walk that gave `fresh` put every flow below the port's level under
  // it and the rest at or above it, and no rate has moved since.
  at_level_.clear();
  for (std::uint32_t s : port.flows)
    if (walk_rate(flows_[s], p) >= share) at_level_.push_back(s);
  Level level;
  if (at_level_.size() > kDriftFree &&
      (!port_level(p, level) || !level_holds(p, level))) {
    sweep_ok_ = false;
    return;
  }
  port.saturated = true;
  port.old_share = kInf;
  if (port.share != share) changed_.push_back(share);
  port.share = share;
  for (std::uint32_t s : at_level_) {
    freeze(s, share, p);
    if (!sweep_ok_) return;
  }
}

void FlowNetwork::pass(PortId p) {
  // The old level passes without the port saturating: release the flows
  // it bottlenecked, which now wait at every port on their path.
  ports_[p].old_share = kInf;
  for (std::uint32_t s : ports_[p].flows) {
    Flow& f = flows_[s];
    if (f.sweep == sweep_epoch_ || !f.solved || f.bottleneck != p) continue;
    f.sweep = sweep_epoch_;
    f.frozen = false;
    for (PortId q : f.path)
      if (q != p) touch(q);
  }
  // The port's own walk already had those flows at its level.
  queue(p, ports_[p].fresh);
}

bool FlowNetwork::local_solve() {
  ++sweep_epoch_;
  sweep_ok_ = true;
  sweep_at_ = -kInf;
  events_.clear();
  touched_.clear();
  changed_.clear();
  for (PortId p : seeds_) touch(p);
  while (sweep_ok_ && !events_.empty()) {
    std::pop_heap(events_.begin(), events_.end(), std::greater<>{});
    const auto [key, p] = events_.back();
    events_.pop_back();
    Port& port = ports_[p];
    if (port.key != key) continue;  // superseded
    if (port.stale) {
      Level level;
      if (!port_level(p, level) ||
          (port.saturated && level.share != port.share))
        return false;
      port.fresh = level.share;
      port.stale = false;
    }
    const double next = std::min(port.old_share, port.fresh);
    if (next != key) {  // a lower bound: the event is later
      if (next < key) return false;
      queue(p, next);
      continue;
    }
    port.key = kInf;
    sweep_at_ = key;
    if (key == port.fresh) {
      saturate(p);
    } else {
      pass(p);
    }
  }
  if (!sweep_ok_) return false;
  // Every port reached ends at the share it froze at, or bottlenecks
  // none; every flow has a rate and a bottleneck at that rate.
  for (PortId p : touched_) {
    Port& port = ports_[p];
    if (port.stale) {
      Level level;
      if (!port_level(p, level)) return false;
      port.fresh = level.share;
    }
    if (port.fresh == kInf) {
      port.share = kInf;
    } else if (!port.saturated || port.share != port.fresh) {
      return false;
    }
  }
  for (FlowId id : component_) {
    const Flow& f = flows_[slot_of(id)];
    if (effective_rate(f) == kInf || f.bottleneck == kNoPort ||
        ports_[f.bottleneck].share != f.rate)
      return false;
  }
  // No two levels of the component within one band: the changed ones
  // against the rest, or all of them after a merge.
  return !near_tie(merged_);
}

void FlowNetwork::push_completion(Completion c) {
  completions_.push_back(c);
  std::push_heap(completions_.begin(), completions_.end(), std::greater<>{});
}

void FlowNetwork::pop_completion() {
  std::pop_heap(completions_.begin(), completions_.end(), std::greater<>{});
  completions_.pop_back();
}

void FlowNetwork::maybe_compact_completions() {
  // Same rule as Simulator::maybe_compact. Every live flow has an entry at
  // its `due` time, and (at, id) orders the live entries totally, so the
  // rebuilt heap has the same top and every timer stays where it was.
  if (completions_.size() < kCompactMinEntries) return;
  if (completions_.size() <= 2 * active_.size()) return;
  completions_.clear();
  for (std::uint32_t s : active_)
    completions_.push_back({flows_[s].due, flows_[s].id});
  std::make_heap(completions_.begin(), completions_.end(), std::greater<>{});
}

void FlowNetwork::schedule_next_completion() {
  maybe_compact_completions();
  // Drop stale completion entries (finished/cancelled flows, superseded
  // rates) off the top.
  while (!completions_.empty()) {
    const Completion& top = completions_.front();
    if (!live(top.id) || flows_[slot_of(top.id)].due != top.at) {
      pop_completion();
      continue;
    }
    break;
  }
  if (completions_.empty()) {
    VDC_ASSERT_MSG(active_.empty(), "active flow without a completion entry");
    sim_.cancel(timer_);
    timer_ = simkit::kInvalidEvent;
    return;
  }
  // The time an arm at this instant would get; a timer already there
  // stays, so an instant that moves no completion cancels nothing.
  const SimTime now = sim_.now();
  const SimTime at = now + std::max(0.0, completions_.front().at - now);
  if (sim_.pending(timer_) && timer_at_ == at) return;
  sim_.cancel(timer_);
  timer_ = sim_.at(at, [this] { on_timer(); });
  timer_at_ = at;
}

void FlowNetwork::on_timer() {
  timer_ = simkit::kInvalidEvent;
  settle_progress();
  const SimTime now = sim_.now();

  // Collect finished flows in deterministic (FlowId) order. The second
  // clause retires flows whose residual is so small that no representable
  // time step can move it (sub-ulp leftovers from the predicted-finish
  // arithmetic). A flow started earlier in this instant has no rate yet;
  // remaining / 0 is infinite, so it is not done.
  std::vector<FlowId> done;
  for (std::uint32_t s : active_) {
    const Flow& f = flows_[s];
    if (f.remaining < kDoneEpsilon || now + f.remaining / f.rate <= now)
      done.push_back(f.id);
  }
  std::sort(done.begin(), done.end());

  std::vector<Callback> callbacks;
  callbacks.reserve(done.size());
  for (FlowId id : done) {
    const std::uint32_t slot = slot_of(id);
    Flow& f = flows_[slot];
    mark_dirty(f.path);
    unlink(slot);
    if (f.on_complete) callbacks.push_back(std::move(f.on_complete));
    free_slot(slot);
  }
  // Even with nothing done (an early timer) the timer must be re-armed.
  end_instant_later();
  if (!done.empty()) notify_count();

  // Run completions after the flow table is consistent, so callbacks may
  // immediately start new flows; the instant's one re-solve follows them.
  for (auto& cb : callbacks) cb();
}

}  // namespace vdc::net
