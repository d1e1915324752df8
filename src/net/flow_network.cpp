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

constexpr double kInf = std::numeric_limits<double>::infinity();

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
  const FlowId id = next_flow_id_++;
  Flow flow{id, std::move(path), static_cast<double>(bytes), 0.0,
            std::move(on_complete)};

  if (latency > 0.0) {
    auto ev = sim_.after(latency, [this, flow = std::move(flow)]() mutable {
      pending_latency_.erase(flow.id);
      activate(std::move(flow));
    });
    pending_latency_.emplace(id, ev);
    notify_count();
  } else {
    activate(std::move(flow));
  }
  return id;
}

void FlowNetwork::activate(Flow flow) {
  if (flow.remaining < kDoneEpsilon) {
    // Zero-length transfer: complete as its own event to keep callback
    // ordering uniform with real transfers.
    if (flow.on_complete)
      sim_.after(0.0, std::move(flow.on_complete));
    notify_count();
    return;
  }
  settle_progress();
  mark_dirty(flow.path);
  const FlowId id = flow.id;
  link(flows_.emplace(id, std::move(flow)).first->second);
  notify_count();
}

bool FlowNetwork::cancel_flow(FlowId id) {
  if (auto it = pending_latency_.find(id); it != pending_latency_.end()) {
    sim_.cancel(it->second);
    pending_latency_.erase(it);
    notify_count();
    return true;
  }
  auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  settle_progress();
  mark_dirty(it->second.path);
  unlink(it->second);
  flows_.erase(it);
  notify_count();
  return true;
}

void FlowNetwork::notify_count() {
  if (count_hook_) count_hook_();
}

Rate FlowNetwork::flow_rate(FlowId id) const {
  auto it = flows_.find(id);
  return it == flows_.end() ? 0.0 : it->second.rate;
}

void FlowNetwork::settle_progress() {
  const SimTime now = sim_.now();
  const double dt = now - last_settle_;
  last_settle_ = now;
  if (dt <= 0.0 || flows_.empty()) return;
  for (auto& [id, flow] : flows_)
    flow.remaining -= std::min(flow.remaining, flow.rate * dt);
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
    auto it = flows_.find(c.id);
    if (it == flows_.end() || it->second.due != c.at) continue;
    Flow& f = it->second;
    double at = now + f.remaining / f.rate;
    if (at <= now) at = std::nextafter(now, kInf);
    f.due = at;
    push_completion(Completion{at, c.id});
  }
  schedule_next_completion();
}

void FlowNetwork::link(Flow& flow) {
  for (PortId p : flow.path) ports_[p].flows.push_back(&flow);
}

void FlowNetwork::unlink(Flow& flow) {
  for (PortId p : flow.path) {
    std::vector<Flow*>& on_port = ports_[p].flows;
    auto it = std::find(on_port.begin(), on_port.end(), &flow);
    VDC_ASSERT(it != on_port.end());
    *it = on_port.back();
    on_port.pop_back();
  }
}

void FlowNetwork::collect_component(PortId seed) {
  component_.clear();
  stack_.clear();
  const auto visit_port = [this](PortId p) {
    Port& port = ports_[p];
    if (port.visited == visit_epoch_) return;
    port.visited = visit_epoch_;
    for (Flow* f : port.flows) {
      if (f->visited == visit_epoch_) continue;
      f->visited = visit_epoch_;
      stack_.push_back(f);
    }
  };
  visit_port(seed);
  while (!stack_.empty()) {
    Flow* f = stack_.back();
    stack_.pop_back();
    component_.push_back(f);
    for (PortId p : f->path) visit_port(p);
  }
  std::sort(component_.begin(), component_.end(),
            [](const Flow* a, const Flow* b) { return a->id < b->id; });
}

void FlowNetwork::solve_component(const std::vector<Flow*>& component) {
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
    for (PortId p : component[fi]->path) {
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

void FlowNetwork::apply_rates(const std::vector<Flow*>& component) {
  ++solver_solves_;
  solver_flows_solved_ += component.size();
  const SimTime now = sim_.now();
  for (std::size_t i = 0; i < component.size(); ++i) {
    Flow& f = *component[i];
    f.rate = rates_[i];
    VDC_ASSERT_MSG(f.rate > 0.0, "active flow with zero rate");
    f.due = now + f.remaining / f.rate;
    push_completion(Completion{f.due, f.id});
  }
}

void FlowNetwork::resolve_rates() {
  if (dirty_ports_.empty()) return;
  // Re-solve only the connected components the dirty ports belong to,
  // in ascending order of their lowest dirty port.
  std::sort(dirty_ports_.begin(), dirty_ports_.end());
  dirty_ports_.erase(std::unique(dirty_ports_.begin(), dirty_ports_.end()),
                     dirty_ports_.end());
  ++visit_epoch_;
  for (PortId p : dirty_ports_) {
    // A port an earlier component's search reached belongs to that
    // component; a flowless port has none.
    if (ports_[p].visited == visit_epoch_ || ports_[p].flows.empty())
      continue;
    collect_component(p);
    solve_component(component_);
    apply_rates(component_);
  }
  dirty_ports_.clear();
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
  // Same rule as Simulator::maybe_compact. Every live flow has exactly one
  // entry at its `due` time, and (at, id) orders entries totally, so the
  // rebuilt heap has the same top and every timer stays where it was.
  if (completions_.size() < kCompactMinEntries) return;
  if (completions_.size() <= 2 * flows_.size()) return;
  completions_.clear();
  for (const auto& [id, f] : flows_) completions_.push_back({f.due, id});
  std::make_heap(completions_.begin(), completions_.end(), std::greater<>{});
}

void FlowNetwork::schedule_next_completion() {
  maybe_compact_completions();
  // Drop stale completion entries (finished/cancelled flows, superseded
  // rates) off the top.
  while (!completions_.empty()) {
    const Completion& top = completions_.front();
    auto it = flows_.find(top.id);
    if (it == flows_.end() || it->second.due != top.at) {
      pop_completion();
      continue;
    }
    break;
  }
  if (completions_.empty()) {
    VDC_ASSERT_MSG(flows_.empty(), "active flow without a completion entry");
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
  for (auto& [id, f] : flows_)
    if (f.remaining < kDoneEpsilon || now + f.remaining / f.rate <= now)
      done.push_back(id);
  std::sort(done.begin(), done.end());

  std::vector<Callback> callbacks;
  callbacks.reserve(done.size());
  for (FlowId id : done) {
    auto it = flows_.find(id);
    mark_dirty(it->second.path);
    unlink(it->second);
    if (it->second.on_complete)
      callbacks.push_back(std::move(it->second.on_complete));
    flows_.erase(it);
  }
  // Even with nothing done (an early timer) the timer must be re-armed.
  end_instant_later();
  if (!done.empty()) notify_count();

  // Run completions after the flow table is consistent, so callbacks may
  // immediately start new flows; the instant's one re-solve follows them.
  for (auto& cb : callbacks) cb();
}

}  // namespace vdc::net
