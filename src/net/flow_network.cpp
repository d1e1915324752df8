#include "net/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <map>
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

double floored_share(double residual, std::uint32_t unfixed, double cap) {
  const double share = residual / unfixed;
  const double floor = std::max(cap * kShareFloorFraction,
                                kAbsoluteRateFloor);
  return std::max(share, floor);
}
}  // namespace

FlowNetwork::FlowNetwork(simkit::Simulator& sim) : sim_(sim) {}

PortId FlowNetwork::add_port(Rate capacity, std::string name) {
  VDC_REQUIRE(capacity > 0.0, "port capacity must be positive");
  Port port;
  port.cap = capacity;
  port.name = std::move(name);
  ports_.push_back(std::move(port));
  return static_cast<PortId>(ports_.size() - 1);
}

void FlowNetwork::set_capacity(PortId port, Rate capacity) {
  VDC_REQUIRE(capacity > 0.0, "port capacity must be positive");
  VDC_ASSERT(port < ports_.size());
  settle_progress();
  ports_[port].cap = capacity;
  dirty_ports_.insert(port);
  resolve_rates();
  schedule_next_completion();
}

Rate FlowNetwork::capacity(PortId port) const {
  VDC_ASSERT(port < ports_.size());
  return ports_[port].cap;
}

const std::string& FlowNetwork::port_name(PortId port) const {
  VDC_ASSERT(port < ports_.size());
  return ports_[port].name;
}

double FlowNetwork::port_bytes(PortId port) const {
  VDC_ASSERT(port < ports_.size());
  return ports_[port].bytes_through.value();
}

FlowId FlowNetwork::start_flow(std::vector<PortId> path, Bytes bytes,
                               Callback on_complete, SimTime latency) {
  for (PortId p : path) VDC_ASSERT(p < ports_.size());
  VDC_ASSERT(latency >= 0.0);
  const FlowId id = next_flow_id_++;
  Flow flow{std::move(path), static_cast<double>(bytes),
            0.0, std::move(on_complete), 0};

  if (latency > 0.0) {
    auto ev = sim_.after(latency, [this, id, flow = std::move(flow)]() mutable {
      pending_latency_.erase(id);
      activate(id, std::move(flow));
    });
    pending_latency_.emplace(id, ev);
    notify_count();
  } else {
    activate(id, std::move(flow));
  }
  return id;
}

void FlowNetwork::activate(FlowId id, Flow flow) {
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
  for (PortId p : flow.path) ports_[p].flows.insert(id);
  flows_.emplace(id, std::move(flow));
  resolve_rates();
  schedule_next_completion();
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
  for (PortId p : it->second.path) ports_[p].flows.erase(id);
  flows_.erase(it);
  resolve_rates();
  schedule_next_completion();
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
  for (auto& [id, flow] : flows_) {
    const double moved = std::min(flow.remaining, flow.rate * dt);
    flow.remaining -= moved;
    for (PortId p : flow.path) ports_[p].bytes_through.add(moved);
  }
}

void FlowNetwork::mark_dirty(const std::vector<PortId>& path) {
  for (PortId p : path) dirty_ports_.insert(p);
}

std::vector<FlowId> FlowNetwork::collect_component(
    FlowId seed, std::unordered_set<FlowId>& seen,
    std::unordered_set<PortId>& ports_seen) const {
  std::vector<FlowId> component;
  std::vector<FlowId> stack{seed};
  seen.insert(seed);
  while (!stack.empty()) {
    const FlowId id = stack.back();
    stack.pop_back();
    component.push_back(id);
    for (PortId p : flows_.at(id).path) {
      if (!ports_seen.insert(p).second) continue;
      for (FlowId other : ports_[p].flows)
        if (seen.insert(other).second) stack.push_back(other);
    }
  }
  std::sort(component.begin(), component.end());
  return component;
}

std::vector<Rate> FlowNetwork::solve_component(
    const std::vector<FlowId>& ids) const {
  // Water-filling max-min fair allocation over one connected component.
  // Pure: reads flow paths and port capacities only. Flow ids ascending
  // and component ports ascending make every float op order-determined,
  // which is what lets the incremental path match a full solve bitwise.
  std::vector<PortId> cports;
  for (FlowId id : ids)
    for (PortId p : flows_.at(id).path) cports.push_back(p);
  std::sort(cports.begin(), cports.end());
  cports.erase(std::unique(cports.begin(), cports.end()), cports.end());
  const auto local = [&](PortId p) {
    return static_cast<std::size_t>(
        std::lower_bound(cports.begin(), cports.end(), p) - cports.begin());
  };

  std::vector<double> residual(cports.size());
  std::vector<std::uint32_t> unfixed(cports.size(), 0);
  for (std::size_t i = 0; i < cports.size(); ++i)
    residual[i] = ports_[cports[i]].cap;
  for (FlowId id : ids)
    for (PortId p : flows_.at(id).path) ++unfixed[local(p)];

  std::vector<char> fixed(ids.size(), 0);
  std::vector<Rate> rates(ids.size(), 0.0);
  std::size_t remaining_flows = ids.size();
  while (remaining_flows > 0) {
    // Find the port giving the smallest fair share among loaded ports.
    double best_share = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cports.size(); ++i) {
      if (unfixed[i] == 0) continue;
      const double share =
          floored_share(residual[i], unfixed[i], ports_[cports[i]].cap);
      best_share = std::min(best_share, share);
    }
    VDC_ASSERT(std::isfinite(best_share));
    VDC_ASSERT_MSG(best_share > 0.0, "water-filling share underflowed");

    // Freeze every unfixed flow crossing a port that is saturated at
    // best_share (within numerical tolerance).
    bool froze_any = false;
    for (std::size_t fi = 0; fi < ids.size(); ++fi) {
      if (fixed[fi]) continue;
      const Flow& f = flows_.at(ids[fi]);
      bool bottlenecked = false;
      for (PortId p : f.path) {
        const std::size_t i = local(p);
        const double share =
            floored_share(residual[i], unfixed[i], ports_[cports[i]].cap);
        if (share <= best_share * (1.0 + 1e-12)) {
          bottlenecked = true;
          break;
        }
      }
      if (!bottlenecked) continue;
      rates[fi] = best_share;
      fixed[fi] = 1;
      froze_any = true;
      --remaining_flows;
      for (PortId p : f.path) {
        const std::size_t i = local(p);
        residual[i] -= best_share;
        if (residual[i] < 0.0) residual[i] = 0.0;
        --unfixed[i];
      }
    }
    VDC_ASSERT_MSG(froze_any, "water-filling failed to make progress");
  }
  return rates;
}

void FlowNetwork::apply_rates(const std::vector<FlowId>& ids,
                              const std::vector<Rate>& rates) {
  ++solver_solves_;
  solver_flows_solved_ += ids.size();
  const SimTime now = sim_.now();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Flow& f = flows_.at(ids[i]);
    f.rate = rates[i];
    VDC_ASSERT_MSG(f.rate > 0.0, "active flow with zero rate");
    ++f.stamp;
    completions_.push(Completion{now + f.remaining / f.rate, ids[i], f.stamp});
  }
}

void FlowNetwork::resolve_rates() {
  if (dirty_ports_.empty()) return;
  // Re-solve only the connected components the dirty ports belong to.
  std::vector<PortId> dirty(dirty_ports_.begin(), dirty_ports_.end());
  std::sort(dirty.begin(), dirty.end());
  dirty_ports_.clear();
  std::unordered_set<FlowId> seen;
  std::unordered_set<PortId> ports_seen;
  for (PortId p : dirty) {
    // collect_component owns ports_seen: a port already absorbed into an
    // earlier component (or flowless) is skipped, but an untouched dirty
    // port must stay unmarked so the BFS enumerates its flows.
    if (ports_seen.count(p) != 0) continue;
    std::vector<FlowId> on_port(ports_[p].flows.begin(),
                                ports_[p].flows.end());
    std::sort(on_port.begin(), on_port.end());
    for (FlowId f : on_port) {
      if (seen.count(f)) continue;
      const auto component = collect_component(f, seen, ports_seen);
      apply_rates(component, solve_component(component));
    }
  }
}

std::vector<std::pair<FlowId, Rate>> FlowNetwork::oracle_rates() const {
  // Build the adjacency from the flow table alone (deliberately NOT from
  // Port::flows, so broken incremental bookkeeping can't fool the check).
  std::map<PortId, std::vector<FlowId>> on_port;
  std::vector<FlowId> ids;
  ids.reserve(flows_.size());
  for (auto& [id, f] : flows_) {
    ids.push_back(id);
    for (PortId p : f.path) on_port[p].push_back(id);
  }
  std::sort(ids.begin(), ids.end());

  std::unordered_set<FlowId> seen;
  std::unordered_set<PortId> ports_seen;
  std::vector<std::pair<FlowId, Rate>> out;
  out.reserve(ids.size());
  for (FlowId seed : ids) {
    if (seen.count(seed)) continue;
    // Component BFS over the side adjacency.
    std::vector<FlowId> component;
    std::vector<FlowId> stack{seed};
    seen.insert(seed);
    while (!stack.empty()) {
      const FlowId id = stack.back();
      stack.pop_back();
      component.push_back(id);
      for (PortId p : flows_.at(id).path) {
        if (!ports_seen.insert(p).second) continue;
        for (FlowId other : on_port[p])
          if (seen.insert(other).second) stack.push_back(other);
      }
    }
    std::sort(component.begin(), component.end());
    const auto rates = solve_component(component);
    for (std::size_t i = 0; i < component.size(); ++i)
      out.emplace_back(component[i], rates[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FlowNetwork::schedule_next_completion() {
  if (timer_ != simkit::kInvalidEvent) {
    sim_.cancel(timer_);
    timer_ = simkit::kInvalidEvent;
  }
  // Drop stale completion entries (finished/cancelled flows, superseded
  // rates) off the top.
  while (!completions_.empty()) {
    const Completion& top = completions_.top();
    auto it = flows_.find(top.id);
    if (it == flows_.end() || it->second.stamp != top.stamp) {
      completions_.pop();
      continue;
    }
    break;
  }
  if (completions_.empty()) {
    VDC_ASSERT_MSG(flows_.empty(), "active flow without a completion entry");
    return;
  }
  const SimTime dt = std::max(0.0, completions_.top().at - sim_.now());
  timer_ = sim_.after(dt, [this] { on_timer(); });
}

void FlowNetwork::on_timer() {
  timer_ = simkit::kInvalidEvent;
  settle_progress();
  const SimTime now = sim_.now();

  // Collect finished flows in deterministic (FlowId) order. The second
  // clause retires flows whose residual is so small that no representable
  // time step can move it (sub-ulp leftovers from the predicted-finish
  // arithmetic).
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
    for (PortId p : it->second.path) ports_[p].flows.erase(id);
    if (it->second.on_complete)
      callbacks.push_back(std::move(it->second.on_complete));
    flows_.erase(it);
  }

  resolve_rates();

  // Re-arm surviving flows whose predicted finish has come due (an early
  // prediction by a float ulp): refresh their entry at the new now.
  while (!completions_.empty() && completions_.top().at <= now) {
    const Completion c = completions_.top();
    completions_.pop();
    auto it = flows_.find(c.id);
    if (it == flows_.end() || it->second.stamp != c.stamp) continue;
    Flow& f = it->second;
    ++f.stamp;
    double at = now + f.remaining / f.rate;
    if (at <= now)
      at = std::nextafter(now, std::numeric_limits<double>::infinity());
    completions_.push(Completion{at, c.id, f.stamp});
  }

  schedule_next_completion();
  if (!done.empty()) notify_count();

  // Run completions after the network state is consistent, so callbacks
  // may immediately start new flows.
  for (auto& cb : callbacks) cb();
}

}  // namespace vdc::net
