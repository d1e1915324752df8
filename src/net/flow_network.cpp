#include "net/flow_network.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace vdc::net {

namespace {
// The completion heap is never compacted below this many entries.
constexpr std::size_t kCompactMinEntries = 1024;

// Capacities are whole bytes per second. Below 1 B/s a port could not give
// each flow the 1 B/s floor; above 2^53 B/s a capacity is no longer a
// whole number in a double, and the sums of rates at a port stay far from
// overflowing.
std::int64_t whole_rate(Rate capacity) {
  VDC_REQUIRE(capacity >= 1.0 && capacity <= 0x1p53,
              "port capacity must be between 1 and 2^53 bytes/s");
  return std::llround(capacity);
}
}  // namespace

FlowNetwork::FlowNetwork(simkit::Simulator& sim) : sim_(sim) {}

PortId FlowNetwork::add_port(Rate capacity) {
  Port port;
  port.cap = whole_rate(capacity);
  ports_.push_back(std::move(port));
  return static_cast<PortId>(ports_.size() - 1);
}

void FlowNetwork::set_capacity(PortId port, Rate capacity) {
  VDC_ASSERT(port < ports_.size());
  ports_[port].cap = whole_rate(capacity);
  dirty_ports_.push_back(port);
  end_instant_later();
}

Rate FlowNetwork::capacity(PortId port) const {
  VDC_ASSERT(port < ports_.size());
  return static_cast<Rate>(ports_[port].cap);
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
  if (flow.remaining == 0.0) {
    // Zero-length transfer: complete as its own event to keep callback
    // ordering uniform with real transfers.
    if (flow.on_complete)
      sim_.after(0.0, std::move(flow.on_complete));
    free_slot(slot);
    notify_count();
    return;
  }
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
  return live(id) ? static_cast<Rate>(flows_[slot_of(id)].rate) : 0.0;
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
  schedule_next_completion();
}

void FlowNetwork::link(std::uint32_t slot) {
  Flow& flow = flows_[slot];
  flow.active_at = static_cast<std::uint32_t>(active_.size());
  active_.push_back(slot);
  for (PortId p : flow.path) ports_[p].flows.push_back(slot);
  ++unfrozen_;  // until its first solve
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
  if (flow.rate == 0) --unfrozen_;
  flows_[active_.back()].active_at = flow.active_at;
  active_[flow.active_at] = active_.back();
  active_.pop_back();
}

void FlowNetwork::resolve_rates() {
  if (dirty_ports_.empty()) return;
  std::sort(dirty_ports_.begin(), dirty_ports_.end());
  dirty_ports_.erase(std::unique(dirty_ports_.begin(), dirty_ports_.end()),
                     dirty_ports_.end());
  ++sweep_epoch_;
  sweep_at_ = 0;
  events_.clear();
  touched_.clear();
  // The dirty ports seed the sweep; a port left without flows bottlenecks
  // none.
  for (PortId p : dirty_ports_) {
    if (ports_[p].flows.empty()) {
      ports_[p].share = kNone;
    } else {
      touch(p);
    }
  }
  dirty_ports_.clear();
  if (touched_.empty()) return;
  ++solver_solves_;
  while (!events_.empty()) {
    std::pop_heap(events_.begin(), events_.end(), std::greater<>{});
    const auto [key, p] = events_.back();
    events_.pop_back();
    Port& port = ports_[p];
    if (port.key != key) continue;  // superseded
    if (port.stale) {
      port.fresh = port_level(p);
      port.stale = false;
      VDC_ASSERT(!port.saturated || port.fresh == port.share);
    }
    const Bps next = std::min(port.old_share, port.fresh);
    if (next != key) {  // a lower bound: the event is later
      queue(p, next);
      continue;
    }
    port.key = kNone;
    sweep_at_ = key;
    if (key == port.fresh) {
      saturate(p);
    } else {
      pass(p);
    }
  }
  // Every port reached ends at the share it froze at, or bottlenecks none;
  // every flow has a rate.
  for (PortId p : touched_) {
    Port& port = ports_[p];
    if (port.stale) port.fresh = port_level(p);
    if (port.fresh == kNone) {
      port.share = kNone;
    } else {
      VDC_ASSERT_MSG(port.saturated && port.share == port.fresh,
                     "a port with flows at its level did not saturate");
    }
  }
  VDC_ASSERT_MSG(unfrozen_ == 0, "a sweep left a flow without a rate");
}

// --- the sweep ---------------------------------------------------------------

FlowNetwork::Bps FlowNetwork::port_level(PortId p) {
  const Port& port = ports_[p];
  const std::size_t n = port.flows.size();
  rates_.clear();
  for (std::uint32_t s : port.flows) rates_.push_back(walk_rate(flows_[s], p));
  std::sort(rates_.begin(), rates_.end());
  // Each flow below the running share froze at a lower level; the first
  // one that is not is at the port's level, and so are all after it.
  Bps residual = port.cap;
  for (std::size_t k = 0; k < n; ++k) {
    const Bps share =
        std::max<Bps>(1, residual / static_cast<Bps>(n - k));
    if (rates_[k] >= share) return share;
    residual -= rates_[k];
  }
  return kNone;
}

void FlowNetwork::enter(PortId p) {
  Port& port = ports_[p];
  if (port.sweep == sweep_epoch_) return;
  port.sweep = sweep_epoch_;
  port.old_share = port.share;
  port.fresh = port.share;
  port.key = kNone;
  port.stale = false;
  port.saturated = false;
  touched_.push_back(p);
}

void FlowNetwork::queue(PortId p, Bps key) {
  Port& port = ports_[p];
  if (key == port.key) return;
  VDC_ASSERT_MSG(key >= sweep_at_, "a port event behind the sweep");
  port.key = key;
  if (key == kNone) return;
  events_.emplace_back(key, p);
  std::push_heap(events_.begin(), events_.end(), std::greater<>{});
}

void FlowNetwork::touch(PortId p) {
  enter(p);
  Port& port = ports_[p];
  port.fresh = port_level(p);
  port.stale = false;
  // A port that froze its level keeps its share for the rest of the sweep.
  VDC_ASSERT(!port.saturated || port.fresh == port.share);
  // The port's next event: its old level passing, or saturating.
  queue(p, std::min(port.old_share, port.fresh));
}

void FlowNetwork::lowered(PortId p) {
  const bool entering = ports_[p].sweep != sweep_epoch_;
  enter(p);
  ports_[p].stale = true;
  // Its old share is the earliest its next event can be.
  if (entering) queue(p, ports_[p].old_share);
}

void FlowNetwork::freeze(std::uint32_t slot, Bps rate, PortId p) {
  Flow& f = flows_[slot];
  if (f.sweep == sweep_epoch_ && f.frozen) {
    // Frozen at this level through another port already.
    VDC_ASSERT(f.rate == rate);
    return;
  }
  const bool released = f.sweep == sweep_epoch_ || f.rate == 0;
  if (!released && f.rate == rate) return;  // already at this level
  if (released) --unfrozen_;
  f.sweep = sweep_epoch_;
  f.frozen = true;
  f.bottleneck = p;
  ++solver_flows_solved_;
  if (f.rate != rate) set_rate(f, rate);
  for (PortId q : f.path)
    if (q != p) lowered(q);
}

void FlowNetwork::set_rate(Flow& f, Bps rate) {
  const SimTime now = sim_.now();
  f.remaining -= std::min(f.remaining,
                          static_cast<double>(f.rate) * (now - f.since));
  f.since = now;
  f.rate = rate;
  const SimTime due = now + f.remaining / static_cast<double>(rate);
  // An unchanged `due` already has its live entry in the heap.
  if (due == f.due) return;
  f.due = due;
  push_completion(Completion{due, f.id});
}

void FlowNetwork::saturate(PortId p) {
  Port& port = ports_[p];
  const Bps share = port.fresh;
  port.saturated = true;
  port.old_share = kNone;
  port.share = share;
  // The walk that gave `fresh` put every flow below the port's level under
  // it and the rest at or above it, and no rate on the port has moved
  // since; freezing one of them moves none of the others.
  for (std::uint32_t s : port.flows)
    if (walk_rate(flows_[s], p) >= share) freeze(s, share, p);
}

void FlowNetwork::pass(PortId p) {
  // The old level passes without the port saturating: release the flows
  // it bottlenecked, which now wait at every port on their path.
  ports_[p].old_share = kNone;
  for (std::uint32_t s : ports_[p].flows) {
    Flow& f = flows_[s];
    if (f.sweep == sweep_epoch_ || f.bottleneck != p) continue;
    f.sweep = sweep_epoch_;
    f.frozen = false;
    ++unfrozen_;
    for (PortId q : f.path)
      if (q != p) touch(q);
  }
  // The port's own walk already had those flows at its level.
  queue(p, ports_[p].fresh);
}

// --- completions -------------------------------------------------------------

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
  // A timer already armed for that time stays, so an instant that moves no
  // completion cancels nothing. A finish that rounds to now fires at now.
  const SimTime at = std::max(sim_.now(), completions_.front().at);
  if (sim_.pending(timer_) && timer_at_ == at) return;
  sim_.cancel(timer_);
  timer_ = sim_.at(at, [this] { on_timer(); });
  timer_at_ = at;
}

void FlowNetwork::on_timer() {
  timer_ = simkit::kInvalidEvent;
  const SimTime now = sim_.now();
  // The flows whose live entry has come due, in deterministic (FlowId)
  // order. A flow whose rate moved twice can have two entries at one time.
  std::vector<FlowId> done;
  while (!completions_.empty() && completions_.front().at <= now) {
    const Completion c = completions_.front();
    pop_completion();
    if (live(c.id) && flows_[slot_of(c.id)].due == c.at) done.push_back(c.id);
  }
  std::sort(done.begin(), done.end());
  done.erase(std::unique(done.begin(), done.end()), done.end());

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
  // Even with nothing done (its flow was cancelled at this instant) the
  // timer must be re-armed.
  end_instant_later();
  if (!done.empty()) notify_count();

  // Run completions after the flow table is consistent, so callbacks may
  // immediately start new flows; the instant's one re-solve follows them.
  for (auto& cb : callbacks) cb();
}

}  // namespace vdc::net
