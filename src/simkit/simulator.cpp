#include "simkit/simulator.hpp"

#include <cmath>
#include <utility>

namespace vdc::simkit {

namespace {
// Below this many queue entries, tombstones are too cheap to chase.
constexpr std::size_t kCompactMinEntries = 1024;
}  // namespace

EventId Simulator::at(SimTime t, Callback cb) {
  VDC_ASSERT_MSG(std::isfinite(t), "event time must be finite");
  VDC_ASSERT_MSG(t >= now_ - 1e-12, "cannot schedule events in the past");
  VDC_ASSERT(cb != nullptr);
  const EventId id = next_id_++;
  const SimTime when = std::max(t, now_);
  queue_.push(Entry{when, id});
  callbacks_.emplace(id, Pending{when, std::move(cb)});
  if (queue_.size() > queue_peak_) queue_peak_ = queue_.size();
  return id;
}

bool Simulator::cancel(EventId id) {
  // The queue entry stays behind as a tombstone and is skipped on pop —
  // unless tombstones come to dominate, in which case the queue is
  // compacted down to the live events.
  if (callbacks_.erase(id) == 0) return false;
  ++cancelled_;
  maybe_compact();
  return true;
}

void Simulator::maybe_compact() {
  if (queue_.size() < kCompactMinEntries) return;
  if (callbacks_.size() * 2 >= queue_.size()) return;
  std::vector<Entry> live;
  live.reserve(callbacks_.size());
  for (const auto& [id, pending] : callbacks_)
    live.push_back(Entry{pending.t, id});
  queue_ = Heap(std::greater<>{}, std::move(live));
  ++compactions_;
}

bool Simulator::step() {
  while (!queue_.empty()) {
    const Entry item = queue_.top();
    queue_.pop();
    auto it = callbacks_.find(item.id);
    if (it == callbacks_.end()) continue;  // cancelled
    Callback cb = std::move(it->second.cb);
    callbacks_.erase(it);
    VDC_ASSERT(item.t >= now_ - 1e-12);
    now_ = std::max(now_, item.t);
    ++executed_;
    cb();
    return true;
  }
  return false;
}

void Simulator::run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!step()) break;
  }
  publish_metrics();
}

void Simulator::run_until(SimTime t) {
  VDC_ASSERT(t >= now_);
  while (!queue_.empty()) {
    const Entry& top = queue_.top();
    // Skip tombstones at the head so we don't stop early on cancelled events.
    if (!callbacks_.count(top.id)) {
      queue_.pop();
      continue;
    }
    if (top.t > t) break;
    step();
  }
  now_ = t;
  publish_metrics();
}

void Simulator::publish_metrics() {
  auto& metrics = telemetry_.metrics();
  metrics.set("sim.events.cancelled", static_cast<double>(cancelled_));
  metrics.set("sim.queue.peak", static_cast<double>(queue_peak_));
  metrics.set("sim.queue.compactions", static_cast<double>(compactions_));
}

}  // namespace vdc::simkit
