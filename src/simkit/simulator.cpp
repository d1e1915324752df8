#include "simkit/simulator.hpp"

#include <algorithm>
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
  if (free_.empty()) {
    VDC_ASSERT(slots_.size() < 0xffffffffu);
    free_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_.back();
  free_.pop_back();
  Slot& s = slots_[slot];
  s.seq = next_seq_++;
  s.cb = std::move(cb);
  ++live_;
  queue_.push_back(Entry{std::max(t, now_), s.seq, slot});
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
  if (queue_.size() > queue_peak_) queue_peak_ = queue_.size();
  return static_cast<EventId>(s.gen) << 32 | slot;
}

bool Simulator::pending(EventId id) const {
  const auto slot = static_cast<std::uint32_t>(id);
  return slot < slots_.size() && slots_[slot].seq != 0 &&
         slots_[slot].gen == id >> 32;
}

Simulator::Callback Simulator::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  Callback cb = std::move(s.cb);
  s.seq = 0;
  --live_;
  // Retire a slot whose generation wraps, so no stale id can name it.
  if (++s.gen != 0) free_.push_back(slot);
  return cb;
}

bool Simulator::cancel(EventId id) {
  // The queue entry stays behind as a tombstone and is skipped on pop —
  // unless tombstones come to dominate, in which case the queue is
  // compacted down to the live events.
  if (!pending(id)) return false;
  // Destroy the callback once its slot is free (captures may re-enter).
  const Callback dead = release(static_cast<std::uint32_t>(id));
  ++cancelled_;
  maybe_compact();
  return true;
}

void Simulator::maybe_compact() {
  if (queue_.size() < kCompactMinEntries) return;
  if (live_ * 2 >= queue_.size()) return;
  // In place: the vector keeps its capacity, so the process's peak memory
  // does not depend on when compactions fall.
  std::erase_if(queue_, [this](const Entry& e) { return !live(e); });
  std::make_heap(queue_.begin(), queue_.end(), std::greater<>{});
  ++compactions_;
}

void Simulator::at_instant_end(Callback cb) {
  VDC_ASSERT(cb != nullptr);
  instant_end_.push_back(std::move(cb));
}

const Simulator::Entry* Simulator::next_event() {
  for (;;) {
    // Skip tombstones at the head so a cancelled event neither fires nor
    // stands in for the next time.
    while (!queue_.empty() && !live(queue_.front())) {
      std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
      queue_.pop_back();
    }
    // Entries never lie before now_, so a head later than now_ ends the
    // instant. End-of-instant work runs one callback at a time: what it
    // schedules at now_ fires before the next callback, and the head is
    // looked up again because it may have cancelled it.
    if (instant_end_.empty() ||
        (!queue_.empty() && queue_.front().t <= now_))
      return queue_.empty() ? nullptr : &queue_.front();
    const Callback cb = std::move(instant_end_.front());
    instant_end_.pop_front();
    cb();
  }
}

void Simulator::fire_head() {
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  const Entry item = queue_.back();
  queue_.pop_back();
  const Callback cb = release(item.slot);
  VDC_ASSERT(item.t >= now_ - 1e-12);
  now_ = std::max(now_, item.t);
  ++executed_;
  cb();
}

bool Simulator::step() {
  if (next_event() == nullptr) return false;
  fire_head();
  return true;
}

void Simulator::run(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!step()) break;
  }
  publish_metrics();
}

void Simulator::run_until(SimTime t) {
  VDC_ASSERT(t >= now_);
  // next_event() settles each instant before reporting a later head, so
  // the head it returns is the one that fires.
  for (const Entry* head = next_event(); head != nullptr && head->t <= t;
       head = next_event())
    fire_head();
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
