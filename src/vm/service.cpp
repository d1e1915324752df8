#include "vm/service.hpp"

#include <utility>

namespace vdc::vm {

bool GuestService::submit(std::uint64_t token, Done done) {
  if (inflight_.size() < kServiceConcurrency) {
    start(Pending{token, std::move(done)});
    return true;
  }
  if (queue_.size() >= kServiceQueueLimit) {
    ++shed_;
    return false;
  }
  queue_.push_back(Pending{token, std::move(done)});
  return true;
}

void GuestService::start(Pending request) {
  const std::uint64_t token = request.token;
  const std::uint64_t serial = ++next_serial_;
  // The completion event owns the callback; fail() cancels the event and
  // the callback dies with it.
  const simkit::EventId ev = sim_.after(
      kServiceTime,
      [this, done = std::move(request.done), token, serial] {
        // Erase before invoking: the callback may submit follow-on work.
        inflight_.erase(serial);
        if (!queue_.empty()) {
          Pending next = std::move(queue_.front());
          queue_.pop_front();
          start(std::move(next));
        }
        done(token);
      });
  inflight_.emplace(serial, ev);
}

void GuestService::fail() {
  for (const auto& [serial, ev] : inflight_) sim_.cancel(ev);
  inflight_.clear();
  queue_.clear();
}

}  // namespace vdc::vm
