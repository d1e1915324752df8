#include "vm/service.hpp"

#include <utility>

#include "common/assert.hpp"

namespace vdc::vm {

GuestService::GuestService(simkit::Simulator& sim, Config config)
    : sim_(sim), config_(config) {
  VDC_REQUIRE(config_.concurrency > 0, "GuestService needs >= 1 server");
  VDC_REQUIRE(config_.service_time >= 0.0,
              "GuestService: negative service time");
}

bool GuestService::submit(std::uint64_t token, Done done) {
  if (inflight_.size() < config_.concurrency) {
    start(Pending{token, std::move(done)});
    return true;
  }
  if (queue_.size() >= config_.queue_limit) {
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
      config_.service_time,
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
