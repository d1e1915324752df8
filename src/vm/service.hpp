#pragma once
// Request service model for a guest: a FIFO queue drained by
// kServiceConcurrency servers with a deterministic per-request service
// time.
//
// This is deliberately *not* a workload: serving a request must never
// dirty guest memory, because the serving plane has to be able to run on
// top of a checkpointed job without perturbing what each epoch ships over
// the wire (the traffic on/off bit-identity test relies on it). The
// guest's memory churn stays the business of its vm::Workload; this class
// only models the queueing delay a client request sees at the guest.

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "common/units.hpp"
#include "simkit/simulator.hpp"

namespace vdc::vm {

/// Parallel servers (vCPU worker threads) draining a guest's queue.
inline constexpr std::size_t kServiceConcurrency = 4;
/// Deterministic per-request service time.
inline constexpr SimTime kServiceTime = milliseconds(1);
/// Queued (not yet in service) requests beyond this are shed.
inline constexpr std::size_t kServiceQueueLimit = 4096;

class GuestService {
 public:
  using Done = std::function<void(std::uint64_t token)>;

  explicit GuestService(simkit::Simulator& sim) : sim_(sim) {}
  ~GuestService() { fail(); }
  GuestService(const GuestService&) = delete;
  GuestService& operator=(const GuestService&) = delete;

  /// Enqueue a request. Returns false (and drops it) when the queue is
  /// full — the client sees a timeout and retries.
  bool submit(std::uint64_t token, Done done);

  /// The guest died (or rolled back): every queued and in-service request
  /// vanishes; their Done callbacks never fire.
  void fail();

  std::size_t queued() const { return queue_.size(); }
  std::size_t in_service() const { return inflight_.size(); }
  std::uint64_t shed() const { return shed_; }

 private:
  struct Pending {
    std::uint64_t token;
    Done done;
  };

  void start(Pending request);

  simkit::Simulator& sim_;
  std::deque<Pending> queue_;
  /// Completion events in service, keyed by a per-service serial (a
  /// client retry can put one token in service twice).
  std::unordered_map<std::uint64_t, simkit::EventId> inflight_;
  std::uint64_t next_serial_ = 0;
  std::uint64_t shed_ = 0;
};

}  // namespace vdc::vm
