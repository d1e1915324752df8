#pragma once
// Single-spindle / single-volume disk timing model.
//
// A request costs a fixed positioning latency plus size/bandwidth, and the
// device serves requests FCFS (one at a time). This intentionally simple
// model is what makes the baseline's "write N VM images to stable storage"
// expensive, which is the phenomenon diskless checkpointing removes.

#include <functional>

#include "common/units.hpp"
#include "simkit/resource.hpp"
#include "simkit/simulator.hpp"

namespace vdc::storage {

struct DiskSpec {
  Rate write_bandwidth = mib_per_s(150);  // commodity SATA of the paper's era
  Rate read_bandwidth = mib_per_s(160);
  SimTime access_latency = milliseconds(8);
};

class Disk {
 public:
  using Callback = std::function<void()>;

  Disk(simkit::Simulator& sim, DiskSpec spec);

  /// Queue a write of `bytes`; `done` fires when it is durable.
  void write(Bytes bytes, Callback done);

  /// Queue a read of `bytes`; `done` fires when data is in memory.
  void read(Bytes bytes, Callback done);

  /// Service time of one write if the device were idle.
  SimTime write_service_time(Bytes bytes) const;
  SimTime read_service_time(Bytes bytes) const;

  const DiskSpec& spec() const { return spec_; }
  std::size_t queue_length() const { return head_.queue_length(); }
  double busy_time() const { return head_.busy_time(); }

  /// Total bytes written, for accounting.
  Bytes bytes_written() const { return bytes_written_; }

 private:
  /// Serve one FCFS request, recording the time spent waiting behind the
  /// queue into the `wait_metric` histogram (the device's contention).
  void service(SimTime service_time, const char* wait_metric, Callback done);

  simkit::Simulator& sim_;
  DiskSpec spec_;
  simkit::Resource head_;
  Bytes bytes_written_ = 0;
};

}  // namespace vdc::storage
