#pragma once
// Shared network-attached storage model.
//
// The NAS is the baseline checkpoint sink the paper argues against: every
// node's checkpoint stream funnels through one front-end network port and
// is then written by one disk array. Both stages contend — the front-end
// port shares bandwidth max-min fairly among concurrent streams, and the
// array serves writes FCFS.

#include <functional>

#include "common/hardware.hpp"
#include "net/fabric.hpp"
#include "storage/disk.hpp"

namespace vdc::storage {

struct NasSpec {
  Rate frontend_rate = hardware::kNasFrontendRate;  // NAS head uplink
  DiskSpec array{hardware::kNasWriteRate, hardware::kNasReadRate,
                 milliseconds(5)};
};

class Nas {
 public:
  using Callback = std::function<void()>;

  Nas(simkit::Simulator& sim, net::Fabric& fabric, NasSpec spec);

  /// Stream `bytes` from host `src` into the NAS and write them durably.
  /// `done` fires when the bytes are on the array (checkpoint latency
  /// endpoint for the disk-full baseline).
  void store(net::HostId src, Bytes bytes, Callback done);

  /// Read `bytes` back to host `dst` (restart path).
  void fetch(net::HostId dst, Bytes bytes, Callback done);

  Disk& array() { return array_; }
  const NasSpec& spec() const { return spec_; }

  Bytes bytes_stored() const { return bytes_stored_; }

 private:
  /// Per-request accounting: `nas.<op>.ops` / `nas.<op>.bytes` counters
  /// plus the `nas.queue_depth` gauge whose peak is the array backlog
  /// high-water mark (the single-sink contention the paper measures).
  void account(const char* op, Bytes bytes);

  simkit::Simulator& sim_;
  net::Fabric& fabric_;
  NasSpec spec_;
  net::PortId frontend_;
  Disk array_;
  Bytes bytes_stored_ = 0;
};

}  // namespace vdc::storage
