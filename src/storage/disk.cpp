#include "storage/disk.hpp"

#include <utility>

#include "common/assert.hpp"

namespace vdc::storage {

Disk::Disk(simkit::Simulator& sim, DiskSpec spec)
    : sim_(sim), spec_(spec), head_(sim, 1) {
  VDC_REQUIRE(spec.write_bandwidth > 0 && spec.read_bandwidth > 0,
              "disk bandwidth must be positive");
  VDC_REQUIRE(spec.access_latency >= 0, "disk latency must be non-negative");
}

SimTime Disk::write_service_time(Bytes bytes) const {
  return spec_.access_latency +
         static_cast<double>(bytes) / spec_.write_bandwidth;
}

SimTime Disk::read_service_time(Bytes bytes) const {
  return spec_.access_latency +
         static_cast<double>(bytes) / spec_.read_bandwidth;
}

void Disk::service(SimTime service_time, const char* wait_metric,
                   Callback done) {
  const SimTime enqueued = sim_.now();
  head_.acquire([this, enqueued, service_time, wait_metric,
                 done = std::move(done)]() mutable {
    sim_.telemetry().metrics().observe(wait_metric, sim_.now() - enqueued);
    sim_.after(service_time, [this, done = std::move(done)] {
      head_.release();
      done();
    });
  });
}

void Disk::write(Bytes bytes, Callback done) {
  bytes_written_ += bytes;
  service(write_service_time(bytes), "disk.write_wait_s", std::move(done));
}

void Disk::read(Bytes bytes, Callback done) {
  service(read_service_time(bytes), "disk.read_wait_s", std::move(done));
}

}  // namespace vdc::storage
