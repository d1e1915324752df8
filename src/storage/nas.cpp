#include "storage/nas.hpp"

#include <utility>

namespace vdc::storage {

Nas::Nas(simkit::Simulator& sim, net::Fabric& fabric, NasSpec spec)
    : sim_(sim),
      fabric_(fabric),
      spec_(spec),
      frontend_(fabric.add_shared_port(spec.frontend_rate)),
      array_(sim, spec.array) {}

void Nas::account(const char* op, Bytes bytes) {
  auto& metrics = sim_.telemetry().metrics();
  const std::string prefix = std::string("nas.") + op;
  metrics.add(prefix + ".ops", 1.0);
  metrics.add(prefix + ".bytes", static_cast<double>(bytes));
  metrics.set("nas.queue_depth",
              static_cast<double>(array_.queue_length()));
}

void Nas::store(net::HostId src, Bytes bytes, Callback done) {
  bytes_stored_ += bytes;
  account("store", bytes);
  fabric_.transfer_to_port(src, frontend_, bytes,
                           [this, bytes, done = std::move(done)]() mutable {
                             // Backlog at the array as this stream lands:
                             // its peak is the fan-in congestion figure.
                             sim_.telemetry().metrics().set(
                                 "nas.queue_depth",
                                 static_cast<double>(array_.queue_length() +
                                                     1));
                             array_.write(bytes, std::move(done));
                           });
}

void Nas::fetch(net::HostId dst, Bytes bytes, Callback done) {
  account("fetch", bytes);
  array_.read(bytes, [this, dst, bytes, done = std::move(done)]() mutable {
    fabric_.transfer_from_port(frontend_, dst, bytes, std::move(done));
  });
}

}  // namespace vdc::storage
