#include "migration/remus.hpp"

#include <cstring>
#include <utility>

#include "checkpoint/rle.hpp"
#include "common/assert.hpp"
#include "parity/xor.hpp"

namespace vdc::migration {

RemusReplicator::RemusReplicator(simkit::Simulator& sim, net::Fabric& fabric,
                                 vm::Hypervisor& primary,
                                 net::HostId primary_host,
                                 net::HostId backup_host,
                                 vm::VmId protected_vm, RemusConfig config)
    : sim_(sim),
      fabric_(fabric),
      primary_(primary),
      primary_host_(primary_host),
      backup_host_(backup_host),
      vm_(protected_vm),
      config_(config) {
  VDC_REQUIRE(primary.hosts(protected_vm), "protected VM not on primary");
}

void RemusReplicator::start() {
  VDC_REQUIRE(!running_, "replicator already running");
  running_ = true;
  last_advance_ = sim_.now();
  last_ack_capture_time_ = sim_.now();
  timer_ = sim_.after(kRemusEpoch, [this] { on_epoch_timer(); });
}

void RemusReplicator::stop() { stop_internal(/*resume_guest=*/true); }

void RemusReplicator::stop_internal(bool resume_guest) {
  running_ = false;
  if (timer_ != simkit::kInvalidEvent) {
    sim_.cancel(timer_);
    timer_ = simkit::kInvalidEvent;
  }
  // The capture path parks two continuations that used to outlive stop():
  // the staging-pause end event (which would resume a guest this
  // replicator no longer owns and charge its pause time) and the ship
  // flow (whose completion would overwrite backup_image_ after a
  // failover already took it). Cancel both.
  const bool mid_pause = pause_event_ != simkit::kInvalidEvent;
  if (mid_pause) {
    sim_.cancel(pause_event_);
    pause_event_ = simkit::kInvalidEvent;
  }
  if (ship_flow_ != net::kInvalidFlow) {
    fabric_.cancel(ship_flow_);
    ship_flow_ = net::kInvalidFlow;
  }
  ship_in_flight_ = false;
  pending_image_.clear();
  if (mid_pause && resume_guest && primary_.hosts(vm_) &&
      primary_.get(vm_).state() == vm::VmState::Paused) {
    // Orderly stop mid-capture: un-freeze the guest we paused.
    primary_.get(vm_).resume();
    last_advance_ = sim_.now();
  }
}

void RemusReplicator::on_epoch_timer() {
  timer_ = simkit::kInvalidEvent;
  if (!running_) return;

  if (ship_in_flight_) {
    // Back-pressure: the previous epoch is still being shipped. Skip this
    // tick; the ack path will re-arm the timer.
    ++stats_.epochs_skipped;
    return;
  }
  capture_and_ship();
}

void RemusReplicator::capture_and_ship() {
  // Bring the guest's virtual time up to now, then freeze it.
  auto& machine = primary_.get(vm_);
  primary_.advance_vm(vm_, sim_.now() - last_advance_);
  last_advance_ = sim_.now();
  machine.pause();

  const SimTime capture_time = sim_.now();
  const auto [staged, compressed] = capture_dirty(machine.image());
  ++stats_.epochs_captured;

  const Bytes wire = config_.compress ? compressed : staged;
  const SimTime pause =
      kRemusPauseOverhead + static_cast<double>(staged) / kRemusBufferCopyRate;

  pending_image_ = base_;

  // Resume after the staging copy completes; ship asynchronously. Both
  // continuations are guarded on running_ and tracked (pause_event_ /
  // ship_flow_) so stop() and failover() can cancel them.
  pause_event_ = sim_.after(pause, [this, capture_time, wire, pause] {
    pause_event_ = simkit::kInvalidEvent;
    if (!running_) return;
    stats_.total_pause_time += pause;
    auto& machine = primary_.get(vm_);
    machine.resume();
    last_advance_ = sim_.now();

    ship_in_flight_ = true;
    stats_.bytes_shipped += wire;
    ship_flow_ = fabric_.transfer(
        primary_host_, backup_host_, wire, [this, capture_time] {
          ship_flow_ = net::kInvalidFlow;
          ship_in_flight_ = false;
          if (!running_) return;
          backup_image_ = std::move(pending_image_);
          pending_image_.clear();
          last_ack_capture_time_ = capture_time;
          ++stats_.epochs_committed;
          // Re-arm: next epoch fires one interval after the
          // last capture, or immediately if we are behind.
          const SimTime next = std::max(
              sim_.now(), capture_time + kRemusEpoch);
          timer_ = sim_.at(next, [this] { on_epoch_timer(); });
        });
  });
}

std::pair<Bytes, Bytes> RemusReplicator::capture_dirty(
    vm::MemoryImage& image) {
  if (base_.empty()) {
    // First capture: the whole image, against a zero base.
    image.mark_all_dirty();
    base_.assign(image.size_bytes(), std::byte{0});
  }
  const Bytes page_size = image.page_size();
  std::vector<std::byte> x(page_size);
  Bytes staged = 0, compressed = 0;
  for (vm::PageIndex p : image.dirty_pages()) {
    const auto page = image.page(p);
    const std::span<std::byte> old(base_.data() + p * page_size, page_size);
    std::memcpy(x.data(), page.data(), page_size);
    parity::xor_into(x, old);
    // 8 bytes of page index and length per record, as in a VDD1 frame.
    compressed += 8 + checkpoint::encode_record(x).bytes.size();
    std::memcpy(old.data(), page.data(), page_size);
    staged += page_size;
  }
  image.clear_dirty();
  return {staged, compressed};
}

RemusReplicator::Failover RemusReplicator::failover() {
  Failover result;
  result.lost_work = sim_.now() - last_ack_capture_time_;
  result.image = backup_image_;
  // The primary is dead: tear everything down but never resume its guest.
  stop_internal(/*resume_guest=*/false);
  return result;
}

}  // namespace vdc::migration
