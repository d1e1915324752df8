#include "migration/precopy.hpp"

#include <utility>

#include "common/assert.hpp"

namespace vdc::migration {

void PreCopyMigrator::migrate(vm::VmId id, vm::Hypervisor& src,
                              net::HostId src_host, vm::Hypervisor& dst,
                              net::HostId dst_host, DoneCallback done) {
  VDC_REQUIRE(!busy_, "PreCopyMigrator handles one migration at a time");
  VDC_REQUIRE(src.hosts(id), "migrate: VM not on source node");
  busy_ = true;
  vm_ = id;
  src_ = &src;
  dst_ = &dst;
  src_host_ = src_host;
  dst_host_ = dst_host;
  done_ = std::move(done);
  stats_ = {};
  start_time_ = sim_.now();

  // Round 0 ships the full image; clear the dirty log so each later round
  // sees exactly the pages dirtied during the previous transfer. Record
  // the resulting generation: the checkpoint coordinator shares this log
  // and detects our clear the same way (and vice versa).
  auto& image = src.get(id).image();
  image.clear_dirty();
  dirty_gen_ = image.dirty_generation();
  run_round(0, sim_.now(), image.size_bytes(), image.page_count());
}

void PreCopyMigrator::run_round(std::uint32_t round, SimTime round_start,
                                Bytes to_send, std::size_t prev_dirty) {
  stats_.rounds = round + 1;
  stats_.bytes_sent += to_send;
  flow_ = fabric_.transfer(src_host_, dst_host_, to_send, [this, round,
                                                           round_start,
                                                           prev_dirty] {
    flow_ = net::kInvalidFlow;
    // The guest kept running during the transfer: account its dirtying.
    const SimTime elapsed = sim_.now() - round_start;
    src_->advance_vm(vm_, elapsed);

    auto& image = src_->get(vm_).image();
    if (image.dirty_generation() != dirty_gen_) {
      // A checkpoint epoch consumed the dirty log mid-round: pages
      // dirtied before its clear are gone from the log, so an
      // incremental round would leave the destination stale. Fall back
      // to a full-image round (or a full stop-and-copy if rounds ran
      // out — mark_all_dirty makes final_copy ship everything).
      ++stats_.dirty_log_fallbacks;
      if (round + 1 >= kPreCopyMaxRounds) {
        stats_.converged = false;
        image.mark_all_dirty();
        final_copy(sim_.now());
        return;
      }
      image.clear_dirty();
      dirty_gen_ = image.dirty_generation();
      run_round(round + 1, sim_.now(), image.size_bytes(),
                image.page_count());
      return;
    }
    const std::size_t dirty = image.dirty_count();

    const bool small_enough = dirty <= kPreCopyStopDirtyPages;
    const bool plateaued =
        prev_dirty > 0 &&
        static_cast<double>(dirty) >=
            kPreCopyMinShrink * static_cast<double>(prev_dirty);
    const bool out_of_rounds = round + 1 >= kPreCopyMaxRounds;

    if (small_enough || plateaued || out_of_rounds) {
      stats_.converged = small_enough;
      final_copy(sim_.now());
      return;
    }

    const Bytes bytes = static_cast<Bytes>(dirty) * image.page_size();
    image.clear_dirty();
    dirty_gen_ = image.dirty_generation();
    run_round(round + 1, sim_.now(), bytes, dirty);
  });
}

void PreCopyMigrator::final_copy(SimTime start) {
  auto& machine = src_->get(vm_);
  machine.pause();
  auto& image = machine.image();
  const Bytes residue =
      static_cast<Bytes>(image.dirty_count()) * image.page_size();
  stats_.bytes_sent += residue;
  // Deliberately no clear_dirty() here: the image object moves wholesale
  // to the destination hypervisor, and the checkpoint coordinator's
  // incremental view of this log stays coherent across the move. Clearing
  // would silently shrink the guest's next checkpoint delta.

  flow_ = fabric_.transfer(src_host_, dst_host_, residue, [this, start] {
    flow_ = net::kInvalidFlow;
    event_ = sim_.after(kSwitchOverhead, [this, start] {
      event_ = simkit::kInvalidEvent;
      stats_.downtime = sim_.now() - start;
      finish();
    });
  });
}

void PreCopyMigrator::finish() {
  auto machine = src_->evict(vm_);
  machine->resume();
  dst_->adopt(std::move(machine));
  stats_.total_time = sim_.now() - start_time_;
  busy_ = false;
  if (done_) {
    auto done = std::move(done_);
    done(stats_);
  }
}

void PreCopyMigrator::cancel() {
  if (!busy_) return;
  if (flow_ != net::kInvalidFlow) {
    fabric_.cancel(flow_);
    flow_ = net::kInvalidFlow;
  }
  if (event_ != simkit::kInvalidEvent) {
    sim_.cancel(event_);
    event_ = simkit::kInvalidEvent;
  }
  busy_ = false;
  done_ = nullptr;
  // A guest frozen for stop-and-copy that still exists on a live source
  // gets un-frozen; a failed source simply no longer hosts it.
  if (src_ != nullptr && src_->hosts(vm_) &&
      src_->get(vm_).state() == vm::VmState::Paused)
    src_->get(vm_).resume();
}

void StopAndCopyMigrator::migrate(vm::VmId id, vm::Hypervisor& src,
                                  net::HostId src_host, vm::Hypervisor& dst,
                                  net::HostId dst_host, DoneCallback done) {
  VDC_REQUIRE(src.hosts(id), "migrate: VM not on source node");
  const SimTime start = sim_.now();
  auto& machine = src.get(id);
  machine.pause();
  const Bytes bytes = machine.image().size_bytes();

  fabric_.transfer(
      src_host, dst_host, bytes,
      [this, id, &src, &dst, start, bytes, done = std::move(done)]() mutable {
        sim_.after(kSwitchOverhead, [this, id, &src, &dst, start, bytes,
                                      done = std::move(done)]() mutable {
          auto machine = src.evict(id);
          machine->resume();
          dst.adopt(std::move(machine));
          MigrationStats stats;
          stats.total_time = sim_.now() - start;
          stats.downtime = stats.total_time;
          stats.bytes_sent = bytes;
          stats.rounds = 0;
          stats.converged = true;
          if (done) done(stats);
        });
      });
}

}  // namespace vdc::migration
