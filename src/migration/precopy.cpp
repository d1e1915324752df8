#include "migration/precopy.hpp"

#include <utility>

#include "common/assert.hpp"

namespace vdc::migration {

void stop_and_copy(simkit::Simulator& sim, net::Fabric& fabric, vm::VmId id,
                   vm::Hypervisor& src, net::HostId src_host,
                   vm::Hypervisor& dst, net::HostId dst_host, Bytes bytes,
                   std::function<void()> done) {
  src.get(id).pause();
  fabric.transfer(
      src_host, dst_host, bytes,
      [&sim, id, &src, &dst, done = std::move(done)]() mutable {
        sim.after(kSwitchOverhead,
                  [id, &src, &dst, done = std::move(done)] {
                    auto machine = src.evict(id);
                    machine->resume();
                    dst.adopt(std::move(machine));
                    done();
                  });
      });
}

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
  fabric_.transfer(src_host_, dst_host_, to_send, [this, round, round_start,
                                                    prev_dirty] {
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
        final_copy();
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
      final_copy();
      return;
    }

    const Bytes bytes = static_cast<Bytes>(dirty) * image.page_size();
    image.clear_dirty();
    dirty_gen_ = image.dirty_generation();
    run_round(round + 1, sim_.now(), bytes, dirty);
  });
}

void PreCopyMigrator::final_copy() {
  const SimTime start = sim_.now();
  auto& image = src_->get(vm_).image();
  const Bytes residue =
      static_cast<Bytes>(image.dirty_count()) * image.page_size();
  stats_.bytes_sent += residue;
  // Deliberately no clear_dirty() here: the image object moves wholesale
  // to the destination hypervisor, and the checkpoint coordinator's
  // incremental view of this log stays coherent across the move. Clearing
  // would silently shrink the guest's next checkpoint delta.
  stop_and_copy(sim_, fabric_, vm_, *src_, src_host_, *dst_, dst_host_,
                residue, [this, start] {
                  stats_.downtime = sim_.now() - start;
                  stats_.total_time = sim_.now() - start_time_;
                  busy_ = false;
                  if (done_) {
                    auto done = std::move(done_);
                    done(stats_);
                  }
                });
}

void StopAndCopyMigrator::migrate(vm::VmId id, vm::Hypervisor& src,
                                  net::HostId src_host, vm::Hypervisor& dst,
                                  net::HostId dst_host, DoneCallback done) {
  VDC_REQUIRE(src.hosts(id), "migrate: VM not on source node");
  const SimTime start = sim_.now();
  const Bytes bytes = src.get(id).image().size_bytes();
  stop_and_copy(sim_, fabric_, id, src, src_host, dst, dst_host, bytes,
                [&sim = sim_, start, bytes, done = std::move(done)] {
                  MigrationStats stats;
                  stats.total_time = sim.now() - start;
                  stats.downtime = stats.total_time;
                  stats.bytes_sent = bytes;
                  stats.converged = true;
                  if (done) done(stats);
                });
}

}  // namespace vdc::migration
