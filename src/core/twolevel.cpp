#include "core/twolevel.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace vdc::core {

TwoLevelBackend::TwoLevelBackend(simkit::Simulator& sim,
                                 cluster::ClusterManager& cluster,
                                 ProtocolConfig protocol,
                                 RecoveryConfig recovery,
                                 WorkloadFactory workloads,
                                 TwoLevelConfig config,
                                 PlannerConfig planner)
    : sim_(sim),
      cluster_(cluster),
      workloads_(workloads),
      config_(config),
      dvdc_(sim, cluster, protocol, recovery, workloads, planner),
      nas_(sim, cluster.fabric(), config.nas) {
  VDC_REQUIRE(config.flush_every >= 1, "flush cadence must be >= 1");
  VDC_REQUIRE(workloads_ != nullptr, "two-level backend needs workloads");
}

void TwoLevelBackend::checkpoint(checkpoint::Epoch epoch, EpochDone done) {
  dvdc_.checkpoint(epoch, [this, epoch, done = std::move(done)](
                              const EpochStats& stats) {
    ++commit_counter_;
    if (commit_counter_ % config_.flush_every == 0) start_flush(epoch);
    done(stats);
  });
}

void TwoLevelBackend::start_flush(checkpoint::Epoch epoch) {
  // Snapshot the committed images NOW (content is exact); the NAS drain
  // happens in the background and does not suspend guests.
  auto staged = std::make_shared<
      std::unordered_map<vm::VmId, std::vector<std::byte>>>();
  auto staged_info =
      std::make_shared<std::unordered_map<vm::VmId, VmInfo>>();
  std::map<cluster::NodeId, Bytes> per_node;
  for (vm::VmId vmid : cluster_.all_vms()) {
    const auto loc = cluster_.locate(vmid);
    VDC_ASSERT(loc.has_value());
    const auto* cp = dvdc_.state().node_store(*loc).find(vmid, epoch);
    if (cp == nullptr) return;  // epoch already superseded; skip
    (*staged)[vmid] = cp->payload();
    (*staged_info)[vmid] = dvdc_.state().vm_info(vmid);
    per_node[*loc] += cp->size_bytes();
  }

  const std::uint64_t generation = ++flush_generation_;
  const std::uint64_t counter_at_flush = commit_counter_;
  auto pending = std::make_shared<std::size_t>(per_node.size());
  for (const auto& [node, bytes] : per_node) {
    nas_.store(cluster_.node(node).host(), bytes,
               [this, generation, counter_at_flush, staged, staged_info,
                epoch, pending] {
                 if (generation != flush_generation_) return;  // stale
                 if (--*pending > 0) return;
                 durable_ = *staged;
                 durable_info_ = *staged_info;
                 flushed_epoch_ = epoch;
                 flushed_counter_ = counter_at_flush;
                 auto& metrics = sim_.telemetry().metrics();
                 metrics.add("twolevel.flushes", 1.0);
                 for (const auto& [vmid, payload] : durable_)
                   metrics.add("twolevel.flush_bytes",
                               static_cast<double>(payload.size()));
                 VDC_DEBUG("twolevel", "epoch ", epoch,
                           " durable on the NAS");
               });
  }
}

void TwoLevelBackend::on_node_failure(cluster::NodeId victim) {
  // A failure invalidates any flush still in flight (its source epoch may
  // reference checkpoints the dead node held).
  ++flush_generation_;
  dvdc_.on_node_failure(victim);
}

bool TwoLevelBackend::abort_recovery() {
  if (restore_active_) {
    ++restore_generation_;
    restore_active_ = false;
    level2_pending_ = true;
    sim_.telemetry().metrics().add("recovery.aborted", 1.0);
    return true;
  }
  return dvdc_.abort_recovery();
}

void TwoLevelBackend::handle_failure(const std::vector<vm::VmId>& lost,
                                     RecoveryDone done) {
  if (level2_pending_ && !durable_.empty()) {
    level2_restore(std::move(done));
    return;
  }
  dvdc_.handle_failure(lost,
                       [this, done = std::move(done)](
                           const RecoveryStats& rs) mutable {
                         if (rs.success || durable_.empty()) {
                           done(rs);
                           return;
                         }
                         VDC_INFO("twolevel",
                                  "diskless recovery impossible (",
                                  rs.reason,
                                  "); restoring the durable NAS level");
                         level2_restore(std::move(done));
                       });
}

void TwoLevelBackend::level2_restore(RecoveryDone done) {
  const SimTime start = sim_.now();
  const std::uint64_t rgen = ++restore_generation_;
  restore_active_ = true;
  for (cluster::NodeId nid : cluster_.alive_nodes())
    cluster_.node(nid).hypervisor().pause_all();

  // Re-create whatever is missing and roll everything back to the durable
  // images (content now; the NAS read time is charged below).
  std::map<cluster::NodeId, Bytes> per_node;
  for (const auto& [vmid, payload] : durable_) {
    auto loc = cluster_.locate(vmid);
    if (!loc.has_value()) {
      const cluster::NodeId target = cluster_.least_loaded_node();
      const VmInfo& info = durable_info_.at(vmid);
      auto machine = std::make_unique<vm::VirtualMachine>(
          vmid, info.name, info.page_size, info.page_count,
          workloads_(vmid));
      machine->pause();
      cluster_.place(std::move(machine), target);
      loc = target;
    }
    cluster_.machine(vmid).image().restore(payload);
    per_node[*loc] += payload.size();
  }

  // How far this durable level lags the committed DVDC epoch. The state
  // wipe and counter reset happen at completion, NOT here: an aborted
  // restore must leave the bookkeeping intact so the cascaded retry still
  // reports the right rollback depth.
  const std::uint32_t rolled_back =
      static_cast<std::uint32_t>(commit_counter_ - flushed_counter_);

  // Timing: every node fetches its images back from the NAS, then the
  // local restore + resume.
  auto pending = std::make_shared<std::size_t>(per_node.size());
  Bytes worst = 0;
  for (const auto& [node, bytes] : per_node) worst = std::max(worst, bytes);
  const SimTime local_stall =
      static_cast<double>(worst) / kRestoreRate + kResumeTime;

  auto finish = [this, rgen, start, rolled_back, local_stall,
                 done = std::move(done)]() mutable {
    if (rgen != restore_generation_) return;  // aborted
    sim_.after(local_stall, [this, rgen, start, rolled_back,
                             done = std::move(done)]() mutable {
      if (rgen != restore_generation_) return;  // aborted
      restore_active_ = false;
      level2_pending_ = false;
      // The DVDC level restarts from this baseline: fresh stripes next
      // epoch.
      dvdc_.on_job_restart();
      commit_counter_ = 0;
      flushed_counter_ = 0;
      ++level2_restores_;
      sim_.telemetry().metrics().add("twolevel.level2_restores", 1.0);
      for (cluster::NodeId nid : cluster_.alive_nodes())
        cluster_.node(nid).hypervisor().resume_all();
      RecoveryStats rs;
      rs.success = true;
      rs.epochs_rolled_back = rolled_back;
      rs.vms_recovered = durable_.size();
      rs.duration = sim_.now() - start;
      done(rs);
    });
  };
  if (per_node.empty()) {
    sim_.after(0.0, std::move(finish));
    return;
  }
  auto shared_finish =
      std::make_shared<decltype(finish)>(std::move(finish));
  for (const auto& [node, bytes] : per_node) {
    nas_.fetch(cluster_.node(node).host(), bytes,
               [pending, shared_finish] {
                 if (--*pending == 0) (*shared_finish)();
               });
  }
}

void TwoLevelBackend::on_job_restart() {
  dvdc_.on_job_restart();
  // A scratch restart is a new execution: the old durable images would
  // resurrect the abandoned one.
  durable_.clear();
  durable_info_.clear();
  flushed_epoch_ = 0;
  commit_counter_ = 0;
  flushed_counter_ = 0;
  ++flush_generation_;
  level2_pending_ = false;
}

}  // namespace vdc::core
