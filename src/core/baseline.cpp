#include "core/baseline.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace vdc::core {

DiskFullBackend::DiskFullBackend(simkit::Simulator& sim,
                                 cluster::ClusterManager& cluster,
                                 WorkloadFactory workloads,
                                 DiskFullConfig config)
    : sim_(sim),
      cluster_(cluster),
      workloads_(std::move(workloads)),
      config_(config),
      nas_(sim, cluster.fabric(), config.nas) {
  VDC_REQUIRE(workloads_ != nullptr, "disk-full backend needs workloads");
}

void DiskFullBackend::checkpoint(checkpoint::Epoch epoch, EpochDone done) {
  VDC_REQUIRE(!in_flight_, "an epoch is already in flight");
  VDC_REQUIRE(epoch > committed_, "epoch must advance");
  in_flight_ = true;
  const std::uint64_t gen = ++generation_;
  epoch_ = epoch;
  epoch_start_ = sim_.now();
  done_ = std::move(done);
  stats_ = EpochStats{};
  stats_.epoch = epoch;
  stats_.full_exchange = true;
  staged_.clear();

  // Capture content at the cut and compute per-node stream sizes.
  struct NodeStream {
    cluster::NodeId node;
    Bytes bytes = 0;
  };
  std::vector<NodeStream> streams;
  Bytes capture_worst = 0;
  for (cluster::NodeId nid : cluster_.alive_nodes()) {
    auto& hv = cluster_.node(nid).hypervisor();
    NodeStream stream{nid, 0};
    for (vm::VmId vmid : hv.vm_ids()) {
      auto& machine = hv.get(vmid);
      checkpoint::Checkpoint cp;
      cp.vm = vmid;
      cp.epoch = epoch;
      cp.page_size = machine.image().page_size();
      cp.payload = machine.image().flatten();
      stream.bytes += cp.payload.size();
      vm_info_[vmid] = VmInfo{machine.name(), cp.page_size,
                              machine.image().page_count()};
      staged_.push_back(std::move(cp));
    }
    capture_worst = std::max(capture_worst, stream.bytes);
    if (stream.bytes > 0) streams.push_back(stream);
  }
  stats_.groups = streams.size();

  const SimTime stall =
      config_.synchronous
          ? config_.base_overhead
          : config_.base_overhead +
                static_cast<double>(capture_worst) / config_.snapshot_rate;
  // In the sync variant the guests stay paused through the whole flush, so
  // the early stall is just the quiesce; overhead is finalised at commit.

  streams_pending_ = streams.size();
  sim_.after(stall, [this, gen, streams, stall] {
    if (gen != generation_ || !in_flight_) return;
    if (!config_.synchronous) {
      for (cluster::NodeId nid : cluster_.alive_nodes())
        cluster_.node(nid).hypervisor().resume_all();
      stats_.overhead = stall;
    }
    const auto commit = [this, gen] {
      sim_.after(config_.commit_latency, [this, gen] {
        if (gen != generation_ || !in_flight_) return;
        // Commit: checkpoints are durable on the NAS.
        for (auto& cp : staged_) store_.put(std::move(cp));
        staged_.clear();
        store_.gc_before(epoch_);
        committed_ = epoch_;
        auto& metrics = sim_.telemetry().metrics();
        metrics.add("diskfull.epochs", 1.0);
        metrics.add("diskfull.bytes_to_nas",
                    static_cast<double>(stats_.bytes_shipped));
        if (config_.synchronous) {
          for (cluster::NodeId nid : cluster_.alive_nodes())
            cluster_.node(nid).hypervisor().resume_all();
          stats_.overhead = sim_.now() - epoch_start_;
        }
        stats_.latency = sim_.now() - epoch_start_;
        in_flight_ = false;
        auto done = std::move(done_);
        done(stats_);
      });
    };

    if (streams.empty()) {
      commit();
      return;
    }
    for (const auto& stream : streams) {
      stats_.bytes_shipped += stream.bytes;
      nas_.store(cluster_.node(stream.node).host(), stream.bytes,
                 [this, gen, commit] {
                   if (gen != generation_ || !in_flight_) return;
                   VDC_ASSERT(streams_pending_ > 0);
                   if (--streams_pending_ == 0) commit();
                 });
    }
  });
}

SimTime DiskFullBackend::early_resume_delay() const {
  // Async guests resumed after the just-committed epoch's stall: the
  // quiesce plus the local capture of the largest node.
  return config_.synchronous ? -1.0 : stats_.overhead;
}

void DiskFullBackend::abort_checkpoint() {
  if (!in_flight_) return;
  ++generation_;
  in_flight_ = false;
  staged_.clear();
}

bool DiskFullBackend::abort_recovery() {
  if (!recovery_active_) return false;
  ++recovery_generation_;
  recovery_active_ = false;
  sim_.telemetry().metrics().add("recovery.aborted", 1.0);
  return true;
}

void DiskFullBackend::handle_failure(const std::vector<vm::VmId>& lost,
                                     RecoveryDone done) {
  const auto fail = [&done](const char* reason) {
    RecoveryStats rs;
    rs.success = false;
    rs.reason = reason;
    done(rs);
  };
  if (committed_ == 0) return fail("no durable checkpoint yet");
  // Every lost VM needs a durable checkpoint and its metadata. Check them
  // all before placing any: a VM placed and fetching would still finish
  // (and report success) after the failure was reported.
  struct Source {
    vm::VmId vm;
    const checkpoint::StoredCheckpoint* cp;
    const VmInfo* info;
  };
  std::vector<Source> sources;
  for (vm::VmId vmid : lost) {
    const checkpoint::StoredCheckpoint* cp = store_.find(vmid, committed_);
    if (cp == nullptr) return fail("lost VM has no durable checkpoint");
    auto it = vm_info_.find(vmid);
    VDC_REQUIRE(it != vm_info_.end(), "lost VM has no recorded metadata");
    sources.push_back({vmid, cp, &it->second});
  }

  for (cluster::NodeId nid : cluster_.alive_nodes())
    cluster_.node(nid).hypervisor().pause_all();

  auto stats = std::make_shared<RecoveryStats>();
  const SimTime start = sim_.now();

  // Surviving VMs roll back from their locally cached copy of the last
  // committed checkpoint.
  Bytes restore_worst = 0;
  std::unordered_map<cluster::NodeId, Bytes> per_node;
  for (vm::VmId vmid : cluster_.all_vms()) {
    const checkpoint::StoredCheckpoint* cp = store_.find(vmid, committed_);
    if (cp == nullptr) continue;
    const auto loc = cluster_.locate(vmid);
    VDC_ASSERT(loc.has_value());
    cluster_.node(*loc).hypervisor().get(vmid).image().restore(cp->payload());
    per_node[*loc] += cp->size_bytes();
  }
  for (const auto& [node, bytes] : per_node)
    restore_worst = std::max(restore_worst, bytes);

  // Lost VMs are fetched back from the NAS onto the least-loaded nodes.
  const std::uint64_t rgen = ++recovery_generation_;
  recovery_active_ = true;
  auto fetch_pending = std::make_shared<std::size_t>(0);
  auto finish = [this, rgen, stats, start, done]() {
    if (rgen != recovery_generation_) return;  // aborted
    recovery_active_ = false;
    for (cluster::NodeId nid : cluster_.alive_nodes())
      cluster_.node(nid).hypervisor().resume_all();
    stats->duration = sim_.now() - start;
    stats->success = true;
    auto& metrics = sim_.telemetry().metrics();
    metrics.add("diskfull.recoveries", 1.0);
    metrics.observe("diskfull.recovery_s", stats->duration);
    done(*stats);
  };

  for (const Source& source : sources) {
    const cluster::NodeId target = cluster_.least_loaded_node();
    // Re-create the guest now (content from the durable checkpoint); the
    // fetch time is charged through the NAS read path below.
    auto machine = std::make_unique<vm::VirtualMachine>(
        source.vm, source.info->name, source.info->page_size,
        source.info->page_count, workloads_(source.vm));
    machine->image().restore(source.cp->payload());
    machine->pause();
    cluster_.place(std::move(machine), target);
    ++stats->vms_recovered;
    stats->bytes_transferred += source.cp->size_bytes();

    ++*fetch_pending;
    nas_.fetch(cluster_.node(target).host(), source.cp->size_bytes(),
               [fetch_pending, finish] {
                 if (--*fetch_pending == 0) finish();
               });
  }

  const SimTime local_stall =
      static_cast<double>(restore_worst) / kRestoreRate + hardware::kResumeTime;
  if (sources.empty()) {
    sim_.after(local_stall, finish);
  } else {
    // The local rollback and resume overlap the NAS fetch; charge
    // whichever finishes last by adding the stall before fetches count
    // down. Simplest faithful form: fetches gate completion, plus the
    // local stall as a floor.
    ++*fetch_pending;
    sim_.after(local_stall, [fetch_pending, finish] {
      if (--*fetch_pending == 0) finish();
    });
  }
}

void DiskFullBackend::on_job_restart() {
  committed_ = 0;
  store_.clear();
}

}  // namespace vdc::core
