#include "core/recovery.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "parity/reed_solomon.hpp"

namespace vdc::core {

namespace {

/// Per-recovery bookkeeping shared by the event callbacks.
struct RecoveryCtx {
  RecoveryStats stats;
  SimTime start = 0.0;
  std::size_t groups_pending = 0;
  std::vector<RecoveryManager::DoneCallback> done_holder;
  telemetry::Labels labels;  // {seq=N}, see RecoveryManager::seq_
  telemetry::SpanId reconstruct_span = telemetry::kNoSpan;
  /// Set by RecoveryManager::abort(): every still-scheduled event for
  /// this attempt becomes a no-op and the done callback never fires.
  bool aborted = false;
  /// Every reconstruction stream (inbound and forwards) of this attempt;
  /// abort() cancels them so a dead attempt stops occupying the fabric.
  std::vector<std::shared_ptr<net::ChunkedStream>> streams;
  /// Keeps each group's run state alive for the attempt: the stream and
  /// fold callbacks hold only weak references (to avoid cycles through
  /// GroupRun::pump), so the context owns the strong one.
  std::vector<std::shared_ptr<void>> group_runs;
};

}  // namespace

RecoveryManager::RecoveryManager(simkit::Simulator& sim,
                                 cluster::ClusterManager& cluster,
                                 DvdcState& state, WorkloadFactory workloads,
                                 RecoveryConfig config)
    : sim_(sim),
      cluster_(cluster),
      state_(state),
      workloads_(std::move(workloads)),
      config_(config) {
  VDC_REQUIRE(workloads_ != nullptr, "recovery needs a workload factory");
}

cluster::NodeId RecoveryManager::pick_target(
    const RaidGroup& group,
    const std::unordered_map<cluster::NodeId, std::size_t>& pending_load,
    const std::unordered_set<cluster::NodeId>& claimed) const {
  // Chosen fresh for each lost VM: prefer alive nodes that host neither a
  // member nor a parity block of this group (keeps the plan orthogonal),
  // least-loaded first — counting placements already decided in this
  // recovery pass so the lost VMs spread out.
  std::unordered_set<cluster::NodeId> excluded(claimed.begin(),
                                               claimed.end());
  for (vm::VmId member : group.members) {
    const auto loc = cluster_.locate(member);
    if (loc.has_value()) excluded.insert(*loc);
  }
  if (const auto* record = state_.parity(group.id))
    for (cluster::NodeId holder : record->holders) excluded.insert(holder);
  return cluster_.least_loaded_node(excluded, pending_load);
}

cluster::NodeId RecoveryManager::pick_parity_holder(
    const RaidGroup& group, const DvdcState::ParityRecord& record,
    const std::unordered_map<cluster::NodeId, std::size_t>& pending_load,
    const std::unordered_set<cluster::NodeId>& claimed) const {
  std::unordered_set<cluster::NodeId> excluded(claimed.begin(),
                                               claimed.end());
  for (vm::VmId member : group.members) {
    const auto loc = cluster_.locate(member);
    if (loc.has_value()) excluded.insert(*loc);
  }
  // Keep holders of the stripe's surviving blocks distinct.
  for (std::size_t hi = 0; hi < record.blocks.size(); ++hi)
    if (!record.blocks[hi].empty()) excluded.insert(record.holders[hi]);
  return cluster_.least_loaded_node(excluded, pending_load);
}

bool RecoveryManager::abort() {
  if (!abort_hook_) return false;
  auto hook = std::move(abort_hook_);
  abort_hook_ = nullptr;
  hook();
  sim_.telemetry().metrics().add("recovery.aborted", 1.0);
  return true;
}

void RecoveryManager::recover(const PlacedPlan& plan,
                              std::vector<vm::VmId> lost,
                              DoneCallback done) {
  VDC_REQUIRE(!abort_hook_, "a recovery is already in flight");
  auto ctx = std::make_shared<RecoveryCtx>();
  ctx->start = sim_.now();
  ctx->stats.success = true;
  ctx->labels = telemetry::Labels{{"seq", std::to_string(++seq_)}};
  ctx->done_holder.push_back(std::move(done));
  auto& metrics = sim_.telemetry().metrics();
  // `recovery.attempts` is counted by the supervisor (one per episode
  // round, across every backend), not here, so a manager run and a
  // trivial settle weigh the same.
  // The reconstruct phase covers planning, survivor streams and codec
  // decode; replace/rollback are recorded when their boundaries are known.
  ctx->reconstruct_span =
      sim_.telemetry().begin_span("recovery.reconstruct", ctx->labels);
  abort_hook_ = [this, ctx] {
    ctx->aborted = true;
    for (auto& stream : ctx->streams) stream->cancel();
    ctx->streams.clear();
    // Drop the group engines: their maybe_done/pump closures hold the
    // context, so leaving them in place would cycle ctx <-> GroupRun.
    ctx->group_runs.clear();
    if (ctx->reconstruct_span != telemetry::kNoSpan) {
      sim_.telemetry().end_span(ctx->reconstruct_span);
      ctx->reconstruct_span = telemetry::kNoSpan;
    }
  };

  // Captures by value so it can also fire asynchronously, mid-attempt,
  // when a reconstruction stream dies on the wire (retransmission budget
  // or deadline exhausted). In that case the attempt is torn down like an
  // abort — streams cancelled, group engines dropped — before reporting.
  const auto fail = [this, ctx](std::string reason) {
    if (ctx->aborted) return;  // a cascade abort got here first
    ctx->aborted = true;
    for (auto& stream : ctx->streams) stream->cancel();
    ctx->streams.clear();
    ctx->group_runs.clear();
    abort_hook_ = nullptr;
    auto& metrics = sim_.telemetry().metrics();
    metrics.add("recovery.failures", 1.0,
                telemetry::Labels{{"reason", reason}});
    sim_.telemetry().end_span(ctx->reconstruct_span);
    ctx->reconstruct_span = telemetry::kNoSpan;
    ctx->stats.success = false;
    ctx->stats.reason = std::move(reason);
    ctx->stats.duration = sim_.now() - ctx->start;
    ctx->stats.vms_recovered = static_cast<std::size_t>(
        metrics.value("recovery.vms", ctx->labels));
    ctx->stats.bytes_transferred = static_cast<Bytes>(
        metrics.value("recovery.bytes", ctx->labels));
    ctx->stats.groups_touched = static_cast<std::size_t>(
        metrics.value("recovery.groups", ctx->labels));
    ctx->stats.pipeline_overlap =
        metrics.value("recovery.pipeline.overlap_s", ctx->labels);
    metrics.observe("recovery.duration_s", ctx->stats.duration);
    for (cluster::NodeId nid : cluster_.alive_nodes())
      cluster_.node(nid).hypervisor().resume_all();
    ctx->done_holder.front()(ctx->stats);
  };

  VDC_REQUIRE(!lost.empty(), "recover called with nothing lost");
  if (state_.committed_epoch() == 0) {
    fail("no committed checkpoint epoch yet");
    return;
  }

  // Freeze the cluster during recovery.
  for (cluster::NodeId nid : cluster_.alive_nodes())
    cluster_.node(nid).hypervisor().pause_all();

  // 1. Bucket the losses by RAID group.
  std::map<GroupId, std::vector<vm::VmId>> lost_by_group;
  for (vm::VmId vmid : lost) {
    const auto gid = plan.plan.group_of(vmid);
    if (!gid.has_value()) {
      fail("lost VM is not covered by the group plan");
      return;
    }
    lost_by_group[*gid].push_back(vmid);
  }

  // 2. Reconstruct content per group and lay out the timed operations.
  struct GroupOps {
    cluster::NodeId leader = 0;
    SimTime xor_time = 0.0;
    std::vector<std::pair<net::HostId, Bytes>> inbound;   // -> leader
    std::vector<std::pair<cluster::NodeId, Bytes>> forwards;  // leader ->
    std::vector<PendingVm> vms;
    // Parity blocks lost with their holder are rebuilt during recovery
    // (otherwise the group is unprotected until the next epoch — a second
    // failure in that window would be data loss).
    bool publish_record = false;
    GroupId gid = 0;
    DvdcState::ParityRecord new_record;
  };
  std::vector<GroupOps> ops;

  const checkpoint::Epoch committed = state_.committed_epoch();
  std::unordered_map<cluster::NodeId, std::size_t> pending_load;
  for (auto& [gid, lost_members] : lost_by_group) {
    VDC_REQUIRE(gid < plan.plan.groups.size(), "group id out of range");
    const RaidGroup& group = plan.plan.groups[gid];
    VDC_ASSERT(group.id == gid);

    const DvdcState::ParityRecord* record = state_.parity(gid);
    if (record == nullptr || record->members != group.members ||
        record->epoch != committed) {
      fail("no committed parity stripe for an affected group");
      return;
    }

    const std::size_t k = group.members.size();
    const parity::ReedSolomonCodec codec(k, record->blocks.size());
    std::vector<std::optional<parity::Block>> stripe(k +
                                                     record->blocks.size());

    GroupOps gops;
    std::size_t erasures = 0;
    for (std::size_t mi = 0; mi < k; ++mi) {
      const vm::VmId member = group.members[mi];
      const bool is_lost =
          std::find(lost_members.begin(), lost_members.end(), member) !=
          lost_members.end();
      if (is_lost) {
        ++erasures;
        continue;
      }
      const auto loc = cluster_.locate(member);
      if (!loc.has_value()) {
        fail("surviving member is unplaced");
        return;
      }
      const checkpoint::StoredCheckpoint* cp =
          state_.node_store(*loc).find(member, committed);
      if (cp == nullptr) {
        fail("surviving member lost its committed checkpoint");
        return;
      }
      stripe[mi] = cp->padded_payload(record->block_size);
      gops.inbound.emplace_back(cluster_.node(*loc).host(),
                                record->block_size);
      metrics.add("recovery.served_bytes",
                  static_cast<double>(record->block_size),
                  telemetry::Labels{{"node", std::to_string(*loc)}});
    }
    for (std::size_t hi = 0; hi < record->blocks.size(); ++hi) {
      if (record->blocks[hi].empty()) {
        ++erasures;
        continue;
      }
      stripe[k + hi] = record->blocks[hi];
      if (!cluster_.node(record->holders[hi]).alive()) {
        fail("parity holder marked alive state inconsistent");
        return;
      }
      gops.inbound.emplace_back(cluster_.node(record->holders[hi]).host(),
                                record->block_size);
      metrics.add(
          "recovery.served_bytes", static_cast<double>(record->block_size),
          telemetry::Labels{{"node", std::to_string(record->holders[hi])}});
    }

    if (erasures > codec.parity_blocks()) {
      VDC_INFO("recovery", "group ", gid,
               ": erasure pattern exceeds the codec's fault tolerance");
      fail("erasure pattern exceeds the codec's fault tolerance");
      return;
    }
    try {
      codec.reconstruct(stripe);
    } catch (const DataLossError& e) {
      fail(e.what());
      return;
    }

    // Any parity block that died with its holder was just re-decoded as
    // part of the stripe: publish it on a fresh holder so the group is
    // fully protected again the moment recovery commits.
    gops.gid = gid;
    std::unordered_set<cluster::NodeId> claimed;
    for (std::size_t hi = 0; hi < record->blocks.size(); ++hi) {
      if (!record->blocks[hi].empty()) continue;
      if (!gops.publish_record) {
        gops.new_record = *record;
        gops.publish_record = true;
      }
      // Pick the holder while the slot still reads as empty so the dead
      // block's former (now repaired) node stays eligible.
      const cluster::NodeId new_holder =
          pick_parity_holder(group, gops.new_record, pending_load, claimed);
      gops.new_record.blocks[hi] = *stripe[k + hi];
      ++pending_load[new_holder];
      claimed.insert(new_holder);
      gops.new_record.holders[hi] = new_holder;
    }

    // Assign targets and extract the recovered payloads.
    bool first = true;
    for (std::size_t mi = 0; mi < k; ++mi) {
      const vm::VmId member = group.members[mi];
      if (std::find(lost_members.begin(), lost_members.end(), member) ==
          lost_members.end())
        continue;
      PendingVm pending;
      pending.id = member;
      pending.target = pick_target(group, pending_load, claimed);
      ++pending_load[pending.target];
      claimed.insert(pending.target);
      const VmInfo& info = state_.vm_info(member);
      VDC_ASSERT(stripe[mi].has_value());
      pending.payload.assign(
          stripe[mi]->begin(),
          stripe[mi]->begin() + static_cast<std::ptrdiff_t>(
                                    info.image_bytes()));
      if (first) {
        gops.leader = pending.target;
        first = false;
      } else if (pending.target != gops.leader) {
        gops.forwards.emplace_back(pending.target, info.image_bytes());
      }
      gops.vms.push_back(std::move(pending));
      metrics.add("recovery.vms", 1.0, ctx->labels);
    }

    if (gops.publish_record) {
      // Rebuilt parity blocks travel from the decoding leader to their
      // replacement holders.
      for (std::size_t hi = 0; hi < record->blocks.size(); ++hi)
        if (record->blocks[hi].empty() &&
            gops.new_record.holders[hi] != gops.leader)
          gops.forwards.emplace_back(gops.new_record.holders[hi],
                                     record->block_size);
    }

    Bytes inbound_total = 0;
    for (const auto& [host, bytes] : gops.inbound) inbound_total += bytes;
    gops.xor_time = static_cast<double>(inbound_total) /
                    cluster_.node(gops.leader).spec().xor_rate;
    for (const auto& [host, bytes] : gops.inbound)
      metrics.add("recovery.bytes", static_cast<double>(bytes), ctx->labels);
    for (const auto& [node, bytes] : gops.forwards)
      metrics.add("recovery.bytes", static_cast<double>(bytes), ctx->labels);

    ops.push_back(std::move(gops));
  }
  // Groups that lost only parity (their holder died, no member did):
  // re-encode from the members' committed checkpoints on a new holder.
  for (const auto& group : plan.plan.groups) {
    if (lost_by_group.count(group.id)) continue;
    const DvdcState::ParityRecord* record = state_.parity(group.id);
    if (record == nullptr || record->members != group.members ||
        record->epoch != committed)
      continue;
    bool damaged = false;
    for (const auto& block : record->blocks)
      if (block.empty()) damaged = true;
    if (!damaged) continue;

    std::vector<parity::Block> padded;
    std::vector<parity::BlockView> views;
    GroupOps gops;
    gops.gid = group.id;
    bool complete = true;
    for (vm::VmId member : group.members) {
      const auto loc = cluster_.locate(member);
      if (!loc.has_value()) {
        complete = false;
        break;
      }
      const auto* cp = state_.node_store(*loc).find(member, committed);
      if (cp == nullptr) {
        complete = false;
        break;
      }
      padded.push_back(cp->padded_payload(record->block_size));
      gops.inbound.emplace_back(cluster_.node(*loc).host(),
                                record->block_size);
      metrics.add("recovery.served_bytes",
                  static_cast<double>(record->block_size),
                  telemetry::Labels{{"node", std::to_string(*loc)}});
    }
    if (!complete) continue;  // cannot rebuild; next epoch will
    for (const auto& blk : padded) views.emplace_back(blk);
    const auto fresh =
        parity::ReedSolomonCodec(group.members.size(), record->blocks.size())
            .encode(views);

    gops.new_record = *record;
    gops.publish_record = true;
    std::unordered_set<cluster::NodeId> claimed;
    for (std::size_t hi = 0; hi < record->blocks.size(); ++hi) {
      if (!record->blocks[hi].empty()) continue;
      gops.new_record.blocks[hi] = fresh[hi];
      // Note: the record passed still has this block empty, so the old
      // holder is NOT excluded — the repaired node may take it back.
      DvdcState::ParityRecord probe = gops.new_record;
      probe.blocks[hi].clear();
      const cluster::NodeId new_holder =
          pick_parity_holder(group, probe, pending_load, claimed);
      ++pending_load[new_holder];
      claimed.insert(new_holder);
      gops.new_record.holders[hi] = new_holder;
    }
    // The members stream to the first replacement holder, which encodes.
    gops.leader = gops.new_record.holders.front();
    for (std::size_t hi = 0; hi < record->blocks.size(); ++hi)
      if (record->blocks[hi].empty() &&
          gops.new_record.holders[hi] != gops.leader)
        gops.forwards.emplace_back(gops.new_record.holders[hi],
                                   record->block_size);
    Bytes inbound_total = 0;
    for (const auto& [host, bytes] : gops.inbound) inbound_total += bytes;
    gops.xor_time = static_cast<double>(inbound_total) /
                    cluster_.node(gops.leader).spec().xor_rate;
    for (const auto& [host, bytes] : gops.inbound)
      metrics.add("recovery.bytes", static_cast<double>(bytes), ctx->labels);
    ops.push_back(std::move(gops));
  }

  metrics.set("recovery.groups", static_cast<double>(ops.size()),
              ctx->labels);

  // 3. Timed execution: inbound streams -> XOR -> forwards, per group in
  // parallel; then instantiate VMs, roll everyone back, resume.
  ctx->groups_pending = ops.size();

  // Shared continuation once every group's data movement is done.
  auto ops_shared = std::make_shared<std::vector<GroupOps>>(std::move(ops));
  auto after_all_groups = [this, ctx, ops_shared] {
    if (ctx->aborted) return;
    // All reconstruction data movement and decoding is done.
    sim_.telemetry().end_span(ctx->reconstruct_span);
    ctx->reconstruct_span = telemetry::kNoSpan;
    // Publish rebuilt parity records: the stripes are whole again.
    for (auto& gops : *ops_shared) {
      if (gops.publish_record)
        state_.set_parity(gops.gid, std::move(gops.new_record));
    }
    // Re-create the lost VMs (paused; they resume with everyone else).
    for (auto& gops : *ops_shared) {
      for (auto& pending : gops.vms) {
        const VmInfo& info = state_.vm_info(pending.id);
        auto machine = std::make_unique<vm::VirtualMachine>(
            pending.id, info.name, info.page_size, info.page_count,
            workloads_(pending.id));
        machine->image().restore(pending.payload);
        machine->pause();
        // The recovered checkpoint is this VM's committed state on its
        // new node, so a later failure can recover it again.
        checkpoint::Checkpoint cp;
        cp.vm = pending.id;
        cp.epoch = state_.committed_epoch();
        cp.page_size = info.page_size;
        cp.payload = std::move(pending.payload);
        state_.node_store(pending.target).put(std::move(cp));
        cluster_.place(std::move(machine), pending.target);
      }
    }

    // Global rollback: every surviving VM returns to the committed cut.
    Bytes worst_restore = 0;
    std::unordered_map<cluster::NodeId, Bytes> per_node;
    for (vm::VmId vmid : cluster_.all_vms()) {
      const auto loc = cluster_.locate(vmid);
      VDC_ASSERT(loc.has_value());
      const checkpoint::StoredCheckpoint* cp =
          state_.node_store(*loc).find(vmid, state_.committed_epoch());
      if (cp == nullptr) continue;  // recovered VM already at the cut
      auto& machine = cluster_.node(*loc).hypervisor().get(vmid);
      if (!cp->payload_equals(machine.image().bytes())) {
        // Scatter-gather restore: write the checkpoint's spans (shared
        // page chunks and sub-page patches) straight into the image, no
        // flat materialisation of the payload.
        cp->for_each_span(
            [&](std::size_t off, std::span<const std::byte> bytes) {
              machine.image().restore_range(off, bytes);
            });
      }
      per_node[*loc] += cp->size_bytes();
    }
    for (const auto& [node, bytes] : per_node)
      worst_restore = std::max(worst_restore, bytes);
    const SimTime restore_stall =
        static_cast<double>(worst_restore) / kRestoreRate;

    // Both remaining phase boundaries are known now: re-place (create +
    // resume the rebuilt VMs) then rollback (restore survivors to the
    // committed cut).
    const SimTime replace_start = sim_.now();
    sim_.telemetry().record_span("recovery.replace", replace_start,
                                 replace_start + kResumeTime,
                                 ctx->labels);
    sim_.telemetry().record_span(
        "recovery.rollback", replace_start + kResumeTime,
        replace_start + kResumeTime + restore_stall, ctx->labels);

    sim_.after(kResumeTime + restore_stall, [this, ctx] {
      if (ctx->aborted) return;
      abort_hook_ = nullptr;
      // Break the ctx <-> GroupRun closure cycle now that every group is
      // done (safe here: no GroupRun closure is on the stack).
      ctx->group_runs.clear();
      ctx->streams.clear();
      for (cluster::NodeId nid : cluster_.alive_nodes())
        cluster_.node(nid).hypervisor().resume_all();
      ctx->stats.duration = sim_.now() - ctx->start;
      ctx->stats.success = true;
      auto& metrics = sim_.telemetry().metrics();
      ctx->stats.vms_recovered = static_cast<std::size_t>(
          metrics.value("recovery.vms", ctx->labels));
      ctx->stats.bytes_transferred = static_cast<Bytes>(
          metrics.value("recovery.bytes", ctx->labels));
      ctx->stats.groups_touched = static_cast<std::size_t>(
          metrics.value("recovery.groups", ctx->labels));
      ctx->stats.pipeline_overlap =
          metrics.value("recovery.pipeline.overlap_s", ctx->labels);
      metrics.add("recovery.successes", 1.0);
      metrics.observe("recovery.duration_s", ctx->stats.duration);
      VDC_INFO("recovery", "recovered ", ctx->stats.vms_recovered,
               " VMs in ", ctx->stats.duration, "s");
      ctx->done_holder.front()(ctx->stats);
    });
  };

  if (ops_shared->empty()) {
    sim_.after(0.0, after_all_groups);
    return;
  }

  // Per-group pipelined execution. Inbound contributions stream to the
  // leader sliced per the chunk policy; the leader folds chunk index c as
  // soon as every inbound stream has delivered it (decode overlaps the
  // wire), and paced forward streams are released as the fold frontier
  // advances, so rebuilt data starts travelling to replacement holders
  // after the first rebuilt chunk instead of after the whole decode. With
  // chunking disabled every stream is one chunk and this reduces exactly
  // to the legacy stream-all -> decode -> forward sequence.
  struct GroupRun {
    std::size_t inbound = 0;          // inbound stream count
    Bytes block_size = 0;             // bytes per inbound stream
    std::size_t chunks = 0;           // chunk indices per inbound stream
    double xor_rate = 1.0;
    net::ChunkPolicy chunking;
    std::vector<std::size_t> arrived;  // arrivals per chunk index
    std::size_t streams_finished = 0;
    std::size_t fold_next = 0;         // decode frontier
    bool fold_busy = false;
    bool folds_complete = false;
    bool done_reported = false;
    SimTime fold_started = 0.0;
    SimTime exchange_end = -1.0;       // last inbound chunk arrival
    double overlap = 0.0;              // decode time spent before that
    std::vector<std::shared_ptr<net::ChunkedStream>> forwards;
    std::size_t forwards_pending = 0;
    std::function<void()> pump;        // fold scheduler (weak self-ref)
    std::function<void()> maybe_done;
  };

  const net::ChunkPolicy chunking = config_.chunking;
  for (std::size_t gi = 0; gi < ops_shared->size(); ++gi) {
    auto& gops = (*ops_shared)[gi];
    const net::HostId leader_host = cluster_.node(gops.leader).host();

    auto run = std::make_shared<GroupRun>();
    run->inbound = gops.inbound.size();
    run->block_size = gops.inbound.empty() ? 0 : gops.inbound.front().second;
    run->chunking = chunking;
    run->chunks =
        gops.inbound.empty() ? 0 : chunking.chunk_count(run->block_size);
    run->xor_rate = cluster_.node(gops.leader).spec().xor_rate;
    run->arrived.assign(run->chunks, 0);
    run->forwards_pending = gops.forwards.size();
    ctx->group_runs.push_back(run);
    std::weak_ptr<GroupRun> wr = run;

    run->maybe_done = [ctx, wr, after_all_groups] {
      auto run = wr.lock();
      if (!run || ctx->aborted || run->done_reported) return;
      if (!run->folds_complete || run->forwards_pending > 0) return;
      run->done_reported = true;
      if (--ctx->groups_pending == 0) after_all_groups();
    };

    run->pump = [this, ctx, wr] {
      auto run = wr.lock();
      if (!run || ctx->aborted || run->fold_busy) return;
      if (run->fold_next >= run->chunks) return;
      if (run->arrived[run->fold_next] < run->inbound) return;
      run->fold_busy = true;
      run->fold_started = sim_.now();
      const Bytes chunk =
          run->chunking.chunk_size(run->block_size, run->fold_next);
      const double fold_time =
          static_cast<double>(run->inbound * chunk) / run->xor_rate;
      sim_.after(fold_time, [this, ctx, run] {
        if (ctx->aborted) return;
        run->fold_busy = false;
        const SimTime end = sim_.now();
        if (run->exchange_end < 0.0)
          run->overlap += end - run->fold_started;
        else if (run->fold_started < run->exchange_end)
          run->overlap += run->exchange_end - run->fold_started;
        ++run->fold_next;
        // Rebuilt data up to the frontier may travel: advance each
        // forward's release grant proportionally.
        for (auto& fwd : run->forwards)
          fwd->release_to(fwd->chunks_total() * run->fold_next /
                          run->chunks);
        if (run->fold_next == run->chunks) {
          run->folds_complete = true;
          if (run->chunks > 1)
            sim_.telemetry().metrics().add("recovery.pipeline.overlap_s",
                                           run->overlap, ctx->labels);
          run->pump = nullptr;  // last fold: drop the self-reference
          run->maybe_done();
        } else {
          run->pump();
        }
      });
    };

    // Forward streams exist from the start but are paced: nothing moves
    // until the fold frontier releases chunks.
    for (const auto& [node, bytes] : gops.forwards) {
      auto fwd = net::ChunkedStream::start(
          cluster_.fabric(), leader_host, cluster_.node(node).host(), bytes,
          chunking, {},
          [ctx, wr] {
            auto run = wr.lock();
            if (!run || ctx->aborted) return;
            --run->forwards_pending;
            run->maybe_done();
          },
          /*paced=*/true);
      fwd->set_on_fail([fail](const std::string& why) {
        fail("reconstruction forward stream failed: " + why);
      });
      run->forwards.push_back(fwd);
      ctx->streams.push_back(std::move(fwd));
    }

    if (gops.inbound.empty()) {
      // Nothing to decode (e.g. parity-only rebuild with all members
      // co-located): the forwards may travel immediately.
      sim_.after(0.0, [ctx, wr] {
        auto run = wr.lock();
        if (!run || ctx->aborted) return;
        run->folds_complete = true;
        for (auto& fwd : run->forwards) fwd->release_all();
        run->pump = nullptr;
        run->maybe_done();
      });
      continue;
    }

    for (const auto& [src_host, bytes] : gops.inbound) {
      if (src_host == leader_host) {
        // Contribution already local to the leader (it hosts a survivor
        // or a parity block): every chunk is present at once.
        sim_.after(0.0, [this, ctx, wr] {
          auto run = wr.lock();
          if (!run || ctx->aborted) return;
          for (std::size_t c = 0; c < run->chunks; ++c) ++run->arrived[c];
          if (++run->streams_finished == run->inbound)
            run->exchange_end = sim_.now();
          if (run->pump) run->pump();
        });
        continue;
      }
      auto inbound = net::ChunkedStream::start(
          cluster_.fabric(), src_host, leader_host, bytes, chunking,
          [this, ctx, wr](const net::ChunkedStream::Chunk& c) {
            auto run = wr.lock();
            if (!run || ctx->aborted) return;
            ++run->arrived[c.index];
            if (c.last && ++run->streams_finished == run->inbound)
              run->exchange_end = sim_.now();
            if (run->pump) run->pump();
          });
      inbound->set_on_fail([fail](const std::string& why) {
        fail("reconstruction inbound stream failed: " + why);
      });
      ctx->streams.push_back(std::move(inbound));
    }
  }
}

}  // namespace vdc::core
