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

/// One recovery attempt's bookkeeping, shared by its event callbacks.
struct RecoveryManager::Attempt {
  RecoveryStats stats;
  SimTime start = 0.0;
  std::size_t groups_pending = 0;
  DoneCallback done;
  telemetry::Labels labels;  // {seq=N}, see RecoveryManager::seq_
  telemetry::SpanId reconstruct_span = telemetry::kNoSpan;
  /// Set by settle(): every still-scheduled event of this attempt becomes
  /// a no-op.
  bool settled = false;
  /// Every reconstruction stream (inbound and forwards) of this attempt;
  /// settle() cancels them so a dead attempt stops occupying the fabric.
  std::vector<std::shared_ptr<net::ChunkedStream>> streams;
  /// Keeps each group's run state alive for the attempt: the stream and
  /// fold callbacks hold only weak references (to avoid cycles through
  /// GroupRun::pump), so the attempt owns the strong one.
  std::vector<std::shared_ptr<void>> group_runs;
};

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

cluster::NodeId RecoveryManager::pick_node(
    const RaidGroup& group, std::span<const cluster::NodeId> holders,
    const PendingLoad& pending_load,
    const std::unordered_set<cluster::NodeId>& claimed) const {
  std::unordered_set<cluster::NodeId> excluded(claimed.begin(),
                                               claimed.end());
  for (vm::VmId member : group.members) {
    const auto loc = cluster_.locate(member);
    if (loc.has_value()) excluded.insert(*loc);
  }
  excluded.insert(holders.begin(), holders.end());
  return cluster_.least_loaded_node(excluded, pending_load);
}

bool RecoveryManager::abort() {
  if (!attempt_) return false;
  settle(attempt_, Outcome::kAborted);
  return true;
}

void RecoveryManager::settle(const std::shared_ptr<Attempt>& attempt,
                             Outcome outcome, std::string reason) {
  // Held by value: `attempt` may be a reference to attempt_ itself.
  const std::shared_ptr<Attempt> a = attempt;
  if (a->settled) return;  // e.g. a cascade abort got here first
  a->settled = true;
  VDC_ASSERT(attempt_ == a);  // only the attempt in flight is unsettled
  attempt_.reset();
  for (auto& stream : a->streams) stream->cancel();
  a->streams.clear();
  // Drop the group engines: their maybe_done/pump closures hold the
  // attempt, so leaving them in place would cycle attempt <-> GroupRun.
  a->group_runs.clear();
  auto& telemetry = sim_.telemetry();
  telemetry.end_span(a->reconstruct_span);
  a->reconstruct_span = telemetry::kNoSpan;
  auto& metrics = telemetry.metrics();
  if (outcome == Outcome::kAborted) {
    metrics.add("recovery.aborted", 1.0);
    return;
  }
  const bool success = outcome == Outcome::kSucceeded;
  if (success)
    metrics.add("recovery.successes", 1.0);
  else
    metrics.add("recovery.failures", 1.0,
                telemetry::Labels{{"reason", reason}});
  a->stats.success = success;
  a->stats.reason = std::move(reason);
  a->stats.duration = sim_.now() - a->start;
  a->stats.vms_recovered =
      static_cast<std::size_t>(metrics.value("recovery.vms", a->labels));
  a->stats.bytes_transferred =
      static_cast<Bytes>(metrics.value("recovery.bytes", a->labels));
  a->stats.groups_touched =
      static_cast<std::size_t>(metrics.value("recovery.groups", a->labels));
  a->stats.pipeline_overlap =
      metrics.value("recovery.pipeline.overlap_s", a->labels);
  metrics.observe("recovery.duration_s", a->stats.duration);
  for (cluster::NodeId nid : cluster_.alive_nodes())
    cluster_.node(nid).hypervisor().resume_all();
  if (success)
    VDC_INFO("recovery", "recovered ", a->stats.vms_recovered, " VMs in ",
             a->stats.duration, "s");
  a->done(a->stats);
}

std::optional<RecoveryManager::StripeRebuild> RecoveryManager::plan_rebuild(
    const RaidGroup& group, const std::vector<vm::VmId>& lost,
    PendingLoad& pending_load, const telemetry::Labels& labels,
    std::string& failure) {
  // A stripe that lost members must be rebuilt, so every obstacle fails
  // the recovery; one that lost only parity is left to the next epoch.
  const auto give_up = [&](std::string why) {
    if (!lost.empty()) failure = std::move(why);
    return std::optional<StripeRebuild>{};
  };
  const auto is_lost = [&](vm::VmId member) {
    return std::find(lost.begin(), lost.end(), member) != lost.end();
  };
  std::optional<CommittedStripe> stripe =
      read_committed_stripe(state_, cluster_, group, lost);
  if (!stripe)
    return give_up("no committed parity stripe for an affected group");
  const DvdcState::ParityRecord& record = *stripe->record;
  const std::size_t k = group.members.size();
  const std::size_t m = record.blocks.size();
  const parity::ReedSolomonCodec codec(k, m);
  auto& metrics = sim_.telemetry().metrics();

  StripeRebuild rebuild;
  rebuild.gid = group.id;
  const auto serve = [&](cluster::NodeId node) {
    rebuild.inbound.emplace_back(cluster_.node(node).host(),
                                 record.block_size);
    metrics.add("recovery.served_bytes",
                static_cast<double>(record.block_size),
                telemetry::Labels{{"node", std::to_string(node)}});
  };
  // The decode reads k blocks: every surviving member, then one
  // surviving parity block per lost member, the first ones, which are the
  // rows reconstruct() solves with. A stripe that lost only parity reads
  // just its members and re-encodes.
  std::size_t erasures = 0;
  for (std::size_t mi = 0; mi < k; ++mi) {
    if (is_lost(group.members[mi])) {
      ++erasures;
      continue;
    }
    if (!stripe->members[mi]) return give_up(stripe->unreadable);
    serve(stripe->nodes[mi]);
  }
  std::size_t parity_read = 0;
  for (std::size_t hi = 0; hi < m; ++hi) {
    if (record.blocks[hi].empty()) {
      ++erasures;
      continue;
    }
    if (parity_read == lost.size()) continue;
    if (!cluster_.node(record.holders[hi]).alive())
      return give_up("parity holder marked alive state inconsistent");
    serve(record.holders[hi]);
    ++parity_read;
  }
  if (erasures > m) {
    VDC_INFO("recovery", "group ", group.id,
             ": erasure pattern exceeds the codec's fault tolerance");
    return give_up("erasure pattern exceeds the codec's fault tolerance");
  }
  std::vector<std::optional<parity::Block>> blocks =
      std::move(stripe->members);
  for (const parity::Block& block : record.blocks)
    blocks.push_back(block.empty() ? std::nullopt
                                   : std::optional<parity::Block>(block));
  try {
    codec.reconstruct(blocks);
  } catch (const DataLossError& e) {
    return give_up(e.what());
  }

  // Replacement nodes, parity first, each claimed so the stripe stays
  // orthogonal. A rebuilt parity block may return to its dead holder's
  // (repaired) node, so only the holders of surviving blocks are
  // excluded; a lost member avoids every node the record names.
  std::vector<cluster::NodeId> kept_holders;
  for (std::size_t hi = 0; hi < m; ++hi)
    if (!record.blocks[hi].empty()) kept_holders.push_back(record.holders[hi]);
  std::unordered_set<cluster::NodeId> claimed;
  const auto claim = [&](cluster::NodeId node) {
    ++pending_load[node];
    claimed.insert(node);
    return node;
  };
  rebuild.publish_record = kept_holders.size() < m;
  if (rebuild.publish_record) rebuild.record = record;
  std::vector<cluster::NodeId> new_holders;
  for (std::size_t hi = 0; hi < m; ++hi) {
    if (!record.blocks[hi].empty()) continue;
    rebuild.record.holders[hi] =
        claim(pick_node(group, kept_holders, pending_load, claimed));
    rebuild.record.blocks[hi] = std::move(*blocks[k + hi]);
    new_holders.push_back(rebuild.record.holders[hi]);
  }
  for (std::size_t mi = 0; mi < k; ++mi) {
    const vm::VmId member = group.members[mi];
    if (!is_lost(member)) continue;
    PendingVm pending;
    pending.id = member;
    pending.target =
        claim(pick_node(group, record.holders, pending_load, claimed));
    const Bytes image_bytes = state_.vm_info(member).image_bytes();
    pending.payload.assign(
        blocks[mi]->begin(),
        blocks[mi]->begin() + static_cast<std::ptrdiff_t>(image_bytes));
    rebuild.vms.push_back(std::move(pending));
    metrics.add("recovery.vms", 1.0, labels);
  }

  // The leader decodes: the new node of the first lost block in stripe
  // order (the first lost member's, or, when only parity was lost, the
  // first rebuilt parity block's holder). It forwards every other rebuilt
  // block to its new node.
  rebuild.leader = rebuild.vms.empty() ? new_holders.front()
                                       : rebuild.vms.front().target;
  for (const PendingVm& pending : rebuild.vms)
    if (pending.target != rebuild.leader)
      rebuild.forwards.emplace_back(
          pending.target, state_.vm_info(pending.id).image_bytes());
  for (cluster::NodeId holder : new_holders)
    if (holder != rebuild.leader)
      rebuild.forwards.emplace_back(holder, record.block_size);

  for (const auto& [host, bytes] : rebuild.inbound)
    metrics.add("recovery.bytes", static_cast<double>(bytes), labels);
  for (const auto& [node, bytes] : rebuild.forwards)
    metrics.add("recovery.bytes", static_cast<double>(bytes), labels);
  return rebuild;
}

void RecoveryManager::recover(const PlacedPlan& plan,
                              std::vector<vm::VmId> lost,
                              DoneCallback done) {
  VDC_REQUIRE(!attempt_, "a recovery is already in flight");
  auto attempt = std::make_shared<Attempt>();
  attempt_ = attempt;
  attempt->start = sim_.now();
  attempt->labels = telemetry::Labels{{"seq", std::to_string(++seq_)}};
  attempt->done = std::move(done);
  // `recovery.attempts` is counted by the supervisor (one per episode
  // round, across every backend), not here, so a manager run and a
  // trivial settle weigh the same.
  // The reconstruct phase covers planning, survivor streams and codec
  // decode; replace/rollback are recorded when their boundaries are known.
  attempt->reconstruct_span =
      sim_.telemetry().begin_span("recovery.reconstruct", attempt->labels);

  VDC_REQUIRE(!lost.empty(), "recover called with nothing lost");
  if (state_.committed_epoch() == 0) {
    settle(attempt, Outcome::kFailed, "no committed checkpoint epoch yet");
    return;
  }

  // Freeze the cluster during recovery.
  for (cluster::NodeId nid : cluster_.alive_nodes())
    cluster_.node(nid).hypervisor().pause_all();

  // 1. The damaged stripes, in rebuild order: those that lost members,
  // then those that lost only parity (their holder died, no member did),
  // each by group id.
  std::map<GroupId, std::vector<vm::VmId>> lost_by_group;
  for (vm::VmId vmid : lost) {
    const auto gid = plan.plan.group_of(vmid);
    if (!gid.has_value()) {
      settle(attempt, Outcome::kFailed,
             "lost VM is not covered by the group plan");
      return;
    }
    lost_by_group[*gid].push_back(vmid);
  }
  std::vector<std::pair<GroupId, std::vector<vm::VmId>>> damaged(
      lost_by_group.begin(), lost_by_group.end());
  for (const auto& group : plan.plan.groups) {
    if (lost_by_group.count(group.id)) continue;
    const DvdcState::ParityRecord* record = state_.parity(group.id);
    if (record != nullptr &&
        std::any_of(record->blocks.begin(), record->blocks.end(),
                    [](const parity::Block& b) { return b.empty(); }))
      damaged.emplace_back(group.id, std::vector<vm::VmId>{});
  }

  // 2. Rebuild content per stripe and lay out the timed operations.
  std::vector<StripeRebuild> ops;
  PendingLoad pending_load;
  for (const auto& [gid, lost_members] : damaged) {
    VDC_REQUIRE(gid < plan.plan.groups.size(), "group id out of range");
    const RaidGroup& group = plan.plan.groups[gid];
    VDC_ASSERT(group.id == gid);
    std::string failure;
    auto rebuild = plan_rebuild(group, lost_members, pending_load,
                                attempt->labels, failure);
    if (!failure.empty()) {
      settle(attempt, Outcome::kFailed, std::move(failure));
      return;
    }
    if (rebuild) ops.push_back(std::move(*rebuild));
  }

  sim_.telemetry().metrics().set("recovery.groups",
                                 static_cast<double>(ops.size()),
                                 attempt->labels);

  // 3. Timed execution: inbound streams -> fold -> forwards, per stripe
  // in parallel; then publish parity, re-create the lost VMs, roll
  // everyone back and resume.
  auto shared_ops =
      std::make_shared<std::vector<StripeRebuild>>(std::move(ops));
  auto after_all = [this, attempt, shared_ops] {
    if (attempt->settled) return;
    // All reconstruction data movement and decoding is done.
    sim_.telemetry().end_span(attempt->reconstruct_span);
    attempt->reconstruct_span = telemetry::kNoSpan;
    // Publish rebuilt parity records: the stripes are whole again.
    for (auto& rebuild : *shared_ops)
      if (rebuild.publish_record)
        state_.set_parity(rebuild.gid, std::move(rebuild.record));
    // Re-create the lost VMs (paused; they resume with everyone else).
    for (auto& rebuild : *shared_ops) {
      for (auto& pending : rebuild.vms) {
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
                                 attempt->labels);
    sim_.telemetry().record_span(
        "recovery.rollback", replace_start + kResumeTime,
        replace_start + kResumeTime + restore_stall, attempt->labels);

    sim_.after(kResumeTime + restore_stall, [this, attempt] {
      if (!attempt->settled) settle(attempt, Outcome::kSucceeded);
    });
  };

  if (shared_ops->empty()) {
    sim_.after(0.0, after_all);
    return;
  }
  run_rebuilds(attempt, *shared_ops, std::move(after_all));
}

void RecoveryManager::run_rebuilds(const std::shared_ptr<Attempt>& attempt,
                                   const std::vector<StripeRebuild>& ops,
                                   std::function<void()> after_all) {
  // Per-stripe pipelined execution. Inbound contributions stream to the
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

  const auto fail = [this, attempt](std::string reason) {
    settle(attempt, Outcome::kFailed, std::move(reason));
  };
  const net::ChunkPolicy chunking = config_.chunking;
  attempt->groups_pending = ops.size();
  for (const StripeRebuild& rebuild : ops) {
    // A stripe always streams k blocks (k >= 1), so there is a decode.
    VDC_ASSERT(!rebuild.inbound.empty());
    const net::HostId leader_host = cluster_.node(rebuild.leader).host();

    auto run = std::make_shared<GroupRun>();
    run->inbound = rebuild.inbound.size();
    run->block_size = rebuild.inbound.front().second;
    run->chunking = chunking;
    run->chunks = chunking.chunk_count(run->block_size);
    run->xor_rate = cluster_.node(rebuild.leader).spec().xor_rate;
    run->arrived.assign(run->chunks, 0);
    run->forwards_pending = rebuild.forwards.size();
    attempt->group_runs.push_back(run);
    std::weak_ptr<GroupRun> wr = run;

    run->maybe_done = [attempt, wr, after_all] {
      auto run = wr.lock();
      if (!run || attempt->settled || run->done_reported) return;
      if (!run->folds_complete || run->forwards_pending > 0) return;
      run->done_reported = true;
      if (--attempt->groups_pending == 0) after_all();
    };

    run->pump = [this, attempt, wr] {
      auto run = wr.lock();
      if (!run || attempt->settled || run->fold_busy) return;
      if (run->fold_next >= run->chunks) return;
      if (run->arrived[run->fold_next] < run->inbound) return;
      run->fold_busy = true;
      run->fold_started = sim_.now();
      const Bytes chunk =
          run->chunking.chunk_size(run->block_size, run->fold_next);
      const double fold_time =
          static_cast<double>(run->inbound * chunk) / run->xor_rate;
      sim_.after(fold_time, [this, attempt, run] {
        if (attempt->settled) return;
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
                                           run->overlap, attempt->labels);
          run->pump = nullptr;  // last fold: drop the self-reference
          run->maybe_done();
        } else {
          run->pump();
        }
      });
    };

    // Forward streams exist from the start but are paced: nothing moves
    // until the fold frontier releases chunks.
    for (const auto& [node, bytes] : rebuild.forwards) {
      auto fwd = net::ChunkedStream::start(
          cluster_.fabric(), leader_host, cluster_.node(node).host(), bytes,
          chunking, {},
          [attempt, wr] {
            auto run = wr.lock();
            if (!run || attempt->settled) return;
            --run->forwards_pending;
            run->maybe_done();
          },
          /*paced=*/true);
      fwd->set_on_fail([fail](const std::string& why) {
        fail("reconstruction forward stream failed: " + why);
      });
      run->forwards.push_back(fwd);
      attempt->streams.push_back(std::move(fwd));
    }

    for (const auto& [src_host, bytes] : rebuild.inbound) {
      if (src_host == leader_host) {
        // Contribution already local to the leader (it hosts a survivor
        // or a parity block): every chunk is present at once.
        sim_.after(0.0, [this, attempt, wr] {
          auto run = wr.lock();
          if (!run || attempt->settled) return;
          for (std::size_t c = 0; c < run->chunks; ++c) ++run->arrived[c];
          if (++run->streams_finished == run->inbound)
            run->exchange_end = sim_.now();
          if (run->pump) run->pump();
        });
        continue;
      }
      auto inbound = net::ChunkedStream::start(
          cluster_.fabric(), src_host, leader_host, bytes, chunking,
          [this, attempt, wr](const net::ChunkedStream::Chunk& c) {
            auto run = wr.lock();
            if (!run || attempt->settled) return;
            ++run->arrived[c.index];
            if (c.last && ++run->streams_finished == run->inbound)
              run->exchange_end = sim_.now();
            if (run->pump) run->pump();
          });
      inbound->set_on_fail([fail](const std::string& why) {
        fail("reconstruction inbound stream failed: " + why);
      });
      attempt->streams.push_back(std::move(inbound));
    }
  }
}

}  // namespace vdc::core
