#include "core/recovery.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
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
  std::size_t folds_pending = 0;  // read blocks not yet folded on a target
  DoneCallback done;
  telemetry::Labels labels;  // {seq=N}, see RecoveryManager::seq_
  telemetry::SpanId reconstruct_span = telemetry::kNoSpan;
  /// The span the phases nest under (the episode's root, when traced).
  telemetry::SpanId parent = telemetry::kNoSpan;
  /// When the reconstruction finished and re-placement began; unset
  /// until then. settle() records replace and rollback from here.
  std::optional<SimTime> replace_start;
  /// Set by settle(): every still-scheduled event of this attempt becomes
  /// a no-op.
  bool settled = false;
  /// Every reconstruction stream of this attempt; settle() cancels them
  /// so a dead attempt stops occupying the fabric.
  std::vector<std::shared_ptr<net::ChunkedStream>> streams;
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
    std::span<const cluster::NodeId> claimed) const {
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
  auto& telemetry = sim_.telemetry();
  telemetry.end_span(a->reconstruct_span);
  a->reconstruct_span = telemetry::kNoSpan;
  if (a->replace_start) {
    // Replace, then rollback, each as far as it ran: in full when the
    // attempt succeeds, cut here when a cascade aborts it.
    const SimTime now = sim_.now();
    const SimTime rollback_start = *a->replace_start + hardware::kResumeTime;
    telemetry.record_span("recovery.replace", *a->replace_start,
                          std::min(now, rollback_start), a->labels,
                          a->parent);
    if (now >= rollback_start)
      telemetry.record_span("recovery.rollback", rollback_start, now,
                            a->labels, a->parent);
  }
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
  rebuild.block_size = record.block_size;
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
    rebuild.reads.push_back(stripe->nodes[mi]);
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
    rebuild.reads.push_back(record.holders[hi]);
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
  const auto claim = [&](std::span<const cluster::NodeId> holders) {
    const cluster::NodeId node =
        pick_node(group, holders, pending_load, rebuild.targets);
    ++pending_load[node];
    rebuild.targets.push_back(node);
    return node;
  };
  rebuild.publish_record = kept_holders.size() < m;
  if (rebuild.publish_record) rebuild.record = record;
  for (std::size_t hi = 0; hi < m; ++hi) {
    if (!record.blocks[hi].empty()) continue;
    rebuild.record.holders[hi] = claim(kept_holders);
    rebuild.record.blocks[hi] = std::move(*blocks[k + hi]);
  }
  for (std::size_t mi = 0; mi < k; ++mi) {
    const vm::VmId member = group.members[mi];
    if (!is_lost(member)) continue;
    PendingVm pending;
    pending.id = member;
    pending.target = claim(record.holders);
    const Bytes image_bytes = state_.vm_info(member).image_bytes();
    pending.payload.assign(
        blocks[mi]->begin(),
        blocks[mi]->begin() + static_cast<std::ptrdiff_t>(image_bytes));
    rebuild.vms.push_back(std::move(pending));
    metrics.add("recovery.vms", 1.0, labels);
  }

  // Every lost block is rebuilt on its new node from all k read blocks,
  // so each read node serves its block once per lost block.
  const double per_read =
      static_cast<double>(record.block_size * rebuild.targets.size());
  for (cluster::NodeId node : rebuild.reads)
    metrics.add("recovery.served_bytes", per_read,
                telemetry::Labels{{"node", std::to_string(node)}});
  metrics.add("recovery.bytes",
              per_read * static_cast<double>(rebuild.reads.size()), labels);
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
  // decode; replace/rollback are recorded when the attempt settles.
  attempt->parent = sim_.telemetry().current_span();
  attempt->reconstruct_span = sim_.telemetry().begin_span(
      "recovery.reconstruct", attempt->labels, attempt->parent);

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

  // 3. Timed execution: stream and fold every lost block on its new node;
  // then publish parity, re-create the lost VMs, roll everyone back and
  // resume.
  VDC_ASSERT(!ops.empty());  // every lost VM's stripe is rebuilt or failed
  run_rebuilds(attempt, std::make_shared<std::vector<StripeRebuild>>(
                            std::move(ops)));
}

void RecoveryManager::run_rebuilds(
    const std::shared_ptr<Attempt>& attempt,
    const std::shared_ptr<std::vector<StripeRebuild>>& ops) {
  // Each lost block's k read blocks stream straight to its new node, sliced
  // per the chunk policy, and every landed chunk folds there on the node's
  // fold queue while later chunks are still on the wire. The rebuild is
  // done when the last fold is.
  const auto folded = [this, attempt, ops] {
    if (!attempt->settled && --attempt->folds_pending == 0)
      replace_and_roll_back(attempt, *ops);
  };
  for (const StripeRebuild& rebuild : *ops)
    attempt->folds_pending += rebuild.targets.size() * rebuild.reads.size();
  for (const StripeRebuild& rebuild : *ops) {
    for (cluster::NodeId target : rebuild.targets) {
      for (cluster::NodeId read : rebuild.reads) {
        auto stream =
            stream_and_fold(cluster_, read, target, rebuild.block_size,
                            rebuild.block_size, config_.chunking, {},
                            folded);
        if (!stream) continue;  // the target holds this block itself
        stream->set_on_fail([this, attempt](const std::string& why) {
          settle(attempt, Outcome::kFailed,
                 "reconstruction stream failed: " + why);
        });
        attempt->streams.push_back(std::move(stream));
      }
    }
  }
}

void RecoveryManager::replace_and_roll_back(
    const std::shared_ptr<Attempt>& attempt,
    std::vector<StripeRebuild>& ops) {
  // All reconstruction data movement and decoding is done.
  sim_.telemetry().end_span(attempt->reconstruct_span);
  attempt->reconstruct_span = telemetry::kNoSpan;
  // Publish rebuilt parity records: the stripes are whole again.
  for (auto& rebuild : ops)
    if (rebuild.publish_record)
      state_.set_parity(rebuild.gid, std::move(rebuild.record));
  // Re-create the lost VMs (paused; they resume with everyone else).
  for (auto& rebuild : ops) {
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

  // Re-place (create + resume the rebuilt VMs), then rollback (restore
  // survivors to the committed cut).
  attempt->replace_start = sim_.now();
  sim_.after(hardware::kResumeTime + restore_stall, [this, attempt] {
    if (!attempt->settled) settle(attempt, Outcome::kSucceeded);
  });
}

}  // namespace vdc::core
