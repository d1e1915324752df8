#pragma once
// The DVDC coordinated checkpoint protocol (paper Section IV-B/IV-C).
//
// One checkpoint epoch:
//   1. quiesce  — pause every guest for a cluster-consistent cut; capture
//                 each VM's image (content frozen at the cut) and diff it
//                 against the last committed checkpoint;
//   2. resume   — with copy-on-write capture the guests resume after just
//                 the base overhead; otherwise they stay paused through 3-4
//                 (overhead == latency, the synchronous variant);
//   3. exchange — every group member streams its checkpoint (full on the
//                 first epoch / after a re-plan, XOR+RLE delta afterwards)
//                 to the group's parity holder(s) over the real fabric, so
//                 fan-in contention is measured, not assumed;
//   4. parity   — each holder folds arriving contributions into its
//                 committed parity block in place, one at a time on its
//                 fold queue (stream_and_fold); an abort folds the
//                 bytes already fed a second time, which restores the
//                 stripe because GF(2^8) has characteristic 2;
//   5. commit   — when every group's parity is complete the coordinator
//                 commits the epoch, old checkpoints are garbage-collected
//                 and the epoch's stats are reported.
//
// Parity schemes: Raid5 (the paper's single XOR parity, run as RS(k,1))
// and Rs (scaled Cauchy Reed-Solomon over GF(256), any m; m = 2 stands in
// for the RDP double-erasure extension the paper cites). Both support the
// parity-delta wire path: after the first epoch each member ships only
// old^new of its dirty pages ("VDD1" frames) and each holder folds the
// delta, scaled by its generator coefficient, into its standing block at
// the member's own offset — so exchange traffic is O(dirty), not O(image).
//
// A failure mid-epoch calls abort(): in-flight state is discarded and the
// previous committed epoch remains recoverable.

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>

#include "checkpoint/store.hpp"
#include "cluster/manager.hpp"
#include "common/hardware.hpp"
#include "core/plan.hpp"
#include "net/chunked_stream.hpp"
#include "parity/codec.hpp"
#include "telemetry/telemetry.hpp"

namespace vdc::core {

enum class ParityScheme {
  Raid5,  // one XOR parity block per group; survives one loss per group
  Rs,     // Reed-Solomon over GF(256); m holders; survives m losses
};

/// Parity blocks per group under a scheme (`rs_m` applies to Rs only).
std::size_t parity_width(ParityScheme scheme, std::size_t rs_m = 2);

struct ProtocolConfig {
  ParityScheme scheme = ParityScheme::Raid5;
  /// Parity blocks per group when scheme == Rs (fault tolerance m).
  std::size_t rs_parity = 2;
  /// Ship page deltas (XOR+RLE "VDD1" frames) after the first epoch
  /// instead of full images, under both schemes.
  bool incremental = true;
  /// Copy-on-write capture: guests resume after `base_overhead` while the
  /// exchange and XOR proceed against the frozen view.
  bool copy_on_write = true;
  /// Exchange streaming: slice each (member, holder) contribution into
  /// `chunking.chunk_bytes` segments with at most net::kPipelineDepth in
  /// flight, folding every chunk into parity as it arrives (decode
  /// overlaps the wire). chunk_bytes == 0 (default) ships each
  /// contribution as one flow, exactly the pre-chunking behaviour.
  net::ChunkPolicy chunking;
  /// Guest suspend + device quiesce cost (the paper's 40 ms).
  SimTime base_overhead = hardware::kBaseOverhead;
  /// Memory-copy rate for non-COW local capture while paused.
  Rate snapshot_rate = gib_per_s(8);
  /// Coordinator commit broadcast latency.
  SimTime commit_latency = 1e-3;
};

struct EpochStats {
  checkpoint::Epoch epoch = 0;
  SimTime overhead = 0.0;       // guests suspended
  SimTime latency = 0.0;        // quiesce start -> commit
  Bytes bytes_shipped = 0;      // wire bytes over the fabric
  Bytes delta_bytes = 0;        // the subset shipped as VDD1 delta frames
  Bytes trim_bytes = 0;         // what trim-only encoding would have shipped
  Bytes bytes_xored = 0;        // parity work
  Bytes raw_dirty_bytes = 0;    // changed pages before compression
  std::size_t groups = 0;
  /// Peak held guest egress (serve.output_held_bytes) over the window
  /// ending at this epoch's commit; filled by the runtime when the
  /// serving plane is on, 0 otherwise. Input to the adaptive interval
  /// policy's back-pressure term.
  Bytes held_egress_peak = 0;
  bool full_exchange = false;   // at least one group shipped full images
  /// False when the epoch was aborted because an exchange transfer died on
  /// the wire (retransmission attempts / deadline exhausted). The previous
  /// committed checkpoint remains the recovery point.
  bool committed = true;
};

/// A plan with its parity holders pinned. Holders stay fixed across epochs
/// (like RAID-5 stripes, rotation is across groups); they only move when
/// the plan is rebuilt after a membership or placement change.
struct PlacedPlan {
  GroupPlan plan;
  std::vector<std::vector<cluster::NodeId>> holders;  // [group][parity idx]

  /// Pin each group's holders. Throws ConfigError when a group has too few
  /// parity-eligible nodes, or when m >= 2 and k + m > 256 (RS over
  /// GF(256) has no wider code), so a bad plan fails before any epoch.
  static PlacedPlan make(GroupPlan plan,
                         const cluster::ClusterManager& cluster,
                         ParityScheme scheme = ParityScheme::Raid5,
                         std::size_t rs_m = 2);

  /// True while the placement still provides full protection: the group
  /// plan validates AND every pinned holder is alive and hosts no member
  /// of its group (a holder-member collision would make one node failure
  /// a double erasure). Recovery re-placement can break this; the DVDC
  /// backend re-plans when it does.
  bool still_orthogonal(const cluster::ClusterManager& cluster) const;
};

/// Per-VM facts that must survive the VM's node (used to rebuild it).
struct VmInfo {
  std::string name;
  Bytes page_size = 0;
  std::size_t page_count = 0;
  Bytes image_bytes() const { return page_size * page_count; }
};

/// Protocol state that survives across epochs and is visible to recovery:
/// per-node checkpoint stores, per-group committed parity stripes, and the
/// VM metadata registry.
class DvdcState {
 public:
  struct ParityRecord {
    checkpoint::Epoch epoch = 0;
    ParityScheme scheme = ParityScheme::Raid5;
    std::vector<vm::VmId> members;              // stripe membership
    std::vector<cluster::NodeId> holders;       // m nodes
    std::vector<parity::Block> blocks;          // m blocks, same size
    Bytes block_size = 0;                       // padded stripe width
  };

  checkpoint::CheckpointStore& node_store(cluster::NodeId node) {
    return stores_[node];
  }

  const ParityRecord* parity(GroupId group) const;
  /// Mutable access for the coordinator's in-place delta folds. Callers
  /// must keep every block's SIZE unchanged (byte accounting is by size);
  /// abort unwinds content-only mutation by refolding.
  ParityRecord* mutable_parity(GroupId group);
  void set_parity(GroupId group, ParityRecord record);
  void drop_parity(GroupId group);

  checkpoint::Epoch committed_epoch() const { return committed_; }
  void set_committed_epoch(checkpoint::Epoch e) { committed_ = e; }

  void register_vm(vm::VmId id, VmInfo info) { vms_[id] = std::move(info); }
  const VmInfo& vm_info(vm::VmId id) const;

  /// Drop every checkpoint held on a failed node and invalidate parity
  /// blocks that lived there (stripes keep their surviving blocks).
  void drop_node(cluster::NodeId node);

  /// Total in-memory bytes devoted to checkpoints + parity (the paper's
  /// "modest memory overhead"). Checkpoint bytes are RESIDENT bytes (a
  /// page shared by two epochs counts once). Reads running totals — no
  /// walk over blocks or entries.
  Bytes memory_bytes() const;

  /// Bytes held in sub-page patch buffers across all stores (the fast
  /// plane's extra cost for sharing a base page the guest barely touched;
  /// included in memory_bytes()).
  Bytes patch_bytes() const;

  /// True while the coordinator is folding deltas into committed parity
  /// blocks in place (epoch start until commit/abort). The scrubber must
  /// defer repairs while set: a half-folded stripe is not corruption.
  bool fold_in_flight() const { return fold_in_flight_; }
  void set_fold_in_flight(bool v) { fold_in_flight_ = v; }

 private:
  static Bytes record_block_bytes(const ParityRecord& record);

  std::unordered_map<cluster::NodeId, checkpoint::CheckpointStore> stores_;
  std::map<GroupId, ParityRecord> parity_;
  std::unordered_map<vm::VmId, VmInfo> vms_;
  checkpoint::Epoch committed_ = 0;
  Bytes parity_bytes_ = 0;  // running total over parity_ block sizes
  bool fold_in_flight_ = false;
};

/// A group's committed stripe where it lies now: its parity record, and
/// each member's checkpoint at the committed epoch on the node that hosts
/// the member. Recovery rebuilds from it and scrub verifies it; neither
/// gathers a stripe any other way.
struct CommittedStripe {
  const DvdcState::ParityRecord* record = nullptr;
  /// Per member: its checkpoint zero-padded to the record's block size, or
  /// nullopt for a member the caller erased and for every member from the
  /// first unreadable one on.
  std::vector<std::optional<parity::Block>> members;
  /// Per read member: the node serving its block.
  std::vector<cluster::NodeId> nodes;
  /// Why the first member outside `erased` could not be read; nullptr when
  /// every one was.
  const char* unreadable = nullptr;
};

/// `group`'s committed stripe, or nullopt when `state` holds none for it
/// (no record, a record of other members, or one from an older epoch).
/// Members in `erased` are not read.
std::optional<CommittedStripe> read_committed_stripe(
    DvdcState& state, const cluster::ClusterManager& cluster,
    const RaidGroup& group, std::span<const vm::VmId> erased = {});

/// Streams a `wire`-byte block from node `src` to node `dst` and folds it
/// there: the one way a block reaches a node to be folded, for the epoch
/// exchange, the rebuild and the scrub alike. Each landed chunk runs
/// `on_chunk`, which may refuse it (return false: nothing more happens for
/// that chunk). An accepted chunk queues its share of `fold_bytes`, at
/// dst's xor_rate, on dst's fold queue; `on_folded` runs when the last
/// chunk's fold is done. A block with src == dst, or with nothing on the
/// wire, lands whole at once as one chunk and nullptr is returned;
/// otherwise the stream is, for cancel(), set_on_fail() and
/// set_stream_tag().
std::shared_ptr<net::ChunkedStream> stream_and_fold(
    cluster::ClusterManager& cluster, cluster::NodeId src,
    cluster::NodeId dst, Bytes wire, Bytes fold_bytes,
    const net::ChunkPolicy& policy,
    std::function<bool(const net::ChunkedStream::Chunk&)> on_chunk,
    std::function<void()> on_folded);

class DvdcCoordinator {
 public:
  using DoneCallback = std::function<void(const EpochStats&)>;
  using CommitGate =
      std::function<void(checkpoint::Epoch epoch, SimTime earliest,
                         std::function<void(bool commit)> proceed)>;

  DvdcCoordinator(simkit::Simulator& sim, cluster::ClusterManager& cluster,
                  DvdcState& state, ProtocolConfig config = {});
  ~DvdcCoordinator();  // out of line: GroupWork is incomplete here

  /// Run one checkpoint epoch over `plan`. `done` fires at commit.
  /// One epoch at a time.
  void run_epoch(const PlacedPlan& plan, checkpoint::Epoch epoch,
                 DoneCallback done);

  /// Abort the in-flight epoch (a failure interrupted it). Captured
  /// checkpoints and parity copies for the aborted epoch are discarded;
  /// guests are left as the failure handler finds them.
  void abort();

  bool epoch_in_flight() const { return in_flight_; }
  const ProtocolConfig& config() const { return config_; }

  /// Install (or clear) the two-phase commit hook; the runtime wires it
  /// to the replicated control plane's quorum-logged epoch-commit record
  /// once both exist. When set, the coordinator calls it at the commit
  /// point instead of scheduling try_commit directly: `epoch` is the epoch
  /// about to commit, `earliest` = now + commit_latency is the soonest the
  /// commit may take effect (so a quorum that answers faster than the
  /// broadcast latency cannot make the gated run commit earlier than the
  /// ungated one), and `proceed(true/false)` finishes or aborts the epoch.
  void set_commit_gate(CommitGate gate) { commit_gate_ = std::move(gate); }

 private:
  struct GroupWork;
  // Data-plane capture + parity for one group (gw.full_exchange already
  // decided): consumes the dirty log and folds in place.
  void capture_group(
      GroupWork& gw, const RaidGroup& group,
      std::unordered_map<cluster::NodeId, Bytes>& captured_per_node,
      std::int64_t& capture_ns, std::int64_t& fold_ns);
  /// One chunk of a (member, holder) stream landed: reject a fenced
  /// sender, feed the delta-ingest reader (folding any newly in-order
  /// bytes into parity straight off the wire), and on the stream's last
  /// chunk retire the exchange arrival. Returns whether the chunk's
  /// simulated fold is charged (false for a stale or rejected chunk).
  bool on_chunk_arrival(std::uint64_t generation, std::size_t group_idx,
                        std::size_t member_idx, std::size_t holder_idx,
                        const net::ChunkedStream::Chunk& chunk);
  /// Advance the in-order ingest frontier of one (member, holder) stream
  /// past `chunk_index` and fold the newly contiguous bytes.
  void ingest_chunk(GroupWork& gw, std::size_t member_idx,
                    std::size_t holder_idx, std::size_t chunk_index);
  void on_group_parity_done(std::uint64_t generation,
                            std::size_t group_idx);
  /// An exchange stream exhausted its retransmission budget or deadline:
  /// abort the epoch and complete `done` with `committed = false`.
  void on_stream_failed(std::uint64_t generation, const std::string& reason);
  void try_commit(std::uint64_t generation);

  simkit::Simulator& sim_;
  cluster::ClusterManager& cluster_;
  DvdcState& state_;
  ProtocolConfig config_;
  CommitGate commit_gate_;

  // In-flight epoch.
  bool in_flight_ = false;
  std::uint64_t generation_ = 0;  // bumped by abort(); stale events no-op
  const PlacedPlan* plan_ = nullptr;
  checkpoint::Epoch epoch_ = 0;
  SimTime epoch_start_ = 0.0;
  SimTime overhead_ = 0.0;
  DoneCallback done_;
  EpochStats stats_;
  std::vector<std::unique_ptr<GroupWork>> work_;
  std::size_t groups_pending_ = 0;
  /// Exchange streams of the in-flight epoch; abort() cancels them so an
  /// aborted epoch's traffic stops occupying the fabric.
  std::vector<std::shared_ptr<net::ChunkedStream>> streams_;

  // Telemetry for the in-flight epoch. Phase spans exactly partition
  // [epoch_start_, commit]: quiesce | capture | resume | exchange |
  // parity | commit (see docs/OBSERVABILITY.md). Counters carry both the
  // epoch number and the coordinator generation so an aborted epoch's
  // re-run never double-counts.
  telemetry::SpanId epoch_span_ = telemetry::kNoSpan;
  telemetry::Labels epoch_labels_;
  std::size_t arrivals_pending_ = 0;  // (member, holder) streams in flight
  SimTime exchange_start_ = 0.0;
  SimTime parity_start_ = 0.0;
  SimTime commit_start_ = 0.0;

  // Fast-plane capture arena: one zeroed page reused to assemble x =
  // old^new per changed page (re-zeroed after each page), so capture
  // copies are O(dirty extent), not O(page). Grown to the largest member
  // page size; persists across epochs.
  std::vector<std::byte> arena_;
  // Fold-from-wire accounting for the in-flight epoch: wall time and
  // destination bytes folded at chunk arrival (reported at commit).
  std::int64_t ingest_fold_ns_ = 0;
  Bytes ingest_fold_bytes_ = 0;

  // Dirty-log ownership: the dirty generation observed
  // right after this coordinator's last clear_dirty() per VM. If the
  // image's generation no longer matches, some other consumer cleared the
  // log in between and the capture falls back to a full-image diff.
  std::unordered_map<vm::VmId, std::uint64_t> dirty_baseline_;
};

}  // namespace vdc::core
