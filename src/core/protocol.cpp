#include "core/protocol.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <tuple>
#include <utility>

#include "common/assert.hpp"
#include "checkpoint/stream.hpp"
#include "common/log.hpp"
#include "parity/gf256.hpp"
#include "parity/kernels.hpp"
#include "parity/parallel.hpp"
#include "parity/reed_solomon.hpp"
#include "parity/xor.hpp"

namespace vdc::core {

std::size_t parity_width(ParityScheme scheme, std::size_t rs_m) {
  switch (scheme) {
    case ParityScheme::Raid5:
      return 1;
    case ParityScheme::Rs:
      return rs_m;
  }
  throw InvariantError("unknown parity scheme");
}

PlacedPlan PlacedPlan::make(GroupPlan plan,
                            const cluster::ClusterManager& cluster,
                            ParityScheme scheme, std::size_t rs_m) {
  const std::size_t m = parity_width(scheme, rs_m);
  PlacedPlan placed;
  placed.holders.reserve(plan.groups.size());
  for (const auto& g : plan.groups) {
    // RS(k,1) is plain XOR with no width limit; wider codes need k + m
    // distinct GF(256) points (ReedSolomonCodec would throw mid-epoch).
    VDC_REQUIRE(m == 1 || g.members.size() + m <= 256,
                "a group of " + std::to_string(g.members.size()) +
                    " members is too wide for RS(k, " + std::to_string(m) +
                    ") over GF(256), which needs k + m <= 256");
    const auto eligible =
        GroupPlanner::eligible_parity_nodes(g, cluster, plan.rack_aware);
    VDC_REQUIRE(eligible.size() >= m,
                "not enough parity-eligible nodes for this scheme");
    const std::size_t base =
        parity::ParityRotation::holder_index(g.id, 0, eligible.size());
    std::vector<cluster::NodeId> holders;
    for (std::size_t j = 0; j < m; ++j)
      holders.push_back(eligible[(base + j) % eligible.size()]);
    placed.holders.push_back(std::move(holders));
  }
  placed.plan = std::move(plan);
  return placed;
}

bool PlacedPlan::still_orthogonal(
    const cluster::ClusterManager& cluster) const {
  if (!GroupPlanner::validate(plan, cluster)) return false;
  for (std::size_t gi = 0; gi < plan.groups.size(); ++gi) {
    for (cluster::NodeId holder : holders[gi]) {
      if (!cluster.node(holder).alive()) return false;
      const auto holder_rack = cluster.node(holder).rack();
      for (vm::VmId member : plan.groups[gi].members) {
        const auto loc = cluster.locate(member);
        if (!loc.has_value()) continue;
        if (*loc == holder) return false;
        if (plan.rack_aware && cluster.node(*loc).rack() == holder_rack)
          return false;
      }
    }
  }
  return true;
}

const DvdcState::ParityRecord* DvdcState::parity(GroupId group) const {
  auto it = parity_.find(group);
  return it == parity_.end() ? nullptr : &it->second;
}

DvdcState::ParityRecord* DvdcState::mutable_parity(GroupId group) {
  auto it = parity_.find(group);
  return it == parity_.end() ? nullptr : &it->second;
}

Bytes DvdcState::record_block_bytes(const ParityRecord& record) {
  Bytes total = 0;
  for (const auto& block : record.blocks) total += block.size();
  return total;
}

void DvdcState::set_parity(GroupId group, ParityRecord record) {
  auto it = parity_.find(group);
  if (it != parity_.end()) parity_bytes_ -= record_block_bytes(it->second);
  parity_bytes_ += record_block_bytes(record);
  parity_[group] = std::move(record);
}

void DvdcState::drop_parity(GroupId group) {
  auto it = parity_.find(group);
  if (it == parity_.end()) return;
  parity_bytes_ -= record_block_bytes(it->second);
  parity_.erase(it);
}

const VmInfo& DvdcState::vm_info(vm::VmId id) const {
  auto it = vms_.find(id);
  VDC_REQUIRE(it != vms_.end(), "unknown VM in DVDC state");
  return it->second;
}

void DvdcState::drop_node(cluster::NodeId node) {
  stores_.erase(node);
  for (auto& [gid, record] : parity_) {
    for (std::size_t i = 0; i < record.holders.size(); ++i) {
      if (record.holders[i] == node) {
        parity_bytes_ -= record.blocks[i].size();
        record.blocks[i].clear();
      }
    }
  }
}

Bytes DvdcState::memory_bytes() const {
  Bytes total = parity_bytes_;
  for (const auto& [node, store] : stores_) total += store.total_bytes();
  return total;
}

Bytes DvdcState::patch_bytes() const {
  Bytes total = 0;
  for (const auto& [node, store] : stores_) total += store.patch_bytes();
  return total;
}

// --- coordinator ------------------------------------------------------------

struct DvdcCoordinator::GroupWork {
  GroupId gid = 0;
  std::vector<cluster::NodeId> holders;
  std::vector<parity::Block> new_blocks;  // content, computed at capture
  std::vector<vm::VmId> members;
  bool full_exchange = false;
  Bytes block_size = 0;

  struct Contribution {
    cluster::NodeId src_node = 0;
    Bytes wire = 0;       // bytes over the fabric, per holder stream
    Bytes xor_bytes = 0;  // parity work per holder
  };
  std::vector<Contribution> contribs;  // per member
  std::size_t tasks_done = 0;
  std::size_t tasks_total = 0;  // members x holders
  // Chunk folds still queued per (member, holder) stream, indexed by
  // mi * holders + hi; a stream's task is done when its count hits 0.
  std::vector<std::size_t> serves_left;

  // Incremental epochs fold deltas straight into the committed parity
  // record; `undo` holds the original bytes of every touched range (first
  // touch only), replayed LIFO on abort. new_blocks stays empty.
  bool in_place = false;
  struct UndoEntry {
    std::size_t block = 0;   // holder index into the record's blocks
    std::size_t offset = 0;  // byte offset of the touched range
    parity::Block saved;     // original contents of the range
  };
  std::vector<UndoEntry> undo;
  // Dirty pages consumed from each member's log at the cut;
  // an abort puts them back so the next capture stays a superset of the
  // changes since the committed epoch.
  std::vector<std::vector<vm::PageIndex>> captured_dirty;  // per member

  // Streaming ingest (incremental epochs). Each member with changes
  // keeps its VDD1 frame as a scatter-gather source over the capture's
  // encoded records; per (member, holder) stream a DeltaReader folds the
  // literal runs into the standing parity block as in-order chunk bytes
  // arrive. Out-of-order chunks just park in `delivered` until the
  // contiguous frontier reaches them.
  std::vector<std::shared_ptr<checkpoint::DeltaFrameSource>>
      frames;  // per member; null = no changes
  struct Ingest {
    std::unique_ptr<checkpoint::DeltaReader> reader;
    std::vector<std::uint8_t> delivered;  // chunk arrival flags
    std::size_t frontier = 0;             // first undelivered chunk index
    Bytes fed_bytes = 0;                  // frame bytes fed so far
    Bytes wire = 0;                       // total frame size
  };
  std::vector<Ingest> ingest;  // mi * holders + hi; in_place only
};

DvdcCoordinator::DvdcCoordinator(simkit::Simulator& sim,
                                 cluster::ClusterManager& cluster,
                                 DvdcState& state, ProtocolConfig config)
    : sim_(sim), cluster_(cluster), state_(state), config_(config) {}

DvdcCoordinator::~DvdcCoordinator() = default;

simkit::Resource& DvdcCoordinator::node_cpu(cluster::NodeId node) {
  auto it = cpus_.find(node);
  if (it == cpus_.end())
    it = cpus_.emplace(node, std::make_unique<simkit::Resource>(sim_, 1))
             .first;
  return *it->second;
}

namespace {
using WallClock = std::chrono::steady_clock;

std::int64_t ns_since(WallClock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             WallClock::now() - t0)
      .count();
}
}  // namespace

// Data plane: the dirty bitmap (with sub-page write extents) bounds the
// candidate bytes, unchanged pages are shared (ref-counted) with the
// previous checkpoint and barely-touched pages become sub-page patches on
// the shared base, per-member deltas are encoded into scatter-gather VDD1
// frame sources, and holders fold the literal runs into the committed
// parity record straight off the wire as chunks arrive (undo-logged).
// Wall-clock cost is O(dirty extent), not O(image).
void DvdcCoordinator::capture_group(
    GroupWork& gw, const RaidGroup& group,
    std::unordered_map<cluster::NodeId, Bytes>& captured_per_node,
    std::int64_t& capture_ns, std::int64_t& fold_ns) {
  auto& metrics = sim_.telemetry().metrics();
  const std::size_t k = group.members.size();
  const bool incremental = !gw.full_exchange;

  auto t0 = WallClock::now();
  // Full exchange ships flat image views; the spans stay valid through
  // this capture because the guests are paused at the cut.
  std::vector<std::span<const std::byte>> flats;
  std::vector<Bytes> member_page_size(k, 0);
  Bytes max_payload = 0;
  gw.captured_dirty.resize(k);
  gw.frames.assign(k, nullptr);

  for (std::size_t mi = 0; mi < k; ++mi) {
    const vm::VmId vmid = group.members[mi];
    const auto loc = cluster_.locate(vmid);
    VDC_REQUIRE(loc.has_value(), "group member is not placed");
    auto& machine = cluster_.node(*loc).hypervisor().get(vmid);
    auto& store = state_.node_store(*loc);
    auto& image = machine.image();
    const Bytes page_size = image.page_size();
    const std::size_t page_count = image.page_count();
    member_page_size[mi] = page_size;

    GroupWork::Contribution contrib;
    contrib.src_node = *loc;
    max_payload = std::max<Bytes>(max_payload, image.size_bytes());
    // Copy accounting is accumulated at each copy site as it happens,
    // never hand-summed in one place where it could go stale.
    Bytes copied = 0;

    // Consume the dirty log at the cut. The log is trustworthy iff nobody
    // else cleared it since OUR last clear (generation check); otherwise
    // every page is a candidate. Either way the delta below is exact: a
    // candidate only enters the delta if its bytes actually differ from
    // the committed checkpoint, so the result equals diff_images(). The
    // sub-page write extents must be read before clear_dirty() erases
    // them.
    const auto baseline = dirty_baseline_.find(vmid);
    const bool log_valid = baseline != dirty_baseline_.end() &&
                           baseline->second == image.dirty_generation();
    gw.captured_dirty[mi] = image.dirty_pages();
    std::vector<std::pair<std::size_t, std::size_t>> extents;
    if (incremental && log_valid) {
      extents.reserve(gw.captured_dirty[mi].size());
      for (vm::PageIndex p : gw.captured_dirty[mi])
        extents.push_back(image.dirty_extent(p));
    }
    image.clear_dirty();
    dirty_baseline_[vmid] = image.dirty_generation();

    if (incremental) {
      const checkpoint::StoredCheckpoint* prev =
          store.find(vmid, state_.committed_epoch());
      VDC_ASSERT(prev != nullptr);

      // Start from the previous epoch's chunks and patches (pointer
      // copies) and touch only what changed. A store entry chopped at a
      // foreign granularity (e.g. hand-built in a test) is re-chopped.
      checkpoint::StoredCheckpoint next;
      next.vm = vmid;
      next.epoch = epoch_;
      next.page_size = page_size;
      if (prev->page_size == page_size && prev->pages.size() == page_count) {
        next.pages = prev->pages;
        next.patches = prev->patches;
      } else {
        const std::vector<std::byte> prev_flat = prev->payload();
        VDC_REQUIRE(prev_flat.size() == image.size_bytes(),
                    "previous checkpoint size mismatch");
        next.pages = checkpoint::StoredCheckpoint::chop(prev_flat, page_size);
        copied += 2 * prev_flat.size();  // materialise + re-chop
      }

      if (arena_.size() < page_size) arena_.assign(page_size, std::byte{0});
      auto frame = std::make_shared<checkpoint::DeltaFrameSource>(
          vmid, epoch_, state_.committed_epoch(), page_size);
      std::size_t changed_pages = 0;

      const auto consider = [&](vm::PageIndex p, std::size_t lo,
                                std::size_t hi) {
        if (hi <= lo) return;  // empty write extent: bytes can't differ
        const auto cur = image.page(p);
        // Outside [lo, hi) the page cannot differ from the committed
        // copy, so the compare and the x assembly stay extent-bounded.
        bool changed = false;
        next.for_each_range(
            p, lo, hi - lo,
            [&](std::size_t off, std::span<const std::byte> s) {
              if (!changed &&
                  std::memcmp(cur.data() + off, s.data(), s.size()) != 0)
                changed = true;
            });
        if (!changed) return;
        ++changed_pages;

        // x = cur ^ prev in the zeroed arena: copy the current extent in,
        // XOR the stored spans on top. The arena is zero outside the
        // extent by construction, so encoding the full arena page equals
        // encoding a whole-page diff byte for byte.
        std::memcpy(arena_.data() + lo, cur.data() + lo, hi - lo);
        copied += hi - lo;
        next.for_each_range(
            p, lo, hi - lo,
            [&](std::size_t off, std::span<const std::byte> s) {
              parity::xor_into(
                  std::span<std::byte>(arena_.data() + off, s.size()), s);
            });
        checkpoint::EncodedRecord rec = checkpoint::encode_record(
            std::span<const std::byte>(arena_.data(), page_size));
        frame->add_record(p, std::move(rec.bytes), rec.raw, rec.trim_len);
        std::memset(arena_.data() + lo, 0, hi - lo);

        // Store update: widen any existing patch to one contiguous span
        // so patch depth stays one; a span covering the whole page (or an
        // untrusted log) materialises a fresh page chunk instead.
        std::size_t plo = lo, phi = hi;
        const auto pit = next.patches.find(static_cast<std::uint32_t>(p));
        if (pit != next.patches.end()) {
          plo = std::min<std::size_t>(plo, pit->second.offset);
          phi = std::max<std::size_t>(
              phi, pit->second.offset + pit->second.bytes->size());
        }
        if (phi - plo == page_size) {
          next.pages[p] = std::make_shared<const std::vector<std::byte>>(
              cur.begin(), cur.end());
          if (pit != next.patches.end()) next.patches.erase(pit);
          copied += page_size;
        } else {
          next.patches[static_cast<std::uint32_t>(p)] = checkpoint::PagePatch{
              static_cast<std::uint32_t>(plo),
              std::make_shared<const std::vector<std::byte>>(
                  cur.begin() + static_cast<std::ptrdiff_t>(plo),
                  cur.begin() + static_cast<std::ptrdiff_t>(phi))};
          copied += phi - plo;
        }
      };
      if (log_valid) {
        for (std::size_t i = 0; i < gw.captured_dirty[mi].size(); ++i)
          consider(gw.captured_dirty[mi][i], extents[i].first,
                   extents[i].second);
      } else {
        for (vm::PageIndex p = 0; p < page_count; ++p)
          consider(p, 0, page_size);
      }
      // A member with changes keeps its sealed VDD1 frame as a
      // scatter-gather source (the send side of the streaming dataplane);
      // an unchanged member ships nothing at all.
      if (frame->page_count() > 0) {
        frame->seal();
        gw.frames[mi] = std::move(frame);
      }
      const Bytes raw_dirty = changed_pages * page_size;
      contrib.wire = gw.frames[mi] ? gw.frames[mi]->size() : 0;
      contrib.xor_bytes = raw_dirty;
      const Bytes trim = gw.frames[mi] ? gw.frames[mi]->trim_frame_size() : 0;
      metrics.add("exchange.delta_bytes",
                  static_cast<double>(contrib.wire * gw.holders.size()),
                  epoch_labels_);
      metrics.add("dvdc.epoch.trim_bytes",
                  static_cast<double>(trim * gw.holders.size()),
                  epoch_labels_);
      metrics.add("dvdc.epoch.raw_dirty_bytes",
                  static_cast<double>(raw_dirty), epoch_labels_);
      captured_per_node[*loc] += raw_dirty;
      metrics.add("dvdc.pages.shared",
                  static_cast<double>(page_count - changed_pages));
      metrics.add("dvdc.pages.copied", static_cast<double>(changed_pages));
      store.put(std::move(next));
    } else {
      const auto flat = image.bytes();
      contrib.wire = flat.size();
      contrib.xor_bytes = flat.size();
      metrics.add("dvdc.epoch.raw_dirty_bytes",
                  static_cast<double>(flat.size()), epoch_labels_);
      captured_per_node[*loc] += flat.size();
      metrics.add("dvdc.pages.copied", static_cast<double>(page_count));

      checkpoint::StoredCheckpoint next;
      next.vm = vmid;
      next.epoch = epoch_;
      next.page_size = page_size;
      next.pages = checkpoint::StoredCheckpoint::chop(flat, page_size);
      copied += flat.size();  // the store's chunks are the only full copy
      store.put(std::move(next));
      flats.push_back(flat);
    }
    metrics.add("dvdc.copy.bytes", static_cast<double>(copied));
    metrics.add("dvdc.epoch.bytes_shipped",
                static_cast<double>(contrib.wire * gw.holders.size()),
                epoch_labels_);
    metrics.add("dvdc.epoch.bytes_xored",
                static_cast<double>(contrib.xor_bytes * gw.holders.size()),
                epoch_labels_);

    state_.register_vm(vmid,
                       VmInfo{machine.name(), page_size, page_count});
    gw.contribs.push_back(contrib);
  }
  capture_ns += ns_since(t0);

  // Parity: the incremental path folds from the wire (readers built here,
  // driven by chunk arrivals); full exchange group-encodes from the image
  // spans directly.
  t0 = WallClock::now();
  if (incremental) {
    DvdcState::ParityRecord* rec = state_.mutable_parity(group.id);
    VDC_ASSERT(rec != nullptr);
    gw.in_place = true;
    gw.block_size = rec->block_size;
    const std::size_t m = rec->blocks.size();

    // Undo log: save the original bytes of every range the wire folds can
    // touch — the literal runs of each record, at the member's own offset
    // in every holder block. Built fully at capture so a mid-stream abort
    // can replay it even though the folds happen later, at chunk arrival
    // (replaying a range that never got folded harmlessly rewrites
    // identical bytes). Every save precedes the first fold, so ranges that
    // overlap without matching exactly (runs of two members over the same
    // bytes, e.g. with different page sizes) all hold committed bytes; the
    // exact-range set only skips the same range saved twice.
    Bytes undo_bytes = 0;
    std::set<std::tuple<std::size_t, std::size_t, std::size_t>> saved;
    for (std::size_t mi = 0; mi < k; ++mi) {
      if (!gw.frames[mi]) continue;
      const Bytes psz = member_page_size[mi];
      for (std::size_t hi = 0; hi < m; ++hi) {
        gw.frames[mi]->for_each_record(
            [&](vm::PageIndex page, std::span<const std::byte> enc,
                bool raw) {
              checkpoint::for_each_literal_run(
                  enc, raw, psz, [&](std::size_t off, std::size_t len) {
                    const std::size_t dst = page * psz + off;
                    VDC_ASSERT(dst + len <= rec->blocks[hi].size());
                    if (!saved.insert({hi, dst, len}).second) return;
                    undo_bytes += len;
                    const auto first = rec->blocks[hi].begin() +
                                       static_cast<std::ptrdiff_t>(dst);
                    gw.undo.push_back(GroupWork::UndoEntry{
                        hi, dst,
                        parity::Block(first,
                                      first + static_cast<std::ptrdiff_t>(
                                                  len))});
                  });
            });
      }
    }
    metrics.add("dvdc.copy.bytes", static_cast<double>(undo_bytes));

    // Fold-from-wire ingest: one incremental DeltaReader per
    // (member, holder) stream, folding literal runs straight into the
    // standing parity block as in-order chunk bytes arrive
    // (on_chunk_arrival drives it through ingest_chunk). The code is
    // linear byte by byte, so holder hi adds coefficient(hi, mi) times the
    // member's delta at the same offset (coefficient 1, a plain XOR, for
    // RAID-5 and for every member in row 0), in any arrival order.
    const parity::ReedSolomonCodec codec(k, m);
    gw.ingest.resize(k * m);
    for (std::size_t mi = 0; mi < k; ++mi) {
      if (!gw.frames[mi]) continue;
      const Bytes psz = member_page_size[mi];
      for (std::size_t hi = 0; hi < m; ++hi) {
        auto& ing = gw.ingest[mi * m + hi];
        ing.wire = gw.contribs[mi].wire;
        ing.delivered.assign(
            std::max<std::size_t>(config_.chunking.chunk_count(ing.wire), 1),
            0);
        const GroupId gid = gw.gid;
        const std::uint8_t coeff = codec.coefficient(hi, mi);
        ing.reader = std::make_unique<checkpoint::DeltaReader>(
            [this, gid, hi, psz, coeff](vm::PageIndex page, std::size_t off,
                                        std::span<const std::byte> data) {
              DvdcState::ParityRecord* r = state_.mutable_parity(gid);
              VDC_ASSERT(r != nullptr);
              const std::size_t dst = page * psz + off;
              VDC_ASSERT(dst + data.size() <= r->blocks[hi].size());
              parity::gf256::mul_add(
                  coeff, reinterpret_cast<const std::uint8_t*>(data.data()),
                  reinterpret_cast<std::uint8_t*>(r->blocks[hi].data() + dst),
                  data.size());
              ingest_fold_bytes_ += data.size();
            });
      }
    }
  } else {
    const parity::ReedSolomonCodec codec(
        k, parity_width(config_.scheme, config_.rs_parity));
    gw.block_size = max_payload;
    std::vector<parity::Block> padded;
    padded.reserve(k);
    std::vector<parity::BlockView> views;
    views.reserve(k);
    for (const auto f : flats)
      padded.push_back(parity::padded_copy(f, gw.block_size));
    for (const auto& p : padded) views.emplace_back(p);
    metrics.add("dvdc.copy.bytes",
                static_cast<double>(gw.block_size * k));  // padded_copy
    gw.new_blocks =
        codec.encode_parallel(views, parity::default_parity_threads());
    VDC_ASSERT(gw.new_blocks.size() == gw.holders.size());
  }
  fold_ns += ns_since(t0);
}

void DvdcCoordinator::run_epoch(const PlacedPlan& plan,
                                checkpoint::Epoch epoch, DoneCallback done) {
  VDC_REQUIRE(!in_flight_, "an epoch is already in flight");
  VDC_REQUIRE(epoch > state_.committed_epoch(),
              "epoch must advance past the committed one");
  VDC_REQUIRE(plan.holders.size() == plan.plan.groups.size(),
              "plan is missing parity holders");
  in_flight_ = true;
  const std::uint64_t gen = ++generation_;
  plan_ = &plan;
  epoch_ = epoch;
  epoch_start_ = sim_.now();
  done_ = std::move(done);
  stats_ = EpochStats{};
  stats_.epoch = epoch;
  stats_.groups = plan.plan.groups.size();
  work_.clear();
  groups_pending_ = plan.plan.groups.size();
  ingest_fold_ns_ = 0;
  ingest_fold_bytes_ = 0;

  auto& tel = sim_.telemetry();
  auto& metrics = tel.metrics();
  epoch_labels_ = telemetry::Labels{{"epoch", std::to_string(epoch)},
                                    {"gen", std::to_string(gen)}};
  epoch_span_ = tel.begin_span("epoch", epoch_labels_);
  metrics.set("dvdc.epoch.groups",
              static_cast<double>(plan.plan.groups.size()), epoch_labels_);
  metrics.set("parity.kernel.tier",
              static_cast<double>(static_cast<int>(parity::active_kernel().tier)));

  // 1. Quiesce: a consistent cluster-wide cut.
  for (cluster::NodeId nid : cluster_.alive_nodes())
    cluster_.node(nid).hypervisor().pause_all();

  // 2. Capture + diff every member at the cut, build per-group work: read
  // the dirty bitmap, share unchanged pages with the previous checkpoint
  // and fold deltas into the committed parity in place (undo-logged).
  std::unordered_map<cluster::NodeId, Bytes> captured_per_node;
  std::int64_t capture_ns = 0, fold_ns = 0;
  for (std::size_t gi = 0; gi < plan.plan.groups.size(); ++gi) {
    const RaidGroup& group = plan.plan.groups[gi];
    auto gw = std::make_unique<GroupWork>();
    gw->gid = group.id;
    gw->holders = plan.holders[gi];
    gw->members = group.members;

    const DvdcState::ParityRecord* committed = state_.parity(group.id);
    // Both schemes fold per-page deltas into the standing parity blocks at
    // the page's own offset.
    bool incremental =
        config_.incremental && committed != nullptr &&
        committed->scheme == config_.scheme &&
        committed->members == group.members &&
        committed->epoch == state_.committed_epoch() &&
        committed->holders == gw->holders;
    if (incremental) {
      for (const auto& block : committed->blocks)
        if (block.empty()) incremental = false;  // a holder died
    }
    if (incremental) {
      for (vm::VmId vmid : group.members) {
        const auto loc = cluster_.locate(vmid);
        if (!loc.has_value() ||
            state_.node_store(*loc).find(vmid, state_.committed_epoch()) ==
                nullptr) {
          incremental = false;
          break;
        }
      }
    }
    gw->full_exchange = !incremental;
    if (gw->full_exchange)
      metrics.add("dvdc.epoch.full_exchange_groups", 1.0, epoch_labels_);

    capture_group(*gw, group, captured_per_node, capture_ns, fold_ns);

    gw->tasks_total = group.members.size() * gw->holders.size();
    gw->serves_left.assign(gw->tasks_total, 1);
    work_.push_back(std::move(gw));
  }
  metrics.add("dvdc.wall.capture_ns", static_cast<double>(capture_ns));
  metrics.add("dvdc.wall.fold_ns", static_cast<double>(fold_ns));
  for (const auto& gw : work_)
    if (gw->in_place) {
      state_.set_fold_in_flight(true);
      break;
    }
  // Streaming dataplane working set: the capture arena plus the bounded
  // carry of every live fold-from-wire reader. This is the whole per-epoch
  // buffer footprint of the zero-copy path — O(page + streams), not
  // O(frame).
  std::size_t readers = 0;
  for (const auto& gw : work_)
    for (const auto& ing : gw->ingest)
      if (ing.reader) ++readers;
  metrics.set(
      "stream.arena.bytes",
      static_cast<double>(arena_.size() +
                          checkpoint::DeltaReader::kMaxCarry * readers));

  // 3. Local capture stall, then resume (COW) and start the exchange.
  SimTime stall = config_.base_overhead;
  if (!config_.copy_on_write) {
    Bytes worst = 0;
    for (const auto& [node, bytes] : captured_per_node)
      worst = std::max(worst, bytes);
    stall += static_cast<double>(worst) / config_.snapshot_rate;
  }
  overhead_ = stall;
  arrivals_pending_ = 0;
  for (const auto& gw : work_) arrivals_pending_ += gw->tasks_total;

  sim_.after(stall, [this, gen] {
    if (gen != generation_ || !in_flight_) return;
    if (config_.copy_on_write) {
      for (cluster::NodeId nid : cluster_.alive_nodes())
        cluster_.node(nid).hypervisor().resume_all();
    }
    // The quiesce/capture/resume boundaries are known exactly here: the
    // quiesce cut costs base_overhead, local capture runs to the end of
    // the stall (zero-length under copy-on-write), and resume is the
    // instant the guests come back (a marker; without COW the guests
    // actually stay paused until commit).
    auto& tel = sim_.telemetry();
    const SimTime cut_end = epoch_start_ + config_.base_overhead;
    tel.record_span("epoch.quiesce", epoch_start_, cut_end, epoch_labels_,
                    epoch_span_);
    tel.record_span("epoch.capture", cut_end, sim_.now(), epoch_labels_,
                    epoch_span_);
    tel.record_span("epoch.resume", sim_.now(), sim_.now(), epoch_labels_,
                    epoch_span_);
    exchange_start_ = sim_.now();
    // Launch every member's stream toward each of its group's holders,
    // sliced per the chunk policy so holders fold arriving chunks into
    // parity while later chunks are still on the wire.
    for (std::size_t gi = 0; gi < work_.size(); ++gi) {
      GroupWork& gw = *work_[gi];
      for (std::size_t mi = 0; mi < gw.contribs.size(); ++mi) {
        for (std::size_t hi = 0; hi < gw.holders.size(); ++hi) {
          const auto& contrib = gw.contribs[mi];
          if (contrib.wire == 0) {
            sim_.after(0.0, [this, gen, gi, mi, hi] {
              on_member_arrival(gen, gi, mi, hi);
            });
            continue;
          }
          const net::HostId src = cluster_.node(contrib.src_node).host();
          const net::HostId dst = cluster_.node(gw.holders[hi]).host();
          if (src == dst) {
            // Member and holder co-located (transiently possible after a
            // recovery re-placement): the contribution is a local memory
            // copy, no fabric traffic — the whole frame lands as one
            // chunk, so its ingest reader expects a single delivery.
            if (gw.in_place && !gw.ingest.empty()) {
              auto& ing = gw.ingest[mi * gw.holders.size() + hi];
              if (ing.reader) ing.delivered.assign(1, 0);
            }
            sim_.after(0.0, [this, gen, gi, mi, hi] {
              on_member_arrival(gen, gi, mi, hi);
            });
            continue;
          }
          const Bytes wire = contrib.wire;
          gw.serves_left[mi * gw.holders.size() + hi] =
              config_.chunking.chunk_count(wire);
          streams_.push_back(net::ChunkedStream::start(
              cluster_.fabric(), src, dst, wire, config_.chunking,
              [this, gen, gi, mi, hi,
               wire](const net::ChunkedStream::Chunk& c) {
                on_chunk_arrival(gen, gi, mi, hi, c.index,
                                 static_cast<double>(c.bytes) /
                                     static_cast<double>(wire),
                                 c.last);
              }));
          streams_.back()->set_stream_tag(gw.full_exchange
                                              ? net::kFullStreamTag
                                              : net::kDeltaStreamTag);
          // A stream that exhausts its retransmission budget/deadline on a
          // lossy fabric kills the whole epoch (see on_stream_failed).
          streams_.back()->set_on_fail([this, gen](const std::string& why) {
            on_stream_failed(gen, why);
          });
        }
      }
    }
  });
}

void DvdcCoordinator::on_member_arrival(std::uint64_t gen,
                                        std::size_t group_idx,
                                        std::size_t member_idx,
                                        std::size_t holder_idx) {
  // Whole contribution in one piece (zero-wire or co-located): a single
  // chunk carrying the full fold.
  on_chunk_arrival(gen, group_idx, member_idx, holder_idx, 0, 1.0, true);
}

void DvdcCoordinator::ingest_chunk(GroupWork& gw, std::size_t member_idx,
                                   std::size_t holder_idx,
                                   std::size_t chunk_index) {
  auto& ing = gw.ingest[member_idx * gw.holders.size() + holder_idx];
  if (!ing.reader) return;  // member shipped nothing
  VDC_ASSERT(chunk_index < ing.delivered.size());
  if (ing.delivered[chunk_index]) return;  // duplicate delivery
  ing.delivered[chunk_index] = 1;
  // Advance the contiguous frontier and fold the newly in-order bytes:
  // the sender's frame source yields exactly [fed, frontier) as views over
  // its encoded records, and the reader decodes and folds them without
  // ever materializing the frame.
  Bytes frontier_bytes = ing.fed_bytes;
  while (ing.frontier < ing.delivered.size() &&
         ing.delivered[ing.frontier]) {
    frontier_bytes +=
        ing.delivered.size() == 1
            ? ing.wire
            : config_.chunking.chunk_size(ing.wire, ing.frontier);
    ++ing.frontier;
  }
  if (frontier_bytes <= ing.fed_bytes) return;  // out-of-order: park it
  const auto t0 = WallClock::now();
  gw.frames[member_idx]->for_each_range(
      ing.fed_bytes, frontier_bytes,
      [&](std::span<const std::byte> s) { ing.reader->feed(s); });
  ingest_fold_ns_ += ns_since(t0);
  ing.fed_bytes = frontier_bytes;
  if (ing.fed_bytes == ing.wire) VDC_ASSERT(ing.reader->complete());
}

void DvdcCoordinator::on_chunk_arrival(std::uint64_t gen,
                                       std::size_t group_idx,
                                       std::size_t member_idx,
                                       std::size_t holder_idx,
                                       std::size_t chunk_index,
                                       double wire_fraction, bool last) {
  if (gen != generation_ || !in_flight_) return;
  GroupWork& gw = *work_[group_idx];
  const auto& contrib = gw.contribs[member_idx];

  if (cluster_.is_fenced(contrib.src_node)) {
    // Defense in depth: a fenced node (declared dead, possibly a zombie
    // behind a partition) must not contribute to the stripe. Its write is
    // rejected and the epoch aborts rather than committing tainted parity.
    sim_.telemetry().metrics().add("recovery.fenced", 1.0);
    on_stream_failed(gen, "write from fenced node rejected");
    return;
  }

  // Fold-from-wire: feed the chunk to this stream's ingest reader (after
  // the fence check — a fenced node's bytes must never touch parity).
  if (gw.in_place && !gw.ingest.empty())
    ingest_chunk(gw, member_idx, holder_idx, chunk_index);

  if (last) {
    VDC_ASSERT(arrivals_pending_ > 0);
    if (--arrivals_pending_ == 0) {
      // Last stream has landed: the exchange phase ends and the parity
      // tail (holder-side folds still queued on node CPUs) begins.
      sim_.telemetry().record_span("epoch.exchange", exchange_start_,
                                   sim_.now(), epoch_labels_, epoch_span_);
      parity_start_ = sim_.now();
    }
  }

  const cluster::NodeId holder = gw.holders[holder_idx];
  const double xor_time =
      static_cast<double>(contrib.xor_bytes) * wire_fraction /
      cluster_.node(holder).spec().xor_rate;
  const std::size_t slot = member_idx * gw.holders.size() + holder_idx;
  node_cpu(holder).serve(xor_time, [this, gen, group_idx, slot] {
    if (gen != generation_ || !in_flight_) return;
    GroupWork& g = *work_[group_idx];
    VDC_ASSERT(g.serves_left[slot] > 0);
    if (--g.serves_left[slot] > 0) return;
    if (++g.tasks_done == g.tasks_total)
      on_group_parity_done(gen, group_idx);
  });
}

void DvdcCoordinator::on_group_parity_done(std::uint64_t gen,
                                           std::size_t group_idx) {
  if (gen != generation_ || !in_flight_) return;
  VDC_ASSERT(groups_pending_ > 0);
  {
    // Per-group child span: this group's stream + fold work, from the
    // start of the exchange to its parity completion.
    telemetry::Labels labels = epoch_labels_;
    labels.push_back({"group", std::to_string(work_[group_idx]->gid)});
    sim_.telemetry().record_span("epoch.group", exchange_start_, sim_.now(),
                                 std::move(labels), epoch_span_);
  }
  if (--groups_pending_ == 0) {
    sim_.telemetry().record_span("epoch.parity", parity_start_, sim_.now(),
                                 epoch_labels_, epoch_span_);
    commit_start_ = sim_.now();
    if (config_.commit_gate) {
      // Two-phase commit: the parity stripe is complete (phase 1); ask
      // the gate to quorum-log the commit record (phase 2). `earliest`
      // keeps a fast quorum from beating the broadcast latency, so a
      // fault-free gated run commits at the exact instant the ungated
      // path would.
      config_.commit_gate(
          epoch_, sim_.now() + config_.commit_latency,
          [this, gen](bool commit) {
            if (gen != generation_ || !in_flight_) return;
            if (!commit) {
              on_stream_failed(gen, "quorum rejected epoch commit");
              return;
            }
            try_commit(gen);
          });
    } else {
      sim_.after(config_.commit_latency, [this, gen] { try_commit(gen); });
    }
  }
}

void DvdcCoordinator::on_stream_failed(std::uint64_t gen,
                                       const std::string& reason) {
  if (gen != generation_ || !in_flight_) return;
  VDC_INFO("dvdc", "epoch ", epoch_, " aborted: ", reason);
  sim_.telemetry().metrics().add("dvdc.epochs_failed", 1.0);

  EpochStats stats = stats_;
  stats.committed = false;
  stats.overhead = overhead_;
  stats.latency = sim_.now() - epoch_start_;
  auto done = std::move(done_);
  done_ = nullptr;
  abort();  // undo folds, drop captures, re-mark dirty pages
  if (done) done(stats);
}

void DvdcCoordinator::try_commit(std::uint64_t gen) {
  if (gen != generation_ || !in_flight_) return;

  // Commit: publish parity, advance the epoch, GC old checkpoints.
  for (auto& gw : work_) {
    if (gw->in_place) {
      // Deltas were folded into the committed record in place; the fold
      // preconditions pinned scheme/members/holders/block_size, so the
      // commit is just the epoch stamp (and retiring the undo log).
      DvdcState::ParityRecord* rec = state_.mutable_parity(gw->gid);
      VDC_ASSERT(rec != nullptr);
      rec->epoch = epoch_;
      gw->undo.clear();
      continue;
    }
    DvdcState::ParityRecord record;
    record.epoch = epoch_;
    record.scheme = config_.scheme;
    record.members = gw->members;
    record.holders = gw->holders;
    record.blocks = std::move(gw->new_blocks);
    record.block_size = gw->block_size;
    state_.set_parity(gw->gid, std::move(record));
  }
  state_.set_fold_in_flight(false);
  state_.set_committed_epoch(epoch_);
  for (cluster::NodeId nid : cluster_.alive_nodes())
    state_.node_store(nid).gc_before(epoch_);

  if (!config_.copy_on_write) {
    for (cluster::NodeId nid : cluster_.alive_nodes())
      cluster_.node(nid).hypervisor().resume_all();
    overhead_ = sim_.now() - epoch_start_;
  }

  stats_.overhead = overhead_;
  stats_.latency = sim_.now() - epoch_start_;

  // The registry is the source of truth for the epoch's byte accounting;
  // EpochStats stays as a façade derived from it.
  auto& tel = sim_.telemetry();
  auto& metrics = tel.metrics();
  stats_.bytes_shipped = static_cast<Bytes>(
      metrics.value("dvdc.epoch.bytes_shipped", epoch_labels_));
  stats_.delta_bytes = static_cast<Bytes>(
      metrics.value("exchange.delta_bytes", epoch_labels_));
  stats_.trim_bytes = static_cast<Bytes>(
      metrics.value("dvdc.epoch.trim_bytes", epoch_labels_));
  stats_.bytes_xored = static_cast<Bytes>(
      metrics.value("dvdc.epoch.bytes_xored", epoch_labels_));
  stats_.raw_dirty_bytes = static_cast<Bytes>(
      metrics.value("dvdc.epoch.raw_dirty_bytes", epoch_labels_));
  stats_.full_exchange =
      metrics.value("dvdc.epoch.full_exchange_groups", epoch_labels_) > 0;
  // Fold-from-wire accounting, accumulated at chunk arrival over the whole
  // exchange and reported once per epoch here.
  if (ingest_fold_bytes_ > 0)
    metrics.add("parity.kernel.fold_bytes",
                static_cast<double>(ingest_fold_bytes_), epoch_labels_);
  metrics.add("dvdc.wall.fold_ns", static_cast<double>(ingest_fold_ns_));
  ingest_fold_bytes_ = 0;
  ingest_fold_ns_ = 0;
  if (stats_.delta_bytes > 0)
    metrics.set("wire.compress.ratio",
                static_cast<double>(stats_.trim_bytes) /
                    static_cast<double>(stats_.delta_bytes));
  metrics.add("dvdc.epochs_committed", 1.0);
  metrics.observe("dvdc.overhead_s", stats_.overhead);
  metrics.observe("dvdc.latency_s", stats_.latency);
  metrics.set("dvdc.state_bytes",
              static_cast<double>(state_.memory_bytes()));
  tel.record_span("epoch.commit", commit_start_, sim_.now(), epoch_labels_,
                  epoch_span_);
  tel.end_span(epoch_span_);
  epoch_span_ = telemetry::kNoSpan;

  in_flight_ = false;
  work_.clear();
  streams_.clear();  // all complete by commit
  plan_ = nullptr;
  VDC_DEBUG("dvdc", "epoch ", epoch_, " committed, latency ",
            stats_.latency, "s");
  if (done_) {
    auto done = std::move(done_);
    done(stats_);
  }
}

void DvdcCoordinator::abort() {
  if (!in_flight_) return;
  ++generation_;
  in_flight_ = false;

  // Tear down in-flight exchange streams: the aborted epoch's traffic
  // must not keep occupying the fabric (or fire stale chunk callbacks).
  for (auto& stream : streams_) stream->cancel();
  streams_.clear();

  // Roll back in-place parity folds: replay the undo log LIFO so every
  // touched range returns to its committed bytes. Ranges on a holder that
  // was already dropped (cleared block) are skipped.
  for (auto& gw : work_) {
    if (!gw->in_place) continue;
    DvdcState::ParityRecord* rec = state_.mutable_parity(gw->gid);
    if (rec == nullptr) continue;
    for (auto it = gw->undo.rbegin(); it != gw->undo.rend(); ++it) {
      if (it->block >= rec->blocks.size()) continue;
      auto& block = rec->blocks[it->block];
      if (it->offset + it->saved.size() > block.size()) continue;
      std::memcpy(block.data() + it->offset, it->saved.data(),
                  it->saved.size());
    }
  }

  // Discard the aborted epoch's captures on every surviving node.
  if (plan_ != nullptr) {
    for (const auto& group : plan_->plan.groups) {
      for (vm::VmId vmid : group.members) {
        const auto loc = cluster_.locate(vmid);
        if (loc.has_value()) state_.node_store(*loc).erase(vmid, epoch_);
      }
    }
  }

  // Return the dirty bits the capture consumed: the next
  // epoch's dirty set must still cover every page changed since the
  // committed cut. Marking extra pages is always safe.
  for (auto& gw : work_) {
    for (std::size_t mi = 0; mi < gw->captured_dirty.size(); ++mi) {
      const vm::VmId vmid = gw->members[mi];
      const auto loc = cluster_.locate(vmid);
      if (!loc.has_value() || !cluster_.node(*loc).alive()) continue;
      auto& image = cluster_.node(*loc).hypervisor().get(vmid).image();
      for (vm::PageIndex p : gw->captured_dirty[mi]) image.mark_dirty(p);
    }
  }

  state_.set_fold_in_flight(false);
  ingest_fold_ns_ = 0;
  ingest_fold_bytes_ = 0;
  work_.clear();
  plan_ = nullptr;
  sim_.telemetry().metrics().add("dvdc.epochs_aborted", 1.0);
  sim_.telemetry().end_span(epoch_span_);
  epoch_span_ = telemetry::kNoSpan;
  VDC_DEBUG("dvdc", "epoch ", epoch_, " aborted");
}

}  // namespace vdc::core
