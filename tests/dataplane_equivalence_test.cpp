// Byte-exactness property for the epoch data plane (dirty-page capture,
// page-sharing store, in-place parity folds off the wire, refolded on abort). A
// harness runs a randomized schedule — guest execution, committed epochs,
// aborted epochs, node failures with recovery — and checks it against
// oracles derived from the guest images alone. The harness never advances
// guests inside an epoch, so:
//
//   - every committed checkpoint payload equals the live image at commit,
//     and every recovered image equals its committed payload;
//   - each committed epoch's raw dirty, delta, trim and shipped bytes equal
//     a from-scratch whole-page memcmp + encode_record + delta_frame_size
//     over the previous committed payload and the current image (no dirty
//     log, no write extents);
//   - after every step, each parity record equals a from-scratch
//     ReedSolomonCodec encode of the committed payloads (aborts included).
//
// Seeds: 1..VDC_FUZZ_SEEDS (default 4); schemes: RAID-5, RS(k,2). The
// lossy-fabric regime repeats the property with ambient drops/corruption/
// jitter on every host, proving the VDD1 delta wire path survives an
// unreliable fabric; the chunked twin proves chunking only reschedules.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>

#include "checkpoint/rle.hpp"
#include "checkpoint/stream.hpp"
#include "core/recovery.hpp"
#include "fuzz_seeds.hpp"
#include "net/fault.hpp"
#include "parity/reed_solomon.hpp"
#include "vm/workload.hpp"

namespace vdc::core {
namespace {

WorkloadFactory workload_factory() {
  return [](vm::VmId) -> std::unique_ptr<vm::Workload> {
    return std::make_unique<vm::HotColdWorkload>(200.0, 0.2, 0.8);
  };
}

/// An epoch's byte accounting as the image oracle predicts it.
struct ExpectedBytes {
  Bytes raw_dirty = 0;
  Bytes delta = 0;
  Bytes trim = 0;
  Bytes shipped = 0;
  bool full_exchange = false;
};

struct Harness {
  simkit::Simulator sim;
  cluster::ClusterManager cluster;
  DvdcState state;
  DvdcCoordinator coord;
  RecoveryManager recovery;
  std::optional<PlacedPlan> placed;
  std::optional<PlacedPlan> committed_plan;
  checkpoint::Epoch next_epoch = 1;
  ParityScheme scheme;

  Harness(std::uint64_t seed, ParityScheme scheme,
          net::ChunkPolicy chunking = {})
      : cluster(sim, Rng(seed)),
        coord(sim, cluster, state, make_config(scheme, chunking)),
        recovery(sim, cluster, state, workload_factory(),
                 make_recovery_config(chunking)),
        scheme(scheme) {
    for (int n = 0; n < 5; ++n) cluster.add_node();
    auto workloads = workload_factory();
    for (int n = 0; n < 5; ++n)
      for (int v = 0; v < 2; ++v)
        cluster.boot_vm(n, kib(1), 16, workloads(0));
    replan();
  }

  static ProtocolConfig make_config(ParityScheme scheme,
                                    net::ChunkPolicy chunking) {
    ProtocolConfig config;
    config.scheme = scheme;
    config.rs_parity = 2;
    config.chunking = chunking;
    return config;
  }

  static RecoveryConfig make_recovery_config(net::ChunkPolicy chunking) {
    RecoveryConfig config;
    config.chunking = chunking;
    return config;
  }

  void replan() {
    PlannerConfig pc;
    pc.group_size = 3;
    placed = PlacedPlan::make(GroupPlanner(pc).plan(cluster), cluster,
                              scheme, 2);
  }

  void ensure_plan() {
    if (!placed->still_orthogonal(cluster)) replan();
  }

  /// The committed checkpoint payload of `vmid`, if its node holds one.
  std::optional<std::vector<std::byte>> committed_payload(vm::VmId vmid) {
    const auto loc = cluster.locate(vmid);
    if (!loc.has_value()) return std::nullopt;
    const auto* cp =
        state.node_store(*loc).find(vmid, state.committed_epoch());
    if (cp == nullptr) return std::nullopt;
    return cp->payload();
  }

  /// The coming epoch's byte accounting, from the frozen images and the
  /// committed payloads alone. A group folds deltas iff its committed
  /// stripe still matches the plan (scheme, members, holders, epoch, no
  /// lost block) and every member's previous checkpoint is at hand;
  /// otherwise it ships full images.
  ExpectedBytes expected_bytes() {
    ExpectedBytes out;
    for (std::size_t gi = 0; gi < placed->plan.groups.size(); ++gi) {
      const RaidGroup& group = placed->plan.groups[gi];
      const auto& holders = placed->holders[gi];
      const auto* record = state.parity(group.id);
      bool incremental = record != nullptr && record->scheme == scheme &&
                         record->members == group.members &&
                         record->holders == holders &&
                         record->epoch == state.committed_epoch();
      if (incremental)
        for (const auto& block : record->blocks)
          if (block.empty()) incremental = false;
      std::vector<std::vector<std::byte>> prev;
      for (vm::VmId vmid : group.members) {
        auto payload = committed_payload(vmid);
        if (!payload.has_value()) incremental = false;
        prev.push_back(payload.value_or(std::vector<std::byte>{}));
      }
      out.full_exchange = out.full_exchange || !incremental;

      const Bytes fan_out = holders.size();
      for (std::size_t mi = 0; mi < group.members.size(); ++mi) {
        const auto& image = cluster.machine(group.members[mi]).image();
        const std::vector<std::byte> flat = image.flatten();
        if (!incremental) {
          out.raw_dirty += flat.size();
          out.shipped += flat.size() * fan_out;
          continue;
        }
        if (prev[mi].size() != flat.size()) {
          ADD_FAILURE() << "vm " << group.members[mi]
                        << ": committed payload size differs from image";
          continue;
        }
        // Every page whose bytes differ from the committed payload ships
        // one record: encode_record of x = old ^ new.
        const Bytes page_size = image.page_size();
        std::vector<std::byte> x(page_size);
        std::size_t pages = 0;
        Bytes payload = 0, trim_payload = 0;
        for (std::size_t off = 0; off < flat.size(); off += page_size) {
          const std::byte* old_page = prev[mi].data() + off;
          const std::byte* new_page = flat.data() + off;
          if (std::memcmp(old_page, new_page, page_size) == 0) continue;
          for (std::size_t i = 0; i < page_size; ++i)
            x[i] = old_page[i] ^ new_page[i];
          const auto rec = checkpoint::encode_record(x);
          ++pages;
          payload += rec.bytes.size();
          trim_payload += rec.trim_len;
        }
        out.raw_dirty += pages * page_size;
        if (pages == 0) continue;  // ships nothing
        const Bytes wire = checkpoint::delta_frame_size(pages, payload);
        out.delta += wire * fan_out;
        out.shipped += wire * fan_out;
        out.trim += checkpoint::delta_frame_size(pages, trim_payload) * fan_out;
      }
    }
    return out;
  }

  /// Run one epoch; with `abort_after` > 0, abort after that many events.
  /// A committed epoch is checked against the image oracle.
  std::optional<EpochStats> checkpoint(std::uint64_t abort_after,
                                       const std::string& where) {
    ensure_plan();
    const ExpectedBytes expect = expected_bytes();
    std::optional<EpochStats> stats;
    coord.run_epoch(*placed, next_epoch,
                    [&](const EpochStats& s) { stats = s; });
    if (abort_after > 0) {
      sim.run(abort_after);
      coord.abort();
    }
    sim.run();
    if (stats.has_value()) {
      ++next_epoch;
      committed_plan = placed;
      EXPECT_EQ(stats->raw_dirty_bytes, expect.raw_dirty) << where;
      EXPECT_EQ(stats->delta_bytes, expect.delta) << where;
      EXPECT_EQ(stats->trim_bytes, expect.trim) << where;
      EXPECT_EQ(stats->bytes_shipped, expect.shipped) << where;
      EXPECT_EQ(stats->full_exchange, expect.full_exchange) << where;
      expect_payloads_match_images(where + " (commit)");
    }
    return stats;
  }

  /// Run one epoch and abort it the moment the exchange puts its first
  /// flow on the wire (guaranteed pre-commit, so two harnesses with
  /// different network timing abort the same logical epoch). Returns the
  /// stats only in the (impossible today) case the epoch committed first.
  std::optional<EpochStats> checkpoint_abort_mid_exchange() {
    ensure_plan();
    std::optional<EpochStats> stats;
    coord.run_epoch(*placed, next_epoch,
                    [&](const EpochStats& s) { stats = s; });
    auto& metrics = sim.telemetry().metrics();
    while (!stats.has_value() &&
           metrics.value("net.active_flows") == 0.0 && sim.step()) {
    }
    if (!stats.has_value()) coord.abort();
    sim.run();
    if (stats.has_value()) {
      ++next_epoch;
      committed_plan = placed;
    }
    return stats;
  }

  bool fail_and_recover(std::size_t victim_index, const std::string& where) {
    if (state.committed_epoch() == 0) return true;
    const auto alive = cluster.alive_nodes();
    const auto victim = alive[victim_index % alive.size()];
    const auto lost = cluster.node(victim).hypervisor().vm_ids();
    cluster.kill_node(victim);
    state.drop_node(victim);
    cluster.revive_node(victim);  // repaired replacement (constant n)
    if (lost.empty()) return true;
    bool ok = false;
    recovery.recover(*committed_plan, lost,
                     [&](const RecoveryStats& s) { ok = s.success; });
    sim.run();
    if (ok) {
      // Recovery rolls every guest back to the committed cut.
      for (vm::VmId vmid : lost) {
        const auto payload = committed_payload(vmid);
        EXPECT_TRUE(payload.has_value()) << where << " vm " << vmid;
        if (!payload.has_value()) continue;
        EXPECT_EQ(cluster.machine(vmid).image().flatten(), *payload)
            << where << " recovered image of vm " << vmid;
      }
    }
    return ok;
  }

  /// Guests do not run inside an epoch, so the commit captured exactly the
  /// live images.
  void expect_payloads_match_images(const std::string& where) {
    for (vm::VmId vmid : cluster.all_vms()) {
      if (!cluster.locate(vmid).has_value()) continue;
      const auto payload = committed_payload(vmid);
      ASSERT_TRUE(payload.has_value()) << where << " vm " << vmid;
      EXPECT_EQ(cluster.machine(vmid).image().flatten(), *payload)
          << where << " checkpoint of vm " << vmid;
    }
  }

  /// Every standing parity block equals a from-scratch encode of the
  /// committed payloads (the delta_abort_test oracle). Returns the number
  /// of stripes checked.
  std::size_t expect_parity_matches_encode(const std::string& where) {
    if (!committed_plan.has_value()) return 0;
    std::size_t checked = 0;
    for (const auto& group : committed_plan->plan.groups) {
      const auto* record = state.parity(group.id);
      if (record == nullptr) continue;
      EXPECT_EQ(record->epoch, state.committed_epoch())
          << where << " group " << group.id;
      std::vector<parity::Block> padded;
      for (vm::VmId vmid : record->members) {
        auto payload = committed_payload(vmid);
        if (!payload.has_value()) break;
        payload->resize(record->block_size);
        padded.push_back(std::move(*payload));
      }
      if (padded.size() != record->members.size()) continue;
      const std::vector<parity::BlockView> views(padded.begin(),
                                                 padded.end());
      const auto expect =
          parity::ReedSolomonCodec(padded.size(), record->blocks.size())
              .encode(views);
      EXPECT_EQ(expect.size(), record->blocks.size()) << where;
      if (expect.size() != record->blocks.size()) continue;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        if (record->blocks[i].empty()) continue;  // holder died
        EXPECT_EQ(record->blocks[i], expect[i])
            << where << " parity " << i << " of group " << group.id;
      }
      ++checked;
    }
    return checked;
  }

  /// Ambient loss on every host's NIC. The injector's Rng is seeded from a
  /// fixed constant, so a seed replays the same drops and corruptions.
  void make_lossy() {
    auto& faults = cluster.fabric().faults();
    for (cluster::NodeId n = 0; n < 5; ++n)
      faults.set_host_fault(
          cluster.node(n).host(),
          net::LinkFault{.drop = 0.01, .corrupt = 0.001, .jitter = 200e-6});
  }
};

/// Delta-wire accounting invariants. The full-exchange decision is per
/// GROUP (the stat flags "any group went full", e.g. after a recovery
/// re-placed a holder), so VDD1 traffic is always a subset of shipped
/// traffic — and on an all-incremental epoch the two coincide exactly.
/// Delta traffic is O(dirty): per holder (at most two here) the payload is
/// RLE over the changed pages (worst case a hair over raw) plus 8 bytes
/// per page record and 56 per member frame.
void expect_wire_invariants(const EpochStats& s, const std::string& where) {
  EXPECT_LE(s.delta_bytes, s.bytes_shipped) << where;
  EXPECT_LE(s.delta_bytes, 3 * s.raw_dirty_bytes + 16 * 1024) << where;
  if (!s.full_exchange) {
    EXPECT_EQ(s.delta_bytes, s.bytes_shipped) << where;
  }
  // Per-record compression picks min(RLE, trim), so the shipped delta
  // bytes can never exceed what a trim-only encoder would have shipped.
  EXPECT_LE(s.delta_bytes, s.trim_bytes) << where;
}

/// The randomized schedule under one chunk policy, checked against the
/// image oracles after every step.
void run_oracle_schedule(Harness& h, Rng& driver, const std::string& tag) {
  std::size_t commits = 0, stripes_checked = 0;
  for (int step = 0; step < 10; ++step) {
    const std::string where = tag + " scheme " +
                              std::to_string(static_cast<int>(h.scheme)) +
                              " step " + std::to_string(step);
    const double dt =
        0.5 + 0.25 * static_cast<double>(driver.uniform_u64(4));
    h.cluster.advance_workloads(dt);

    const auto op = driver.uniform_u64(5);
    if (op == 0 && h.state.committed_epoch() > 0) {
      const std::uint64_t k = 3 + driver.uniform_u64(5);
      const auto s = h.checkpoint(k, where + " (aborted epoch)");
      if (s.has_value()) expect_wire_invariants(*s, where);
    } else if (op == 1 && h.state.committed_epoch() > 0) {
      EXPECT_TRUE(h.fail_and_recover(driver.uniform_u64(5), where)) << where;
    } else {
      const auto s = h.checkpoint(0, where);
      ASSERT_TRUE(s.has_value()) << where;
      expect_wire_invariants(*s, where);
      ++commits;
    }
    stripes_checked += h.expect_parity_matches_encode(where);
  }
  EXPECT_GT(commits, 0u) << tag;
  EXPECT_GT(stripes_checked, 0u) << tag;
}

void expect_equal_state(Harness& a, Harness& b, const std::string& where) {
  ASSERT_EQ(a.state.committed_epoch(), b.state.committed_epoch()) << where;
  ASSERT_EQ(a.state.memory_bytes(), b.state.memory_bytes()) << where;
  const auto epoch = a.state.committed_epoch();

  for (vm::VmId vmid : a.cluster.all_vms()) {
    const auto la = a.cluster.locate(vmid);
    const auto lb = b.cluster.locate(vmid);
    ASSERT_EQ(la.has_value(), lb.has_value()) << where << " vm " << vmid;
    if (!la.has_value()) continue;
    ASSERT_EQ(*la, *lb) << where << " vm " << vmid;
    ASSERT_EQ(a.cluster.machine(vmid).image().flatten(),
              b.cluster.machine(vmid).image().flatten())
        << where << " image of vm " << vmid;
    const auto* ca = a.state.node_store(*la).find(vmid, epoch);
    const auto* cb = b.state.node_store(*lb).find(vmid, epoch);
    ASSERT_EQ(ca == nullptr, cb == nullptr) << where << " vm " << vmid;
    if (ca != nullptr) {
      ASSERT_EQ(ca->payload(), cb->payload())
          << where << " checkpoint of vm " << vmid;
    }
  }

  ASSERT_EQ(a.committed_plan.has_value(), b.committed_plan.has_value())
      << where;
  if (!a.committed_plan.has_value()) return;
  for (const auto& group : a.committed_plan->plan.groups) {
    const auto* ra = a.state.parity(group.id);
    const auto* rb = b.state.parity(group.id);
    ASSERT_EQ(ra == nullptr, rb == nullptr) << where << " group " << group.id;
    if (ra == nullptr) continue;
    ASSERT_EQ(ra->epoch, rb->epoch) << where << " group " << group.id;
    ASSERT_EQ(ra->members, rb->members) << where << " group " << group.id;
    ASSERT_EQ(ra->holders, rb->holders) << where << " group " << group.id;
    ASSERT_EQ(ra->block_size, rb->block_size)
        << where << " group " << group.id;
    ASSERT_EQ(ra->blocks, rb->blocks)
        << where << " parity of group " << group.id;
  }
}

constexpr ParityScheme kSchemes[] = {ParityScheme::Raid5, ParityScheme::Rs};

class DataPlaneEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(DataPlaneEquivalence, CommittedStateMatchesImageOracle) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (ParityScheme scheme : kSchemes) {
    Harness h(seed, scheme);
    Rng driver(seed * 977 + 13);
    run_oracle_schedule(h, driver, "seed " + std::to_string(seed));
  }
}

TEST_P(DataPlaneEquivalence, ChunkedCommittedStateMatchesImageOracle) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  net::ChunkPolicy chunking;
  chunking.chunk_bytes = kib(1);
  for (ParityScheme scheme : kSchemes) {
    Harness h(seed, scheme, chunking);
    Rng driver(seed * 977 + 13);
    run_oracle_schedule(h, driver,
                        "seed " + std::to_string(seed) + " (chunked)");
  }
}

// The lossy fuzz regime on the delta plane: every frame of every host
// rides an unreliable fabric (drops, bit corruption, jittered latency), and
// the reliable-delivery layer must carry the VDD1 delta frames through it
// without a committed byte deviating from the image oracles.
TEST_P(DataPlaneEquivalence, LossyFabricCommittedStateMatchesImageOracle) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  net::ChunkPolicy chunking;
  chunking.chunk_bytes = kib(1);
  for (ParityScheme scheme : kSchemes) {
    Harness h(seed, scheme, chunking);
    h.make_lossy();
    Rng driver(seed * 6271 + 101);
    run_oracle_schedule(h, driver,
                        "seed " + std::to_string(seed) + " (lossy fabric)");
    // The regime was not vacuous.
    const auto& metrics = h.sim.telemetry().metrics();
    EXPECT_GT(metrics.value("net.drops"), 0.0) << "seed " << seed;
    EXPECT_GT(metrics.value("net.retransmits"), 0.0) << "seed " << seed;
  }
}

// Chunking must be a pure scheduling change: with the SAME logical
// schedule — including epochs aborted mid-exchange and node failures with
// recovery — a chunked and an unchunked harness must land on byte-identical
// committed state, even though their wall-clock timelines differ.
TEST_P(DataPlaneEquivalence, ChunkedContentMatchesUnchunked) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (ParityScheme scheme : kSchemes) {
    net::ChunkPolicy chunking;
    chunking.chunk_bytes = kib(1);
    Harness plain(seed, scheme);
    Harness chunked(seed, scheme, chunking);
    Rng driver(seed * 7919 + 29);

    for (int step = 0; step < 10; ++step) {
      const std::string where = "seed " + std::to_string(seed) + " scheme " +
                                std::to_string(static_cast<int>(scheme)) +
                                " step " + std::to_string(step) +
                                " (chunked vs unchunked)";
      const double dt = 0.5 + 0.25 * static_cast<double>(
                                         driver.uniform_u64(4));
      plain.cluster.advance_workloads(dt);
      chunked.cluster.advance_workloads(dt);

      const auto op = driver.uniform_u64(5);
      if (op == 0 && plain.state.committed_epoch() > 0) {
        const auto sp = plain.checkpoint_abort_mid_exchange();
        const auto sc = chunked.checkpoint_abort_mid_exchange();
        ASSERT_EQ(sp.has_value(), sc.has_value()) << where;
      } else if (op == 1 && plain.state.committed_epoch() > 0) {
        const auto victim = driver.uniform_u64(5);
        ASSERT_EQ(plain.fail_and_recover(victim, where),
                  chunked.fail_and_recover(victim, where))
            << where;
      } else {
        const auto sp = plain.checkpoint(0, where);
        const auto sc = chunked.checkpoint(0, where);
        // Timing differs by design; the byte accounting must not.
        ASSERT_EQ(sp.has_value(), sc.has_value()) << where;
        if (sp.has_value()) {
          EXPECT_EQ(sp->bytes_shipped, sc->bytes_shipped) << where;
          EXPECT_EQ(sp->raw_dirty_bytes, sc->raw_dirty_bytes) << where;
          EXPECT_EQ(sp->groups, sc->groups) << where;
        }
      }
      expect_equal_state(plain, chunked, where);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataPlaneEquivalence,
                         ::testing::Range(1, 1 + fuzz_seed_count(4)));

}  // namespace
}  // namespace vdc::core
