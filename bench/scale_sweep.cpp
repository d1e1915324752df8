// Scale sweep: the 10k-node mechanisms, measured together.
//
//   1. Event throughput — the classic "hold model" (N pending timers,
//      every pop schedules a successor) under a full Simulator: events/s
//      and sim-s per wall-s, reported for the record.
//   2. Placement — orthogonal vs declustered plans at scale: plan build
//      time and, for sampled single-node failures, the per-survivor
//      rebuild-load spread (max, mean over survivors, max/mean). The
//      declustered layout's point is pushing max/mean toward 1. A rebuild
//      DRIVE then proves the plan-level claim end-to-end: sampled node
//      kills recovered over the real fabric, with the per-survivor
//      `recovery.served_bytes` metric gated against the plan-derived
//      prediction and the decluster_test concentration bound.
//   3. Flow solver — random sparse point-to-point flow churn; the
//      incremental component solver's flows-solved counter vs what a full
//      re-solve per op would cost (Sum(active) by definition).
//   4. Election availability — replicated-control-plane failover: kill
//      the seated leader at 200/1k/10k nodes and measure sim-time to the
//      next quorum-committed control record. Gated on an absolute sim-time
//      ceiling (deterministic, so machine-independent) and the raft safety
//      invariants; check_scale_regression.py re-checks the ceiling in CI.
//
// Emits BENCH_scale.json (--json=PATH, default BENCH_scale.json). CI runs
// the 1k row; bench/check_scale_regression.py gates the election ceiling.
//
// Usage: scale_sweep [--nodes=1000,10000] [--events=2000000]
//                    [--json=PATH]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "controlplane/raft.hpp"
#include "core/plan.hpp"
#include "core/recovery.hpp"
#include "net/flow_network.hpp"
#include "parity/reed_solomon.hpp"
#include "simkit/simulator.hpp"
#include "vm/workload.hpp"

namespace vdc {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr std::size_t kVmsPerNode = 10;
constexpr std::uint32_t kGroupSize = 15;
constexpr std::size_t kSpreadSample = 32;

// --- 1. event throughput ----------------------------------------------------

struct SimHold {
  double events_per_sec = 0.0;
  double sim_s_per_wall_s = 0.0;
};

/// Whole-simulator hold model: one self-rescheduling timer per VM (the
/// heartbeat/epoch-timer shape of a real run), `ops` events executed.
SimHold sim_hold(std::size_t population, std::uint64_t ops,
                 std::uint64_t seed) {
  simkit::Simulator sim;
  Rng rng(seed);
  // Each timer reschedules itself forever; run() is bounded by ops.
  std::function<void(std::size_t)> tick = [&](std::size_t timer) {
    sim.after(rng.exponential(1.0), [&tick, timer] { tick(timer); });
  };
  for (std::size_t i = 0; i < population; ++i)
    sim.at(rng.uniform(0.0, 1.0), [&tick, i] { tick(i); });
  const auto start = Clock::now();
  sim.run(ops);
  const double dt = seconds_since(start);
  SimHold out;
  out.events_per_sec = static_cast<double>(sim.executed()) / dt;
  out.sim_s_per_wall_s = sim.now() / dt;
  return out;
}

// --- 2. placement -----------------------------------------------------------

struct SpreadStats {
  double worst_max = 0.0;   // worst per-survivor load over sampled failures
  double mean = 0.0;        // mean load over survivors, averaged over sample
  double ratio = 0.0;       // worst_max / mean
  double build_ms = 0.0;    // plan build wall time
};

SpreadStats placement_spread(const cluster::ClusterManager& cluster,
                             core::PlannerConfig::Layout layout) {
  core::PlannerConfig config;
  config.group_size = kGroupSize;
  config.layout = layout;
  const auto start = Clock::now();
  const core::GroupPlan plan = core::GroupPlanner(config).plan(cluster);
  SpreadStats stats;
  stats.build_ms = seconds_since(start) * 1e3;

  // vm -> node once; the per-victim scans stay cheap at 100k VMs.
  std::map<vm::VmId, cluster::NodeId> home;
  for (cluster::NodeId nid : cluster.alive_nodes())
    for (vm::VmId vmid : cluster.node(nid).hypervisor().vm_ids())
      home[vmid] = nid;

  const auto alive = cluster.alive_nodes();
  const std::size_t survivors = alive.size() - 1;
  Rng rng(7);
  double mean_sum = 0.0;
  for (std::size_t s = 0; s < kSpreadSample; ++s) {
    const cluster::NodeId victim = alive[rng.uniform_u64(alive.size())];
    std::map<cluster::NodeId, std::size_t> load;
    std::size_t total = 0;
    for (const auto& g : plan.groups) {
      bool hit = false;
      for (vm::VmId m : g.members)
        if (home[m] == victim) hit = true;
      if (!hit) continue;
      for (vm::VmId m : g.members) {
        if (home[m] == victim) continue;
        ++load[home[m]];
        ++total;
      }
    }
    for (const auto& [node, n] : load)
      stats.worst_max = std::max(stats.worst_max, static_cast<double>(n));
    mean_sum += static_cast<double>(total) / static_cast<double>(survivors);
  }
  stats.mean = mean_sum / kSpreadSample;
  stats.ratio = stats.mean > 0.0 ? stats.worst_max / stats.mean : 0.0;
  return stats;
}

// --- 2b. declustered rebuild drive ------------------------------------------

/// End-to-end check of the plan-level spread claim: seed a committed DVDC
/// cut over the Declustered layout (checkpoints in every node store plus
/// one encoded parity stripe per group — byte-identical to what an epoch
/// commit leaves behind, pinned by tests/delta_abort_test.cpp), then kill
/// sampled nodes and run REAL recoveries: survivor streams over the
/// fabric, leader decode, forwards to replacement holders. Every byte a
/// survivor serves is counted by `recovery.served_bytes{node=N}`; the
/// drive asserts those bytes equal the plan-derived prediction for every
/// survivor of every sampled failure, and that the per-survivor unit
/// spread obeys the decluster_test concentration bound
/// (max <= ceil(3 * mean-over-loaded) + 1).
struct RebuildDriveStats {
  std::size_t victims = 0;
  std::size_t groups_touched = 0;
  double bytes_served = 0.0;      // total over all sampled recoveries
  double worst_units = 0.0;       // max per-survivor units, any victim
  double worst_ratio = 0.0;       // worst max/mean-over-loaded per victim
  bool exact = true;              // measured == plan-derived, everywhere
  bool spread_ok = true;
  double drive_ms = 0.0;
};

constexpr std::size_t kRebuildVictims = 6;

RebuildDriveStats rebuild_drive(std::size_t nodes) {
  simkit::Simulator sim;
  cluster::ClusterManager cluster(sim, Rng(3));
  for (std::size_t n = 0; n < nodes; ++n) cluster.add_node();
  for (std::size_t n = 0; n < nodes; ++n)
    for (std::size_t v = 0; v < kVmsPerNode; ++v)
      cluster.boot_vm(static_cast<cluster::NodeId>(n), 256, 1,
                      std::make_unique<vm::IdleWorkload>());

  core::PlannerConfig pc;
  pc.group_size = kGroupSize;
  pc.layout = core::PlannerConfig::Layout::Declustered;
  const auto placed = core::PlacedPlan::make(
      core::GroupPlanner(pc).plan(cluster), cluster,
      core::ParityScheme::Raid5);

  core::DvdcState state;
  const checkpoint::Epoch epoch = 1;
  for (std::size_t gi = 0; gi < placed.plan.groups.size(); ++gi) {
    const auto& g = placed.plan.groups[gi];
    std::vector<parity::Block> payloads;
    std::vector<parity::BlockView> views;
    Bytes block_size = 0;
    for (vm::VmId m : g.members) {
      const auto loc = cluster.locate(m);
      auto& machine = cluster.node(*loc).hypervisor().get(m);
      payloads.push_back(machine.image().flatten());
      block_size = std::max<Bytes>(block_size, payloads.back().size());
      checkpoint::Checkpoint cp;
      cp.vm = m;
      cp.epoch = epoch;
      cp.page_size = machine.image().page_size();
      cp.payload = payloads.back();
      state.node_store(*loc).put(std::move(cp));
      state.register_vm(m, core::VmInfo{machine.name(),
                                        machine.image().page_size(),
                                        machine.image().page_count()});
    }
    for (auto& p : payloads) {
      p.resize(block_size);
      views.emplace_back(p);
    }
    core::DvdcState::ParityRecord record;
    record.epoch = epoch;
    record.scheme = core::ParityScheme::Raid5;
    record.members = g.members;
    record.holders = placed.holders[gi];
    record.blocks =
        parity::ReedSolomonCodec(g.members.size(), 1).encode(views);
    record.block_size = block_size;
    state.set_parity(g.id, std::move(record));
  }
  state.set_committed_epoch(epoch);

  core::RecoveryManager recovery(
      sim, cluster, state,
      [](vm::VmId) -> std::unique_ptr<vm::Workload> {
        return std::make_unique<vm::IdleWorkload>();
      },
      core::RecoveryConfig{});

  auto& metrics = sim.telemetry().metrics();
  const auto served = [&](cluster::NodeId n) {
    return metrics.value("recovery.served_bytes",
                         telemetry::Labels{{"node", std::to_string(n)}});
  };

  RebuildDriveStats out;
  Rng rng(17);
  const auto start = Clock::now();
  for (std::size_t v = 0; v < kRebuildVictims; ++v) {
    // A victim must actually host VMs (a previously-repaired node may sit
    // empty until recovery re-targets it).
    const auto alive = cluster.alive_nodes();
    cluster::NodeId victim = alive[rng.uniform_u64(alive.size())];
    while (cluster.node(victim).hypervisor().vm_count() == 0)
      victim = alive[rng.uniform_u64(alive.size())];

    // Plan-derived prediction, mirroring the recovery's inbound assembly:
    // a group that lost a member is rebuilt from every surviving member
    // plus every surviving parity holder (one block each); a group that
    // lost only its holder is re-encoded from all of its members.
    std::map<cluster::NodeId, double> expect_units;
    for (const auto& g : placed.plan.groups) {
      const auto* record = state.parity(g.id);
      bool member_lost = false;
      std::vector<cluster::NodeId> member_nodes;
      for (vm::VmId m : g.members) {
        const auto loc = cluster.locate(m);
        if (*loc == victim)
          member_lost = true;
        else
          member_nodes.push_back(*loc);
      }
      bool holder_lost = false;
      for (cluster::NodeId h : record->holders)
        if (h == victim) holder_lost = true;
      if (member_lost) {
        ++out.groups_touched;
        for (cluster::NodeId n : member_nodes) ++expect_units[n];
        for (cluster::NodeId h : record->holders)
          if (h != victim) ++expect_units[h];
      } else if (holder_lost) {
        ++out.groups_touched;
        for (cluster::NodeId n : member_nodes) ++expect_units[n];
      }
    }

    std::map<cluster::NodeId, double> before;
    for (cluster::NodeId n : alive) before[n] = served(n);
    const auto lost = cluster.node(victim).hypervisor().vm_ids();
    cluster.kill_node(victim);
    state.drop_node(victim);
    cluster.revive_node(victim);
    bool ok = false;
    recovery.recover(placed, lost,
                     [&](const core::RecoveryStats& s) { ok = s.success; });
    sim.run();
    if (!ok) {
      out.exact = false;
      break;
    }

    // Exactness: every survivor served exactly the plan-predicted bytes.
    const Bytes block_size = 256;
    double max_units = 0.0, total_units = 0.0;
    std::size_t loaded = 0;
    for (cluster::NodeId n : alive) {
      if (n == victim) continue;
      const double got = served(n) - before[n];
      const auto it = expect_units.find(n);
      const double want =
          (it == expect_units.end() ? 0.0 : it->second) *
          static_cast<double>(block_size);
      if (got != want) out.exact = false;
      const double units = got / static_cast<double>(block_size);
      out.bytes_served += got;
      max_units = std::max(max_units, units);
      total_units += units;
      if (units > 0.0) ++loaded;
    }
    // Spread: the decluster_test concentration bound, now on bytes that
    // actually crossed the fabric.
    const double mean = loaded > 0 ? total_units / loaded : 0.0;
    const double bound = std::ceil(3.0 * mean) + 1.0;
    if (max_units > bound) out.spread_ok = false;
    out.worst_units = std::max(out.worst_units, max_units);
    if (mean > 0.0)
      out.worst_ratio = std::max(out.worst_ratio, max_units / mean);
    ++out.victims;
  }
  out.drive_ms = seconds_since(start) * 1e3;
  return out;
}

// --- 3. flow solver ---------------------------------------------------------

struct SolverStats {
  std::uint64_t ops = 0;
  std::uint64_t incremental_flows_solved = 0;
  std::uint64_t full_flows_solved = 0;  // arithmetic: Sum(active) per op
  double reduction = 0.0;
};

/// Group-local point-to-point churn (the checkpoint-exchange shape:
/// traffic stays within a group, so flow/port components stay small):
/// start 2 flows per node, then cancel them all. Incremental cost is the
/// touched components; a full re-solve would touch every active flow per
/// op.
SolverStats solver_churn(std::size_t nodes) {
  SolverStats stats;
  const std::size_t flows = 2 * nodes;
  stats.ops = 2 * flows;
  const std::size_t kLocality = 16;  // nodes per exchange neighbourhood

  simkit::Simulator sim;
  net::FlowNetwork fn(sim);
  Rng rng(11);
  std::vector<net::PortId> ports;
  for (std::size_t i = 0; i < 2 * nodes; ++i)
    ports.push_back(fn.add_port(1e9));
  std::vector<net::FlowId> live;
  const std::size_t hoods = std::max<std::size_t>(1, nodes / kLocality);
  for (std::size_t i = 0; i < flows; ++i) {
    const std::size_t base = rng.uniform_u64(hoods) * kLocality;
    const net::PortId tx = ports[base + rng.uniform_u64(kLocality)];
    const net::PortId rx = ports[nodes + base + rng.uniform_u64(kLocality)];
    live.push_back(fn.start_flow({tx, rx}, 1u << 20, [] {}));
  }
  for (net::FlowId f : live) fn.cancel_flow(f);
  stats.incremental_flows_solved = fn.solver_flows_solved();
  // A full re-solve touches every active flow per op: Sum over starts
  // (1..F) plus Sum over cancels (F-1..0) = F^2.
  stats.full_flows_solved =
      static_cast<std::uint64_t>(flows) * static_cast<std::uint64_t>(flows);
  stats.reduction = stats.incremental_flows_solved > 0
                        ? static_cast<double>(stats.full_flows_solved) /
                              static_cast<double>(stats.incremental_flows_solved)
                        : 0.0;
  return stats;
}

// --- 4. election availability ------------------------------------------------
//
// Replicated-control-plane failover at scale: kill the seated leader and
// measure SIM time until the next control record is quorum-committed under
// a successor. The replica set is fixed (3) regardless of cluster size, so
// the claim being gated is that availability does not degrade with node
// count — and, because the measurement is simulated time over a
// deterministic plane, an ABSOLUTE ceiling is stable across CI machines.

struct ElectionStats {
  std::size_t nodes = 0;
  std::size_t trials = 0;
  double failover_min_s = 0.0;
  double failover_mean_s = 0.0;
  double failover_max_s = 0.0;
  std::uint64_t elections = 0;
  bool safety_ok = true;
};

/// One kill-the-leader trial. Returns sim-seconds from the kill to the
/// first record committed by the successor's quorum (< 0: never happened).
double election_failover_trial(std::size_t nodes, std::uint64_t seed,
                               std::uint64_t& elections, bool& safety_ok) {
  simkit::Simulator sim;
  cluster::ClusterManager cluster(sim, Rng(7));
  for (std::size_t n = 0; n < nodes; ++n) cluster.add_node();
  controlplane::ControlPlane plane(sim, cluster,
                                   controlplane::ControlPlaneConfig{},
                                   Rng(seed));
  plane.start();

  // Settle: epoch 1 committed under the bootstrap leader.
  controlplane::ControlEntry cut;
  cut.kind = controlplane::ControlEntry::Kind::kEpochCut;
  cut.value = 1;
  controlplane::ControlEntry commit = cut;
  commit.kind = controlplane::ControlEntry::Kind::kEpochCommit;
  if (!plane.append(cut) || !plane.append(commit)) return -1.0;
  sim.run_until(1.0);
  if (plane.leader_view() == nullptr ||
      plane.leader_view()->committed_epoch != 1) {
    return -1.0;
  }

  const double kill_time = sim.now();
  cluster.kill_node(0);
  plane.on_node_death(0);

  // The interrupted epoch is re-driven through whoever wins: the commit
  // callback stamps the quorum-commit time.
  double committed_at = -1.0;
  plane.await_leader([&](controlplane::NodeId) {
    controlplane::ControlEntry cut2 = cut;
    cut2.value = 2;
    controlplane::ControlEntry commit2 = commit;
    commit2.value = 2;
    plane.append(cut2);
    plane.append(commit2, [&](bool ok) {
      if (ok && committed_at < 0.0) committed_at = sim.now();
    });
  });
  sim.run_until(kill_time + 60.0);

  elections += plane.elections();
  safety_ok = safety_ok && plane.election_safety_ok() &&
              plane.epoch_sequence_ok() && plane.logs_consistent();
  plane.stop();
  return committed_at < 0.0 ? -1.0 : committed_at - kill_time;
}

ElectionStats election_availability(std::size_t nodes, std::size_t trials) {
  ElectionStats stats;
  stats.nodes = nodes;
  stats.trials = trials;
  stats.failover_min_s = 1e9;
  double sum = 0.0;
  for (std::size_t t = 0; t < trials; ++t) {
    const double failover = election_failover_trial(
        nodes, 5000 + 17 * t, stats.elections, stats.safety_ok);
    if (failover < 0.0) {
      stats.safety_ok = false;  // a trial that never re-committed is a fail
      continue;
    }
    stats.failover_min_s = std::min(stats.failover_min_s, failover);
    stats.failover_max_s = std::max(stats.failover_max_s, failover);
    sum += failover;
  }
  stats.failover_mean_s = sum / static_cast<double>(trials);
  std::printf(
      "election:    %5zu nodes  failover %.3f/%.3f/%.3f s (min/mean/max "
      "over %zu leader kills)  %llu elections  safety %s\n",
      stats.nodes, stats.failover_min_s, stats.failover_mean_s,
      stats.failover_max_s, stats.trials,
      static_cast<unsigned long long>(stats.elections),
      stats.safety_ok ? "ok" : "VIOLATED");
  return stats;
}

// --- driver -----------------------------------------------------------------

struct Row {
  std::size_t nodes = 0;
  std::size_t vms = 0;
  SimHold sim;
  SpreadStats ortho;
  SpreadStats decl;
  RebuildDriveStats rebuild;
  SolverStats solver;
};

Row run_scale(std::size_t nodes, std::uint64_t events) {
  Row row;
  row.nodes = nodes;
  row.vms = nodes * kVmsPerNode;
  std::printf("\n-- scale: %zu nodes, %zu VMs --\n", row.nodes, row.vms);

  {
    row.sim = sim_hold(row.vms, events / 2, 42);
    std::printf("sim hold:    %.2fM ev/s  (%.1f sim-s/wall-s)\n",
                row.sim.events_per_sec / 1e6, row.sim.sim_s_per_wall_s);
  }
  {
    simkit::Simulator sim;
    cluster::ClusterManager cluster(sim, Rng(1));
    for (std::size_t n = 0; n < nodes; ++n) cluster.add_node();
    for (std::size_t n = 0; n < nodes; ++n)
      for (std::size_t v = 0; v < kVmsPerNode; ++v)
        cluster.boot_vm(static_cast<cluster::NodeId>(n), 256, 1,
                        std::make_unique<vm::IdleWorkload>());
    row.ortho = placement_spread(cluster,
                                 core::PlannerConfig::Layout::Orthogonal);
    row.decl = placement_spread(cluster,
                                core::PlannerConfig::Layout::Declustered);
    std::printf(
        "rebuild:     orthogonal max %.0f (x%.1f of mean)  "
        "declustered max %.0f (x%.1f of mean)  [build %.0f ms]\n",
        row.ortho.worst_max, row.ortho.ratio, row.decl.worst_max,
        row.decl.ratio, row.decl.build_ms);
  }
  {
    row.rebuild = rebuild_drive(nodes);
    std::printf(
        "rebuild drive: %zu victims, %zu groups, %s served  "
        "max %.0f units (x%.1f of loaded mean)  exact=%s spread=%s "
        "[%.0f ms]\n",
        row.rebuild.victims, row.rebuild.groups_touched,
        bench::fmt_bytes(static_cast<Bytes>(row.rebuild.bytes_served))
            .c_str(),
        row.rebuild.worst_units, row.rebuild.worst_ratio,
        row.rebuild.exact ? "yes" : "NO",
        row.rebuild.spread_ok ? "yes" : "NO", row.rebuild.drive_ms);
  }
  {
    row.solver = solver_churn(nodes);
    std::printf(
        "solver:      incremental %llu flows solved vs full %llu "
        "(%.0fx less work)\n",
        static_cast<unsigned long long>(row.solver.incremental_flows_solved),
        static_cast<unsigned long long>(row.solver.full_flows_solved),
        row.solver.reduction);
  }
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                const std::vector<ElectionStats>& election,
                double election_ceiling_s, bool election_pass,
                std::uint64_t events) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"scale_sweep\",\n");
  std::fprintf(out, "  \"events_per_run\": %llu,\n",
               static_cast<unsigned long long>(events));
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out, "    {\n");
    std::fprintf(out, "      \"nodes\": %zu,\n      \"vms\": %zu,\n", r.nodes,
                 r.vms);
    std::fprintf(out,
                 "      \"sim\": {\"events_per_s\": %.0f, "
                 "\"sim_s_per_wall_s\": %.2f},\n",
                 r.sim.events_per_sec, r.sim.sim_s_per_wall_s);
    std::fprintf(
        out,
        "      \"rebuild_spread\": {\n"
        "        \"orthogonal\": {\"max\": %.0f, \"mean\": %.2f, "
        "\"ratio\": %.2f, \"build_ms\": %.1f},\n"
        "        \"declustered\": {\"max\": %.0f, \"mean\": %.2f, "
        "\"ratio\": %.2f, \"build_ms\": %.1f}\n      },\n",
        r.ortho.worst_max, r.ortho.mean, r.ortho.ratio, r.ortho.build_ms,
        r.decl.worst_max, r.decl.mean, r.decl.ratio, r.decl.build_ms);
    std::fprintf(
        out,
        "      \"rebuild_drive\": {\"victims\": %zu, \"groups\": %zu, "
        "\"bytes_served\": %.0f, \"max_units\": %.0f, "
        "\"max_over_loaded_mean\": %.2f, \"exact\": %s, "
        "\"spread_ok\": %s, \"drive_ms\": %.1f},\n",
        r.rebuild.victims, r.rebuild.groups_touched, r.rebuild.bytes_served,
        r.rebuild.worst_units, r.rebuild.worst_ratio,
        r.rebuild.exact ? "true" : "false",
        r.rebuild.spread_ok ? "true" : "false", r.rebuild.drive_ms);
    std::fprintf(
        out,
        "      \"solver\": {\"ops\": %llu, "
        "\"incremental_flows_solved\": %llu, \"full_flows_solved\": %llu, "
        "\"reduction\": %.1f}\n",
        static_cast<unsigned long long>(r.solver.ops),
        static_cast<unsigned long long>(r.solver.incremental_flows_solved),
        static_cast<unsigned long long>(r.solver.full_flows_solved),
        r.solver.reduction);
    std::fprintf(out, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"election\": {\n    \"rows\": [\n");
  for (std::size_t i = 0; i < election.size(); ++i) {
    const ElectionStats& e = election[i];
    std::fprintf(
        out,
        "      {\"nodes\": %zu, \"trials\": %zu, \"failover_min_s\": %.4f, "
        "\"failover_mean_s\": %.4f, \"failover_max_s\": %.4f, "
        "\"elections\": %llu, \"safety_ok\": %s}%s\n",
        e.nodes, e.trials, e.failover_min_s, e.failover_mean_s,
        e.failover_max_s, static_cast<unsigned long long>(e.elections),
        e.safety_ok ? "true" : "false",
        i + 1 < election.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n    \"ceiling_s\": %.2f,\n    \"pass\": %s\n  }\n}\n",
               election_ceiling_s, election_pass ? "true" : "false");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace vdc

int main(int argc, char** argv) {
  using namespace vdc;
  std::string json_path = "BENCH_scale.json";
  std::vector<std::size_t> node_scales{1000, 10000};
  std::uint64_t events = 2000000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--events=", 9) == 0) {
      events = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--nodes=", 8) == 0) {
      node_scales.clear();
      const char* p = argv[i] + 8;
      while (*p) {
        node_scales.push_back(std::strtoull(p, const_cast<char**>(&p), 10));
        if (*p == ',') ++p;
      }
    }
  }

  bench::banner("Scale sweep: event core, declustered placement, "
                "incremental flow solver",
                "hold-model events/s, rebuild-load spread, solver work");

  std::vector<Row> rows;
  for (std::size_t n : node_scales) rows.push_back(run_scale(n, events));

  // Control-plane failover runs at fixed 200/1k/10k scales regardless of
  // --nodes: the trials are pure sim time over a bare plane, so even the
  // 10k row is cheap enough for every CI invocation.
  std::printf("\n-- election availability (leader kill -> next commit) --\n");
  constexpr double kElectionCeilingS = 2.0;
  std::vector<ElectionStats> election;
  for (std::size_t n : {std::size_t{200}, std::size_t{1000},
                        std::size_t{10000}}) {
    election.push_back(election_availability(n, /*trials=*/5));
  }
  bool election_pass = true;
  for (const ElectionStats& e : election)
    election_pass = election_pass && e.safety_ok &&
                    e.failover_max_s <= kElectionCeilingS;

  write_json(json_path, rows, election, kElectionCeilingS, election_pass,
             events);

  int rc = 0;
  if (!election_pass) {
    std::fprintf(stderr,
                 "FAIL: control-plane failover exceeded %.1f s (or a safety "
                 "invariant broke) after a leader kill\n",
                 kElectionCeilingS);
    rc = 1;
  }
  // The rebuild drive gates at EVERY scale: per-survivor served bytes must
  // equal the plan-derived prediction exactly, and the spread must obey
  // the decluster_test concentration bound.
  for (const Row& r : rows) {
    if (!r.rebuild.exact) {
      std::fprintf(stderr,
                   "FAIL: rebuild drive at %zu nodes: served bytes diverge "
                   "from the plan-level prediction\n",
                   r.nodes);
      rc = 1;
    }
    if (!r.rebuild.spread_ok) {
      std::fprintf(stderr,
                   "FAIL: rebuild drive at %zu nodes: per-survivor spread "
                   "exceeds ceil(3*mean)+1\n",
                   r.nodes);
      rc = 1;
    }
  }
  return rc;
}
