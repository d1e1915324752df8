// vdcsim — parameterized command-line driver for the DVDC simulator.
//
// The tool a downstream user reaches for first: describe a cluster and a
// job, pick a checkpoint scheme, and get the completion-time breakdown.
//
//   $ ./vdcsim --nodes 8 --vms 2 --pages 256 --mtbf-min 45 --scheme rs
//   $ ./vdcsim --interval-s 120 --rs-m 2 --seed 7
//   $ ./vdcsim --scheme diskfull --work-h 4
//   $ ./vdcsim --scheme none --mtbf-min 90
//   $ ./vdcsim --help

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/baseline.hpp"
#include "core/runtime.hpp"

using namespace vdc;
using namespace vdc::core;

namespace {

struct Options {
  std::uint32_t nodes = 4;
  std::uint32_t vms = 3;
  std::size_t pages = 128;       // 4 KiB pages per VM
  double work_h = 2.0;
  double interval_s = 300.0;
  double mtbf_min = 60.0;        // 0 = no failures
  std::string scheme = "dvdc";   // dvdc | rs | diskfull | none
  std::size_t rs_m = 2;
  std::uint64_t seed = 42;
  bool adaptive = false;
  bool sync = false;             // synchronous (non-COW) capture
  bool heartbeat = false;        // wire-true failure detection
  double drop = 0.0;             // ambient per-frame drop probability
  double corrupt = 0.0;          // ambient per-frame corruption probability
};

void usage() {
  std::puts(
      "vdcsim — distributed virtual diskless checkpointing simulator\n"
      "  --nodes N        physical nodes (default 4)\n"
      "  --vms N          VMs per node (default 3)\n"
      "  --pages N        4 KiB pages per VM image (default 128)\n"
      "  --work-h H       job length in fault-free hours (default 2)\n"
      "  --interval-s S   checkpoint interval in seconds (default 300)\n"
      "  --mtbf-min M     cluster MTBF in minutes, 0 = no failures "
      "(default 60)\n"
      "  --scheme S       dvdc | rs | diskfull | none (default dvdc)\n"
      "  --rs-m M         Reed-Solomon parity blocks (default 2)\n"
      "  --adaptive       adaptive (online Young) checkpoint interval\n"
      "  --sync           synchronous capture (no copy-on-write overlap)\n"
      "  --heartbeat      wire-true failure detection (measured latency,\n"
      "                   heartbeats cross the fabric's fault plane)\n"
      "  --drop P         ambient per-frame drop probability on every NIC\n"
      "  --corrupt P      ambient per-frame corruption probability\n"
      "  --seed N         RNG seed (default 42)");
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return false;
    } else if (arg == "--adaptive") {
      opt.adaptive = true;
    } else if (arg == "--heartbeat") {
      opt.heartbeat = true;
    } else if (arg == "--sync") {
      opt.sync = true;
    } else {
      const char* value = need_value();
      if (value == nullptr) return false;
      if (arg == "--nodes")
        opt.nodes = static_cast<std::uint32_t>(std::atoi(value));
      else if (arg == "--vms")
        opt.vms = static_cast<std::uint32_t>(std::atoi(value));
      else if (arg == "--pages")
        opt.pages = static_cast<std::size_t>(std::atol(value));
      else if (arg == "--work-h")
        opt.work_h = std::atof(value);
      else if (arg == "--interval-s")
        opt.interval_s = std::atof(value);
      else if (arg == "--mtbf-min")
        opt.mtbf_min = std::atof(value);
      else if (arg == "--scheme")
        opt.scheme = value;
      else if (arg == "--rs-m")
        opt.rs_m = static_cast<std::size_t>(std::atol(value));
      else if (arg == "--seed")
        opt.seed = static_cast<std::uint64_t>(std::atoll(value));
      else if (arg == "--drop")
        opt.drop = std::atof(value);
      else if (arg == "--corrupt")
        opt.corrupt = std::atof(value);
      else {
        std::fprintf(stderr, "unknown flag %s (try --help)\n", arg.c_str());
        return false;
      }
    }
  }
  return true;
}

JobRunner::BackendFactory make_backend(const Options& opt,
                                       const ClusterConfig& cc) {
  if (opt.scheme == "diskfull") {
    return [cc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
                Rng&) -> std::unique_ptr<CheckpointBackend> {
      return std::make_unique<DiskFullBackend>(sim, cluster,
                                               make_workload_factory(cc),
                                               DiskFullConfig{});
    };
  }
  if (opt.scheme == "none") {
    return [](simkit::Simulator&, cluster::ClusterManager&,
              Rng&) -> std::unique_ptr<CheckpointBackend> {
      return std::make_unique<NoCheckpointBackend>();
    };
  }
  ProtocolConfig pc;
  pc.copy_on_write = !opt.sync;
  pc.rs_parity = opt.rs_m;
  pc.scheme = opt.scheme == "rs" ? ParityScheme::Rs : ParityScheme::Raid5;
  return [cc, pc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
                  Rng&) -> std::unique_ptr<CheckpointBackend> {
    return std::make_unique<DvdcBackend>(sim, cluster, pc, RecoveryConfig{},
                                         make_workload_factory(cc));
  };
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return argc > 1 ? 1 : 0;
  if (opt.scheme != "dvdc" && opt.scheme != "rs" &&
      opt.scheme != "diskfull" && opt.scheme != "none") {
    std::fprintf(stderr, "unknown scheme '%s' (try --help)\n",
                 opt.scheme.c_str());
    return 1;
  }

  ClusterConfig cc;
  cc.nodes = opt.nodes;
  cc.vms_per_node = opt.vms;
  cc.page_size = kib(4);
  cc.pages_per_vm = opt.pages;
  cc.write_rate = 200.0;

  JobConfig job;
  job.total_work = hours(opt.work_h);
  job.interval = opt.scheme == "none" ? 0.0 : opt.interval_s;
  job.lambda = opt.mtbf_min > 0 ? 1.0 / minutes(opt.mtbf_min) : 0.0;
  job.seed = opt.seed;
  if (opt.heartbeat) job.heartbeat = cluster::HeartbeatConfig{};
  if (opt.drop > 0.0 || opt.corrupt > 0.0) {
    if (opt.drop < 0.0 || opt.drop > 1.0 || opt.corrupt < 0.0 ||
        opt.corrupt > 1.0) {
      std::fprintf(stderr, "--drop/--corrupt must be in [0,1]\n");
      return 1;
    }
    net::LinkFault ambient;
    ambient.drop = opt.drop;
    ambient.corrupt = opt.corrupt;
    job.ambient_link_fault = ambient;
  }
  if (opt.adaptive && opt.scheme != "none") {
    AdaptiveConfig ac;
    ac.lambda = job.lambda > 0 ? job.lambda : 1e-4;
    ac.initial = opt.interval_s;
    job.adaptive_interval = ac;
  }

  char mtbf_label[32];
  if (opt.mtbf_min > 0)
    std::snprintf(mtbf_label, sizeof mtbf_label, "%.0f min", opt.mtbf_min);
  else
    std::snprintf(mtbf_label, sizeof mtbf_label, "inf");
  std::printf("vdcsim: %u nodes x %u VMs x %.1f MiB, job %.1f h, MTBF %s, "
              "scheme %s%s\n\n",
              opt.nodes, opt.vms, opt.pages * 4.0 / 1024.0, opt.work_h,
              mtbf_label, opt.scheme.c_str(),
              opt.adaptive ? " (adaptive)" : "");

  JobRunner runner(job, cc, make_backend(opt, cc));
  RunResult r;
  try {
    r = runner.run();
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "vdcsim: %s\n", e.what());
    return 1;
  }
  if (!r.finished) {
    std::puts("did not finish within the event budget");
    return 2;
  }
  std::printf("completion      : %.3f h (ratio %.4f)\n", r.completion / 3600,
              r.time_ratio);
  std::printf("checkpoints     : %u epochs, %.2f s total overhead, %.1f MiB "
              "shipped\n",
              r.epochs, r.total_overhead,
              r.bytes_shipped / (1024.0 * 1024.0));
  std::printf("failures        : %u (%u during recovery, %u cascaded "
              "rounds), %u restarts\n",
              r.failures, r.failures_during_recovery, r.recovery_cascades,
              r.job_restarts);
  std::printf("lost work       : %.1f min\n", r.lost_work / 60.0);
  std::printf("recovery time   : %.1f s\n", r.total_recovery);
  const auto& metrics = runner.sim().telemetry().metrics();
  if (opt.drop > 0.0 || opt.corrupt > 0.0) {
    std::printf("fabric          : %.0f drops, %.0f retransmits, %.0f "
                "corrupt frames caught\n",
                metrics.value("net.drops"), metrics.value("net.retransmits"),
                metrics.value("net.corrupt_frames"));
  }
  if (opt.heartbeat) {
    std::printf("detection       : %.0f suspected, %.0f false positives, "
                "%.0f fenced writes\n",
                metrics.value("hb.suspected"),
                metrics.value("hb.false_positives"),
                metrics.value("recovery.fenced"));
  }
  return 0;
}
