// Whole-system swarm fuzzing (Groce et al., "Swarm Testing", ISSTA 2012).
// Each seed draws a feature set from its own Rng: the parity scheme,
// chunked streams, a lossy fabric, client traffic, a control plane,
// tracing and one fault regime. It runs one JobRunner job with those
// features, passes the run to audit_run() (journal_audit.hpp), and checks
// what its features promise. It then replays the job with tracing flipped.
// The journal, the RunResult and every simulated registry series must come
// back identical, so tracing changes nothing. A failing seed prints its
// features and a one-line repro.
//
// The sweep (`Seeds/*`) rides the `slow` label, sharded over several CTest
// entries; VDC_FUZZ_SEEDS widens it. Four fixed-size slices pin the focus of
// the seed-sweep suites this one replaced and keep their CTest names
// (runtime_fuzz_test, lossy_fuzz_test, serving_fuzz_test,
// controlplane_fuzz_test); every other feature stays drawn. `Swarm.*` is
// tier 1: the coverage guard, the signature seeds that keep the sweep's
// checks from going vacuous, and a strike timed into an epoch, the one
// run where the rollback audit sees survivors off the committed cut.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/runtime.hpp"
#include "failure/distributions.hpp"
#include "failure/injector.hpp"
#include "fuzz_seeds.hpp"
#include "journal_audit.hpp"
#include "model/montecarlo.hpp"

namespace vdc::core {
namespace {

constexpr int kDefaultSeeds = 32;
// Seeds per slice. VDC_FUZZ_SEEDS leaves it alone: a slice is one CTest
// entry, and the sharded sweep is what widens.
constexpr int kSliceSeeds = 8;
// Signature seeds. kLeaderSeed (a leader drill with open traffic on a
// lossy fabric) found heals wiping the ambient lossy regime.
constexpr int kLeaderSeed = 2;
constexpr int kCascadeSeed = 3;
constexpr int kPartitionSeed = 22;

enum class Regime { kPoisson, kCascade, kPartition, kLeader };
enum class Traffic { kOff, kClosed, kOpen };
/// What a slice pins after the draw; kNone is the sweep itself.
enum class Focus { kNone, kRuntime, kLossy, kServing, kControl };
/// The gtest instantiation of each focus, for the repro line.
constexpr const char* kFocusName[] = {"Seeds", "Runtime", "Lossy", "Serving",
                                      "ControlPlane"};

struct Features {
  bool rs = false;        // RS(k,2), else RAID-5
  bool chunked = false;   // 4 KiB chunks at depth 4, exchange and recovery
  bool lossy = false;     // 1% drop, 0.1% corrupt, 200 us jitter everywhere
  Traffic traffic = Traffic::kOff;
  bool control = false;   // replicated control plane, on 6 nodes
  bool traced = false;    // of the first run; the replay flips it
  Regime regime = Regime::kPoisson;
};

std::string describe(const Features& f) {
  static const char* const kTraffic[] = {"off", "closed", "open"};
  static const char* const kRegime[] = {"poisson", "cascade", "partition",
                                        "leader"};
  std::ostringstream os;
  os << "scheme=" << (f.rs ? "rs" : "raid5")
     << " chunks=" << (f.chunked ? "4KiB" : "off")
     << " fabric=" << (f.lossy ? "lossy" : "clean")
     << " traffic=" << kTraffic[static_cast<int>(f.traffic)]
     << " control=" << (f.control ? "on" : "off")
     << " trace=" << (f.traced ? "on" : "off")
     << " regime=" << kRegime[static_cast<int>(f.regime)];
  return os.str();
}

/// The features and the job of one seed.
struct Scenario {
  Features features;
  ClusterConfig cluster;
  JobConfig job;
};

/// Random leader-targeted drill: kills and partition/heal pairs at
/// increasing times, early enough that the job can still finish.
std::string leader_drill(Rng& rng) {
  std::string script;
  char buf[64];
  double t = 30.0 + rng.uniform(0.0, 40.0);
  const int events = 2 + static_cast<int>(rng.uniform_u64(3));
  for (int i = 0; i < events && t < 360.0; ++i) {
    if (rng.chance(0.5)) {
      std::snprintf(buf, sizeof(buf), "kill-leader at %.3f\n", t);
    } else {
      std::snprintf(buf, sizeof(buf), "partition-leader at %.3f 1\n", t);
      script += buf;
      t += 5.0 + rng.uniform(0.0, 10.0);
      std::snprintf(buf, sizeof(buf), "heal %.3f all\n", t);
    }
    script += buf;
    t += 25.0 + rng.uniform(0.0, 40.0);
  }
  return script;
}

ClusterConfig cluster_of(bool control) {
  ClusterConfig cc;
  cc.nodes = control ? 6 : 4;
  cc.vms_per_node = 2;
  cc.page_size = kib(1);
  cc.pages_per_vm = 16;
  cc.write_rate = 150.0;
  return cc;
}

Scenario scenario(int seed, Focus focus = Focus::kNone) {
  Rng rng(0x5ca1ab1eull * static_cast<std::uint64_t>(seed) +
          static_cast<std::uint64_t>(focus));
  Scenario s;
  Features& f = s.features;
  f.rs = rng.chance(0.5);
  f.chunked = rng.chance(0.5);
  f.lossy = rng.chance(0.5);
  f.traffic = static_cast<Traffic>(rng.uniform_u64(3));
  f.control = rng.chance(0.5);
  f.traced = rng.chance(0.5);
  f.regime = static_cast<Regime>(rng.uniform_u64(4));
  // A slice pins the focus of the suite whose name it keeps; the other
  // features stay drawn, and the exclusions below still apply.
  switch (focus) {
    case Focus::kNone:
      break;
    case Focus::kRuntime:  // runtime_fuzz: Poisson kills, Weibull cascades
      f.regime = static_cast<Regime>(static_cast<int>(f.regime) % 2);
      break;
    case Focus::kLossy:  // lossy_fuzz: chunked streams on a lossy fabric
      f.lossy = f.chunked = true;
      break;
    case Focus::kServing:  // serving_fuzz: client traffic
      if (f.traffic == Traffic::kOff) f.traffic = Traffic::kClosed;
      break;
    case Focus::kControl:  // controlplane_fuzz: the leader drill
      f.regime = Regime::kLeader;
      break;
  }
  // A leader drill strikes the control plane's leader, and detects by
  // oracle: killed replicas revive when the attempt starts, so the quorum
  // always comes back and an election can settle.
  if (f.regime == Regime::kLeader) f.control = true;
  // An RS(k,2) stripe needs four live nodes (two members, two holders).
  // The partition drill kills node 1 for good, which leaves three of the
  // four nodes without a control plane.
  if (f.regime == Regime::kPartition && !f.control) f.rs = false;

  const ClusterConfig& cc = s.cluster = cluster_of(f.control);
  JobConfig& job = s.job;
  job.seed = rng.next();
  using SF = failure::ScheduledFailure;
  switch (f.regime) {
    case Regime::kPoisson:
      job.total_work = minutes(15);
      job.interval = minutes(2);
      job.lambda = 1.0 / minutes(5);
      break;
    case Regime::kCascade: {
      // Per-node bursty clocks (infant-mortality Weibull) re-armed 60 s
      // after each kill, merged into one schedule that runs well past the
      // job's end: strikes keep landing inside open episodes.
      job.total_work = minutes(25);
      job.interval = minutes(3);
      failure::WeibullTtf ttf(0.7, minutes(25));
      for (failure::NodeId node = 0; node < cc.nodes; ++node)
        for (SimTime at = ttf.sample(rng); at < 8 * job.total_work;
             at += 60.0 + ttf.sample(rng))
          job.failure_schedule.push_back({at, node});
      std::stable_sort(
          job.failure_schedule.begin(), job.failure_schedule.end(),
          [](const SF& a, const SF& b) { return a.at < b.at; });
      break;
    }
    case Regime::kPartition: {
      // Wire-true detection: isolating node 2 makes a false-positive
      // suspicion (fencing, zombie rejoin after the heal), then node 1
      // really dies. Wire detection never revives a node, so it pairs
      // only with this bounded schedule.
      job.total_work = minutes(5);
      job.interval = minutes(1);
      job.heartbeat = cluster::HeartbeatConfig{};
      const SimTime at = 70.0 + rng.uniform(0.0, 8.0);
      job.failure_schedule = {
          {.at = at, .node = 2, .kind = SF::Kind::kPartition, .group = 1},
          {.at = at + 20.0, .node = SF::kAllNodes, .kind = SF::Kind::kHeal},
          {.at = at + 60.0, .node = 1}};
      break;
    }
    case Regime::kLeader:
      job.total_work = minutes(8);
      job.interval = minutes(1);
      job.failure_schedule =
          failure::ScheduledFailureInjector::parse(leader_drill(rng));
      break;
  }
  if (f.lossy)
    job.ambient_link_fault =
        net::LinkFault{.drop = 0.01, .corrupt = 0.001, .jitter = 200e-6};
  if (f.traffic != Traffic::kOff) {
    workload::TrafficConfig tc;
    tc.mode = f.traffic == Traffic::kOpen
                  ? workload::TrafficConfig::Mode::kOpen
                  : workload::TrafficConfig::Mode::kClosed;
    tc.clients_per_guest = 1000;
    tc.streams_per_guest = 2;
    tc.think_time = 20.0;      // closed: 50 requests/s per guest
    tc.request_rate = 0.05;    // open: the same offered load
    // Bounds the retry storm that builds up while a failover stalls.
    tc.open_outstanding_limit = 128;
    tc.client_timeout = 2.0;
    tc.response_bytes = kib(2);
    tc.record_deliveries = true;
    job.traffic = tc;
  }
  if (f.control) job.control = controlplane::ControlPlaneConfig{};
  return s;
}

JobRunner::BackendFactory backend_for(const Features& f, ClusterConfig cc) {
  return [f, cc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
                 Rng&) -> std::unique_ptr<CheckpointBackend> {
    ProtocolConfig pc;
    RecoveryConfig rc;
    PlannerConfig planner;
    if (f.rs) {
      pc.scheme = ParityScheme::Rs;
      planner.group_size = 2;  // leaves two nodes parity-eligible
    }
    if (f.chunked) {
      pc.chunking.chunk_bytes = kib(4);
      rc.chunking = pc.chunking;
    }
    return std::make_unique<DvdcBackend>(sim, cluster, pc, rc,
                                         make_workload_factory(cc), planner);
  };
}

/// One registry series: name, labels, value, peak and samples.
using Series =
    std::tuple<std::string, std::string, double, double, std::vector<double>>;

/// What a replay must reproduce.
struct Outcome {
  RunResult result;
  Journal journal;
  std::vector<Series> series;  // host-side ones excluded

  double value(const std::string& name) const {
    double total = 0.0;
    for (const Series& s : series)
      if (std::get<0>(s) == name) total += std::get<2>(s);
    return total;
  }
};

/// The prefixes e2e_bench's sim_digest skips: they measure the
/// simulator's own work, not the simulated system.
constexpr const char* kHostSide[] = {"dvdc.wall.",    "dvdc.copy.",
                                     "dvdc.pages.",   "stream.arena.",
                                     "parity.kernel.", "sim."};

/// Every simulated series.
std::vector<Series> simulated_series(const telemetry::MetricsRegistry& reg) {
  std::vector<Series> out;
  for (const telemetry::Metric* m : reg.all()) {
    if (std::any_of(std::begin(kHostSide), std::end(kHostSide),
                    [&](const char* p) { return m->name.rfind(p, 0) == 0; }))
      continue;
    std::string labels;
    for (const telemetry::Label& l : m->labels)
      labels += l.key + '=' + l.value + ';';
    out.emplace_back(m->name, labels, m->value, m->peak, m->samples.values());
  }
  return out;
}

auto fields(const RunResult& r) {
  return std::tuple(r.finished, r.completion, r.total_work, r.time_ratio,
                    r.failures, r.failures_during_recovery,
                    r.recovery_cascades, r.epochs, r.job_restarts,
                    r.total_overhead, r.checkpoint_latency_sum,
                    r.total_recovery, r.lost_work, r.bytes_shipped,
                    r.peak_state_bytes);
}

Outcome run_and_audit(const Scenario& s, bool traced) {
  const Features& f = s.features;
  JobRunner runner(s.job, s.cluster, backend_for(f, s.cluster));
  const auto sink = traced ? trace(runner) : nullptr;
  Outcome out;
  out.result = runner.run();
  const RunResult& r = out.result;
  audit_run(runner, r, s.job, s.cluster, sink.get());
  out.journal = runner.journal();
  out.series = simulated_series(runner.sim().telemetry().metrics());

  // What each feature promises, on every seed that draws it.
  if (f.lossy && f.chunked) {
    EXPECT_GT(out.value("net.drops"), 0.0) << "the fabric was not lossy";
    EXPECT_GT(out.value("net.retransmits"), 0.0) << "nothing was resent";
  }
  if (f.regime == Regime::kCascade) {  // the regime never went quiet
    EXPECT_GT(s.job.failure_schedule.back().at, r.completion);
  }
  if (f.regime == Regime::kPartition) {
    EXPECT_GE(r.failures + out.value("job.suspected_failures"), 1.0);
  }
  if (f.regime == Regime::kLeader && r.failures > 0) {
    EXPECT_GE(runner.control()->elections(), 1u);
  }
  return out;
}

/// Audits a scenario and its replay with tracing flipped; returns the
/// first run.
Outcome check_scenario(const Scenario& s) {
  Outcome first = run_and_audit(s, s.features.traced);
  const Outcome replay = run_and_audit(s, !s.features.traced);
  EXPECT_EQ(first.journal, replay.journal);
  EXPECT_EQ(fields(first.result), fields(replay.result));
  EXPECT_EQ(first.series.size(), replay.series.size());
  for (std::size_t i = 0;
       i < std::min(first.series.size(), replay.series.size()); ++i)
    EXPECT_EQ(first.series[i], replay.series[i]);
  return first;
}

/// Audits one seed and its replay; returns the first run.
Outcome check_seed(int seed, Focus focus = Focus::kNone) {
  const Scenario s = scenario(seed, focus);
  const std::string env =
      focus == Focus::kNone && seed > kDefaultSeeds
          ? "VDC_FUZZ_SEEDS=" + std::to_string(seed) + " "
          : "";
  SCOPED_TRACE(describe(s.features) + "\n  repro: " + env +
               "swarm_test --gtest_filter=" +
               kFocusName[static_cast<int>(focus)] +
               "/SwarmSweep.Audit/seed" + std::to_string(seed));
  return check_scenario(s);
}

class SwarmSweep : public ::testing::TestWithParam<std::tuple<Focus, int>> {
};

TEST_P(SwarmSweep, Audit) {
  check_seed(std::get<1>(GetParam()), std::get<0>(GetParam()));
}

auto seeds(Focus focus, int count) {
  return ::testing::Combine(::testing::Values(focus),
                            ::testing::Range(1, count + 1));
}

std::string seed_name(
    const ::testing::TestParamInfo<SwarmSweep::ParamType>& info) {
  return "seed" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SwarmSweep,
                         seeds(Focus::kNone, fuzz_seed_count(kDefaultSeeds)),
                         seed_name);
INSTANTIATE_TEST_SUITE_P(Runtime, SwarmSweep,
                         seeds(Focus::kRuntime, kSliceSeeds), seed_name);
INSTANTIATE_TEST_SUITE_P(Lossy, SwarmSweep, seeds(Focus::kLossy, kSliceSeeds),
                         seed_name);
INSTANTIATE_TEST_SUITE_P(Serving, SwarmSweep,
                         seeds(Focus::kServing, kSliceSeeds), seed_name);
INSTANTIATE_TEST_SUITE_P(ControlPlane, SwarmSweep,
                         seeds(Focus::kControl, kSliceSeeds), seed_name);

TEST(Swarm, DefaultSeedsDrawEveryFeatureValue) {
  std::set<std::string> drawn;
  for (int seed = 1; seed <= kDefaultSeeds; ++seed) {
    std::istringstream words(describe(scenario(seed).features));
    for (std::string word; words >> word;) drawn.insert(word);
  }
  // 2 schemes, 2 chunkings, 2 fabrics, 3 traffic modes, control on/off,
  // tracing on/off and 4 regimes.
  EXPECT_EQ(drawn.size(), 17u);
}

TEST(Swarm, SignatureSeedsAreNotVacuous) {
  // Each effect the sweep's checks rely on to bite, shown by a named seed.
  const Outcome leader = check_seed(kLeaderSeed);
  EXPECT_GT(leader.value("net.retransmits"), 0.0) << "no retransmission";
  EXPECT_GT(leader.value("cp.elections"), 0.0) << "no election";
  EXPECT_GT(leader.result.failures, 0u);
  EXPECT_GT(leader.value("serve.timeouts"), 0.0)
      << "no client timed out after a failover";
  const Outcome cascade = check_seed(kCascadeSeed);
  EXPECT_GT(cascade.result.recovery_cascades, 0u) << "no cascaded round";
  const Outcome partition = check_seed(kPartitionSeed);
  EXPECT_GT(partition.value("job.suspected_failures"), 0.0)
      << "no suspicion";
}

TEST(Swarm, StrikeAfterAnUncommittedCutRollsSurvivorsBack) {
  // Guests run between cuts only, so a survivor's bytes differ from the
  // committed cut only when the strike lands after a later cut: mid-epoch.
  // The same job without failures times the second epoch; the strike
  // lands in its middle, which aborts it and leaves every survivor at the
  // uncommitted cut for the rollback to undo.
  Scenario s;
  s.features.traced = true;
  s.cluster = cluster_of(/*control=*/false);
  s.job.seed = 7;
  s.job.total_work = minutes(5);
  s.job.interval = minutes(1);
  SimTime strike = 0.0;
  {
    JobRunner runner(s.job, s.cluster, backend_for(s.features, s.cluster));
    const auto sink = trace(runner);
    runner.run();
    const auto epochs = sink->named("epoch");
    ASSERT_GE(epochs.size(), 2u);
    strike = (epochs[1].start + epochs[1].end) / 2.0;
  }
  s.job.failure_schedule = {{.at = strike, .node = 1}};
  SCOPED_TRACE(describe(s.features) + " strike at t=" +
               std::to_string(strike));
  const Outcome out = check_scenario(s);
  EXPECT_EQ(out.result.failures, 1u);
  EXPECT_EQ(out.value("dvdc.epochs_aborted"), 1.0);
  EXPECT_EQ(out.value("recovery.successes"), 1.0);
}

TEST(RuntimeModel, DesTracksRenewalModelUnderManySeeds) {
  // Aggregate DES completion times over seeds and compare with the
  // renewal Monte-Carlo at the same (interval, overhead, repair): the two
  // must agree to within a modest tolerance, closing the loop between
  // the system and the Section V analysis.
  JobConfig job;
  job.total_work = minutes(30);
  job.interval = minutes(5);
  job.lambda = 1.0 / minutes(12);

  const ClusterConfig cc = cluster_of(/*control=*/false);
  RunningStats des;
  SimTime overhead_sum = 0, recovery_sum = 0;
  std::uint32_t epochs = 0, failures = 0;
  for (int seed = 1; seed <= 12; ++seed) {
    job.seed = static_cast<std::uint64_t>(seed);
    JobRunner runner(job, cc, backend_for(Features{}, cc));
    const RunResult r = runner.run();
    ASSERT_TRUE(r.finished);
    des.add(r.completion);
    overhead_sum += r.total_overhead;
    recovery_sum += r.total_recovery;
    epochs += r.epochs;
    failures += r.failures;
  }

  model::McConfig mc;
  mc.lambda = job.lambda;
  mc.total_work = job.total_work;
  mc.interval = job.interval;
  mc.overhead = epochs ? overhead_sum / epochs : 0.0;
  mc.repair = failures ? recovery_sum / failures : 0.0;
  mc.trials = 20000;
  const auto renewal = model::simulate_completion_times(mc, Rng(99));

  // Within 10%: the DES has detection/restart effects the renewal model
  // folds into a single T_r, so exact agreement is not expected.
  EXPECT_NEAR(des.mean() / renewal.mean(), 1.0, 0.10);
}

}  // namespace
}  // namespace vdc::core
