// e2e_bench: one full core::JobRunner job per process, measured end to end
// and layer by layer from outside the library.
//
// Workloads (README.md gives the reasons in full):
//   fleet  many nodes, declustered RAID-5, a two-node cascade: the flow
//          solver, planner and declustered rebuild dominate host time;
//   serve  open-loop client traffic with output commit, a raft control
//          plane, wire heartbeats and a lossy fabric, a node kill and a
//          leader kill: millions of small events (event core, telemetry,
//          traffic plane, raft, retransmission);
//   dirty  few nodes with large, heavily written guests under RS(k,2):
//          capture, VDD1 encoding, undo log and gf256 folds dominate.
//
// Every metric is printed by name with its unit; the last stdout line is
// one JSON object with all of them, the checks' verdict and `sim_digest`,
// a hash of every simulated output (equal digests = bit-identical
// simulation). Host-time metrics use std::chrono::steady_clock.
//
// With --trace=DIR the run also writes DIR/<workload>.trace.json (the
// program's sim-time spans plus the benchmark's host-time spans, Chrome
// trace format) and DIR/<workload>.layers.json (host CPU per layer from
// the SIGPROF sampler) and adds the host.* / setup.* / backend.* metrics.
//
// Usage: e2e_bench --workload=fleet|serve|dirty [--seed=N] [--smoke]
//                  [--trace=DIR]
// Exit status: 0 when every check passed, 1 on a failed check, 2 on a
// usage error.

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "core/scrub.hpp"
#include "sampler.hpp"
#include "telemetry/sinks.hpp"

namespace vdc::bench {
namespace {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  core::ClusterConfig cluster;
  core::JobConfig job;
  core::ProtocolConfig protocol;
  core::PlannerConfig planner;
  std::uint32_t kills = 0;  // node kills the schedule must land
};

failure::ScheduledFailure kill_at(SimTime at, std::uint32_t node) {
  failure::ScheduledFailure ev;
  ev.at = at;
  ev.node = node;
  return ev;
}

/// `smoke` shrinks each workload to well under a second while keeping its
/// shape (same features, same kill pattern) for the tier-1 smoke test.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, bool smoke) {
  Workload w;
  w.job.seed = seed;
  if (name == "fleet") {
    const std::uint32_t nodes = smoke ? 40 : 120;
    w.cluster.nodes = nodes;
    w.cluster.vms_per_node = 10;
    w.cluster.pages_per_vm = 16;
    w.cluster.page_size = kib(4);
    w.cluster.write_rate = 20.0;
    w.planner.group_size = 15;
    w.planner.layout = core::PlannerConfig::Layout::Declustered;
    w.job.interval = 5.0;
    w.job.total_work = 20.0;
    // The second kill lands while the first node's rebuild is running.
    w.job.failure_schedule = {kill_at(11.0, 7), kill_at(12.0, nodes / 2)};
    w.kills = 2;
  } else if (name == "serve") {
    w.cluster.nodes = smoke ? 8 : 32;
    w.cluster.vms_per_node = 4;
    w.cluster.pages_per_vm = 16;
    w.cluster.page_size = kib(1);
    w.cluster.write_rate = 150.0;
    w.job.interval = 1.0;
    w.job.total_work = smoke ? 20.0 : 75.0;
    workload::TrafficConfig traffic;
    traffic.mode = workload::TrafficConfig::Mode::kOpen;
    traffic.clients_per_guest = 1000;
    traffic.request_rate = 0.05;
    traffic.client_timeout = 2.0;
    traffic.response_bytes = kib(2);
    traffic.warmup = 2.0;
    // The outstanding-request guard is global across guests: sized for
    // this offered load through a failover, so no arrival is shed.
    traffic.open_outstanding_limit = std::size_t{1} << 20;
    w.job.traffic = traffic;
    w.job.control = controlplane::ControlPlaneConfig{};
    w.job.heartbeat = cluster::HeartbeatConfig{};
    net::LinkFault lossy;
    lossy.drop = 0.002;
    w.job.ambient_link_fault = lossy;
    failure::ScheduledFailure leader;
    leader.kind = failure::ScheduledFailure::Kind::kKillLeader;
    leader.node = failure::ScheduledFailure::kAllNodes;
    leader.at = smoke ? 14.0 : 52.0;
    w.job.failure_schedule = {kill_at(smoke ? 4.0 : 30.0, 5), leader};
    w.kills = 2;
  } else if (name == "dirty") {
    w.cluster.nodes = 8;
    w.cluster.vms_per_node = 4;
    w.cluster.pages_per_vm = smoke ? 256 : 1024;
    w.cluster.page_size = kib(4);
    w.cluster.write_rate = 4000.0;
    w.protocol.scheme = core::ParityScheme::Rs;
    w.protocol.rs_parity = 2;
    w.job.interval = 2.0;
    w.job.total_work = smoke ? 8.0 : 16.0;
    w.job.failure_schedule = {kill_at(smoke ? 5.0 : 9.0, 3)};
    w.kills = 1;
  } else {
    return std::nullopt;
  }
  return w;
}

// ---------------------------------------------------------------------------
// Host-time spans and the timing backend decorator

struct HostSpan {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::int64_t epoch = -1;  // -1: no epoch label
};

class HostTimeline {
 public:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  /// Record a span from `start_us` to `end_us` (default: now); returns
  /// its length in seconds.
  double record(std::string name, double start_us, std::int64_t epoch = -1,
                std::optional<double> end_us = std::nullopt) {
    const double dur_us = end_us.value_or(now_us()) - start_us;
    spans_.push_back({std::move(name), start_us, dur_us, epoch});
    return dur_us * 1e-6;
  }
  const std::vector<HostSpan>& spans() const { return spans_; }

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<HostSpan> spans_;
};

/// Forwards every call to the DVDC backend; times the synchronous part of
/// checkpoint() and of the recovery entry points on the host clock.
class TimedBackend final : public core::CheckpointBackend {
 public:
  TimedBackend(std::unique_ptr<core::DvdcBackend> inner,
               HostTimeline& timeline)
      : inner_(std::move(inner)), timeline_(timeline) {}

  void checkpoint(checkpoint::Epoch epoch, EpochDone done) override {
    const double t0 = timeline_.now_us();
    inner_->checkpoint(epoch, std::move(done));
    checkpoint_s_ += timeline_.record("backend.checkpoint", t0,
                                      static_cast<std::int64_t>(epoch));
    ++checkpoint_calls_;
  }
  SimTime early_resume_delay() const override {
    return inner_->early_resume_delay();
  }
  void abort_checkpoint() override { inner_->abort_checkpoint(); }
  void on_node_failure(cluster::NodeId victim) override {
    timed("backend.on_node_failure", [&] { inner_->on_node_failure(victim); });
  }
  void handle_failure(const std::vector<vm::VmId>& lost,
                      RecoveryDone done) override {
    timed("backend.handle_failure",
          [&] { inner_->handle_failure(lost, std::move(done)); });
  }
  bool abort_recovery() override {
    bool aborted = false;
    timed("backend.abort_recovery",
          [&] { aborted = inner_->abort_recovery(); });
    return aborted;
  }
  checkpoint::Epoch committed_epoch() const override {
    return inner_->committed_epoch();
  }
  void on_job_restart() override { inner_->on_job_restart(); }
  void set_commit_gate(CommitGate gate) override {
    inner_->set_commit_gate(std::move(gate));
  }
  std::string name() const override { return inner_->name(); }

  double checkpoint_s() const { return checkpoint_s_; }
  std::uint64_t checkpoint_calls() const { return checkpoint_calls_; }
  double recovery_s() const { return recovery_s_; }

 private:
  template <class Fn>
  void timed(const char* span, Fn&& fn) {
    const double t0 = timeline_.now_us();
    fn();
    recovery_s_ += timeline_.record(
        span, t0, static_cast<std::int64_t>(inner_->committed_epoch()));
  }

  std::unique_ptr<core::DvdcBackend> inner_;
  HostTimeline& timeline_;
  double checkpoint_s_ = 0.0;
  std::uint64_t checkpoint_calls_ = 0;
  double recovery_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// Metric collection

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Counter summed over every label set of `name`.
double sum_series(const telemetry::MetricsRegistry& registry,
                  const std::string& name) {
  double total = 0.0;
  for (const telemetry::Metric* m : registry.all())
    if (m->name == name) total += m->value;
  return total;
}

/// Host-side series: they measure the simulator's own work (wall clock,
/// memcpy volume, kernel tier), not the simulated system, and may change
/// under a speed-only change.
bool host_side(const std::string& name) {
  for (const char* prefix :
       {"dvdc.wall.", "dvdc.copy.", "dvdc.pages.", "stream.arena.",
        "parity.kernel.", "sim."})
    if (name.rfind(prefix, 0) == 0) return true;
  return false;
}

/// FNV-1a over every simulated series in the registry (host-side series
/// excluded) plus the job result: equal digests mean the two runs
/// simulated the same thing, bit for bit.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void text(const std::string& s) { bytes(s.data(), s.size() + 1); }
  void number(double v) { bytes(&v, sizeof v); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t sim_digest(const telemetry::MetricsRegistry& registry,
                         const core::RunResult& result) {
  Digest d;
  for (const telemetry::Metric* m : registry.all()) {
    if (host_side(m->name)) continue;
    d.text(m->name);
    for (const auto& label : m->labels) {
      d.text(label.key);
      d.text(label.value);
    }
    d.number(m->value);
    d.number(m->peak);
    for (double v : m->samples.values()) d.number(v);
  }
  for (double v : {result.completion, result.total_overhead,
                   result.total_recovery, result.lost_work,
                   static_cast<double>(result.bytes_shipped)})
    d.number(v);
  return d.value();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

volatile double g_probe_sink;  // keeps the probe loop from being elided

/// The probe's time on the reference machine (README) when no other
/// tenant slows it.
constexpr double kReferenceProbeS = 0.09;

/// Host speed probe, run just before the job: a fixed integer and
/// floating-point dependency chain that no library change can touch. On a
/// shared host every job slows by 10-15% for minutes at a time; the probe
/// slows with it (r = 0.92-0.95 over 4-job windows on every workload), so
/// host times are also reported rescaled to the reference machine's speed.
double probe_s() {
  const auto start = Clock::now();
  std::uint64_t x = 1;
  double acc = 0.0;
  for (int i = 0; i < 60'000'000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    acc += static_cast<double>(x >> 60);
  }
  g_probe_sink = acc;
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------------------
// Trace output

/// Insert the benchmark's host-time spans (pid 2) into the Chrome trace the
/// program's ChromeTraceSink wrote (sim-time spans, pid 1).
bool merge_host_spans(const std::string& path, const HostTimeline& timeline) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string trace = buffer.str();
  const std::string anchor = "\"traceEvents\":[\n";
  const std::size_t at = trace.find(anchor);
  if (at == std::string::npos) return false;

  std::string events =
      "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":"
      "{\"name\":\"host time (benchmark)\"}},\n";
  char buf[256];
  for (const HostSpan& s : timeline.spans()) {
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"X\",\"pid\":2,\"tid\":1,\"name\":\"%s\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{",
                  s.name.c_str(), s.start_us, s.dur_us);
    events += buf;
    if (s.epoch >= 0) events += "\"epoch\":" + std::to_string(s.epoch);
    events += "}},\n";
  }
  trace.insert(at + anchor.size(), events);
  std::ofstream out(path);
  out << trace;
  return out.good();
}

void write_json_metrics(std::ostream& out, const std::vector<Metric>& ms) {
  out << "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
    out << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << ms[i].unit << "\"}";
  }
  out << "}";
}

// ---------------------------------------------------------------------------
// One run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool smoke = false;
  std::string trace_dir;  // empty: untraced
};

std::string repro_command(const Options& opt) {
  std::string cmd = "e2e_bench --workload=" + opt.workload +
                    " --seed=" + std::to_string(opt.seed);
  if (opt.smoke) cmd += " --smoke";
  if (!opt.trace_dir.empty()) cmd += " --trace=" + opt.trace_dir;
  return cmd;
}

int run(const Options& opt) {
  const auto workload = make_workload(opt.workload, opt.seed, opt.smoke);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s' (fleet|serve|dirty)\n",
                 opt.workload.c_str());
    return 2;
  }
  const Workload& w = *workload;
  const bool traced = !opt.trace_dir.empty();
  std::printf("e2e_bench: workload %s, seed %" PRIu64 "%s%s\n",
              opt.workload.c_str(), opt.seed, opt.smoke ? ", smoke" : "",
              traced ? ", traced" : "");

  HostTimeline timeline;
  core::DvdcBackend* dvdc = nullptr;
  TimedBackend* timed = nullptr;
  double factory_enter_us = 0.0, plan_s = 0.0, factory_exit_us = 0.0;
  const core::ClusterConfig cc = w.cluster;
  const core::ProtocolConfig protocol = w.protocol;
  const core::PlannerConfig planner = w.planner;
  core::JobRunner runner(
      w.job, cc,
      [&](simkit::Simulator& sim, cluster::ClusterManager& cluster,
          Rng&) -> std::unique_ptr<core::CheckpointBackend> {
        factory_enter_us = timeline.now_us();
        auto backend = std::make_unique<core::DvdcBackend>(
            sim, cluster, protocol, core::RecoveryConfig{},
            core::make_workload_factory(cc), planner);
        // The initial plan build belongs to setup, not to the first epoch.
        const double plan_us = timeline.now_us();
        backend->placed_plan();
        plan_s = timeline.record("setup.plan", plan_us);
        dvdc = backend.get();
        auto wrapped = std::make_unique<TimedBackend>(std::move(backend),
                                                      timeline);
        timed = wrapped.get();
        factory_exit_us = timeline.now_us();
        return wrapped;
      });

  std::shared_ptr<telemetry::ChromeTraceSink> sink;
  std::unique_ptr<StackSampler> sampler;
  const std::string base = opt.trace_dir + "/" + opt.workload;
  const std::string trace_path = base + ".trace.json";
  constexpr double kSamplePeriod = 1e-3;
  if (traced) {
    sink = std::make_shared<telemetry::ChromeTraceSink>(trace_path,
                                                        opt.workload);
    runner.sim().telemetry().set_enabled(true);
    runner.sim().telemetry().add_sink(sink);
    // 64 frames x 8 B per sample: 32 MiB, room for 65 s at 1 kHz.
    sampler = std::make_unique<StackSampler>(std::size_t{1} << 16);
  }

  // --- timed region ---------------------------------------------------------
  const double host_speed = kReferenceProbeS / probe_s();
  const double cpu0 = process_cpu_s();
  if (sampler) sampler->start(kSamplePeriod);
  const double run_us = timeline.now_us();
  const core::RunResult result = runner.run();
  const double end_us = timeline.now_us();
  if (sampler) sampler->stop();
  const double run_cpu_s = process_cpu_s() - cpu0;
  // -------------------------------------------------------------------------
  timeline.record("run", run_us, -1, end_us);
  timeline.record("setup", run_us, -1, factory_exit_us);
  const double rss_mib = peak_rss_mib();

  const double setup_s = (factory_exit_us - run_us) * 1e-6;
  const double run_s = (end_us - run_us) * 1e-6;
  const auto& registry = runner.sim().telemetry().metrics();
  const auto& sim = runner.sim();
  auto& network = runner.cluster().fabric().network();
  const std::uint64_t digest = sim_digest(registry, result);

  // --- end-to-end metrics ---------------------------------------------------
  std::vector<Metric> metrics;
  const auto report = [&metrics](std::string name, double value,
                                 std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  };
  // Wall seconds x host speed = seconds the reference machine would take.
  report("sim_s_per_ref_s",
         ratio(result.completion, (run_s - setup_s) * host_speed),
         "sim-s/ref-s");
  report("setup_s", setup_s * host_speed, "s");
  report("sim_s_per_wall_s", ratio(result.completion, run_s - setup_s),
         "sim-s/s");
  report("setup_wall_s", setup_s, "s");
  report("host.speed", host_speed, "ratio");
  report("peak_rss_mb", rss_mib, "MiB");

  const double committed = registry.value("dvdc.epochs_committed");
  const double aborted = registry.value("dvdc.epochs_aborted");
  const workload::TrafficPlane* traffic = runner.traffic();
  const auto serve = traffic ? traffic->summary()
                             : workload::TrafficPlane::Summary{};
  const double refused =
      registry.value("serve.shed", telemetry::Labels{{"where", "arrival"}});
  const double issued = static_cast<double>(serve.requests - serve.retries);
  const double delivered = static_cast<double>(serve.delivered);
  // Operations: checkpoint epochs and client requests. A request still in
  // flight when the job ends (held by output commit for a cut that never
  // comes) is neither delivered nor failed; a refused one failed.
  const double attempted = committed + aborted + delivered + refused;
  const double failed = aborted + refused;
  report("ops_failed_frac", ratio(failed, attempted), "fraction");
  report("time_ratio", result.time_ratio, "ratio");
  const telemetry::Metric* overhead = registry.find("dvdc.overhead_s");
  const telemetry::Metric* latency = registry.find("dvdc.latency_s");
  report("epoch_overhead_ms",
             overhead ? overhead->samples.mean() * 1e3 : 0.0, "sim-ms");
  report("commit_latency_p50_s",
             latency ? latency->samples.percentile(50.0) : 0.0, "sim-s");
  report("wire_bytes_per_epoch",
             ratio(static_cast<double>(result.bytes_shipped), committed),
             "B");
  report("recovery_s", result.total_recovery, "sim-s");
  report("lost_work_s", result.lost_work, "sim-s");
  if (traffic) {
    report("serve_p50_s", serve.latency_p50, "sim-s");
    report("serve_p99_s", serve.latency_p99, "sim-s");
    report("serve_p999_s", serve.latency_p999, "sim-s");
    report("downtime_visible_s", serve.downtime_visible, "sim-s");
    report("goodput_rps", serve.throughput, "req/sim-s");
  }

  // --- per-layer counts -----------------------------------------------------
  const double transfers = sum_series(registry, "net.transfers");
  const double solved = static_cast<double>(network.solver_flows_solved());
  report("simkit.events", static_cast<double>(sim.executed()), "count");
  report("simkit.events_cancelled", static_cast<double>(sim.cancelled()),
             "count");
  report("simkit.queue_peak", static_cast<double>(sim.queue_peak()),
             "count");
  report("net.flows_solved", solved, "count");
  report("net.transfers", transfers, "count");
  report("net.flows_solved_per_transfer", ratio(solved, transfers),
             "ratio");
  report("net.active_flows_peak", registry.peak("net.active_flows"),
             "count");
  report("net.drops", registry.value("net.drops"), "count");
  report("net.retransmits", registry.value("net.retransmits"), "count");
  report("plan.rebuilds", registry.value("plan.rebuilds"), "count");
  report("dvdc.epochs_committed", committed, "count");
  report("dvdc.epochs_aborted", aborted, "count");
  report("dvdc.commit_ratio", ratio(committed, committed + aborted),
             "ratio");
  report("dvdc.copy_bytes", registry.value("dvdc.copy.bytes"), "B");
  report("dvdc.state_bytes_peak", registry.peak("dvdc.state_bytes"), "B");
  report("dvdc.capture_s", registry.value("dvdc.wall.capture_ns") * 1e-9,
             "s");
  report("dvdc.fold_s", registry.value("dvdc.wall.fold_ns") * 1e-9, "s");
  report("wire.delta_bytes", sum_series(registry, "exchange.delta_bytes"),
             "B");
  report("wire.compress_ratio", registry.value("wire.compress.ratio"),
             "ratio");
  report("parity.fold_bytes",
             sum_series(registry, "parity.kernel.fold_bytes"), "B");
  report("recovery.attempts", registry.value("recovery.attempts"),
             "count");
  report("recovery.cascades", registry.value("recovery.cascades"),
             "count");
  report("recovery.bytes", sum_series(registry, "recovery.bytes"), "B");
  report("serve.requests", static_cast<double>(serve.requests), "count");
  report("serve.retries", static_cast<double>(serve.retries), "count");
  report("serve.shed", sum_series(registry, "serve.shed"), "count");
  report("serve.held_peak_bytes",
             static_cast<double>(serve.held_bytes_peak), "B");
  report("serve.delivered_per_send",
             ratio(delivered, static_cast<double>(serve.requests)), "ratio");
  report("serve.in_flight_at_end", issued - delivered, "count");
  const telemetry::Metric* cp_latency = registry.find("cp.commit_latency_s");
  report("cp.frames", registry.value("cp.frames"), "count");
  report("cp.elections", registry.value("cp.elections"), "count");
  report("cp.commit_latency_p50_s",
             cp_latency ? cp_latency->samples.percentile(50.0) : 0.0,
             "sim-s");
  report("hb.suspected", registry.value("hb.suspected"), "count");
  report("hb.false_positives", registry.value("hb.false_positives"),
             "count");
  report("telemetry.series", static_cast<double>(registry.size()),
             "count");

  // --- checks (outside the timed region) ------------------------------------
  std::vector<std::string> failures;
  const auto check = [&failures](bool ok, std::string what) {
    if (!ok) failures.push_back(std::move(what));
  };
  check(result.finished, "job did not finish");
  check(result.failures == w.kills,
        "job.failures = " + std::to_string(result.failures) +
            ", scripted kills = " + std::to_string(w.kills));
  check(result.job_restarts == 0,
        "job restarted " + std::to_string(result.job_restarts) + " time(s)");
  if (traffic) check(serve.delivered > 0, "serve delivered no request");
  if (const auto* plane = runner.control()) {
    check(plane->elections() >= 1, "no control-plane election");
    check(plane->election_safety_ok(), "raft election safety violated");
    check(plane->epoch_sequence_ok(), "raft epoch sequence has a gap");
    check(plane->logs_consistent(), "raft committed logs diverge");
  }
  {
    core::ParityScrubber scrubber(runner.sim(), runner.cluster(),
                                  dvdc->state());
    std::optional<core::ScrubReport> scrub;
    scrubber.scrub(dvdc->placed_plan(), /*repair=*/false,
                   [&scrub](const core::ScrubReport& r) { scrub = r; });
    while (!scrub && runner.sim().step()) {
    }
    check(scrub.has_value(), "parity scrub never completed");
    if (scrub) {
      check(scrub->groups_checked > 0, "parity scrub checked no group");
      check(scrub->clean(), std::to_string(scrub->mismatched.size()) +
                                " parity stripe(s) fail the scrub");
    }
  }

  // --- traced run: layers, seam timers, trace files -------------------------
  if (traced) {
    const auto counts = sampler->layer_samples(base + ".pcs");
    std::uint64_t total = 0;
    for (const auto& [layer, n] : counts) total += n;
    report("host.samples", static_cast<double>(total), "count");
    report("host.wall_s", run_s, "s");
    report("host.cpu_s", run_cpu_s, "s");
    for (const std::string& layer : layer_names()) {
      const double n = static_cast<double>(counts.at(layer));
      report("host." + layer + ".wall_s", n * sampler->period_s(), "s");
      report("host." + layer + ".share",
                 ratio(n, static_cast<double>(total)), "fraction");
    }
    report("setup.boot_s", (factory_enter_us - run_us) * 1e-6, "s");
    report("setup.plan_s", plan_s, "s");
    report("backend.checkpoint_s", timed->checkpoint_s(), "s");
    report("backend.checkpoint_calls",
               static_cast<double>(timed->checkpoint_calls()), "count");
    report("backend.recovery_s", timed->recovery_s(), "s");

    runner.sim().telemetry().flush();
    check(merge_host_spans(trace_path, timeline),
          "cannot write " + trace_path);
    std::vector<Metric> host;
    for (const Metric& m : metrics)
      if (m.name.rfind("host.", 0) == 0) host.push_back(m);
    std::ofstream layers(base + ".layers.json");
    layers << "{\"workload\": \"" << opt.workload
           << "\", \"seed\": " << opt.seed
           << ", \"sample_period_s\": " << sampler->period_s()
           << ", \"dropped\": " << sampler->dropped() << ", \"metrics\": ";
    write_json_metrics(layers, host);
    layers << "}\n";
    check(layers.good(), "cannot write " + base + ".layers.json");
  }

  for (const Metric& m : metrics)
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  %-34s %u\n", "epochs", result.epochs);
  std::printf("  %-34s %016" PRIx64 "\n", "sim_digest", digest);
  for (const std::string& f : failures)
    std::fprintf(stderr, "CHECK FAILED (seed %" PRIu64 "): %s\n", opt.seed,
                 f.c_str());
  if (!failures.empty())
    std::fprintf(stderr, "reproduce: %s\n", repro_command(opt).c_str());

  std::ostringstream line;
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, digest);
  line << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
       << ", \"smoke\": " << (opt.smoke ? "true" : "false")
       << ", \"traced\": " << (traced ? "true" : "false")
       << ", \"ok\": " << (failures.empty() ? "true" : "false")
       << ", \"sim_digest\": \"" << digest_hex << "\""
       << ", \"epochs\": " << result.epochs
       << ", \"attempted\": " << static_cast<std::uint64_t>(attempted)
       << ", \"failed\": " << static_cast<std::uint64_t>(failed)
       << ", \"metrics\": ";
  write_json_metrics(line, metrics);
  line << "}";
  std::printf("%s\n", line.str().c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace vdc::bench

int main(int argc, char** argv) {
  vdc::bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      opt.workload = arg.substr(11);
    } else if (arg.rfind("--seed=", 0) == 0 && arg.size() > 7 &&
               arg.find_first_not_of("0123456789", 7) == std::string::npos) {
      opt.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      opt.trace_dir = arg.substr(8);
    } else {
      std::fprintf(stderr,
                   "usage: e2e_bench --workload=fleet|serve|dirty "
                   "[--seed=N] [--smoke] [--trace=DIR]\n");
      return 2;
    }
  }
  if (opt.workload.empty()) {
    std::fprintf(stderr, "e2e_bench: --workload is required\n");
    return 2;
  }
  try {
    return vdc::bench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s (reproduce: %s)\n", e.what(),
                 vdc::bench::repro_command(opt).c_str());
    return 1;
  }
}
