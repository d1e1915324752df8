// Serving sweep: the Figure-5 interval tradeoff restated in SLO terms.
//
// Fig. 5 plots completion-time ratio against checkpoint interval — the
// batch view. From a client's seat the same knob trades differently:
// output commit holds every response until its epoch commits, so
//
//   * short intervals commit (and release) guest egress often — served
//     p99 stays near queueing+service time, but checkpoint overhead
//     steals throughput (the classic Fig. 5 cost shows up as a higher
//     completion-time ratio);
//   * long intervals hold responses in the OutputCommitBuffer for most
//     of an epoch — p99/p999 and peak held bytes grow with the interval,
//     and the mid-run failure rolls back a whole epoch of egress, so
//     client-visible downtime grows too.
//
// One scripted node kill strikes every run at the same sim time, making
// failover-visible downtime a per-interval measurement rather than luck.
// Everything here is simulated: every reported number is a deterministic
// function of the seed, which is why CI can gate open-loop p99 and
// downtime against ceilings committed in bench/BENCH_baseline.json (via
// bench/check_regression.py) with a tight tolerance — wall-clock noise on
// shared runners never enters the metrics.
//
// Usage: serving_sweep [--intervals=0.5,1,2,5,10] [--json=PATH]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/runtime.hpp"

namespace vdc {
namespace {

constexpr SimTime kTotalWork = 60.0;
constexpr SimTime kKillAt = 32.0;
constexpr std::uint32_t kKillNode = 1;

core::ClusterConfig serving_cluster() {
  core::ClusterConfig cc;
  cc.nodes = 4;
  cc.vms_per_node = 2;
  cc.page_size = kib(1);
  cc.pages_per_vm = 16;
  cc.write_rate = 150.0;
  return cc;
}

workload::TrafficConfig serving_traffic(workload::TrafficConfig::Mode mode) {
  workload::TrafficConfig tc;
  tc.mode = mode;
  tc.clients_per_guest = 1000;
  tc.streams_per_guest = 4;
  tc.think_time = 10.0;   // closed: aggregate 100 req/s per stream
  tc.request_rate = 0.1;  // open: aggregate 100 req/s per guest
  tc.client_timeout = 2.0;
  tc.response_bytes = kib(2);
  tc.warmup = 2.0;
  return tc;
}

core::JobRunner::BackendFactory dvdc_backend(core::ClusterConfig cc) {
  return [cc](simkit::Simulator& sim, cluster::ClusterManager& cluster,
              Rng&) -> std::unique_ptr<core::CheckpointBackend> {
    return std::make_unique<core::DvdcBackend>(
        sim, cluster, core::ProtocolConfig{}, core::RecoveryConfig{},
        core::make_workload_factory(cc));
  };
}

struct ModeResult {
  workload::TrafficPlane::Summary serve;
  core::RunResult job;
};

/// One row per interval, both loop disciplines against the same scripted
/// kill: closed loop shows the throughput collapse (a stream can issue at
/// most one request per commit), open loop shows the tail — arrivals keep
/// coming while egress is held, so p99 tracks the epoch length plus the
/// failover stall.
struct Row {
  SimTime interval = 0.0;
  ModeResult closed;
  ModeResult open;
};

ModeResult run_mode(SimTime interval, workload::TrafficConfig::Mode mode) {
  core::JobConfig job;
  job.total_work = kTotalWork;
  job.interval = interval;
  job.seed = 1234;
  failure::ScheduledFailure kill;
  kill.at = kKillAt;
  kill.node = kKillNode;
  job.failure_schedule = {kill};
  job.traffic = serving_traffic(mode);

  const core::ClusterConfig cc = serving_cluster();
  core::JobRunner runner(job, cc, dvdc_backend(cc));
  ModeResult out;
  out.job = runner.run();
  out.serve = runner.traffic()->summary();
  return out;
}

Row run_interval(SimTime interval) {
  Row row;
  row.interval = interval;
  row.closed = run_mode(interval, workload::TrafficConfig::Mode::kClosed);
  row.open = run_mode(interval, workload::TrafficConfig::Mode::kOpen);
  for (const auto* m : {&row.closed, &row.open}) {
    std::printf(
        "interval %5.2fs %-6s: p50 %7.1f ms  p99 %7.1f ms  p999 %7.1f ms  "
        "%6.0f req/s  downtime %5.2f s  held peak %9s  ratio %.3f\n",
        interval, m == &row.closed ? "closed" : "open",
        m->serve.latency_p50 * 1e3, m->serve.latency_p99 * 1e3,
        m->serve.latency_p999 * 1e3, m->serve.throughput,
        m->serve.downtime_visible,
        bench::fmt_bytes(static_cast<double>(m->serve.held_bytes_peak))
            .c_str(),
        m->job.time_ratio);
  }
  return row;
}

/// Back-pressure row: the adaptive policy with a held-bytes high-water
/// mark against the same policy with the term disabled. Open loop holds
/// an epoch's worth of egress in the OutputCommitBuffer; feeding the
/// observed peak back into the interval makes the policy commit sooner
/// whenever the buffer blows past the mark, trading a little throughput
/// for a bounded buffer (and a shorter rollback exposure).
struct BackpressureRow {
  Bytes highwater = 0;
  ModeResult with;
  ModeResult without;
};

BackpressureRow run_backpressure() {
  BackpressureRow row;
  row.highwater = mib(1);
  const auto run = [&](Bytes highwater) {
    core::JobConfig job;
    job.total_work = kTotalWork;
    job.seed = 1234;
    core::AdaptiveConfig ac;
    // Young's interval for this workload sits above the clamp, so after
    // the short first epoch the policy ramps to max_interval = 10 s —
    // unless held bytes push back, the only difference between the runs.
    ac.initial = 2.0;
    ac.min_interval = 0.5;
    ac.max_interval = 10.0;
    ac.held_highwater = highwater;
    job.interval_policy = std::make_shared<core::AdaptiveIntervalPolicy>(ac);
    // No scripted kill here: a failover stall holds egress for the whole
    // recovery window no matter what the interval policy does, and that
    // spike would mask the steady-state buffering this row measures.
    job.traffic = serving_traffic(workload::TrafficConfig::Mode::kOpen);
    const core::ClusterConfig cc = serving_cluster();
    core::JobRunner runner(job, cc, dvdc_backend(cc));
    ModeResult out;
    out.job = runner.run();
    out.serve = runner.traffic()->summary();
    return out;
  };
  row.without = run(0);
  row.with = run(row.highwater);
  for (const auto* m : {&row.without, &row.with}) {
    std::printf(
        "backpressure %-7s: p99 %7.1f ms  %6.0f req/s  held peak %9s  "
        "epochs %3u  ratio %.3f\n",
        m == &row.with ? "on" : "off", m->serve.latency_p99 * 1e3,
        m->serve.throughput,
        bench::fmt_bytes(static_cast<double>(m->serve.held_bytes_peak))
            .c_str(),
        m->job.epochs, m->job.time_ratio);
  }
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                const BackpressureRow& bp) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"serving_sweep\",\n");
  std::fprintf(out,
               "  \"config\": {\"total_work_s\": %.0f, \"kill_at_s\": %.0f, "
               "\"kill_node\": %u, \"seed\": 1234},\n",
               kTotalWork, kKillAt, kKillNode);
  std::fprintf(out, "  \"rows\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(out, "    {\n      \"interval_s\": %g,\n", r.interval);
    const auto mode_json = [out](const char* key, const ModeResult& m,
                                 const char* tail) {
      const auto& s = m.serve;
      std::fprintf(out, "      \"%s\": {\n", key);
      std::fprintf(out,
                   "        \"latency\": {\"p50_s\": %.6f, \"p99_s\": %.6f, "
                   "\"p999_s\": %.6f, \"mean_s\": %.6f},\n",
                   s.latency_p50, s.latency_p99, s.latency_p999,
                   s.latency_mean);
      std::fprintf(out,
                   "        \"throughput_rps\": %.1f,\n"
                   "        \"downtime_visible_s\": %.4f,\n"
                   "        \"held_bytes_peak\": %llu,\n",
                   s.throughput, s.downtime_visible,
                   static_cast<unsigned long long>(s.held_bytes_peak));
      std::fprintf(
          out,
          "        \"clients\": {\"delivered\": %llu, \"retries\": %llu, "
          "\"timeouts\": %llu, \"duplicates\": %llu, "
          "\"dropped_abort\": %llu, \"dropped_failover\": %llu},\n",
          static_cast<unsigned long long>(s.delivered),
          static_cast<unsigned long long>(s.retries),
          static_cast<unsigned long long>(s.timeouts),
          static_cast<unsigned long long>(s.duplicates),
          static_cast<unsigned long long>(s.dropped_abort),
          static_cast<unsigned long long>(s.dropped_failover));
      std::fprintf(out,
                   "        \"job\": {\"time_ratio\": %.4f, "
                   "\"epochs\": %u, \"failures\": %u}\n      }%s\n",
                   m.job.time_ratio, m.job.epochs, m.job.failures, tail);
    };
    mode_json("closed", r.closed, ",");
    mode_json("open", r.open, "");
    std::fprintf(out, "    }%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  const auto bp_mode = [out](const char* key, const ModeResult& m,
                             const char* tail) {
    std::fprintf(out,
                 "    \"%s\": {\"held_bytes_peak\": %llu, \"p99_s\": %.6f, "
                 "\"throughput_rps\": %.1f, \"epochs\": %u, "
                 "\"time_ratio\": %.4f}%s\n",
                 key,
                 static_cast<unsigned long long>(m.serve.held_bytes_peak),
                 m.serve.latency_p99, m.serve.throughput, m.job.epochs,
                 m.job.time_ratio, tail);
  };
  std::fprintf(out, "  \"backpressure\": {\n    \"highwater_bytes\": %llu,\n",
               static_cast<unsigned long long>(bp.highwater));
  bp_mode("off", bp.without, ",");
  bp_mode("on", bp.with, "");
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

}  // namespace
}  // namespace vdc

int main(int argc, char** argv) {
  using namespace vdc;
  std::string json_path = "BENCH_serving.json";
  std::vector<SimTime> intervals{0.5, 1.0, 2.0, 5.0, 10.0};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--intervals=", 12) == 0) {
      intervals.clear();
      const char* p = argv[i] + 12;
      while (*p) {
        intervals.push_back(std::strtod(p, const_cast<char**>(&p)));
        if (*p == ',') ++p;
      }
    }
  }

  bench::banner(
      "Serving sweep: checkpoint interval vs client SLO",
      "output-commit latency, throughput and failover-visible downtime");

  std::vector<Row> rows;
  for (SimTime t : intervals) rows.push_back(run_interval(t));
  const BackpressureRow bp = run_backpressure();

  write_json(json_path, rows, bp);

  // Sanity gates: every interval must actually serve clients, and the
  // scripted kill must be client-visible somewhere in the sweep.
  int rc = 0;
  std::uint64_t disruptions = 0;
  for (const Row& r : rows) {
    for (const auto* m : {&r.closed, &r.open}) {
      if (m->serve.delivered == 0) {
        std::fprintf(stderr, "FAIL: interval %.2fs delivered nothing\n",
                     r.interval);
        rc = 1;
      }
      if (m->job.failures == 0) {
        std::fprintf(stderr,
                     "FAIL: interval %.2fs missed the scripted kill\n",
                     r.interval);
        rc = 1;
      }
      disruptions += m->serve.timeouts + m->serve.retries;
    }
  }
  if (disruptions == 0) {
    std::fprintf(stderr,
                 "FAIL: no client ever timed out or retried across the "
                 "sweep despite a node kill per run\n");
    rc = 1;
  }
  // The back-pressure term must actually bound the buffer: with the
  // high-water mark on, the held-bytes peak has to come down.
  if (bp.with.serve.held_bytes_peak >= bp.without.serve.held_bytes_peak) {
    std::fprintf(stderr,
                 "FAIL: held-bytes back-pressure did not reduce the peak "
                 "(%llu -> %llu)\n",
                 static_cast<unsigned long long>(
                     bp.without.serve.held_bytes_peak),
                 static_cast<unsigned long long>(
                     bp.with.serve.held_bytes_peak));
    rc = 1;
  }
  return rc;
}
