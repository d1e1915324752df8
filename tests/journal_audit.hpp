#pragma once
// Readers over JobRunner::journal() for the suites that audit a run: pick
// entries by kind, count cascades, and check that committed work is never
// silently lost; and audit_run(), every whole-system invariant of a
// finished run in one place.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <ostream>
#include <tuple>
#include <vector>

#include "core/runtime.hpp"
#include "core/scrub.hpp"
#include "telemetry/sinks.hpp"

namespace vdc::core {

using Journal = std::vector<JournalEntry>;
using JournalKind = controlplane::ControlEntry::Kind;

/// Lets gtest print a mismatching entry readably.
inline void PrintTo(const JournalEntry& e, std::ostream* os) {
  *os << "{t=" << e.time << " work=" << e.committed_work << ' '
      << controlplane::kind_name(e.entry.kind) << ' ' << e.entry.value << ' '
      << e.entry.arg << '}';
}

inline Journal entries_of(const Journal& journal, JournalKind kind) {
  Journal out;
  std::copy_if(journal.begin(), journal.end(), std::back_inserter(out),
               [kind](const JournalEntry& e) { return e.entry.kind == kind; });
  return out;
}

inline std::size_t count_of(const Journal& journal, JournalKind kind) {
  return static_cast<std::size_t>(
      std::count_if(journal.begin(), journal.end(),
                    [kind](const JournalEntry& e) {
                      return e.entry.kind == kind;
                    }));
}

/// Failures that struck an open recovery episode (kNodeFailed, arg = 1).
inline Journal cascades(const Journal& journal) {
  Journal out;
  for (const JournalEntry& e : entries_of(journal, JournalKind::kNodeFailed))
    if (e.entry.arg == 1) out.push_back(e);
  return out;
}

/// The committed-work watermark falls only at kRollback (an older durable
/// level was restored) or kJobRestart (data loss): committed work is never
/// *silently* lost. Returns the final watermark.
inline SimTime expect_watermark_monotone(const Journal& journal) {
  SimTime watermark = 0.0;
  for (const JournalEntry& e : journal) {
    if (e.entry.kind == JournalKind::kRollback ||
        e.entry.kind == JournalKind::kJobRestart) {
      watermark = e.committed_work;
      continue;
    }
    EXPECT_GE(e.committed_work, watermark - 1e-9)
        << "watermark silently regressed at t=" << e.time << " ("
        << controlplane::kind_name(e.entry.kind) << ")";
    watermark = std::max(watermark, e.committed_work);
  }
  return watermark;
}

/// Trace `runner` into a fresh in-memory sink.
inline std::shared_ptr<telemetry::InMemorySink> trace(JobRunner& runner) {
  auto sink = std::make_shared<telemetry::InMemorySink>();
  runner.sim().telemetry().set_enabled(true);
  runner.sim().telemetry().add_sink(sink);
  return sink;
}

/// The recovery phases under each traced `recovery` root never overlap
/// and stay inside it; with `exact` they also add up to it.
inline void expect_phases_partition(const telemetry::InMemorySink& sink,
                                    bool exact) {
  for (const telemetry::SpanRecord& root : sink.named("recovery")) {
    std::vector<telemetry::SpanRecord> phases;
    for (const telemetry::SpanRecord& span : sink.spans())
      if (span.parent == root.id) phases.push_back(span);
    std::sort(phases.begin(), phases.end(), [](const auto& a, const auto& b) {
      return std::tie(a.start, a.end) < std::tie(b.start, b.end);
    });
    SimTime at = root.start, sum = 0.0;
    for (const telemetry::SpanRecord& phase : phases) {
      EXPECT_GE(phase.start, at - 1e-9)
          << phase.name << " at t=" << phase.start << " overlaps";
      EXPECT_LE(phase.end, root.end + 1e-9) << phase.name << " outlives";
      at = phase.end;
      sum += phase.duration();
    }
    if (exact) {
      EXPECT_NEAR(sum, root.duration(), 1e-9)
          << "phases of the recovery at t=" << root.start;
    }
  }
}

/// Every invariant of a finished run: it finished with coherent
/// accounting, every VM is back and running, committed work was never
/// silently lost, clients saw only committed output, the control plane
/// stayed safe, parity scrubs clean and, when `spans` traced the run
/// under oracle detection, the recovery phases partition each episode
/// (exactly, unless a leaderless wait can leave a gap). Returns the final
/// watermark.
inline SimTime audit_run(JobRunner& runner, const RunResult& r,
                         const JobConfig& job, const ClusterConfig& cc,
                         const telemetry::InMemorySink* spans = nullptr) {
  EXPECT_TRUE(r.finished);
  EXPECT_GE(r.time_ratio, 1.0 - 1e-9);
  EXPECT_GE(r.lost_work, 0.0);
  EXPECT_GE(r.total_overhead, 0.0);
  EXPECT_GE(r.total_recovery, 0.0);
  // Lost work is recomputed on top, hence >=.
  EXPECT_GE(r.completion + 1e-6,
            r.total_work + r.total_overhead + r.total_recovery);
  auto& cluster = runner.cluster();
  EXPECT_EQ(cluster.all_vms().size(), std::size_t{cc.nodes} * cc.vms_per_node);
  for (vm::VmId vmid : cluster.all_vms())
    EXPECT_EQ(cluster.machine(vmid).state(), vm::VmState::Running)
        << "vm " << vmid;
  const SimTime watermark = expect_watermark_monotone(runner.journal());
  EXPECT_EQ(r.recovery_cascades, cascades(runner.journal()).size());
  EXPECT_GE(r.failures_during_recovery, r.recovery_cascades);
  EXPECT_EQ(runner.sim().telemetry().metrics().find("job.failures_ignored"),
            nullptr);

  EXPECT_EQ(runner.traffic() != nullptr, job.traffic.has_value());
  EXPECT_EQ(runner.control() != nullptr, job.control.has_value());
  if (const workload::TrafficPlane* plane = runner.traffic()) {
    const auto s = plane->summary();
    EXPECT_GT(s.delivered, 0u) << "no client was ever answered";
    // A failover stalls every guest longer than a client waits.
    if (r.failures > 0) {
      EXPECT_GT(s.timeouts + s.retries, 0u);
    }
    EXPECT_EQ(s.timeouts, s.retries);  // every timeout resends
    // Attempt k went out at first_send + (k-1) timeouts (the plane's own
    // float additions) and was answered before its own deadline.
    const SimTime timeout = job.traffic->client_timeout;
    for (const workload::DeliveryRecord& d : plane->deliveries()) {
      EXPECT_LE(d.cut, d.committed_at_delivery)
          << "request " << d.request << " observed an uncommitted epoch";
      SimTime sent = d.first_send;
      for (std::uint32_t k = 1; k < d.attempts; ++k) sent += timeout;
      EXPECT_LE(sent, d.delivered_at) << "request " << d.request;
      EXPECT_LE(d.delivered_at, sent + timeout) << "request " << d.request;
    }
  }
  if (const controlplane::ControlPlane* cp = runner.control()) {
    EXPECT_TRUE(cp->election_safety_ok());
    EXPECT_TRUE(cp->epoch_sequence_ok());
    EXPECT_TRUE(cp->logs_consistent());
    // The leader's replayed view agrees with the data plane.
    if (cp->leader().has_value()) {
      EXPECT_EQ(cp->leader_view()->committed_epoch,
                runner.backend()->committed_epoch());
    }
  }
  if (spans != nullptr && !job.heartbeat)
    expect_phases_partition(*spans, /*exact=*/!job.control);
  // Last, as it steps the simulator on: every committed stripe scrubs
  // clean against its members' committed checkpoints.
  if (auto* dvdc = dynamic_cast<DvdcBackend*>(runner.backend())) {
    ParityScrubber scrubber(runner.sim(), cluster, dvdc->state());
    std::optional<ScrubReport> scrub;
    scrubber.scrub(dvdc->placed_plan(), /*repair=*/false,
                   [&scrub](const ScrubReport& report) { scrub = report; });
    while (!scrub && runner.sim().step()) {
    }
    EXPECT_TRUE(scrub.has_value() && scrub->clean());
  }
  return watermark;
}

}  // namespace vdc::core
