#pragma once
// Readers over JobRunner::journal() for the suites that audit a run: pick
// entries by kind, count cascades, and check that committed work is never
// silently lost; the span sink a traced run records into, which also
// audits every cut, commit and rollback against the guests' own bytes;
// and audit_run(), every whole-system invariant of a finished run in one
// place.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/crc32.hpp"
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

/// The sink a traced run records into. It keeps every span, and as the
/// spans arrive it checks the guests' bytes against the DVDC backend's
/// cuts and checkpoints:
///  - at `epoch.quiesce` the guests are still at the cut: it takes a CRC-32
///    of every placed guest, keyed by the span's `epoch` label;
///  - at `epoch.commit` each guest's stored checkpoint for that epoch must
///    have its cut's CRC;
///  - at `recovery.rollback`, emitted before the guests resume, every
///    placed guest, survivor or rebuilt, must carry the CRC of the
///    committed epoch's cut.
class TraceAudit final : public telemetry::SpanSink {
 public:
  explicit TraceAudit(JobRunner& runner) : runner_(runner) {}

  void on_span(const telemetry::SpanRecord& span) override {
    spans_.on_span(span);
    auto* dvdc = dynamic_cast<DvdcBackend*>(runner_.backend());
    if (dvdc == nullptr) return;
    auto& cluster = runner_.cluster();
    if (span.name == "epoch.quiesce") {
      auto& cut = cuts_[epoch_of(span)];
      cut.clear();
      for (vm::VmId vmid : cluster.all_vms())
        cut[vmid] = crc32(cluster.machine(vmid).image().bytes());
    } else if (span.name == "epoch.commit") {
      ++commits_;
      const std::string epoch = epoch_of(span);
      ASSERT_EQ(epoch, std::to_string(dvdc->committed_epoch()));
      const auto& cut = cuts_[epoch];
      for (vm::VmId vmid : cluster.all_vms()) {
        const checkpoint::StoredCheckpoint* cp =
            dvdc->state()
                .node_store(*cluster.locate(vmid))
                .find(vmid, dvdc->committed_epoch());
        ASSERT_NE(cp, nullptr) << "vm " << vmid << " epoch " << epoch;
        EXPECT_EQ(crc32(cp->payload()), cut.at(vmid))
            << "vm " << vmid << "'s epoch " << epoch
            << " checkpoint is not its cut";
      }
    } else if (span.name == "recovery.rollback") {
      ++rollbacks_;
      const auto cut = cuts_.find(std::to_string(dvdc->committed_epoch()));
      ASSERT_NE(cut, cuts_.end()) << "rollback to an epoch never cut";
      for (vm::VmId vmid : cluster.all_vms())
        EXPECT_EQ(crc32(cluster.machine(vmid).image().bytes()),
                  cut->second.at(vmid))
            << "vm " << vmid << " not rolled back to epoch " << cut->first
            << " at t=" << span.end;
    }
  }

  /// Every span, in emission order.
  const telemetry::InMemorySink& recorded() const { return spans_; }
  std::vector<telemetry::SpanRecord> named(std::string_view name) const {
    return spans_.named(name);
  }
  std::size_t commits() const { return commits_; }
  std::size_t rollbacks() const { return rollbacks_; }

 private:
  static std::string epoch_of(const telemetry::SpanRecord& span) {
    for (const telemetry::Label& label : span.labels)
      if (label.key == "epoch") return label.value;
    ADD_FAILURE() << span.name << " carries no epoch label";
    return {};
  }

  JobRunner& runner_;
  telemetry::InMemorySink spans_;
  /// Per epoch label: each guest's CRC-32 at that epoch's latest cut.
  std::map<std::string, std::map<vm::VmId, std::uint32_t>> cuts_;
  std::size_t commits_ = 0;
  std::size_t rollbacks_ = 0;
};

/// Trace `runner` into a fresh audited sink.
inline std::shared_ptr<TraceAudit> trace(JobRunner& runner) {
  auto sink = std::make_shared<TraceAudit>(runner);
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
/// stayed safe and parity scrubs clean. When `spans` traced the run, every
/// commit and every successful rollback was audited against the guests'
/// bytes (TraceAudit) and, under oracle detection, the recovery phases
/// partition each episode (exactly, unless a leaderless wait can leave a
/// gap). Returns the final watermark.
inline SimTime audit_run(JobRunner& runner, const RunResult& r,
                         const JobConfig& job, const ClusterConfig& cc,
                         const TraceAudit* spans = nullptr) {
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
  if (spans != nullptr && dynamic_cast<DvdcBackend*>(runner.backend())) {
    const auto& metrics = runner.sim().telemetry().metrics();
    EXPECT_EQ(static_cast<double>(spans->commits()),
              metrics.value("dvdc.epochs_committed"));
    EXPECT_GE(static_cast<double>(spans->rollbacks()),
              metrics.value("recovery.successes"));
  }
  if (spans != nullptr && !job.heartbeat)
    expect_phases_partition(spans->recorded(), /*exact=*/!job.control);
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
  // Every plane's timers ended with the run, so the simulator drains, and
  // then nothing is left on the wire.
  constexpr std::uint64_t kDrainEvents = 50'000'000;
  std::uint64_t events = 0;
  while (events < kDrainEvents && runner.sim().step()) ++events;
  EXPECT_LT(events, kDrainEvents) << "the simulator never drains";
  const auto& metrics = runner.sim().telemetry().metrics();
  EXPECT_EQ(metrics.value("net.active_flows"), 0.0);
  EXPECT_EQ(metrics.value("stream.inflight"), 0.0);
  return watermark;
}

}  // namespace vdc::core
