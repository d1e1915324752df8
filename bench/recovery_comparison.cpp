// CLAIM-REC — Section VI's DVDC-vs-Remus trade-off, plus the disk-full
// baseline:
//
//   Remus     — resumes almost instantly on the standby, loses only the
//               unacknowledged speculation window, but needs a dedicated
//               backup host per protected VM.
//   DVDC      — must detect, reconstruct from parity, roll the whole
//               cluster back to the committed cut, then resume; no standby
//               capacity required.
//   disk-full — detect, fetch the lost image back off the NAS, roll back.
//
// Reported per scheme: time until execution resumes, work lost to the
// rollback, and the redundant capacity the scheme reserves.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "core/baseline.hpp"
#include "core/runtime.hpp"
#include "migration/remus.hpp"

using namespace vdc;
using namespace vdc::core;

namespace {

constexpr SimTime kDetection = 0.5;
constexpr SimTime kCheckpointAge = 60.0;  // failure 60s after the last cut

ClusterConfig shape() {
  ClusterConfig cc;
  cc.nodes = 4;
  cc.vms_per_node = 3;
  cc.page_size = kib(4);
  cc.pages_per_vm = 256;
  cc.write_rate = 100.0;
  cc.node_spec.nic_rate = mib_per_s(100);
  return cc;
}

struct Row {
  const char* scheme;
  SimTime resume_after;  // failure -> compute resumes
  SimTime lost_work;
  const char* reserved;
};

template <typename MakeBackend>
Row run_backend(const char* name, const char* reserved,
                const bench::TraceSpec& trace, const char* trace_label,
                MakeBackend make_backend) {
  simkit::Simulator sim;
  trace.attach(sim, trace_label);
  cluster::ClusterManager cluster(sim, Rng(11));
  const ClusterConfig cc = shape();
  auto workloads = make_workload_factory(cc);
  for (std::uint32_t n = 0; n < cc.nodes; ++n)
    cluster.add_node(cc.node_spec);
  for (std::uint32_t n = 0; n < cc.nodes; ++n)
    for (std::uint32_t v = 0; v < cc.vms_per_node; ++v)
      cluster.boot_vm(n, cc.page_size, cc.pages_per_vm, workloads(0));

  auto backend = make_backend(sim, cluster, workloads);
  for (cluster::NodeId nid : cluster.alive_nodes())
    cluster.node(nid).hypervisor().pause_all();
  backend->checkpoint(1, [](const EpochStats&) {});
  sim.run();

  // Compute for kCheckpointAge, then node 1 dies.
  cluster.advance_workloads(kCheckpointAge);
  sim.run_until(sim.now() + kCheckpointAge);
  const SimTime fail_time = sim.now();
  const auto lost = cluster.node(1).hypervisor().vm_ids();
  cluster.kill_node(1);
  backend->on_node_failure(1);

  SimTime resumed_at = -1;
  sim.after(kDetection, [&] {
    backend->handle_failure(lost, [&](const RecoveryStats& rs) {
      (void)rs;
      resumed_at = sim.now();
    });
  });
  sim.run();
  if (trace.enabled()) sim.telemetry().flush();

  Row row;
  row.scheme = name;
  row.resume_after = resumed_at - fail_time;
  row.lost_work = kCheckpointAge;  // rolled back to the cut
  row.reserved = reserved;
  return row;
}

Row run_remus(const bench::TraceSpec& trace) {
  simkit::Simulator sim;
  trace.attach(sim, "remus");
  net::Fabric fabric(sim, 50e-6);
  const auto primary_host = fabric.add_host(mib_per_s(100));
  const auto backup_host = fabric.add_host(mib_per_s(100));
  vm::Hypervisor primary(Rng(21));
  primary.create_vm(1, "vm", kib(4), 256,
                    std::make_unique<vm::UniformWorkload>(100.0));

  migration::RemusReplicator remus(sim, fabric, primary, primary_host,
                                   backup_host, 1);
  remus.start();
  sim.run_until(kCheckpointAge);
  const auto failover = remus.failover();
  if (trace.enabled()) sim.telemetry().flush();

  Row row;
  row.scheme = "Remus (per-VM standby)";
  // Standby promotes as soon as the failure is detected.
  row.resume_after = kDetection;
  row.lost_work = failover.lost_work;
  row.reserved = "1 standby host per host";
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const auto trace = bench::TraceSpec::from_args(argc, argv);
  std::string json_path;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  bench::banner("CLAIM-REC  failure handling: DVDC vs Remus vs disk-full",
                "failure strikes 60 s after the last checkpoint cut");

  DiskFullConfig df;
  df.nas.frontend_rate = mib_per_s(100);
  df.nas.array =
      storage::DiskSpec{mib_per_s(60), mib_per_s(80), milliseconds(5)};

  ProtocolConfig chunked_pc;
  chunked_pc.chunking.chunk_bytes = kib(64);
  RecoveryConfig chunked_rc;
  chunked_rc.chunking = chunked_pc.chunking;

  const Row rows[] = {
      run_remus(trace),
      run_backend("DVDC (RAID-5 parity)", "1/n memory for parity", trace,
                  "dvdc",
                  [&](auto& sim, auto& cluster, auto& workloads) {
                    return std::make_unique<DvdcBackend>(
                        sim, cluster, ProtocolConfig{}, RecoveryConfig{},
                        workloads);
                  }),
      run_backend("DVDC (chunked 64K/4)", "1/n memory for parity", trace,
                  "dvdc_chunked",
                  [&](auto& sim, auto& cluster, auto& workloads) {
                    return std::make_unique<DvdcBackend>(
                        sim, cluster, chunked_pc, chunked_rc, workloads);
                  }),
      run_backend("disk-full (NAS)", "NAS capacity", trace, "diskfull",
                  [&](auto& sim, auto& cluster, auto& workloads) {
                    return std::make_unique<DiskFullBackend>(sim, cluster,
                                                             workloads, df);
                  }),
  };

  std::printf("%-24s %16s %14s  %s\n", "scheme", "resume after",
              "lost work", "reserved capacity");
  for (const auto& row : rows)
    std::printf("%-24s %16s %14s  %s\n", row.scheme,
                bench::fmt_time(row.resume_after).c_str(),
                bench::fmt_time(row.lost_work).c_str(), row.reserved);

  const Row& dvdc_plain = rows[1];
  const Row& dvdc_chunked = rows[2];
  const SimTime saved = dvdc_plain.resume_after - dvdc_chunked.resume_after;
  std::printf("\nChunked pipelining overlaps decode and forwards with the "
              "reconstruction wire: makespan %s vs %s (%s saved).\n",
              bench::fmt_time(dvdc_chunked.resume_after).c_str(),
              bench::fmt_time(dvdc_plain.resume_after).c_str(),
              bench::fmt_time(saved).c_str());
  std::printf("\nRemus resumes immediately and loses milliseconds, but "
              "doubles the hardware; DVDC pays seconds of reconstruction "
              "and rolls the cluster back to the last cut, for ~1/n memory "
              "overhead and zero idle nodes (the paper's trade).\n");

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out, "{\n  \"bench\": \"recovery_comparison\",\n");
    std::fprintf(out, "  \"rows\": [\n");
    const std::size_t n = sizeof(rows) / sizeof(rows[0]);
    for (std::size_t i = 0; i < n; ++i)
      std::fprintf(out,
                   "    {\"scheme\": \"%s\", \"resume_after_s\": %.9f, "
                   "\"lost_work_s\": %.9f}%s\n",
                   rows[i].scheme, rows[i].resume_after, rows[i].lost_work,
                   i + 1 < n ? "," : "");
    std::fprintf(out, "  ],\n  \"chunked_saved_s\": %.9f\n}\n", saved);
    std::fclose(out);
  }

  if (dvdc_chunked.resume_after >= dvdc_plain.resume_after) {
    std::fprintf(stderr,
                 "FAIL: chunked DVDC recovery makespan did not improve\n");
    return 1;
  }
  return 0;
}
