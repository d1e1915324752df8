// Micro-benchmarks (google-benchmark) of the hot kernels: the dispatched
// XOR used for parity, RLE compression of sparse deltas, Reed-Solomon
// encode/rebuild, max-min flow re-solves, the event core's timer churn and
// metric writes.
//
// Two rows check what they measure: BM_RsReconstruct compares the rebuilt
// blocks with the originals and BM_DataplaneIncrementalEpoch checks delta
// wire bytes <= trim-only bytes. A failed check errors its row and makes
// the process exit 1. A kernel tier the machine lacks errors its row too,
// but that is a skip, not a failure.

#include <benchmark/benchmark.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/rle.hpp"
#include "checkpoint/stream.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "parity/gf256.hpp"
#include "parity/kernels.hpp"
#include "core/protocol.hpp"
#include "net/flow_network.hpp"
#include "parity/reed_solomon.hpp"
#include "parity/xor.hpp"
#include "simkit/simulator.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/workload.hpp"

namespace {

using vdc::Rng;

/// Set when a row's correctness check fails; main() then exits 1.
bool check_failed = false;

void fail_check(benchmark::State& state, const char* what) {
  check_failed = true;
  state.SkipWithError(what);
}

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next());
  return out;
}

void BM_XorInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  auto dst = random_bytes(rng, n);
  const auto src = random_bytes(rng, n);
  for (auto _ : state) {
    vdc::parity::xor_into(dst, src);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_XorInto)->Arg(4096)->Arg(1 << 20)->Arg(16 << 20);

void BM_Raid5Encode(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBlock = 1 << 20;
  Rng rng(2);
  std::vector<vdc::parity::Block> data;
  for (std::size_t i = 0; i < k; ++i)
    data.push_back(random_bytes(rng, kBlock));
  std::vector<vdc::parity::BlockView> views(data.begin(), data.end());
  const vdc::parity::ReedSolomonCodec codec(k, 1);  // RAID-5
  for (auto _ : state) {
    auto parity = codec.encode(views);
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k * kBlock));
}
BENCHMARK(BM_Raid5Encode)->Arg(3)->Arg(7)->Arg(15);

void BM_RleEncodeSparse(benchmark::State& state) {
  // A typical XOR delta: 4 KiB page, one 64-byte run of changes.
  std::vector<std::byte> page(4096, std::byte{0});
  for (std::size_t i = 1000; i < 1064; ++i) page[i] = std::byte{0x5a};
  for (auto _ : state) {
    auto enc = vdc::checkpoint::rle_encode(page);
    benchmark::DoNotOptimize(enc.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096);
}
BENCHMARK(BM_RleEncodeSparse);

void BM_Gf256MulAdd(benchmark::State& state) {
  constexpr std::size_t kSize = 1 << 20;
  Rng rng(12);
  const auto src = random_bytes(rng, kSize);
  auto dst = random_bytes(rng, kSize);
  for (auto _ : state) {
    vdc::parity::gf256::mul_add(
        0xd3, reinterpret_cast<const std::uint8_t*>(src.data()),
        reinterpret_cast<std::uint8_t*>(dst.data()), kSize);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSize);
}
BENCHMARK(BM_Gf256MulAdd);

// --- dispatched kernel tiers -------------------------------------------------
//
// Per-tier throughput of the two primitives everything folds through. The
// tier is forced for the duration of the run and restored after, so these
// rows are directly comparable within one process: bench/BENCH_baseline.json
// gates the SIMD/scalar RATIO at 4 KiB (runner speed cancels out).

/// Run `fn` with `tier` active, restoring the previous tier after; skips
/// the benchmark when the machine doesn't support the tier.
template <typename Fn>
void with_tier(benchmark::State& state, std::int64_t tier_arg, Fn&& fn) {
  const auto tier = static_cast<vdc::parity::KernelTier>(tier_arg);
  if (!vdc::parity::tier_supported(tier)) {
    state.SkipWithError("kernel tier not supported on this machine");
    return;
  }
  const auto previous = vdc::parity::active_kernel().tier;
  vdc::parity::set_active_tier(tier);
  state.SetLabel(vdc::parity::tier_name(tier));
  fn();
  vdc::parity::set_active_tier(previous);
}

void BM_KernelXorInto(benchmark::State& state) {
  with_tier(state, state.range(0), [&] {
    const auto n = static_cast<std::size_t>(state.range(1));
    Rng rng(21);
    auto dst = random_bytes(rng, n);
    const auto src = random_bytes(rng, n);
    for (auto _ : state) {
      vdc::parity::xor_into(dst, src);
      benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
  });
}
BENCHMARK(BM_KernelXorInto)
    ->ArgNames({"tier", "bytes"})
    ->ArgsProduct({{0, 2, 3}, {4096, 1 << 20}});

void BM_KernelGf256MulAdd(benchmark::State& state) {
  with_tier(state, state.range(0), [&] {
    const auto n = static_cast<std::size_t>(state.range(1));
    Rng rng(22);
    const auto src = random_bytes(rng, n);
    auto dst = random_bytes(rng, n);
    for (auto _ : state) {
      vdc::parity::gf256::mul_add(
          0xd3, reinterpret_cast<const std::uint8_t*>(src.data()),
          reinterpret_cast<std::uint8_t*>(dst.data()), n);
      benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
  });
}
BENCHMARK(BM_KernelGf256MulAdd)
    ->ArgNames({"tier", "bytes"})
    ->ArgsProduct({{0, 2, 3}, {4096, 1 << 20}});

void BM_RsEncode(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBlock = 1 << 19;
  Rng rng(13);
  std::vector<vdc::parity::Block> data;
  for (int i = 0; i < 6; ++i) data.push_back(random_bytes(rng, kBlock));
  std::vector<vdc::parity::BlockView> views(data.begin(), data.end());
  vdc::parity::ReedSolomonCodec codec(6, m);
  for (auto _ : state) {
    auto parity = codec.encode(views);
    benchmark::DoNotOptimize(parity[0].data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(6 * kBlock));
}
BENCHMARK(BM_RsEncode)->Arg(1)->Arg(2)->Arg(3);

// RS(6,2) rebuild of 1 or 2 erased data blocks: the double-erasure path
// (an e x e inverse, then k mul_adds per lost block).
void BM_RsReconstruct(benchmark::State& state) {
  const auto erased = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBlock = 1 << 19;
  Rng rng(15);
  std::vector<vdc::parity::Block> data;
  for (int i = 0; i < 6; ++i) data.push_back(random_bytes(rng, kBlock));
  std::vector<vdc::parity::BlockView> views(data.begin(), data.end());
  const vdc::parity::ReedSolomonCodec codec(6, 2);
  const auto parity = codec.encode(views);
  // Survivors stay in place; each iteration re-erases the rebuilt slots.
  std::vector<std::optional<vdc::parity::Block>> stripe(data.begin(),
                                                        data.end());
  stripe.insert(stripe.end(), parity.begin(), parity.end());
  for (auto _ : state) {
    for (std::size_t i = 0; i < erased; ++i) stripe[2 * i].reset();
    codec.reconstruct(stripe);
    benchmark::DoNotOptimize(stripe[0]->data());
  }
  for (std::size_t i = 0; i < erased; ++i)
    if (*stripe[2 * i] != data[2 * i])
      fail_check(state, "rebuilt block differs from the original");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(erased * kBlock));
}
BENCHMARK(BM_RsReconstruct)->Arg(1)->Arg(2);

// The dispatched CRC-32 at a page (the reader's per-span calls on a
// chunk of a few records) and at 1 MiB. bench/BENCH_baseline.json gates
// the 4 KiB rate against the scalar XOR kernel's, in one process.
void BM_Crc32(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(14);
  const auto data = random_bytes(rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vdc::crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(1 << 20);

// --- epoch data plane --------------------------------------------------------
//
// End-to-end wall-clock cost of one checkpoint epoch through the full
// coordinator (dirty-bitmap capture, page-sharing store, in-place parity
// folds) at a controlled dirty fraction. The CI perf-smoke job writes
// these to BENCH_dataplane.json for bench/check_regression.py.

class DataplaneRig {
 public:
  static constexpr std::size_t kPageSize = 4096;
  static constexpr std::size_t kPageCount = 1024;  // 4 MiB per VM
  static constexpr int kVms = 3;                   // one RAID-5 group

  DataplaneRig() : cluster_(sim_, Rng(99)), coord_(sim_, cluster_, state_) {
    for (int n = 0; n < kVms + 1; ++n) cluster_.add_node();
    for (int n = 0; n < kVms; ++n)
      cluster_.boot_vm(n, kPageSize, kPageCount,
                       std::make_unique<vdc::vm::IdleWorkload>());
    Rng rng(7);
    for (vdc::vm::VmId vmid : cluster_.all_vms())
      cluster_.machine(vmid).image().fill_random(rng);
    vdc::core::PlannerConfig pc;
    pc.group_size = kVms;
    placed_ = vdc::core::PlacedPlan::make(
        vdc::core::GroupPlanner(pc).plan(cluster_), cluster_);
    run_epoch();  // epoch 1: full exchange, seeds store + parity
  }

  /// Flip one byte in the first `permille`/1000 of every VM's pages.
  void dirty(std::size_t permille) {
    const std::size_t pages = kPageCount * permille / 1000;
    for (vdc::vm::VmId vmid : cluster_.all_vms()) {
      auto& image = cluster_.machine(vmid).image();
      for (std::size_t p = 0; p < pages; ++p) {
        const std::byte b = image.page(p)[0] ^ std::byte{1};
        image.write(p, 0, {&b, 1});
      }
    }
  }

  void run_epoch() {
    bool committed = false;
    coord_.run_epoch(*placed_, next_epoch_,
                     [&](const vdc::core::EpochStats& stats) {
                       committed = true;
                       shipped_bytes_ += static_cast<double>(stats.bytes_shipped);
                       delta_bytes_ += static_cast<double>(stats.delta_bytes);
                       trim_bytes_ += static_cast<double>(stats.trim_bytes);
                     });
    sim_.run();
    if (!committed) std::abort();
    ++next_epoch_;
  }

  /// Cumulative wire accounting over every committed epoch (simulated, so
  /// deterministic across machines — the regression check compares these
  /// exactly, modulo float formatting).
  double shipped_bytes() const { return shipped_bytes_; }
  double delta_bytes() const { return delta_bytes_; }
  double trim_bytes() const { return trim_bytes_; }

  /// Drop the standing parity so the next epoch is a full exchange.
  void force_full_exchange() {
    for (const auto& group : placed_->plan.groups)
      state_.drop_parity(group.id);
  }

  double metric(const char* name) const {
    return sim_.telemetry().metrics().value(name);
  }

  static std::int64_t image_bytes() {
    return static_cast<std::int64_t>(kVms * kPageSize * kPageCount);
  }

 private:
  vdc::simkit::Simulator sim_;
  vdc::cluster::ClusterManager cluster_;
  vdc::core::DvdcState state_;
  vdc::core::DvdcCoordinator coord_;
  std::optional<vdc::core::PlacedPlan> placed_;
  vdc::checkpoint::Epoch next_epoch_ = 1;
  double shipped_bytes_ = 0.0;
  double delta_bytes_ = 0.0;
  double trim_bytes_ = 0.0;
};

void dataplane_counters(benchmark::State& state, const DataplaneRig& rig,
                        double copy0, double cap0, double fold0) {
  const auto iters = static_cast<double>(state.iterations());
  state.counters["copy_bytes_per_epoch"] =
      (rig.metric("dvdc.copy.bytes") - copy0) / iters;
  state.counters["capture_ms_per_epoch"] =
      (rig.metric("dvdc.wall.capture_ns") - cap0) / iters * 1e-6;
  state.counters["fold_ms_per_epoch"] =
      (rig.metric("dvdc.wall.fold_ns") - fold0) / iters * 1e-6;
}

void BM_DataplaneIncrementalEpoch(benchmark::State& state) {
  const auto permille = static_cast<std::size_t>(state.range(0));
  DataplaneRig rig;
  const double copy0 = rig.metric("dvdc.copy.bytes");
  const double cap0 = rig.metric("dvdc.wall.capture_ns");
  const double fold0 = rig.metric("dvdc.wall.fold_ns");
  const double wire0 = rig.shipped_bytes();
  const double delta0 = rig.delta_bytes();
  const double trim0 = rig.trim_bytes();
  for (auto _ : state) {
    state.PauseTiming();
    rig.dirty(permille);
    state.ResumeTiming();
    rig.run_epoch();
  }
  dataplane_counters(state, rig, copy0, cap0, fold0);
  // Simulated-time byte accounting: identical run to run and machine to
  // machine, so bench/BENCH_baseline.json gates on these exactly. On the
  // delta path every shipped byte is a VDD1 frame (wire == delta).
  const auto iters = static_cast<double>(state.iterations());
  const double delta = (rig.delta_bytes() - delta0) / iters;
  // What a trim-only encoder would have shipped for the same epochs.
  const double trim = (rig.trim_bytes() - trim0) / iters;
  state.counters["wire_bytes_per_epoch"] =
      (rig.shipped_bytes() - wire0) / iters;
  state.counters["delta_wire_bytes_per_epoch"] = delta;
  state.counters["trim_wire_bytes_per_epoch"] = trim;
  // Per-record min(RLE, trim) can never ship more than trim alone; the
  // errored row then fails the baseline's gates on it.
  if (delta > trim)
    fail_check(state, "delta wire bytes exceed trim-only bytes");
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          DataplaneRig::image_bytes());
}
// dirty fraction 1%, 10%, 50% in permille
BENCHMARK(BM_DataplaneIncrementalEpoch)
    ->ArgName("dirty_pm")
    ->Arg(10)
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMillisecond);

void BM_DataplaneFullExchangeEpoch(benchmark::State& state) {
  DataplaneRig rig;
  const double copy0 = rig.metric("dvdc.copy.bytes");
  const double cap0 = rig.metric("dvdc.wall.capture_ns");
  const double fold0 = rig.metric("dvdc.wall.fold_ns");
  for (auto _ : state) {
    state.PauseTiming();
    rig.dirty(100);
    rig.force_full_exchange();
    state.ResumeTiming();
    rig.run_epoch();
  }
  dataplane_counters(state, rig, copy0, cap0, fold0);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          DataplaneRig::image_bytes());
}
BENCHMARK(BM_DataplaneFullExchangeEpoch)->Unit(benchmark::kMillisecond);

// Streaming wire plane: a synthetic epoch's worth of dirty pages (4 KiB
// pages, 64-byte write burst per dirty page) encoded and ingested without
// ever materializing a whole frame. Encoding takes capture's path: each
// record scans only its page's write extent and lands in the frame's one
// payload buffer.
struct StreamFixture {
  static constexpr std::size_t kPageSize = 4096;
  static constexpr std::size_t kPageCount = 1024;
  static constexpr std::size_t kBurst = 64;

  std::vector<std::vector<std::byte>> xors;  // one x = old^new per dirty page
  std::vector<std::size_t> offsets;          // its write extent's start
  std::vector<vdc::vm::PageIndex> pages;

  explicit StreamFixture(std::size_t dirty_permille) {
    Rng rng(41);
    const std::size_t dirty = kPageCount * dirty_permille / 1000;
    for (std::size_t p = 0; p < dirty; ++p) {
      std::vector<std::byte> x(kPageSize, std::byte{0});
      const std::size_t off = (p * 257) % (kPageSize - kBurst);
      for (std::size_t i = 0; i < kBurst; ++i)
        x[off + i] = static_cast<std::byte>(rng.next() | 1);
      xors.push_back(std::move(x));
      offsets.push_back(off);
      pages.push_back(static_cast<vdc::vm::PageIndex>(p));
    }
  }

  vdc::checkpoint::DeltaFrameSource encode() const {
    vdc::checkpoint::DeltaFrameSource src(/*vm=*/1, /*epoch=*/2,
                                          /*base_epoch=*/1, kPageSize);
    for (std::size_t i = 0; i < xors.size(); ++i)
      src.add_record(pages[i], xors[i], offsets[i], offsets[i] + kBurst);
    src.seal();
    return src;
  }
};

void BM_StreamEncode(benchmark::State& state) {
  const StreamFixture fx(static_cast<std::size_t>(state.range(0)));
  std::size_t frame_bytes = 0;
  for (auto _ : state) {
    // Encode + stream the frame out in 64 KiB chunk windows, the way the
    // exchange path hands ChunkedStream payloads straight out of the
    // source's spans.
    const auto src = fx.encode();
    const std::size_t total = src.size();
    frame_bytes = total;
    for (std::size_t lo = 0; lo < total; lo += 65536) {
      const std::size_t hi = std::min(total, lo + 65536);
      src.for_each_range(lo, hi, [](std::span<const std::byte> s) {
        benchmark::DoNotOptimize(s.data());
      });
    }
  }
  benchmark::DoNotOptimize(frame_bytes);
  // Throughput over the dirty pages' bytes, not the (much smaller)
  // compressed frame or the extents actually scanned.
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.xors.size() *
                                                    StreamFixture::kPageSize));
}
BENCHMARK(BM_StreamEncode)->ArgName("dirty_pm")->Arg(10)->Arg(100);

void BM_DeltaIngest(benchmark::State& state) {
  const StreamFixture fx(static_cast<std::size_t>(state.range(0)));
  const auto frame = fx.encode().bytes();
  std::vector<std::byte> parity(StreamFixture::kPageSize *
                                    StreamFixture::kPageCount,
                                std::byte{0});
  for (auto _ : state) {
    // Fold-from-wire: feed 64 KiB receive chunks, XOR literal runs into
    // the standing block as they decode — bounded state, no reassembly.
    vdc::checkpoint::DeltaReader reader(
        [&](vdc::vm::PageIndex page, std::size_t off,
            std::span<const std::byte> lits) {
          vdc::parity::xor_into(
              std::span<std::byte>(
                  parity.data() + page * StreamFixture::kPageSize + off,
                  lits.size()),
              lits);
        });
    for (std::size_t lo = 0; lo < frame.size(); lo += 65536) {
      const std::size_t n = std::min<std::size_t>(65536, frame.size() - lo);
      reader.feed(std::span<const std::byte>(frame.data() + lo, n));
    }
    benchmark::DoNotOptimize(parity.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_DeltaIngest)->ArgName("dirty_pm")->Arg(10)->Arg(100);

// Max-min re-solve cost of FlowNetwork. shape 0 is fleet-shaped: 120 hosts
// on equal NICs each stream 10 flows through their NIC to rotating
// holders, which joins all 1,200 flows into one standing component. shape
// 3 is shape 0 at 1,000 hosts (10,000 flows). shape 1 is serve-shaped:
// 300 disjoint components of 4 flows into one shared port each. Every
// iteration starts and cancels one flow, each at its own instant, so the
// rates are re-solved twice. shape 2 is the epoch-start burst: every
// iteration starts shape 0's 1,200 flows on an idle fabric at one instant,
// which ends with one solve of all of them, and cancels them at the next.
// flows_solved counts the rates recomputed per second, flows_per_iter per
// iteration: a work count, the same on every machine.
void BM_FlowResolve(benchmark::State& state) {
  using vdc::net::PortId;
  constexpr vdc::Bytes kLongFlow = vdc::Bytes{1} << 50;  // never finishes
  vdc::simkit::Simulator sim;
  vdc::net::FlowNetwork net(sim);
  // The network re-solves once the instant of its changes is over.
  const auto finish_instant = [&sim] { sim.run_until(sim.now()); };
  std::vector<std::vector<PortId>> probes;  // paths of the per-iteration flow
  std::vector<std::vector<PortId>> fleet;   // shape 0's standing flows
  if (state.range(0) != 1) {
    const int hosts = state.range(0) == 3 ? 1000 : 120;
    std::vector<PortId> tx;
    std::vector<PortId> rx;
    for (int h = 0; h < hosts; ++h) {
      tx.push_back(net.add_port(1.25e9));
      rx.push_back(net.add_port(1.25e9));
    }
    for (int h = 0; h < hosts; ++h) {
      for (int j = 0; j < 10; ++j)
        fleet.push_back({tx[h], rx[(h + 1 + 7 * j) % hosts]});
      probes.push_back({tx[h], rx[(h + hosts / 2) % hosts]});
    }
  } else {
    for (int g = 0; g < 300; ++g) {
      const PortId sink = net.add_port(1.25e9);
      for (int j = 0; j < 4; ++j)
        net.start_flow({net.add_port(1.25e9), sink}, kLongFlow, {});
      probes.push_back({net.add_port(1.25e9), sink});
    }
  }
  if (state.range(0) == 0 || state.range(0) == 3)
    for (const auto& path : fleet) net.start_flow(path, kLongFlow, {});
  finish_instant();
  const std::uint64_t solved_before = net.solver_flows_solved();
  std::size_t next = 0;
  std::vector<vdc::net::FlowId> burst;
  for (auto _ : state) {
    if (state.range(0) == 2) {
      burst.clear();
      for (const auto& path : fleet)
        burst.push_back(net.start_flow(path, kLongFlow, {}));
      finish_instant();
      for (const vdc::net::FlowId id : burst)
        benchmark::DoNotOptimize(net.cancel_flow(id));
      finish_instant();
      continue;
    }
    const vdc::net::FlowId id = net.start_flow(probes[next], kLongFlow, {});
    finish_instant();
    benchmark::DoNotOptimize(net.cancel_flow(id));
    finish_instant();
    next = (next + 1) % probes.size();
  }
  const auto solved =
      static_cast<double>(net.solver_flows_solved() - solved_before);
  state.counters["flows_solved"] =
      benchmark::Counter(solved, benchmark::Counter::kIsRate);
  state.counters["flows_per_iter"] =
      benchmark::Counter(solved, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FlowResolve)->ArgName("shape")->Arg(0)->Arg(1)->Arg(2)->Arg(3);

// Event-core timer churn: a standing population of timers, each re-armed
// when it fires, and one in five iterations also cancels a random timer
// and re-arms it, so 17% of all schedules end cancelled. That is a
// cancel-heavy stress of the tombstone path, not a model of `bench/e2e`'s
// serve, which cancels ~0.2% of its schedules. Each iteration fires one
// event.
void BM_EventCore(benchmark::State& state) {
  using vdc::simkit::EventId;
  const auto timers = static_cast<std::size_t>(state.range(0));
  vdc::simkit::Simulator sim;
  Rng rng(7);
  std::vector<EventId> ids(timers, vdc::simkit::kInvalidEvent);
  std::function<void(std::size_t)> arm = [&](std::size_t i) {
    ids[i] = sim.after(rng.uniform(0.0, 1.0), [&arm, i] { arm(i); });
  };
  for (std::size_t i = 0; i < timers; ++i) arm(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step());
    if (rng.chance(0.2)) {
      const std::size_t i = rng.next() % timers;
      if (sim.cancel(ids[i])) arm(i);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventCore)->ArgName("timers")->Arg(1 << 10)->Arg(1 << 15);

// One counter write into a registry holding 600 series (serve's
// telemetry.series is 606), string-keyed (handle 0) or through a
// MetricHandle (handle 1).
void BM_MetricWrite(benchmark::State& state) {
  vdc::telemetry::MetricsRegistry registry;
  for (int i = 0; i < 600; ++i)
    registry.add("series." + std::to_string(i), 1.0);
  vdc::telemetry::MetricHandle handle(registry, "net.transfers",
                                      {{"kind", "host"}});
  const vdc::telemetry::Labels labels{{"kind", "host"}};
  const bool by_handle = state.range(0) != 0;
  for (auto _ : state) {
    if (by_handle)
      handle.add(1.0);
    else
      registry.add("net.transfers", 1.0, labels);
  }
  benchmark::DoNotOptimize(registry.value("net.transfers", labels));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MetricWrite)->ArgName("handle")->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return check_failed ? 1 : 0;
}
