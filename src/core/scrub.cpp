#include "core/scrub.hpp"

#include <memory>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "parity/reed_solomon.hpp"

namespace vdc::core {

bool ParityScrubber::inject_corruption(GroupId group,
                                       std::size_t block_index,
                                       std::size_t byte_offset) {
  const DvdcState::ParityRecord* record = state_.parity(group);
  if (record == nullptr || block_index >= record->blocks.size() ||
      record->blocks[block_index].size() <= byte_offset)
    return false;
  DvdcState::ParityRecord copy = *record;
  copy.blocks[block_index][byte_offset] ^= std::byte{0x01};
  state_.set_parity(group, std::move(copy));
  return true;
}

void ParityScrubber::scrub(const PlacedPlan& plan, bool repair,
                           DoneCallback done) {
  struct Ctx {
    ScrubReport report;
    SimTime start = 0.0;
    std::size_t pending = 0;
    DoneCallback done;
    telemetry::SpanId span = telemetry::kNoSpan;
  };
  auto ctx = std::make_shared<Ctx>();
  ctx->start = sim_.now();
  ctx->done = std::move(done);
  ctx->span = sim_.telemetry().begin_span("scrub");

  // Single exit: stamp the duration, publish the run's counters, close
  // the span, hand the report back.
  const auto complete = [this, ctx] {
    ctx->report.duration = sim_.now() - ctx->start;
    auto& metrics = sim_.telemetry().metrics();
    metrics.add("scrub.runs", 1.0);
    metrics.add("scrub.groups_checked",
                static_cast<double>(ctx->report.groups_checked));
    metrics.add("scrub.mismatched",
                static_cast<double>(ctx->report.mismatched.size()));
    metrics.add("scrub.repaired",
                static_cast<double>(ctx->report.repaired));
    metrics.add("scrub.bytes_streamed",
                static_cast<double>(ctx->report.bytes_streamed));
    sim_.telemetry().end_span(ctx->span);
    ctx->done(ctx->report);
  };

  struct GroupCheck {
    GroupId gid;
    cluster::NodeId primary_holder;
    std::vector<parity::Block> expected;
    std::size_t flows = 0;
    Bytes block_size = 0;
  };
  std::vector<GroupCheck> checks;

  for (const auto& group : plan.plan.groups) {
    const DvdcState::ParityRecord* record = state_.parity(group.id);
    if (record == nullptr || record->members != group.members ||
        record->epoch != state_.committed_epoch())
      continue;
    bool intact = true;
    for (const auto& block : record->blocks)
      if (block.empty()) intact = false;
    if (!intact) continue;
    // An in-place delta fold is mutating committed blocks right now; a
    // half-folded stripe is not corruption. Skip the group this run.
    if (state_.fold_in_flight()) continue;

    // Gather the members' committed checkpoints and recompute the stripe.
    GroupCheck check;
    check.gid = group.id;
    check.primary_holder = record->holders.front();
    check.block_size = record->block_size;
    std::vector<parity::Block> padded;
    std::vector<parity::BlockView> views;
    bool complete = true;
    for (vm::VmId member : group.members) {
      const auto loc = cluster_.locate(member);
      if (!loc.has_value()) {
        complete = false;
        break;
      }
      const auto* cp =
          state_.node_store(*loc).find(member, state_.committed_epoch());
      if (cp == nullptr) {
        complete = false;
        break;
      }
      padded.push_back(cp->padded_payload(record->block_size));
    }
    if (!complete) continue;
    for (const auto& p : padded) views.emplace_back(p);
    check.expected =
        parity::ReedSolomonCodec(group.members.size(), record->blocks.size())
            .encode(views);
    check.flows = group.members.size() * record->holders.size();
    checks.push_back(std::move(check));
  }

  ctx->report.groups_checked = checks.size();
  if (checks.empty()) {
    sim_.after(0.0, complete);
    return;
  }

  // Timed execution: per group, the members stream their blocks to each
  // holder, the holder re-XORs and compares.
  ctx->pending = checks.size();
  for (auto& check : checks) {
    const DvdcState::ParityRecord* record = state_.parity(check.gid);
    VDC_ASSERT(record != nullptr);

    auto flows_left = std::make_shared<std::size_t>(check.flows);
    auto finish_group = [this, ctx, check, repair, complete] {
      const DvdcState::ParityRecord* record = state_.parity(check.gid);
      if (record == nullptr) {  // plan changed underneath us
        if (--ctx->pending == 0) complete();
        return;
      }
      bool match = record->blocks == check.expected;
      for (const auto& block : record->blocks)
        ctx->report.bytes_verified += block.size();
      if (!match) {
        ctx->report.mismatched.push_back(check.gid);
        VDC_INFO("scrub", "parity mismatch in group ", check.gid);
        if (repair && (cluster_.degraded() || state_.fold_in_flight())) {
          // A recovery episode is rewriting stripes, or the coordinator
          // is folding deltas into them in place; a repair write would
          // race either. Report the mismatch, defer the write.
          sim_.telemetry().metrics().add("scrub.deferred_repairs", 1.0);
        } else if (repair) {
          DvdcState::ParityRecord fixed = *record;
          fixed.blocks = check.expected;
          state_.set_parity(check.gid, std::move(fixed));
          ++ctx->report.repaired;
        }
      }
      if (--ctx->pending == 0) complete();
    };

    const auto& group = plan.plan.groups[check.gid];
    for (cluster::NodeId holder : record->holders) {
      const net::HostId dst = cluster_.node(holder).host();
      for (vm::VmId member : group.members) {
        const auto loc = cluster_.locate(member);
        VDC_ASSERT(loc.has_value());
        const net::HostId src = cluster_.node(*loc).host();
        ctx->report.bytes_streamed += check.block_size;
        const auto on_done = [this, holder, check, flows_left,
                              finish_group] {
          if (--*flows_left > 0) return;
          // All streams in: charge the re-encode (k blocks per holder).
          const std::size_t k = check.flows / check.expected.size();
          const double xor_time =
              static_cast<double>(check.block_size * k) /
              cluster_.node(holder).spec().xor_rate;
          sim_.after(xor_time, finish_group);
        };
        if (src == dst) {
          sim_.after(0.0, on_done);
        } else {
          // Scrub verification rides the same stream plane as the epoch
          // exchange, unchunked (one flow per stream); the stream keeps
          // itself alive until completion.
          net::ChunkedStream::start(cluster_.fabric(), src, dst,
                                    check.block_size, net::ChunkPolicy{}, {},
                                    on_done);
        }
      }
    }
  }
}

}  // namespace vdc::core
