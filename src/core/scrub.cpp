#include "core/scrub.hpp"

#include <algorithm>
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
    std::vector<cluster::NodeId> member_nodes;  // where each member lives
    std::vector<cluster::NodeId> holders;
    std::vector<parity::Block> expected;
    Bytes block_size = 0;
    std::size_t folds_left = 0;  // member blocks not yet folded on a holder
  };
  std::vector<GroupCheck> checks;

  for (const auto& group : plan.plan.groups) {
    // An in-place delta fold is mutating committed blocks right now; a
    // half-folded stripe is not corruption. Skip the group this run.
    if (state_.fold_in_flight()) continue;
    const auto stripe = read_committed_stripe(state_, cluster_, group);
    if (!stripe || stripe->unreadable != nullptr) continue;
    const DvdcState::ParityRecord& record = *stripe->record;
    if (std::any_of(record.blocks.begin(), record.blocks.end(),
                    [](const parity::Block& b) { return b.empty(); }))
      continue;  // lost parity is recovery's to rebuild, not scrub's

    // Recompute the stripe from the members' committed checkpoints.
    GroupCheck check;
    check.gid = group.id;
    check.member_nodes = stripe->nodes;
    check.holders = record.holders;
    check.block_size = record.block_size;
    std::vector<parity::BlockView> views;
    for (const auto& member : stripe->members) views.emplace_back(*member);
    check.expected =
        parity::ReedSolomonCodec(views.size(), record.blocks.size())
            .encode(views);
    checks.push_back(std::move(check));
  }

  ctx->report.groups_checked = checks.size();
  if (checks.empty()) {
    sim_.after(0.0, complete);
    return;
  }

  // Timed execution: per group, every member block streams to each holder
  // and folds there on the holder's fold queue; once the last fold is done
  // the group's stored stripe is compared with the re-encoded one.
  ctx->pending = checks.size();
  for (auto& owned : checks) {
    // One copy per group, shared by its member x holder fold callbacks.
    const auto check = std::make_shared<GroupCheck>(std::move(owned));
    check->folds_left = check->member_nodes.size() * check->holders.size();
    auto folded = [this, ctx, check, repair, complete] {
      if (--check->folds_left > 0) return;
      const DvdcState::ParityRecord* record = state_.parity(check->gid);
      if (record == nullptr) {  // plan changed underneath us
        if (--ctx->pending == 0) complete();
        return;
      }
      bool match = record->blocks == check->expected;
      for (const auto& block : record->blocks)
        ctx->report.bytes_verified += block.size();
      if (!match) {
        ctx->report.mismatched.push_back(check->gid);
        VDC_INFO("scrub", "parity mismatch in group ", check->gid);
        if (repair && (cluster_.degraded() || state_.fold_in_flight())) {
          // A recovery episode is rewriting stripes, or the coordinator
          // is folding deltas into them in place; a repair write would
          // race either. Report the mismatch, defer the write.
          sim_.telemetry().metrics().add("scrub.deferred_repairs", 1.0);
        } else if (repair) {
          DvdcState::ParityRecord fixed = *record;
          fixed.blocks = check->expected;
          state_.set_parity(check->gid, std::move(fixed));
          ++ctx->report.repaired;
        }
      }
      if (--ctx->pending == 0) complete();
    };
    for (cluster::NodeId holder : check->holders) {
      for (cluster::NodeId member_node : check->member_nodes) {
        ctx->report.bytes_streamed += check->block_size;
        // Unchunked: one flow per member block.
        stream_and_fold(cluster_, member_node, holder, check->block_size,
                        check->block_size, net::ChunkPolicy{}, {}, folded);
      }
    }
  }
}

}  // namespace vdc::core
