#pragma once
// Parity scrubbing: defence against silent in-memory corruption.
//
// Diskless checkpointing trades the disk's reliability for volatile
// memory's (paper Section II-B.2: parity exists "to counteract the innate
// unreliability of volatile memory"). A scrubber periodically re-derives
// every group's parity from the members' committed checkpoints and
// compares it to the stored stripe; mismatches are reported and — if
// repair is enabled — the stored parity is rebuilt, restoring the
// stripe's recoverability before a node failure turns the corruption into
// data loss. The verification traffic flows over the real fabric like an
// epoch exchange.

#include <functional>
#include <vector>

#include "core/protocol.hpp"

namespace vdc::core {

struct ScrubReport {
  std::size_t groups_checked = 0;
  std::vector<GroupId> mismatched;  // stored parity != recomputed
  std::size_t repaired = 0;
  Bytes bytes_verified = 0;   // parity bytes compared
  Bytes bytes_streamed = 0;   // member checkpoint traffic
  SimTime duration = 0.0;

  bool clean() const { return mismatched.empty(); }
};

class ParityScrubber {
 public:
  using DoneCallback = std::function<void(const ScrubReport&)>;

  ParityScrubber(simkit::Simulator& sim, cluster::ClusterManager& cluster,
                 DvdcState& state)
      : sim_(sim), cluster_(cluster), state_(state) {}

  /// Verify every group of `plan` whose parity record matches the
  /// committed epoch. With `repair`, mismatched stripes are rebuilt in
  /// place. Runs the member->holder verification streams concurrently.
  void scrub(const PlacedPlan& plan, bool repair, DoneCallback done);

  /// Fault injection for tests and drills: flip one byte of the stored
  /// parity block `index` of `group`. Returns false if no such block.
  bool inject_corruption(GroupId group, std::size_t block_index,
                         std::size_t byte_offset);

 private:
  simkit::Simulator& sim_;
  cluster::ClusterManager& cluster_;
  DvdcState& state_;
};

}  // namespace vdc::core
