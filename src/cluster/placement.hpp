#pragma once
// Versioned pool map (the placement abstraction's backbone).
//
// Declustered-RAID systems (parity declustering, DAOS-style pool maps)
// separate "who is in the storage pool" from "who holds which stripe": the
// pool map is a small versioned object, and every layout decision is a
// deterministic pure function of (seed, map version, slot). A node join or
// drain is then just a version bump — consumers re-derive only the layout
// the bump invalidated instead of rebuilding the world, and any two
// replicas that agree on the map version agree on the whole layout.
//
// ClusterManager owns one PlacementMap and bumps it on add/kill/revive.
// The GroupPlanner's declustered layout ranks load-tied nodes by
// PlacementMap::mix(seed, version, group, node), which is what spreads a
// failed node's rebuild partners over ALL survivors rather than the same
// k-1 neighbours every time.

#include <cstdint>

namespace vdc::cluster {

using NodeId = std::uint32_t;

class PlacementMap {
 public:
  using Version = std::uint64_t;

  /// Node-membership version. Starts at 1; every join/drain bumps it.
  Version version() const { return version_; }

  /// Mutation stamp: bumped by membership changes AND by VM placement
  /// churn (boot/place/destroy/failure). Consumers cache the stamp to
  /// skip revalidating a plan when literally nothing moved — the O(1)
  /// fast path that keeps per-epoch planning flat at 10k nodes.
  Version stamp() const { return stamp_; }
  void touch() { ++stamp_; }

  /// Layout seed mixed into every declustered ranking.
  std::uint64_t seed() const { return seed_; }
  void set_seed(std::uint64_t seed) { seed_ = seed; }

  /// Record a membership change (a join on add/revive, a drain on kill).
  void record() {
    ++version_;
    ++stamp_;
  }

  /// Deterministic pseudo-random rank of `node` for layout `slot` at
  /// (seed, version). Pure — every consumer of the same map derives the
  /// same layout with no coordination. Each input passes through a FULL
  /// splitmix64 finalizer before the next is folded in: with anything
  /// weaker (one round over packed inputs) the per-slot rankings are
  /// near-rotations of one fixed node order, and "take the first k" then
  /// groups the same circle-neighbours every time — exactly the
  /// concentration declustering exists to remove.
  static std::uint64_t mix(std::uint64_t seed, Version version,
                           std::uint64_t slot, std::uint64_t node) {
    return mix_round(mix_round(mix_round(seed ^ version) ^ slot) ^ node);
  }

  static std::uint64_t mix_round(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  Version version_ = 1;
  Version stamp_ = 1;
  std::uint64_t seed_ = 0x76d6c6f746e6576ull;  // arbitrary nonzero default
};

}  // namespace vdc::cluster
