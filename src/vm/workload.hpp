#pragma once
// Synthetic guest workloads: processes that dirty VM memory over time.
//
// The paper's incremental/COW analysis (Sections II-B and IV-C) hinges on
// "how fast and how many pages get dirtied". These models span the regimes
// that matter: uniformly random writes (worst case for incremental
// checkpointing), a hot/cold working set (the common case that makes
// increments small), a sequential scanner (streaming codes), and an idle
// guest. Each write mutates real bytes so checkpoint/parity content is
// exercised, not just counted.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "vm/memory_image.hpp"

namespace vdc::vm {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Advance the guest by `dt` of virtual time, performing writes on
  /// `image` using `rng` for any randomness.
  virtual void advance(MemoryImage& image, SimTime dt, Rng& rng) = 0;

  /// Expected page-write rate (writes per second) for sizing/analysis.
  virtual double write_rate() const = 0;

  virtual std::string name() const = 0;
};

/// Writes land on uniformly random pages at a fixed rate.
class UniformWorkload final : public Workload {
 public:
  explicit UniformWorkload(double writes_per_sec);
  void advance(MemoryImage& image, SimTime dt, Rng& rng) override;
  double write_rate() const override { return rate_; }
  std::string name() const override { return "uniform"; }

 private:
  double rate_;
  double carry_ = 0.0;
};

/// A fraction of pages is "hot" and attracts most writes — the locality
/// regime where incremental checkpoints shine.
class HotColdWorkload final : public Workload {
 public:
  /// `hot_fraction` of the address space receives `hot_probability` of the
  /// writes (e.g. 0.1 of pages get 0.9 of writes).
  HotColdWorkload(double writes_per_sec, double hot_fraction,
                  double hot_probability);
  void advance(MemoryImage& image, SimTime dt, Rng& rng) override;
  double write_rate() const override { return rate_; }
  std::string name() const override { return "hot-cold"; }
  double hot_fraction() const { return hot_fraction_; }

 private:
  double rate_;
  double hot_fraction_;
  double hot_probability_;
  double carry_ = 0.0;
};

/// Streams through memory page by page (e.g. a large matrix sweep).
class SequentialWorkload final : public Workload {
 public:
  explicit SequentialWorkload(double writes_per_sec);
  void advance(MemoryImage& image, SimTime dt, Rng& rng) override;
  double write_rate() const override { return rate_; }
  std::string name() const override { return "sequential"; }

 private:
  double rate_;
  double carry_ = 0.0;
  PageIndex cursor_ = 0;
};

/// Alternates between two write rates with a fixed period — a bursty
/// guest (compute phase vs. write-back phase). The regime where adaptive
/// checkpointing beats a fixed interval.
class PhasedWorkload final : public Workload {
 public:
  /// Phase A at `rate_a` for `phase_length` of virtual time, then phase B
  /// at `rate_b`, repeating.
  PhasedWorkload(double rate_a, double rate_b, SimTime phase_length);
  void advance(MemoryImage& image, SimTime dt, Rng& rng) override;
  double write_rate() const override { return (rate_a_ + rate_b_) / 2.0; }
  std::string name() const override { return "phased"; }
  /// Rate in effect right now.
  double current_rate() const { return in_a_ ? rate_a_ : rate_b_; }

 private:
  double rate_a_;
  double rate_b_;
  SimTime phase_length_;
  bool in_a_ = true;
  SimTime into_phase_ = 0.0;
  double carry_ = 0.0;
};

/// A guest that writes nothing (control case).
class IdleWorkload final : public Workload {
 public:
  void advance(MemoryImage&, SimTime, Rng&) override {}
  double write_rate() const override { return 0.0; }
  std::string name() const override { return "idle"; }
};

}  // namespace vdc::vm
