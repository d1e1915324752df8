#pragma once
// Seed budget of the randomized suites. Each suite runs `default_seeds`
// seeds; the nightly sanitizer job widens every suite at once with
// VDC_FUZZ_SEEDS=1000. The value is parsed strictly (env::int_knob): a
// malformed one ("abc", "12x") warns and keeps the default instead of
// silently running it.

#include <algorithm>
#include <climits>

#include "common/env.hpp"

namespace vdc {

inline int fuzz_seed_count(int default_seeds) {
  const auto n = env::int_knob("VDC_FUZZ_SEEDS");
  if (!n.has_value() || *n == 0) return default_seeds;
  return static_cast<int>(std::min<long long>(*n, INT_MAX));
}

}  // namespace vdc
