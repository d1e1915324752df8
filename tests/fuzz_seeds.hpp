#pragma once
// Seed budget of the randomized suites. Each suite runs `default_seeds`
// seeds; the nightly sanitizer job widens every suite at once with
// VDC_FUZZ_SEEDS=1000. The value is parsed strictly (env::int_knob): a
// malformed one ("abc", "12x") warns and keeps the default instead of
// silently running it.

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <optional>

#include "common/log.hpp"

namespace vdc {
namespace env {

/// Non-negative integer knob. The WHOLE string must parse (no trailing
/// junk, no sign, no overflow); anything else warns and returns nullopt.
inline std::optional<long long> int_knob(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || v < 0) {
    VDC_WARN("env", "ignoring ", name, "=\"", value,
             "\": not a non-negative integer");
    return std::nullopt;
  }
  return v;
}

}  // namespace env

inline int fuzz_seed_count(int default_seeds) {
  const auto n = env::int_knob("VDC_FUZZ_SEEDS");
  if (!n.has_value() || *n == 0) return default_seeds;
  return static_cast<int>(std::min<long long>(*n, INT_MAX));
}

}  // namespace vdc
