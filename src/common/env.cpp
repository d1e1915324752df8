#include "common/env.hpp"

#include <cerrno>
#include <cstdlib>

#include "common/log.hpp"

namespace vdc::env {

std::optional<long long> int_knob(const char* name) {
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

}  // namespace vdc::env
