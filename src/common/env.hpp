#pragma once
// Validated environment-knob parsing.
//
// Every VDC_* integer knob goes through int_knob so that a typo'd value
// can never silently pick a mode: a malformed value is rejected with a
// logged warning and the configured default stands.

#include <optional>

namespace vdc::env {

/// Non-negative integer knob. The WHOLE string must parse (no trailing
/// junk, no sign, no overflow); anything else warns and returns nullopt.
std::optional<long long> int_knob(const char* name);

}  // namespace vdc::env
