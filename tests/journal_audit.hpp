#pragma once
// Readers over JobRunner::journal() for the suites that audit a run: pick
// entries by kind, count cascades, and check that committed work is never
// silently lost.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "core/runtime.hpp"

namespace vdc::core {

using Journal = std::vector<JournalEntry>;
using JournalKind = controlplane::ControlEntry::Kind;

/// Lets gtest print a mismatching entry readably.
inline void PrintTo(const JournalEntry& e, std::ostream* os) {
  *os << "{t=" << e.time << " work=" << e.committed_work << ' '
      << controlplane::kind_name(e.entry.kind) << ' ' << e.entry.value << ' '
      << e.entry.arg << '}';
}

inline Journal entries_of(const Journal& journal, JournalKind kind) {
  Journal out;
  std::copy_if(journal.begin(), journal.end(), std::back_inserter(out),
               [kind](const JournalEntry& e) { return e.entry.kind == kind; });
  return out;
}

inline std::size_t count_of(const Journal& journal, JournalKind kind) {
  return static_cast<std::size_t>(
      std::count_if(journal.begin(), journal.end(),
                    [kind](const JournalEntry& e) {
                      return e.entry.kind == kind;
                    }));
}

/// Failures that struck an open recovery episode (kNodeFailed, arg = 1).
inline Journal cascades(const Journal& journal) {
  Journal out;
  for (const JournalEntry& e : entries_of(journal, JournalKind::kNodeFailed))
    if (e.entry.arg == 1) out.push_back(e);
  return out;
}

/// The committed-work watermark falls only at kRollback (an older durable
/// level was restored) or kJobRestart (data loss): committed work is never
/// *silently* lost. Returns the final watermark.
inline SimTime expect_watermark_monotone(const Journal& journal) {
  SimTime watermark = 0.0;
  for (const JournalEntry& e : journal) {
    if (e.entry.kind == JournalKind::kRollback ||
        e.entry.kind == JournalKind::kJobRestart) {
      watermark = e.committed_work;
      continue;
    }
    EXPECT_GE(e.committed_work, watermark - 1e-9)
        << "watermark silently regressed at t=" << e.time << " ("
        << controlplane::kind_name(e.entry.kind) << ")";
    watermark = std::max(watermark, e.committed_work);
  }
  return watermark;
}

}  // namespace vdc::core
