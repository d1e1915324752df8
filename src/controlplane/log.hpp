#pragma once
// Replicated control-plane log: entry schema, wire frames, applied view.
//
// Every control decision the coordinator used to keep as private in-memory
// state — epoch cut/commit/abort, membership changes (fail/fence/rejoin),
// recovery-episode transitions, placement-map version bumps — is a
// ControlEntry in a raft-style replicated log (src/controlplane/raft.hpp).
// A follower that takes over after the leader dies replays its applied
// prefix into a CoordinatorView and resumes with exactly the state the old
// leader had committed; nothing about the job's progress lives on a single
// host (the ReStore idea applied to control state instead of checkpoints).
//
// Frames are flat little-endian encodings with a trailing CRC32, so a
// judged-corrupt frame is *detected* by the receiver recomputing the
// checksum (same discipline as heartbeat beats and VDC1/VDD1 data frames),
// not assumed away. decode_frame() rejects bad magic, short buffers, shape
// violations and checksum mismatches by returning false.

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <vector>

namespace vdc::controlplane {

using Term = std::uint64_t;
/// 1-based log position; 0 means "before the first record".
using LogIndex = std::uint64_t;
using NodeId = std::uint32_t;

/// One control decision. `value`/`arg` carry the kind-specific payload
/// (see each kind's comment); unused fields stay zero.
struct ControlEntry {
  enum class Kind : std::uint8_t {
    kNoop = 0,         // leader's term-assertion entry (no payload)
    kEpochCut,         // value = epoch: consistent cut taken (phase 1)
    kEpochCommit,      // value = epoch: stripe durable (phase 2, quorum)
    kEpochAbort,       // value = epoch: in-flight epoch died on the wire
    kNodeFailed,       // value = node id declared dead, arg = 1 cascade
    kNodeFenced,       // value = node id, arg = fence token
    kNodeRejoined,     // value = node id back (empty) in the cluster
    kRecoveryBegin,    // value = first victim of the episode
    kRecoverySettled,  // arg = 1 success / 0 escalated to restart
    kJobRestart,       // data loss; epoch numbering starts over
    kPlanVersion,      // value = placement-map version now in force
    kRollback,         // value = epochs rolled back (journal-only)
  };
  Kind kind = Kind::kNoop;
  std::uint64_t value = 0;
  std::uint64_t arg = 0;

  bool operator==(const ControlEntry&) const = default;
};

const char* kind_name(ControlEntry::Kind kind);

/// A log slot: the entry plus the term it was appended under. Two records
/// with equal (term, index) are identical by the raft log-matching
/// property — which is what logs_consistent() checks, not assumes.
struct LogRecord {
  Term term = 0;
  ControlEntry entry;

  bool operator==(const LogRecord&) const = default;
};

/// Coordinator state machine rebuilt by applying committed entries in
/// order. This is what a follower promotes with on takeover, and what the
/// invariant suite audits: committed epoch numbers must advance gap-free
/// and monotone within a job incarnation (a re-proposal of an epoch whose
/// earlier commit record was orphaned by a leader change is idempotent —
/// the external commit action is still gated exactly once by the runtime's
/// coordinator generation).
struct CoordinatorView {
  std::uint64_t committed_epoch = 0;  // highest committed epoch this run
  std::uint64_t cut_epoch = 0;        // highest epoch with a logged cut
  std::uint64_t plan_version = 0;     // placement-map version in force
  std::uint64_t restarts = 0;         // kJobRestart count
  bool episode_open = false;          // recovery episode in progress
  std::set<NodeId> failed;            // nodes currently down per the log
  std::map<NodeId, std::uint64_t> fences;  // node -> fence token
  std::uint64_t applied = 0;          // entries applied into this view
  /// Latches false if a committed epoch number ever skips or regresses.
  bool epoch_sequence_ok = true;

  void apply(const ControlEntry& entry);
};

/// One control-plane message. All four raft message types share a flat
/// frame; fields irrelevant to `type` are zero on the wire.
struct Frame {
  enum class Type : std::uint8_t {
    kRequestVote = 1,  // candidate -> all: term, last_log_{index,term}
    kVote,             // voter -> candidate: granted
    kAppend,           // leader -> follower: entries + commit watermark
    kAck,              // follower -> leader: success + match hint
  };
  Type type = Type::kRequestVote;
  NodeId from = 0;
  NodeId to = 0;
  Term term = 0;
  // kRequestVote
  LogIndex last_log_index = 0;
  Term last_log_term = 0;
  // kVote
  bool granted = false;
  // kAppend
  LogIndex prev_index = 0;
  Term prev_term = 0;
  LogIndex leader_commit = 0;
  std::vector<LogRecord> entries;
  // kAck
  bool success = false;
  LogIndex match_index = 0;  // on success: replicated prefix; else a hint

  bool operator==(const Frame&) const = default;
};

/// Serialize to [magic "VCP1" | fields | entries | CRC32-LE]. The CRC
/// covers everything before it.
std::vector<std::byte> encode_frame(const Frame& frame);

/// Parse and verify a wire buffer. Returns false (out untouched or
/// partially filled, caller must discard) on any shape or CRC mismatch.
bool decode_frame(std::span<const std::byte> bytes, Frame& out);

/// The payload the CRC covers (everything but the trailing 4 bytes) and
/// the stored checksum — for feeding net::crc_catches_flip on a
/// judged-corrupt delivery.
std::span<const std::byte> frame_payload(std::span<const std::byte> bytes);
std::uint32_t frame_crc(std::span<const std::byte> bytes);

}  // namespace vdc::controlplane
