#include "controlplane/log.hpp"

#include <cstring>

#include "common/crc32.hpp"

namespace vdc::controlplane {
namespace {

constexpr std::uint32_t kMagic = 0x31504356u;  // "VCP1" little-endian

// Fixed-size header before the entry array:
//   magic(4) type(1) from(4) to(4) term(8) last_log_index(8)
//   last_log_term(8) granted(1) prev_index(8) prev_term(8)
//   leader_commit(8) success(1) match_index(8) entry_count(4)
constexpr std::size_t kHeaderSize = 4 + 1 + 4 + 4 + 8 + 8 + 8 + 1 + 8 + 8 + 8 + 1 + 8 + 4;
constexpr std::size_t kRecordSize = 8 + 1 + 8 + 8;  // term kind value arg
constexpr std::size_t kCrcSize = 4;

void put_u8(std::vector<std::byte>& out, std::uint8_t v) {
  out.push_back(static_cast<std::byte>(v));
}

void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xffu));
}

void put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xffu));
}

class Reader {
 public:
  explicit Reader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > bytes_.size()) return false;
    v = static_cast<std::uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(bytes_[pos_++]) << (8 * i);
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(bytes_[pos_++]) << (8 * i);
    return true;
  }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* kind_name(ControlEntry::Kind kind) {
  switch (kind) {
    case ControlEntry::Kind::kNoop: return "noop";
    case ControlEntry::Kind::kEpochCut: return "epoch-cut";
    case ControlEntry::Kind::kEpochCommit: return "epoch-commit";
    case ControlEntry::Kind::kEpochAbort: return "epoch-abort";
    case ControlEntry::Kind::kNodeFailed: return "node-failed";
    case ControlEntry::Kind::kNodeFenced: return "node-fenced";
    case ControlEntry::Kind::kNodeRejoined: return "node-rejoined";
    case ControlEntry::Kind::kRecoveryBegin: return "recovery-begin";
    case ControlEntry::Kind::kRecoverySettled: return "recovery-settled";
    case ControlEntry::Kind::kJobRestart: return "job-restart";
    case ControlEntry::Kind::kPlanVersion: return "plan-version";
    case ControlEntry::Kind::kRollback: return "rollback";
  }
  return "?";
}

void CoordinatorView::apply(const ControlEntry& entry) {
  ++applied;
  switch (entry.kind) {
    case ControlEntry::Kind::kNoop:
      break;
    case ControlEntry::Kind::kEpochCut:
      if (entry.value > cut_epoch) cut_epoch = entry.value;
      break;
    case ControlEntry::Kind::kEpochCommit:
      if (entry.value == committed_epoch + 1) {
        committed_epoch = entry.value;
      } else if (entry.value != committed_epoch) {
        // A skip forward or a regression can never be produced by a
        // correct two-phase commit; a duplicate of the current epoch can
        // (an orphaned commit record adopted by a new leader, then the
        // epoch legitimately re-proposed) and is idempotent.
        epoch_sequence_ok = false;
      }
      break;
    case ControlEntry::Kind::kEpochAbort:
    case ControlEntry::Kind::kRollback:
      break;
    case ControlEntry::Kind::kNodeFailed:
      failed.insert(static_cast<NodeId>(entry.value));
      break;
    case ControlEntry::Kind::kNodeFenced:
      fences[static_cast<NodeId>(entry.value)] = entry.arg;
      break;
    case ControlEntry::Kind::kNodeRejoined:
      failed.erase(static_cast<NodeId>(entry.value));
      fences.erase(static_cast<NodeId>(entry.value));
      break;
    case ControlEntry::Kind::kRecoveryBegin:
      episode_open = true;
      break;
    case ControlEntry::Kind::kRecoverySettled:
      episode_open = false;
      break;
    case ControlEntry::Kind::kJobRestart:
      ++restarts;
      committed_epoch = 0;
      cut_epoch = 0;
      episode_open = false;
      break;
    case ControlEntry::Kind::kPlanVersion:
      plan_version = entry.value;
      break;
  }
}

std::vector<std::byte> encode_frame(const Frame& frame) {
  std::vector<std::byte> out;
  out.reserve(kHeaderSize + frame.entries.size() * kRecordSize + kCrcSize);
  put_u32(out, kMagic);
  put_u8(out, static_cast<std::uint8_t>(frame.type));
  put_u32(out, frame.from);
  put_u32(out, frame.to);
  put_u64(out, frame.term);
  put_u64(out, frame.last_log_index);
  put_u64(out, frame.last_log_term);
  put_u8(out, frame.granted ? 1 : 0);
  put_u64(out, frame.prev_index);
  put_u64(out, frame.prev_term);
  put_u64(out, frame.leader_commit);
  put_u8(out, frame.success ? 1 : 0);
  put_u64(out, frame.match_index);
  put_u32(out, static_cast<std::uint32_t>(frame.entries.size()));
  for (const LogRecord& rec : frame.entries) {
    put_u64(out, rec.term);
    put_u8(out, static_cast<std::uint8_t>(rec.entry.kind));
    put_u64(out, rec.entry.value);
    put_u64(out, rec.entry.arg);
  }
  put_u32(out, crc32(out));
  return out;
}

std::span<const std::byte> frame_payload(std::span<const std::byte> bytes) {
  if (bytes.size() < kCrcSize) return {};
  return bytes.first(bytes.size() - kCrcSize);
}

std::uint32_t frame_crc(std::span<const std::byte> bytes) {
  if (bytes.size() < kCrcSize) return 0;
  std::uint32_t crc = 0;
  const std::size_t base = bytes.size() - kCrcSize;
  for (int i = 0; i < 4; ++i)
    crc |= static_cast<std::uint32_t>(bytes[base + i]) << (8 * i);
  return crc;
}

bool decode_frame(std::span<const std::byte> bytes, Frame& out) {
  if (bytes.size() < kHeaderSize + kCrcSize) return false;
  if (crc32(frame_payload(bytes)) != frame_crc(bytes)) return false;
  Reader r(frame_payload(bytes));
  std::uint32_t magic = 0;
  std::uint8_t type = 0, granted = 0, success = 0;
  std::uint32_t count = 0;
  if (!r.u32(magic) || magic != kMagic) return false;
  if (!r.u8(type)) return false;
  if (type < static_cast<std::uint8_t>(Frame::Type::kRequestVote) ||
      type > static_cast<std::uint8_t>(Frame::Type::kAck))
    return false;
  out.type = static_cast<Frame::Type>(type);
  if (!r.u32(out.from) || !r.u32(out.to) || !r.u64(out.term) ||
      !r.u64(out.last_log_index) || !r.u64(out.last_log_term) ||
      !r.u8(granted) || !r.u64(out.prev_index) || !r.u64(out.prev_term) ||
      !r.u64(out.leader_commit) || !r.u8(success) || !r.u64(out.match_index) ||
      !r.u32(count))
    return false;
  out.granted = granted != 0;
  out.success = success != 0;
  if (bytes.size() != kHeaderSize + std::size_t{count} * kRecordSize + kCrcSize)
    return false;
  out.entries.clear();
  out.entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    LogRecord rec;
    std::uint8_t kind = 0;
    if (!r.u64(rec.term) || !r.u8(kind) || !r.u64(rec.entry.value) ||
        !r.u64(rec.entry.arg))
      return false;
    if (kind > static_cast<std::uint8_t>(ControlEntry::Kind::kRollback))
      return false;
    rec.entry.kind = static_cast<ControlEntry::Kind>(kind);
    out.entries.push_back(rec);
  }
  return true;
}

}  // namespace vdc::controlplane
