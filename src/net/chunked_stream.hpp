#pragma once
// Chunked, pipelined logical transfers over the Fabric.
//
// A ChunkedStream splits one logical transfer into `chunk_bytes` segments
// and keeps at most kPipelineDepth of them in flight at a time. Each
// delivered chunk fires a callback, so a receiver can start consuming
// (folding parity, decoding a stripe) while later chunks are still on the
// wire — the fold-on-arrival overlap that removes the "wait for the whole
// stream, then decode" barrier from the epoch exchange and from recovery.
//
// With chunk_bytes == 0 (the default policy) the stream degenerates to a
// single chunk and is event-for-event identical to a plain
// Fabric::transfer, so chunking is strictly opt-in.
//
// Reliable delivery: every chunk is a judged frame against the Fabric's
// fault plane. A delivered chunk's descriptor CRC is verified on receive;
// a corrupted chunk is rejected (real CRC32 mismatch) and retransmitted
// immediately, a dropped chunk is retransmitted after an exponentially
// backed-off timeout, and a chunk that exhausts its attempt budget — or a
// transfer that exhausts its deadline — fails the stream through
// set_on_fail instead of hanging. With the fault plane disabled all of
// this is inert and the stream is event-for-event identical to before.
//
// Cancellation tears down the in-flight chunk flows and drops every
// callback, composing with DvdcCoordinator::abort and
// RecoveryManager::abort (and through it CheckpointBackend::abort_recovery).

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/fabric.hpp"

namespace vdc::net {

/// Max chunk flows in flight per stream.
inline constexpr std::size_t kPipelineDepth = 4;

// Reliable delivery; consulted only when the Fabric's fault plane is
// active, inert otherwise.
/// Sender timeout before the first retransmission of a dropped chunk.
inline constexpr SimTime kRetransmitTimeout = 0.05;
/// Timeout multiplier per further retransmission of a dropped chunk.
inline constexpr double kRetransmitBackoff = 2.0;
/// Send attempts per chunk (first try + retransmissions) before the
/// stream fails.
inline constexpr std::size_t kMaxAttempts = 8;
/// Whole-transfer deadline. Checked whenever a chunk would be
/// retransmitted, so a stream never hangs on a dead link.
inline constexpr SimTime kTransferDeadline = 30.0;

/// How to slice logical transfers. Shared by the protocol and recovery
/// configs.
struct ChunkPolicy {
  /// Segment size; 0 disables chunking (one chunk == the whole transfer).
  Bytes chunk_bytes = 0;

  bool enabled() const { return chunk_bytes > 0; }
  std::size_t chunk_count(Bytes total) const;
  Bytes chunk_size(Bytes total, std::size_t index) const;
};

/// Stream content tags, carried in every chunk's wire descriptor so a
/// receiver can tell full-checkpoint payloads (raw image bytes) from
/// parity-delta frames before consuming a chunk. Values are fourcc codes;
/// "VDD1" is also the delta frame's magic.
constexpr std::uint32_t kFullStreamTag = 0x31434456u;   // "VDC1"
constexpr std::uint32_t kDeltaStreamTag = 0x31444456u;  // "VDD1"

class ChunkedStream : public std::enable_shared_from_this<ChunkedStream> {
 public:
  struct Chunk {
    std::size_t index = 0;  // 0-based position in the logical transfer
    Bytes bytes = 0;
    bool last = false;      // true on the final *delivered* chunk
  };
  using ChunkCallback = std::function<void(const Chunk&)>;
  using DoneCallback = std::function<void()>;
  using FailCallback = std::function<void(const std::string&)>;

  /// Start streaming `total` bytes src -> dst. `on_chunk` fires once per
  /// delivered chunk; `on_done` fires after the last chunk's `on_chunk`.
  /// The returned handle is only needed for cancel(); the stream keeps
  /// itself alive until it completes or is cancelled.
  static std::shared_ptr<ChunkedStream> start(Fabric& fabric, HostId src,
                                              HostId dst, Bytes total,
                                              ChunkPolicy policy,
                                              ChunkCallback on_chunk,
                                              DoneCallback on_done = {});

  /// Reliable-delivery failure: a chunk exhausted its retransmission
  /// attempts or the transfer blew its deadline (only reachable with the
  /// fault plane active). In-flight flows are torn down and every other
  /// callback dropped before `on_fail` fires, exactly once.
  void set_on_fail(FailCallback on_fail) { on_fail_ = std::move(on_fail); }

  /// Tag the stream's content type (kFullStreamTag / kDeltaStreamTag).
  /// Folded into every chunk descriptor, so the receive-side CRC also
  /// rejects a chunk mis-attributed to the wrong stream kind.
  void set_stream_tag(std::uint32_t tag) { stream_tag_ = tag; }

  /// Cancel in-flight chunk flows, stop launching, drop all callbacks.
  void cancel();

  bool done() const { return delivered_ == chunks_total_; }
  bool cancelled() const { return cancelled_; }
  bool failed() const { return failed_; }
  std::size_t chunks_total() const { return chunks_total_; }

 private:
  ChunkedStream(Fabric& fabric, HostId src, HostId dst, Bytes total,
                ChunkPolicy policy, ChunkCallback on_chunk,
                DoneCallback on_done);

  simkit::Simulator& sim() { return fabric_.network().sim(); }
  void pump();
  void launch(std::size_t index);
  void on_chunk_outcome(std::size_t index, const Judgement& verdict);
  void deliver(std::size_t index);
  void fail(std::string reason);
  /// The per-chunk wire descriptor the receive-side CRC covers:
  /// {src, dst, index, size, stream tag}.
  std::array<std::byte, 28> frame_descriptor(std::size_t index) const;

  Fabric& fabric_;
  HostId src_;
  HostId dst_;
  Bytes total_;
  ChunkPolicy policy_;
  ChunkCallback on_chunk_;
  DoneCallback on_done_;
  FailCallback on_fail_;

  std::size_t chunks_total_ = 0;
  std::size_t next_launch_ = 0;   // first chunk not yet on the wire
  std::size_t delivered_ = 0;
  bool cancelled_ = false;
  bool failed_ = false;
  std::uint32_t stream_tag_ = kFullStreamTag;
  SimTime started_at_ = 0.0;
  std::unordered_map<std::size_t, FlowId> inflight_;  // chunk index -> flow
  // Reliability state; touched only when a chunk misbehaves.
  std::unordered_map<std::size_t, std::size_t> attempts_;
  std::unordered_map<std::size_t, simkit::EventId> retry_timers_;
};

}  // namespace vdc::net
