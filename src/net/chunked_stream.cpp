#include "net/chunked_stream.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/crc32.hpp"

namespace vdc::net {

std::size_t ChunkPolicy::chunk_count(Bytes total) const {
  if (!enabled() || total == 0) return 1;
  return static_cast<std::size_t>((total + chunk_bytes - 1) / chunk_bytes);
}

Bytes ChunkPolicy::chunk_size(Bytes total, std::size_t index) const {
  const std::size_t n = chunk_count(total);
  VDC_ASSERT(index < n);
  if (n == 1) return total;
  if (index + 1 < n) return chunk_bytes;
  return total - chunk_bytes * static_cast<Bytes>(n - 1);  // tail
}

ChunkedStream::ChunkedStream(Fabric& fabric, HostId src, HostId dst,
                             Bytes total, ChunkPolicy policy,
                             ChunkCallback on_chunk, DoneCallback on_done)
    : fabric_(fabric),
      src_(src),
      dst_(dst),
      total_(total),
      policy_(policy),
      on_chunk_(std::move(on_chunk)),
      on_done_(std::move(on_done)) {
  chunks_total_ = policy_.chunk_count(total_);
  started_at_ = fabric_.network().sim().now();
}

std::shared_ptr<ChunkedStream> ChunkedStream::start(
    Fabric& fabric, HostId src, HostId dst, Bytes total, ChunkPolicy policy,
    ChunkCallback on_chunk, DoneCallback on_done) {
  auto stream = std::shared_ptr<ChunkedStream>(
      new ChunkedStream(fabric, src, dst, total, policy, std::move(on_chunk),
                        std::move(on_done)));
  stream->pump();
  return stream;
}

void ChunkedStream::pump() {
  while (!cancelled_ && !failed_ && next_launch_ < chunks_total_ &&
         inflight_.size() < kPipelineDepth) {
    launch(next_launch_++);
  }
}

void ChunkedStream::launch(std::size_t index) {
  if (cancelled_ || failed_) return;
  const Bytes bytes = policy_.chunk_size(total_, index);
  fabric_.note_chunk_started();
  // The flow callback holds the stream alive until delivery or cancel.
  auto self = shared_from_this();
  const FlowId fid = fabric_.transfer_judged(
      src_, dst_, bytes, [self, index](const Judgement& verdict) {
        self->on_chunk_outcome(index, verdict);
      });
  inflight_.emplace(index, fid);
}

std::array<std::byte, 28> ChunkedStream::frame_descriptor(
    std::size_t index) const {
  std::array<std::byte, 28> frame{};
  const auto put = [&frame](std::size_t off, std::uint64_t v,
                            std::size_t width) {
    for (std::size_t i = 0; i < width; ++i)
      frame[off + i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  };
  put(0, src_, 4);
  put(4, dst_, 4);
  put(8, index, 8);
  put(16, policy_.chunk_size(total_, index), 8);
  put(24, stream_tag_, 4);
  return frame;
}

void ChunkedStream::on_chunk_outcome(std::size_t index,
                                     const Judgement& verdict) {
  if (cancelled_ || failed_) return;
  inflight_.erase(index);
  fabric_.note_chunk_finished();
  if (verdict.outcome == Delivery::kDelivered) {
    deliver(index);
    return;
  }

  auto& metrics = fabric_.telemetry().metrics();
  if (verdict.outcome == Delivery::kCorrupted) {
    // Receive-side integrity: the chunk descriptor's CRC32 catches the
    // in-flight bit flip, so the chunk is rejected, never consumed.
    const auto frame = frame_descriptor(index);
    const std::uint32_t crc = crc32(frame);
    VDC_ASSERT(crc_catches_flip(frame, crc, verdict.corrupt_bit));
    metrics.add("net.corrupt_frames", 1.0);
  }
  // (net.drops is counted by the fault plane at judge time.)

  const std::size_t tried = ++attempts_[index];  // failed sends so far
  if (tried + 1 > kMaxAttempts) {
    fail("chunk " + std::to_string(index) + " exhausted " +
         std::to_string(kMaxAttempts) + " attempts");
    return;
  }
  if (sim().now() - started_at_ >= kTransferDeadline) {
    fail("transfer deadline exceeded");
    return;
  }
  // Retransmit. A corrupted chunk is NAKed by the receiver and goes again
  // immediately; a dropped chunk waits out the sender's timeout, doubled
  // per failed attempt.
  SimTime delay = 0.0;
  if (verdict.outcome == Delivery::kDropped) {
    delay = kRetransmitTimeout;
    for (std::size_t i = 1; i < tried; ++i) delay *= kRetransmitBackoff;
  }
  metrics.add("net.retransmits", 1.0);
  auto self = shared_from_this();
  retry_timers_[index] = sim().after(delay, [self, index] {
    self->retry_timers_.erase(index);
    self->launch(index);
  });
}

void ChunkedStream::deliver(std::size_t index) {
  ++delivered_;
  const Chunk chunk{index, policy_.chunk_size(total_, index),
                    delivered_ == chunks_total_};
  // Keep the pipe full before handing the chunk to the consumer (whose
  // callback may itself queue work or cancel us).
  pump();
  if (on_chunk_) on_chunk_(chunk);
  if (delivered_ == chunks_total_ && !cancelled_) {
    auto done = std::move(on_done_);
    on_done_ = nullptr;
    on_chunk_ = nullptr;  // break consumer reference cycles at completion
    on_fail_ = nullptr;
    if (done) done();
  }
}

void ChunkedStream::fail(std::string reason) {
  failed_ = true;
  for (const auto& [idx, fid] : inflight_) {
    fabric_.cancel(fid);
    fabric_.note_chunk_finished();
  }
  inflight_.clear();
  for (const auto& [idx, ev] : retry_timers_) sim().cancel(ev);
  retry_timers_.clear();
  on_chunk_ = nullptr;
  on_done_ = nullptr;
  auto on_fail = std::move(on_fail_);
  on_fail_ = nullptr;
  if (on_fail) on_fail(reason);
}

void ChunkedStream::cancel() {
  if (cancelled_ || failed_ || done()) return;
  cancelled_ = true;
  for (const auto& [idx, fid] : inflight_) {
    fabric_.cancel(fid);
    fabric_.note_chunk_finished();
  }
  inflight_.clear();
  for (const auto& [idx, ev] : retry_timers_) sim().cancel(ev);
  retry_timers_.clear();
  on_chunk_ = nullptr;
  on_done_ = nullptr;
  on_fail_ = nullptr;
}

}  // namespace vdc::net
