#pragma once
// Thread-parallel parity sharding.
//
// Checkpoint images are hundreds of MiB to GiB; a parity holder that
// encodes them on one core leaves the epoch's critical path longer than it
// needs to be. parallel_shards splits the byte range into contiguous shards
// and fans them out over the persistent ThreadPool (the codecs are
// embarrassingly parallel over disjoint byte ranges). Results are
// bit-identical to the serial kernels; tests verify across thread counts.

#include <cstddef>
#include <functional>

namespace vdc::parity {

/// Run fn(shard_begin, shard_size) over [0, total) on up to `threads`
/// workers of the shared ThreadPool. Shards are contiguous, disjoint, and
/// at least 256 KiB (small inputs run serially), so any positional kernel
/// stays bit-identical to its serial form. Blocks until every shard is
/// done.
void parallel_shards(std::size_t total, unsigned threads,
                     const std::function<void(std::size_t, std::size_t)>& fn);

/// A sensible worker count for this machine (hardware_concurrency,
/// clamped to [1, 16]).
unsigned default_parity_threads();

}  // namespace vdc::parity
