#include "parity/parallel.hpp"

#include <algorithm>
#include <thread>

#include "parity/pool.hpp"

namespace vdc::parity {

namespace {

// Shards below this size are not worth fanning out.
constexpr std::size_t kMinShard = 256 * 1024;

}  // namespace

unsigned default_parity_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw, 1u, 16u);
}

void parallel_shards(std::size_t total, unsigned threads,
                     const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t max_shards =
      std::max<std::size_t>(1, total / kMinShard);
  const std::size_t n =
      std::min<std::size_t>(std::max(1u, threads), max_shards);
  if (n == 1) {
    fn(0, total);
    return;
  }
  const std::size_t chunk = (total + n - 1) / n;
  ThreadPool::shared().run(n, [&](std::size_t i) {
    const std::size_t begin = i * chunk;
    if (begin >= total) return;
    fn(begin, std::min(chunk, total - begin));
  });
}

}  // namespace vdc::parity
