#pragma once
// Stack sampler that charges the simulation thread's wall time to the
// simulator's layers (the src/ modules) without touching any of their code.
//
// A CLOCK_MONOTONIC timer sends SIGPROF to the thread that called start()
// once per `period`. Time that thread spends waiting on the parity pool
// lands in the parity layer, so the samples split the wall time that
// sim_s_per_wall_s measures. The handler only calls backtrace() into a
// buffer allocated up front; symbols are
// resolved after the run with `addr2line -f -C -i`, whose inline chains
// (and anonymous-namespace functions, which dladdr misses) map each frame
// to the source file it came from. A sample is charged to the innermost
// frame whose file lies in a layer; frames from src/common, the standard
// library, libc and the benchmark itself pass through to their caller.

#include <time.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace vdc::bench {

/// The layers the benchmark reports, in report order. "other" collects
/// samples with no layer frame on the stack (and the storage, migration
/// and model modules, which a job only touches in passing).
const std::vector<std::string>& layer_names();

/// Layer of one source path, or "" when the frame passes through to its
/// caller (src/common, headers outside src/, the benchmark's own files).
std::string layer_of_file(const std::string& path);

class StackSampler {
 public:
  /// Preallocates room for `capacity` samples; samples beyond it are
  /// counted in dropped() instead of recorded.
  explicit StackSampler(std::size_t capacity);
  ~StackSampler();
  StackSampler(const StackSampler&) = delete;
  StackSampler& operator=(const StackSampler&) = delete;

  /// Sample the calling thread every `period_s` of wall time. One sampler
  /// may run per process.
  void start(double period_s);
  void stop();

  std::size_t samples() const;
  std::size_t dropped() const;
  double period_s() const { return period_s_; }

  /// Samples per layer (every name in layer_names() present). Runs
  /// addr2line on the executable; `address_file` receives the address
  /// list for the duration of the call.
  std::map<std::string, std::uint64_t> layer_samples(
      const std::string& address_file) const;

 private:
  static constexpr int kDepth = 64;
  std::vector<void*> frames_;       // capacity * kDepth
  std::vector<std::int32_t> depth_;  // frames recorded per sample
  double period_s_ = 0.0;
  timer_t timer_{};
  bool running_ = false;
};

}  // namespace vdc::bench
