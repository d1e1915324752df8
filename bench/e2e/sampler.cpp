#include "sampler.hpp"

#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace vdc::bench {
namespace {

// Handler state: the handler may only touch these (set before arming).
void** g_frames = nullptr;
std::int32_t* g_depth = nullptr;
std::size_t g_capacity = 0;
int g_max_depth = 0;
std::atomic<std::size_t> g_next{0};
std::atomic<std::size_t> g_dropped{0};

void on_sigprof(int) {
  const int saved_errno = errno;
  const std::size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
  if (slot < g_capacity) {
    g_depth[slot] = backtrace(g_frames + slot * g_max_depth, g_max_depth);
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
  errno = saved_errno;
}

void arm(timer_t timer, double period_s) {
  itimerspec spec{};
  const auto nsec = static_cast<long>(period_s * 1e9);
  spec.it_interval.tv_sec = nsec / 1000000000;
  spec.it_interval.tv_nsec = nsec % 1000000000;
  spec.it_value = spec.it_interval;
  timer_settime(timer, 0, &spec, nullptr);
}

/// Load bias and loaded address ranges of the main executable.
struct ExeMap {
  std::uintptr_t bias = 0;
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;
  bool contains(std::uintptr_t pc) const {
    for (const auto& [lo, hi] : ranges)
      if (pc >= lo && pc < hi) return true;
    return false;
  }
};

ExeMap main_executable_map() {
  ExeMap map;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) -> int {
        auto& m = *static_cast<ExeMap*>(out);
        m.bias = info->dlpi_addr;
        for (int i = 0; i < info->dlpi_phnum; ++i) {
          const auto& ph = info->dlpi_phdr[i];
          if (ph.p_type != PT_LOAD) continue;
          const std::uintptr_t lo = info->dlpi_addr + ph.p_vaddr;
          m.ranges.emplace_back(lo, lo + ph.p_memsz);
        }
        return 1;  // the first object listed is the executable
      },
      &map);
  return map;
}

std::string executable_path() {
  std::string path(4096, '\0');
  const ssize_t n = readlink("/proc/self/exe", path.data(), path.size());
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  path.resize(static_cast<std::size_t>(n));
  return path;
}

/// addr2line's inline chain for each offset, reduced to the innermost
/// layer on it ("" when every frame passes through).
std::unordered_map<std::uintptr_t, std::string> resolve_layers(
    const std::vector<std::uintptr_t>& offsets,
    const std::string& address_file) {
  {
    std::ofstream out(address_file);
    for (std::uintptr_t off : offsets) out << std::hex << "0x" << off << '\n';
    if (!out.good())
      throw std::runtime_error("cannot write " + address_file);
  }
  const std::string cmd = "addr2line -f -C -i -a -e '" + executable_path() +
                          "' < '" + address_file + "'";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) throw std::runtime_error("cannot run addr2line");

  std::unordered_map<std::uintptr_t, std::string> layers;
  std::uintptr_t current = 0;
  bool have_current = false;
  bool expect_file = false;  // lines alternate: function, file:line
  char line[8192];
  while (std::fgets(line, sizeof line, pipe) != nullptr) {
    const std::string text(line);
    if (!expect_file && text.rfind("0x", 0) == 0) {
      current = std::stoull(text, nullptr, 16);
      have_current = true;
      layers.emplace(current, "");
      continue;
    }
    if (expect_file && have_current) {
      std::string& layer = layers[current];
      if (layer.empty()) layer = layer_of_file(text);
    }
    expect_file = !expect_file;
  }
  const int status = pclose(pipe);
  std::remove(address_file.c_str());
  if (status != 0 || layers.size() != offsets.size())
    throw std::runtime_error("addr2line failed to resolve the samples");
  return layers;
}

}  // namespace

const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> names{
      "simkit",        "net.flow",      "net.fabric",     "core.plan",
      "core.protocol", "core.recovery", "core.runtime",   "checkpoint",
      "parity",        "vm",            "workload",       "controlplane",
      "cluster",       "failure",       "telemetry",      "other"};
  return names;
}

std::string layer_of_file(const std::string& path) {
  const std::size_t root = path.rfind("/src/");
  if (root == std::string::npos) return "";
  const std::size_t begin = root + 5;
  const std::size_t slash = path.find('/', begin);
  if (slash == std::string::npos) return "";
  const std::string module = path.substr(begin, slash - begin);
  const std::string stem =
      path.substr(slash + 1, path.find('.', slash) - slash - 1);
  if (module == "common") return "";
  if (module == "net")
    return stem == "flow_network" ? "net.flow" : "net.fabric";
  if (module == "core") {
    if (stem == "plan" || stem == "protocol" || stem == "recovery")
      return "core." + stem;
    return "core.runtime";
  }
  for (const std::string& name : layer_names())
    if (name == module) return name;
  return "other";
}

StackSampler::StackSampler(std::size_t capacity)
    : frames_(capacity * kDepth), depth_(capacity, 0) {}

StackSampler::~StackSampler() { stop(); }

void StackSampler::start(double period_s) {
  if (running_) return;
  // The first backtrace() loads the unwinder (dlopen + malloc); doing it
  // here keeps both out of the signal handler.
  void* warmup[4];
  backtrace(warmup, 4);

  g_frames = frames_.data();
  g_depth = depth_.data();
  g_capacity = depth_.size();
  g_max_depth = kDepth;
  g_next.store(0);
  g_dropped.store(0);

  struct sigaction action {};
  action.sa_handler = on_sigprof;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, nullptr);

  // A monotonic (wall-clock) timer aimed at the calling thread: hrtimer
  // resolution, unlike CPU-time timers, which only expire on the kernel
  // tick (250 Hz here).
  sigevent event{};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGPROF;
  event._sigev_un._tid = gettid();  // glibc's name for sigev_notify_thread_id
  if (timer_create(CLOCK_MONOTONIC, &event, &timer_) != 0)
    throw std::runtime_error("cannot create the sampling timer");
  period_s_ = period_s;
  arm(timer_, period_s);
  running_ = true;
}

void StackSampler::stop() {
  if (!running_) return;
  arm(timer_, 0.0);
  timer_delete(timer_);
  signal(SIGPROF, SIG_IGN);
  running_ = false;
}

std::size_t StackSampler::samples() const {
  return std::min(g_next.load(), depth_.size());
}

std::size_t StackSampler::dropped() const { return g_dropped.load(); }

std::map<std::string, std::uint64_t> StackSampler::layer_samples(
    const std::string& address_file) const {
  const ExeMap exe = main_executable_map();
  const std::size_t n = samples();

  // Frame 0 is the handler and frame 1 the signal trampoline; frame 2 is
  // the interrupted PC itself, deeper frames are return addresses (one
  // past the call, so step back into the calling instruction).
  const auto frame_offset = [&](std::size_t s, int i) -> std::uintptr_t {
    auto pc = reinterpret_cast<std::uintptr_t>(frames_[s * kDepth + i]);
    if (i > 2) pc -= 1;
    return exe.contains(pc) ? pc - exe.bias : 0;
  };

  std::vector<std::uintptr_t> unique;
  {
    std::unordered_set<std::uintptr_t> seen;
    for (std::size_t s = 0; s < n; ++s)
      for (int i = 0; i < depth_[s]; ++i)
        if (const auto off = frame_offset(s, i);
            off != 0 && seen.insert(off).second)
          unique.push_back(off);
  }
  const auto layers =
      unique.empty() ? std::unordered_map<std::uintptr_t, std::string>{}
                     : resolve_layers(unique, address_file);

  std::map<std::string, std::uint64_t> counts;
  for (const std::string& name : layer_names()) counts[name] = 0;
  for (std::size_t s = 0; s < n; ++s) {
    std::string layer = "other";
    for (int i = 0; i < depth_[s]; ++i) {
      const auto off = frame_offset(s, i);
      if (off == 0) continue;
      const std::string& found = layers.at(off);
      if (!found.empty()) {
        layer = found;
        break;
      }
    }
    ++counts[layer];
  }
  return counts;
}

}  // namespace vdc::bench
