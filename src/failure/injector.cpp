#include "failure/injector.hpp"

#include <cctype>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/assert.hpp"

namespace vdc::failure {

ClusterFailureInjector::ClusterFailureInjector(
    simkit::Simulator& sim, Rng rng, std::shared_ptr<TtfDistribution> ttf,
    std::uint32_t node_count)
    : sim_(sim), rng_(rng), ttf_(std::move(ttf)), node_count_(node_count) {
  VDC_REQUIRE(ttf_ != nullptr, "TTF distribution required");
  VDC_REQUIRE(node_count > 0, "need at least one node");
}

void ClusterFailureInjector::start(FailureCallback on_failure) {
  on_failure_ = std::move(on_failure);
  if (!running_) {
    running_ = true;
    schedule_next();
  }
}

void ClusterFailureInjector::stop() {
  running_ = false;
  if (pending_ != simkit::kInvalidEvent) {
    sim_.cancel(pending_);
    pending_ = simkit::kInvalidEvent;
  }
}

void ClusterFailureInjector::schedule_next() {
  const SimTime dt = ttf_->sample(rng_);
  pending_ = sim_.after(dt, [this] {
    pending_ = simkit::kInvalidEvent;
    ++failures_;
    const auto victim = static_cast<NodeId>(rng_.uniform_u64(node_count_));
    if (on_failure_) on_failure_(victim);
    // The callback may call stop(); only re-arm while running.
    if (running_) schedule_next();
  });
}

ScheduledFailureInjector::ScheduledFailureInjector(
    simkit::Simulator& sim, std::vector<ScheduledFailure> schedule)
    : sim_(sim), schedule_(std::move(schedule)) {
  for (std::size_t i = 1; i < schedule_.size(); ++i)
    VDC_REQUIRE(schedule_[i - 1].at <= schedule_[i].at,
                "fault schedule must be time-ordered");
}

void ScheduledFailureInjector::start(FailureCallback on_failure) {
  on_failure_ = std::move(on_failure);
  if (running_) return;
  running_ = true;
  schedule_next();
}

void ScheduledFailureInjector::stop() {
  running_ = false;
  if (pending_ != simkit::kInvalidEvent) {
    sim_.cancel(pending_);
    pending_ = simkit::kInvalidEvent;
  }
}

void ScheduledFailureInjector::schedule_next() {
  if (next_ >= schedule_.size()) return;
  const ScheduledFailure strike = schedule_[next_];
  VDC_REQUIRE(strike.at >= sim_.now(),
              "fault schedule entry is in the past");
  pending_ = sim_.at(strike.at, [this, strike] {
    pending_ = simkit::kInvalidEvent;
    ++next_;
    if (strike.kind == ScheduledFailure::Kind::kFail) {
      ++failures_;
      if (on_failure_) on_failure_(strike.node);
    } else {
      if (on_event_) on_event_(strike);
    }
    if (running_) schedule_next();
  });
}

namespace {

[[noreturn]] void parse_error(std::size_t line_no, const std::string& what) {
  throw InvariantError("fault schedule line " + std::to_string(line_no) +
                       ": " + what);
}

std::vector<std::string_view> split_fields(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) fields.push_back(line.substr(start, i - start));
  }
  return fields;
}

double parse_number(std::string_view tok, std::size_t line_no,
                    const char* what) {
  const std::string buf(tok);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size())
    parse_error(line_no, std::string("expected ") + what);
  return v;
}

SimTime parse_time(std::string_view tok, std::size_t line_no) {
  const double at = parse_number(tok, line_no, "a time in seconds");
  if (at < 0.0) parse_error(line_no, "time must be non-negative");
  return at;
}

NodeId parse_node(std::string_view tok, std::size_t line_no) {
  const std::string buf(tok);
  char* end = nullptr;
  const long node = std::strtol(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size() || node < 0)
    parse_error(line_no, "expected a non-negative node id");
  return static_cast<NodeId>(node);
}

}  // namespace

std::vector<ScheduledFailure> ScheduledFailureInjector::parse(
    std::string_view text) {
  using Kind = ScheduledFailure::Kind;
  std::vector<ScheduledFailure> out;
  std::size_t pos = 0, line_no = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string_view::npos)
      line = line.substr(0, hash);
    while (!line.empty() && (line.back() == ' ' || line.back() == '\t' ||
                             line.back() == '\r'))
      line.remove_suffix(1);
    const auto f = split_fields(line);
    if (f.empty()) continue;

    ScheduledFailure ev;
    // A line starting with a number is the legacy bare `<time> <node>`
    // pair (= fail); otherwise the first field is an event keyword.
    if (!f[0].empty() && (std::isdigit(static_cast<unsigned char>(f[0][0])) ||
                          f[0][0] == '.' || f[0][0] == '+')) {
      if (f.size() != 2) parse_error(line_no, "expected '<time> <node>'");
      ev.at = parse_time(f[0], line_no);
      ev.node = parse_node(f[1], line_no);
    } else if (f[0] == "fail" || f[0] == "repair") {
      if (f.size() != 3)
        parse_error(line_no, "expected '" + std::string(f[0]) +
                                 " <time> <node>'");
      ev.kind = f[0] == "fail" ? Kind::kFail : Kind::kRepair;
      ev.at = parse_time(f[1], line_no);
      ev.node = parse_node(f[2], line_no);
    } else if (f[0] == "link") {
      if (f.size() < 4)
        parse_error(line_no,
                    "expected 'link <time> <src> <dst>|- [key=value...]'");
      ev.kind = Kind::kLink;
      ev.at = parse_time(f[1], line_no);
      ev.node = parse_node(f[2], line_no);
      if (f[3] != "-") ev.peer = parse_node(f[3], line_no);
      for (std::size_t i = 4; i < f.size(); ++i) {
        const auto eq = f[i].find('=');
        if (eq == std::string_view::npos)
          parse_error(line_no, "expected key=value, got '" +
                                   std::string(f[i]) + "'");
        const std::string_view key = f[i].substr(0, eq);
        const double v = parse_number(f[i].substr(eq + 1), line_no,
                                      "a number after '='");
        if (key == "drop") {
          ev.drop = v;
        } else if (key == "corrupt") {
          ev.corrupt = v;
        } else if (key == "latency") {
          ev.latency = v;
        } else if (key == "jitter") {
          ev.jitter = v;
        } else if (key == "rate") {
          ev.rate = v;
        } else {
          parse_error(line_no, "unknown link key '" + std::string(key) + "'");
        }
      }
      if (ev.drop < 0.0 || ev.drop > 1.0 || ev.corrupt < 0.0 ||
          ev.corrupt > 1.0)
        parse_error(line_no, "drop/corrupt must be probabilities in [0, 1]");
      if (ev.latency < 0.0 || ev.jitter < 0.0)
        parse_error(line_no, "latency/jitter must be non-negative");
      if (ev.rate <= 0.0)
        parse_error(line_no, "rate factor must be positive");
    } else if (f[0] == "partition") {
      if (f.size() != 4)
        parse_error(line_no, "expected 'partition <time> <node> <group>'");
      ev.kind = Kind::kPartition;
      ev.at = parse_time(f[1], line_no);
      ev.node = parse_node(f[2], line_no);
      ev.group = parse_node(f[3], line_no);
    } else if (f[0] == "heal") {
      if (f.size() != 3) parse_error(line_no, "expected 'heal <time> <node>|all'");
      ev.kind = Kind::kHeal;
      ev.at = parse_time(f[1], line_no);
      ev.node = f[2] == "all" ? ScheduledFailure::kAllNodes
                              : parse_node(f[2], line_no);
    } else if (f[0] == "kill-leader" || f[0] == "partition-leader") {
      // Leader-targeted events name no node: the victim is whoever leads
      // the control plane when the event fires. An optional "at"/"AT"
      // keyword reads naturally in drill scripts.
      const bool partition = f[0] == "partition-leader";
      std::size_t ti = 1;
      if (f.size() >= 2 && (f[1] == "at" || f[1] == "AT")) ti = 2;
      const std::size_t want = ti + (partition ? 2 : 1);
      if (f.size() != want) {
        if (f.size() > want)
          parse_error(line_no,
                      "'" + std::string(f[0]) +
                          "' takes no node id — the victim is whoever "
                          "leads at fire time (got extra field '" +
                          std::string(f[want]) + "')");
        parse_error(line_no, partition
                                 ? "expected 'partition-leader [at] <time> "
                                   "<group>'"
                                 : "expected 'kill-leader [at] <time>'");
      }
      ev.kind = partition ? Kind::kPartitionLeader : Kind::kKillLeader;
      ev.at = parse_time(f[ti], line_no);
      ev.node = ScheduledFailure::kAllNodes;  // resolved at fire time
      if (partition) {
        ev.group = parse_node(f[ti + 1], line_no);
        if (ev.group == 0)
          parse_error(line_no,
                      "partition-leader group must be nonzero (0 means "
                      "'connected'; use 'heal' to reconnect)");
      }
    } else {
      parse_error(line_no, "unknown event '" + std::string(f[0]) + "'");
    }

    if (!out.empty() && ev.at < out.back().at)
      parse_error(line_no, "times must be non-decreasing");
    out.push_back(ev);
  }
  return out;
}

}  // namespace vdc::failure
