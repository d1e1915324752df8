#pragma once
// Structured telemetry: a metrics registry plus a sim-time span tracer.
//
// One `Telemetry` context lives inside each `simkit::Simulator` and stamps
// everything with *simulated* time, so traces and metrics line up with the
// discrete-event timeline rather than the host clock. Two tiers:
//
//  * The metrics registry (counters / gauges / histograms keyed by name +
//    labels) is ALWAYS on. A string-keyed write sorts its labels, builds a
//    key and does one hash-map upsert, fine per epoch; writers that run
//    once per event (a transfer, a request) hold a `MetricHandle`, one
//    pointer write. Nothing writes per byte. The flat end-of-run structs
//    (`EpochStats`, `RunResult`, ...) are derived from the registry.
//
//  * Span tracing is OFF by default (`set_enabled`). When enabled, begin/
//    end (or pre-timed `record_span`) events flow to attached sinks
//    (in-memory for tests, Chrome trace-event JSON — see
//    sinks.hpp). When disabled, `begin_span` returns `kNoSpan` and emits
//    nothing.
//
// Span parents nest: `begin_span` defaults its parent to the innermost
// still-open span; event-driven code passes an explicit parent instead.
// See docs/OBSERVABILITY.md for the metric and span name catalog.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/stats.hpp"

namespace vdc::telemetry {

/// One metric/span label. Labels are order-insensitive: the registry
/// canonicalizes by key, so {a=1,b=2} and {b=2,a=1} name the same series.
struct Label {
  std::string key;
  std::string value;
};
using Labels = std::vector<Label>;

/// Escape a string for embedding inside a JSON string literal.
std::string json_escape(std::string_view s);

enum class MetricKind { Counter, Gauge, Histogram };

struct Metric {
  MetricKind kind = MetricKind::Counter;
  std::string name;
  Labels labels;              // canonical (key-sorted) order
  double value = 0.0;         // counter: running total; gauge: last set
  double peak = 0.0;          // gauge high-water mark
  Samples samples;            // histogram observations
};

/// Counters, gauges and histograms keyed by (name, labels). Series are
/// never removed and `unordered_map` nodes never move, so `MetricHandle`
/// may keep a `Metric*`.
class MetricsRegistry {
 public:
  /// Add `delta` to a counter (created at zero on first use).
  void add(std::string_view name, double delta, const Labels& labels = {});

  /// Set a gauge; its `peak` tracks the highest value ever set.
  void set(std::string_view name, double v, const Labels& labels = {});

  /// Record one histogram observation.
  void observe(std::string_view name, double v, const Labels& labels = {});

  /// Counter total / gauge current value; 0.0 when the series is absent.
  double value(std::string_view name, const Labels& labels = {}) const;

  /// Gauge high-water mark; 0.0 when the series is absent.
  double peak(std::string_view name, const Labels& labels = {}) const;

  /// Full metric record, or nullptr when absent.
  const Metric* find(std::string_view name, const Labels& labels = {}) const;

  /// Every series, sorted by canonical key (deterministic export order).
  std::vector<const Metric*> all() const;

  std::size_t size() const { return metrics_.size(); }

 private:
  friend class MetricHandle;
  /// Asserts that an existing series has `kind`.
  Metric& upsert(MetricKind kind, std::string_view name,
                 const Labels& labels);
  // Keyed by "name\x1fk=v\x1fk=v" with labels key-sorted.
  std::unordered_map<std::string, Metric> metrics_;
};

/// One series of a registry, for writers that run once per event. The
/// series is resolved through the registry at the first write, so it
/// appears exactly when a string-keyed write would create it; later writes
/// go through a pointer. A handle must not outlive its registry.
class MetricHandle {
 public:
  MetricHandle(MetricsRegistry& registry, std::string name, Labels labels = {})
      : registry_(&registry),
        name_(std::move(name)),
        labels_(std::move(labels)) {}

  void add(double delta) { resolve(MetricKind::Counter).value += delta; }
  void set(double v) {
    Metric& metric = resolve(MetricKind::Gauge);
    metric.value = v;
    metric.peak = std::max(metric.peak, v);
  }
  void observe(double v) { resolve(MetricKind::Histogram).samples.add(v); }

 private:
  Metric& resolve(MetricKind kind) {
    if (metric_ == nullptr) metric_ = &registry_->upsert(kind, name_, labels_);
    VDC_ASSERT(metric_->kind == kind);
    return *metric_;
  }

  MetricsRegistry* registry_;
  std::string name_;
  Labels labels_;
  Metric* metric_ = nullptr;
};

using SpanId = std::uint64_t;
constexpr SpanId kNoSpan = 0;

/// A finished span: a named sim-time interval with labels and a parent.
struct SpanRecord {
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::string name;
  Labels labels;
  double start = 0.0;  // sim seconds
  double end = 0.0;
  double duration() const { return end - start; }
};

/// Receives finished spans as they end; `flush` gets the metrics snapshot.
class SpanSink {
 public:
  virtual ~SpanSink() = default;
  virtual void on_span(const SpanRecord& span) = 0;
  virtual void flush(const MetricsRegistry& /*metrics*/) {}
};

class Telemetry {
 public:
  /// `clock` points at the owner's sim-time (seconds); nullptr reads 0.0
  /// (useful for pure unit tests). The pointer must outlive the context.
  explicit Telemetry(const double* clock = nullptr) : clock_(clock) {}
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// Span tracing gate. The metrics registry is unaffected (always on).
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  double now() const { return clock_ ? *clock_ : 0.0; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  void add_sink(std::shared_ptr<SpanSink> sink);

  /// Push the metrics snapshot into every sink (file sinks write here).
  void flush();

  /// Open a span starting now. `parent == kNoSpan` nests under the
  /// innermost open span. Returns kNoSpan (and records nothing) when
  /// tracing is disabled.
  SpanId begin_span(std::string_view name, Labels labels = {},
                    SpanId parent = kNoSpan);

  /// Close an open span (any order; ids need not close LIFO) and emit it.
  /// No-op on kNoSpan or an unknown id.
  void end_span(SpanId id);

  /// Emit a span with explicit, already-known timestamps — for phases
  /// whose boundaries are computed rather than observed.
  void record_span(std::string_view name, double start, double end,
                   Labels labels = {}, SpanId parent = kNoSpan);

  /// Innermost open span (kNoSpan when none / tracing disabled).
  SpanId current_span() const {
    return open_.empty() ? kNoSpan : open_.back().id;
  }
  std::size_t open_spans() const { return open_.size(); }

 private:
  void emit(const SpanRecord& span);

  const double* clock_;
  bool enabled_ = false;
  std::uint64_t next_id_ = 1;
  MetricsRegistry metrics_;
  std::vector<SpanRecord> open_;  // innermost open span at the back
  std::vector<std::shared_ptr<SpanSink>> sinks_;
};

}  // namespace vdc::telemetry
