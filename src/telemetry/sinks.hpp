#pragma once
// Span sinks: where finished spans (and, at flush, the metrics snapshot)
// go.
//
//  * InMemorySink     — buffers everything; the test and assertion sink.
//  * ChromeTraceSink  — Chrome trace-event JSON ("complete" X events,
//                       sim-seconds mapped to trace microseconds). Open
//                       the file in chrome://tracing or https://ui.perfetto.dev.

#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace vdc::telemetry {

/// Buffers spans (and the flushed metrics snapshot) in memory.
class InMemorySink final : public SpanSink {
 public:
  void on_span(const SpanRecord& span) override { spans_.push_back(span); }
  void flush(const MetricsRegistry& metrics) override;

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Spans with the given name, in emission order.
  std::vector<SpanRecord> named(std::string_view name) const;

  /// Flushed metric snapshot rows (empty before the first flush()).
  const std::vector<Metric>& metrics() const { return metrics_; }

  void clear() {
    spans_.clear();
    metrics_.clear();
  }

 private:
  std::vector<SpanRecord> spans_;
  std::vector<Metric> metrics_;
};

/// Buffers spans and writes a complete Chrome trace-event file at flush()
/// (or destruction, whichever comes first).
class ChromeTraceSink final : public SpanSink {
 public:
  /// `process_name` labels the trace's single process row.
  explicit ChromeTraceSink(std::string path,
                           std::string process_name = "vdc");
  ~ChromeTraceSink() override;

  void on_span(const SpanRecord& span) override { spans_.push_back(span); }
  void flush(const MetricsRegistry& metrics) override;

 private:
  void write(const MetricsRegistry* metrics);

  std::string path_;
  std::string process_name_;
  std::vector<SpanRecord> spans_;
  bool written_ = false;
};

}  // namespace vdc::telemetry
