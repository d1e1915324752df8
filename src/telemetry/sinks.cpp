#include "telemetry/sinks.hpp"

#include <cstdio>
#include <fstream>
#include <utility>

namespace vdc::telemetry {

namespace {

std::string labels_json(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& label : labels) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(label.key);
    out += "\":\"";
    out += json_escape(label.value);
    out += '"';
  }
  out += '}';
  return out;
}

std::string metric_json(const Metric& metric) {
  char buf[320];  // seven %.17g fields at up to 24 chars each, plus keys
  std::string out = "{\"type\":\"";
  switch (metric.kind) {
    case MetricKind::Counter:
      out += "counter";
      break;
    case MetricKind::Gauge:
      out += "gauge";
      break;
    case MetricKind::Histogram:
      out += "histogram";
      break;
  }
  out += "\",\"name\":\"";
  out += json_escape(metric.name);
  out += "\",\"labels\":";
  out += labels_json(metric.labels);
  switch (metric.kind) {
    case MetricKind::Counter:
      std::snprintf(buf, sizeof buf, ",\"value\":%.17g", metric.value);
      out += buf;
      break;
    case MetricKind::Gauge:
      std::snprintf(buf, sizeof buf, ",\"value\":%.17g,\"peak\":%.17g",
                    metric.value, metric.peak);
      out += buf;
      break;
    case MetricKind::Histogram: {
      const auto& s = metric.samples;
      std::snprintf(buf, sizeof buf,
                    ",\"count\":%zu,\"mean\":%.17g,\"p50\":%.17g,"
                    "\"p99\":%.17g,\"p999\":%.17g,\"min\":%.17g,\"max\":%.17g",
                    s.count(), s.mean(), s.percentile(50.0),
                    s.percentile(99.0), s.percentile(99.9),
                    s.percentile(0.0), s.percentile(100.0));
      out += buf;
      break;
    }
  }
  out += '}';
  return out;
}

}  // namespace

void InMemorySink::flush(const MetricsRegistry& metrics) {
  metrics_.clear();
  for (const Metric* metric : metrics.all()) metrics_.push_back(*metric);
}

std::vector<SpanRecord> InMemorySink::named(std::string_view name) const {
  std::vector<SpanRecord> out;
  for (const auto& span : spans_)
    if (span.name == name) out.push_back(span);
  return out;
}

ChromeTraceSink::ChromeTraceSink(std::string path, std::string process_name)
    : path_(std::move(path)), process_name_(std::move(process_name)) {}

ChromeTraceSink::~ChromeTraceSink() {
  if (!written_) write(nullptr);
}

void ChromeTraceSink::flush(const MetricsRegistry& metrics) {
  write(&metrics);
}

void ChromeTraceSink::write(const MetricsRegistry* metrics) {
  std::ofstream out(path_);
  if (!out.good()) return;
  written_ = true;

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":"
         "{\"name\":\""
      << json_escape(process_name_) << "\"}}";

  char buf[128];
  for (const auto& span : spans_) {
    // Sim seconds -> trace microseconds.
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  span.start * 1e6, span.duration() * 1e6);
    out << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\""
        << json_escape(span.name) << "\"," << buf
        << ",\"args\":" << labels_json(span.labels) << "}";
  }
  out << "\n]";
  if (metrics != nullptr) {
    // Final metric totals, greppable from the same file.
    out << ",\"metrics\":[\n";
    bool first = true;
    for (const Metric* metric : metrics->all()) {
      if (!first) out << ",\n";
      first = false;
      out << metric_json(*metric);
    }
    out << "\n]";
  }
  out << "}\n";
}

}  // namespace vdc::telemetry
