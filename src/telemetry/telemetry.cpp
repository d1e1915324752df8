#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace vdc::telemetry {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  return labels;
}

std::string key_of(std::string_view name, const Labels& sorted) {
  std::string key(name);
  for (const auto& label : sorted) {
    key += '\x1f';
    key += label.key;
    key += '=';
    key += label.value;
  }
  return key;
}

}  // namespace

Metric& MetricsRegistry::upsert(MetricKind kind, std::string_view name,
                                const Labels& labels) {
  Labels sorted = canonical(labels);
  const std::string key = key_of(name, sorted);
  auto it = metrics_.find(key);
  if (it == metrics_.end()) {
    Metric metric;
    metric.kind = kind;
    metric.name = std::string(name);
    metric.labels = std::move(sorted);
    it = metrics_.emplace(key, std::move(metric)).first;
  }
  VDC_ASSERT_MSG(it->second.kind == kind,
                 "metric series written as two kinds: " + key);
  return it->second;
}

void MetricsRegistry::add(std::string_view name, double delta,
                          const Labels& labels) {
  upsert(MetricKind::Counter, name, labels).value += delta;
}

void MetricsRegistry::set(std::string_view name, double v,
                          const Labels& labels) {
  Metric& metric = upsert(MetricKind::Gauge, name, labels);
  metric.value = v;
  metric.peak = std::max(metric.peak, v);
}

void MetricsRegistry::observe(std::string_view name, double v,
                              const Labels& labels) {
  upsert(MetricKind::Histogram, name, labels).samples.add(v);
}

const Metric* MetricsRegistry::find(std::string_view name,
                                    const Labels& labels) const {
  const auto it = metrics_.find(key_of(name, canonical(labels)));
  return it == metrics_.end() ? nullptr : &it->second;
}

double MetricsRegistry::value(std::string_view name,
                              const Labels& labels) const {
  const Metric* metric = find(name, labels);
  return metric ? metric->value : 0.0;
}

double MetricsRegistry::peak(std::string_view name,
                             const Labels& labels) const {
  const Metric* metric = find(name, labels);
  return metric ? metric->peak : 0.0;
}

std::vector<const Metric*> MetricsRegistry::all() const {
  std::vector<std::pair<const std::string*, const Metric*>> rows;
  rows.reserve(metrics_.size());
  for (const auto& [key, metric] : metrics_) rows.emplace_back(&key, &metric);
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  std::vector<const Metric*> out;
  out.reserve(rows.size());
  for (const auto& [key, metric] : rows) out.push_back(metric);
  return out;
}

void Telemetry::add_sink(std::shared_ptr<SpanSink> sink) {
  if (sink) sinks_.push_back(std::move(sink));
}

void Telemetry::flush() {
  for (const auto& sink : sinks_) sink->flush(metrics_);
}

SpanId Telemetry::begin_span(std::string_view name, Labels labels,
                             SpanId parent) {
  if (!enabled_) return kNoSpan;
  SpanRecord span;
  span.id = next_id_++;
  span.parent = parent == kNoSpan ? current_span() : parent;
  span.name = std::string(name);
  span.labels = std::move(labels);
  span.start = now();
  open_.push_back(std::move(span));
  return open_.back().id;
}

void Telemetry::end_span(SpanId id) {
  if (id == kNoSpan) return;
  for (auto it = open_.begin(); it != open_.end(); ++it) {
    if (it->id != id) continue;
    SpanRecord span = std::move(*it);
    open_.erase(it);
    span.end = now();
    emit(span);
    return;
  }
}

void Telemetry::record_span(std::string_view name, double start, double end,
                            Labels labels, SpanId parent) {
  if (!enabled_) return;
  SpanRecord span;
  span.id = next_id_++;
  span.parent = parent == kNoSpan ? current_span() : parent;
  span.name = std::string(name);
  span.labels = std::move(labels);
  span.start = start;
  span.end = end;
  emit(span);
}

void Telemetry::emit(const SpanRecord& span) {
  for (const auto& sink : sinks_) sink->on_span(span);
}

}  // namespace vdc::telemetry
