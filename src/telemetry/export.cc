#include "src/telemetry/export.h"

#include <cinttypes>
#include <cstdio>

#include "src/util/status.h"

namespace mdatalog::telemetry {

namespace {

/// Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*; we map everything
/// outside [a-zA-Z0-9_] to '_' and prefix the library namespace.
std::string PromName(const std::string& name) {
  std::string out = "mdatalog_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void AppendInt(std::string* out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

/// JSON string escaping for the controlled names that appear in exports
/// (metric names, span names, status codes — no exotic unicode).
void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDurationMs(std::string* out, int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3fms", static_cast<double>(ns) / 1e6);
  *out += buf;
}

void AppendHistogramJson(std::string* out, const HistogramSnapshot& h) {
  *out += "{\"count\":";
  AppendUint(out, h.count);
  *out += ",\"sum\":";
  AppendInt(out, h.sum);
  *out += ",\"max\":";
  AppendInt(out, h.max);
  *out += ",\"mean\":";
  AppendInt(out, h.Mean());
  *out += ",\"p50\":";
  AppendInt(out, h.Percentile(0.50));
  *out += ",\"p90\":";
  AppendInt(out, h.Percentile(0.90));
  *out += ",\"p99\":";
  AppendInt(out, h.Percentile(0.99));
  *out += ",\"buckets\":[";
  bool first = true;
  for (int32_t b = 0; b < HistogramSnapshot::kNumBuckets; ++b) {
    if (h.counts[b] == 0) continue;
    if (!first) out->push_back(',');
    first = false;
    *out += "[";
    AppendInt(out, HistogramSnapshot::BucketLowerBound(b));
    out->push_back(',');
    AppendUint(out, h.counts[b]);
    *out += "]";
  }
  *out += "]}";
}

void AppendSpanJson(std::string* out, const SpanRecord& s, int64_t trace_start) {
  *out += "{\"name\":";
  AppendJsonString(out, StageName(s.stage));
  *out += ",\"start_ns\":";
  AppendInt(out, s.start_ns - trace_start);
  *out += ",\"duration_ns\":";
  AppendInt(out, s.duration_ns());
  *out += ",\"parent\":";
  AppendInt(out, s.parent);
  *out += ",\"depth\":";
  AppendInt(out, s.depth);
  if (s.tag != nullptr) {
    *out += ",\"tag\":";
    AppendJsonString(out, s.tag);
  }
  for (int32_t i = 0; i < s.num_values; ++i) {
    *out += ",";
    AppendJsonString(out, s.value_names[i]);
    *out += ":";
    AppendInt(out, s.values[i]);
  }
  *out += "}";
}

}  // namespace

std::string ToPrometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(4096);
  for (const auto& [name, v] : snapshot.counters) {
    const std::string p = PromName(name) + "_total";
    out += "# TYPE " + p + " counter\n" + p + " ";
    AppendInt(&out, v);
    out += "\n";
  }
  for (const auto& [name, v] : snapshot.gauges) {
    const std::string p = PromName(name);
    out += "# TYPE " + p + " gauge\n" + p + " ";
    AppendInt(&out, v);
    out += "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string p = PromName(name);
    out += "# TYPE " + p + " histogram\n";
    uint64_t cumulative = 0;
    for (int32_t b = 0; b < HistogramSnapshot::kNumBuckets; ++b) {
      if (h.counts[b] == 0) continue;
      cumulative += h.counts[b];
      out += p + "_bucket{le=\"";
      AppendInt(&out, HistogramSnapshot::BucketUpperBound(b) - 1);
      out += "\"} ";
      AppendUint(&out, cumulative);
      out += "\n";
    }
    out += p + "_bucket{le=\"+Inf\"} ";
    AppendUint(&out, h.count);
    out += "\n" + p + "_sum ";
    AppendInt(&out, h.sum);
    out += "\n" + p + "_count ";
    AppendUint(&out, h.count);
    out += "\n";
  }
  return out;
}

std::string ToJson(const MetricsSnapshot& snapshot,
                   const std::vector<FinishedTrace>& traces) {
  std::string out;
  out.reserve(8192);
  out += "{\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : snapshot.counters) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendInt(&out, v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : snapshot.gauges) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendInt(&out, v);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    if (!first) out.push_back(',');
    first = false;
    AppendJsonString(&out, name);
    out.push_back(':');
    AppendHistogramJson(&out, h);
  }
  out += "},\"traces\":[";
  first = true;
  for (const FinishedTrace& t : traces) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"kind\":";
    AppendJsonString(&out, RequestKindName(t.kind));
    out += ",\"duration_ns\":";
    AppendInt(&out, t.duration_ns);
    out += ",\"page_bytes\":";
    AppendInt(&out, t.page_bytes);
    out += ",\"nodes\":";
    AppendInt(&out, t.nodes);
    out += ",\"status\":";
    AppendJsonString(&out, util::StatusCodeName(t.status));
    if (t.dropped_spans > 0) {
      out += ",\"dropped_spans\":";
      AppendInt(&out, t.dropped_spans);
    }
    out += ",\"spans\":[";
    bool sfirst = true;
    for (const SpanRecord& s : t.spans) {
      if (!sfirst) out.push_back(',');
      sfirst = false;
      AppendSpanJson(&out, s, t.start_ns);
    }
    out += "]}";
  }
  // The linearity scatter: one (nodes, bytes, wall) point per retained
  // request — wall_ns must grow linearly in nodes (Theorem 4.2).
  out += "],\"scatter\":[";
  first = true;
  for (const FinishedTrace& t : traces) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"nodes\":";
    AppendInt(&out, t.nodes);
    out += ",\"bytes\":";
    AppendInt(&out, t.page_bytes);
    out += ",\"wall_ns\":";
    AppendInt(&out, t.duration_ns);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string FormatBreakdown(const FinishedTrace& trace) {
  std::string out;
  out.reserve(512);
  out += RequestKindName(trace.kind);
  out.push_back(' ');
  AppendDurationMs(&out, trace.duration_ns);
  out += " status=";
  out += util::StatusCodeName(trace.status);
  if (trace.page_bytes > 0) {
    out += " bytes=";
    AppendInt(&out, trace.page_bytes);
  }
  if (trace.nodes > 0) {
    out += " nodes=";
    AppendInt(&out, trace.nodes);
  }
  out.push_back('\n');
  for (const SpanRecord& s : trace.spans) {
    out.append(static_cast<size_t>(s.depth + 1) * 2, ' ');
    out += StageName(s.stage);
    out.push_back(' ');
    AppendDurationMs(&out, s.duration_ns());
    if (s.tag != nullptr) {
      out += " [";
      out += s.tag;
      out += "]";
    }
    for (int32_t i = 0; i < s.num_values; ++i) {
      out += i == 0 ? " (" : ", ";
      out += s.value_names[i];
      out.push_back('=');
      AppendInt(&out, s.values[i]);
    }
    if (s.num_values > 0) out += ")";
    out.push_back('\n');
  }
  if (trace.dropped_spans > 0) {
    out += "  … ";
    AppendInt(&out, trace.dropped_spans);
    out += " spans dropped (cap)\n";
  }
  return out;
}

}  // namespace mdatalog::telemetry
