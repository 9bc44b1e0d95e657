#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

/// \file telemetry.h
/// The per-runtime telemetry bundle: one metrics registry, the
/// trace-sampling policy, a bounded ring buffer of recently completed
/// traces, and the slow-request log.
///
/// Life of a traced request:
///   1. the runtime asks StartTrace("wrap") — null when telemetry is
///      disabled or the request lost the 1-in-N sampling draw, in which
///      case every downstream TraceSpan is a no-op branch;
///   2. the executing thread installs the trace (TraceScope) and the
///      pipeline's instrumentation points record spans against it;
///   3. FinishTrace() closes the trace, folds every span into the
///      per-stage latency histograms ("stage.<name>.ns") and the
///      per-kind request histogram ("request.<kind>.ns"), pushes the
///      trace into the ring buffer, and — when the request exceeded the
///      slow threshold — formats a breakdown into the slow-request log.
///      None of this touches the request's critical path beyond the fold
///      itself (~µs).
///
/// Counters are NOT gated by `enabled`: the runtime's serving counters
/// (pages_wrapped, deadline_exceeded, …) record through the registry
/// unconditionally — striped relaxed increments, cheaper than the mutexed
/// counters they replaced — so WrapperRuntime::stats() is always exact.
/// `enabled` gates only tracing (clock reads, span storage, histogram
/// folds).

namespace mdatalog::telemetry {

struct TelemetryOptions {
  /// Master switch for tracing + histograms. Counters always record.
  bool enabled = true;
  /// Trace one request in N (1 = every request). Sampled requests pay two
  /// clock reads per span; unsampled requests pay one branch per span.
  int32_t trace_sample_every = 1;
  /// Completed traces retained for export (the nodes-vs-wall-time scatter
  /// and the per-request breakdowns read these).
  int32_t trace_ring_capacity = 256;
  /// A traced request slower than this goes into the slow-request log.
  int64_t slow_request_ns = 50'000'000;  // 50ms
  /// Formatted slow-request breakdowns retained.
  int32_t slow_log_capacity = 64;
};

/// A completed request trace, as retained by the ring buffer.
struct FinishedTrace {
  const char* kind = nullptr;
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  int64_t page_bytes = 0;
  int64_t nodes = 0;
  int64_t dropped_spans = 0;
  util::StatusCode status = util::StatusCode::kOk;
  std::vector<SpanRecord> spans;
};

class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& options = {});

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  const TelemetryOptions& options() const { return options_; }
  bool enabled() const { return options_.enabled; }
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  /// A fresh trace for one request, or nullptr (disabled / lost the
  /// sampling draw). The caller threads it to the executing thread, wraps
  /// the work in a TraceScope, and hands it back via FinishTrace.
  std::unique_ptr<TraceContext> StartTrace(const char* kind);

  /// Closes the trace, records `status` on it, folds spans into the stage
  /// histograms, retains it in the ring buffer and (if slow) the
  /// slow-request log. Null-safe.
  void FinishTrace(std::unique_ptr<TraceContext> trace,
                   util::StatusCode status);

  /// Snapshot of the completed-trace ring, oldest first.
  std::vector<FinishedTrace> RecentTraces() const;
  /// Formatted breakdowns of traced slow requests, oldest first.
  std::vector<std::string> SlowRequestLog() const;

 private:
  const TelemetryOptions options_;
  MetricsRegistry registry_;
  std::atomic<uint64_t> trace_draw_{0};

  mutable std::mutex ring_mu_;
  std::deque<FinishedTrace> ring_;

  mutable std::mutex slow_mu_;
  std::deque<std::string> slow_log_;
};

}  // namespace mdatalog::telemetry
