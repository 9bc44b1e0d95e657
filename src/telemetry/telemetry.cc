#include "src/telemetry/telemetry.h"

#include <algorithm>
#include <utility>

#include "src/telemetry/export.h"

namespace mdatalog::telemetry {

Telemetry::Telemetry(const TelemetryOptions& options) : options_(options) {}

std::unique_ptr<TraceContext> Telemetry::StartTrace(const char* kind) {
  if (!options_.enabled) return nullptr;
  if (options_.trace_sample_every > 1) {
    const uint64_t draw = trace_draw_.fetch_add(1, std::memory_order_relaxed);
    if (draw % static_cast<uint64_t>(options_.trace_sample_every) != 0) {
      return nullptr;
    }
  }
  return std::make_unique<TraceContext>(kind);
}

void Telemetry::FinishTrace(std::unique_ptr<TraceContext> trace,
                            util::StatusCode status) {
  if (trace == nullptr) return;
  trace->set_status(status);
  trace->Close();

  // Fold every span into its per-stage latency histogram, and the whole
  // request into the per-kind one. The name strings are short (SSO) and the
  // registry lookup is a shared-lock map probe — ~µs total per request,
  // off the request's own critical path only in the sense that the answer
  // has already been produced; the 3% overhead gate in BENCH_telemetry
  // keeps this honest.
  std::string name;
  for (const SpanRecord& s : trace->spans()) {
    name.assign("stage.");
    name += s.name;
    name += ".ns";
    registry_.GetHistogram(name)->Record(s.duration_ns());
  }
  name.assign("request.");
  name += trace->kind();
  name += ".ns";
  registry_.GetHistogram(name)->Record(trace->duration_ns());

  FinishedTrace finished;
  finished.kind = trace->kind();
  finished.start_ns = trace->start_ns();
  finished.duration_ns = trace->end_ns() - trace->start_ns();
  finished.page_bytes = trace->page_bytes();
  finished.nodes = trace->nodes();
  finished.dropped_spans = trace->dropped_spans();
  finished.status = status;
  finished.spans = std::move(trace->mutable_spans());

  if (finished.duration_ns >= options_.slow_request_ns) {
    registry_.GetCounter("trace.slow_requests")->Add(1);
    std::string entry = FormatBreakdown(finished);
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_log_.push_back(std::move(entry));
    while (slow_log_.size() >
           static_cast<size_t>(std::max(1, options_.slow_log_capacity))) {
      slow_log_.pop_front();
    }
  }

  std::lock_guard<std::mutex> lock(ring_mu_);
  ring_.push_back(std::move(finished));
  while (ring_.size() >
         static_cast<size_t>(std::max(1, options_.trace_ring_capacity))) {
    ring_.pop_front();
  }
}

std::vector<FinishedTrace> Telemetry::RecentTraces() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  return std::vector<FinishedTrace>(ring_.begin(), ring_.end());
}

std::vector<std::string> Telemetry::SlowRequestLog() const {
  std::lock_guard<std::mutex> lock(slow_mu_);
  return std::vector<std::string>(slow_log_.begin(), slow_log_.end());
}

}  // namespace mdatalog::telemetry
