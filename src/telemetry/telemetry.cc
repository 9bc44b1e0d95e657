#include "src/telemetry/telemetry.h"

#include <algorithm>
#include <string>
#include <utility>

#include "src/telemetry/export.h"

namespace mdatalog::telemetry {

Telemetry::Telemetry(const TelemetryOptions& options) : options_(options) {}

Histogram* Telemetry::Resolve(std::atomic<Histogram*>& slot,
                              const char* prefix, const char* name) {
  Histogram* h = slot.load(std::memory_order_acquire);
  if (h != nullptr) return h;
  // First use: racing threads get the same handle from the registry.
  std::string full = prefix;
  full += name;
  full += ".ns";
  h = registry_.GetHistogram(full);
  slot.store(h, std::memory_order_release);
  return h;
}

std::unique_ptr<TraceContext> Telemetry::StartTrace(RequestKind kind) {
  if (!options_.enabled) return nullptr;
  return std::make_unique<TraceContext>(kind);
}

void Telemetry::FinishTrace(std::unique_ptr<TraceContext> trace,
                            util::StatusCode status) {
  if (trace == nullptr) return;
  trace->Close();

  // Fold every span into its stage's latency histogram, and the whole
  // request into its kind's: one indexed Record each.
  for (const SpanRecord& s : trace->spans()) {
    Resolve(stage_ns_[static_cast<size_t>(s.stage)], "stage.",
            StageName(s.stage))
        ->Record(s.duration_ns());
  }
  Resolve(request_ns_[static_cast<size_t>(trace->kind())], "request.",
          RequestKindName(trace->kind()))
      ->Record(trace->duration_ns());

  FinishedTrace finished;
  finished.kind = trace->kind();
  finished.start_ns = trace->start_ns();
  finished.duration_ns = trace->end_ns() - trace->start_ns();
  finished.page_bytes = trace->page_bytes();
  finished.nodes = trace->nodes();
  finished.dropped_spans = trace->dropped_spans();
  finished.status = status;
  finished.spans = std::move(trace->mutable_spans());

  if (finished.duration_ns >= kSlowRequestNs) {
    registry_.GetCounter("trace.slow_requests")->Add(1);
    std::string entry = FormatBreakdown(finished);
    std::lock_guard<std::mutex> lock(slow_mu_);
    slow_log_.push_back(std::move(entry));
    if (slow_log_.size() > kSlowLogCapacity) slow_log_.pop_front();
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
