#include "src/telemetry/trace.h"

namespace mdatalog::telemetry {

namespace {
thread_local TraceContext* g_current_trace = nullptr;
}  // namespace

TraceContext* CurrentTrace() { return g_current_trace; }

TraceScope::TraceScope(TraceContext* trace) : prev_(g_current_trace) {
  g_current_trace = trace;
}

TraceScope::~TraceScope() { g_current_trace = prev_; }

int32_t TraceContext::BeginSpan(Stage stage) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_spans_;
    return -1;
  }
  const int32_t index = static_cast<int32_t>(spans_.size());
  SpanRecord span;
  span.stage = stage;
  span.start_ns = MonotonicNowNs();
  span.parent = innermost_;
  span.depth = innermost_ < 0 ? 0 : spans_[innermost_].depth + 1;
  spans_.push_back(span);
  innermost_ = index;
  return index;
}

void TraceContext::EndSpan(int32_t index) {
  // Dropped at Begin (span cap), or already closed because an enclosing
  // span ended while this one was leaked open: only open spans carry
  // end_ns == 0, and they are exactly the parent chain from innermost_.
  if (index < 0 || spans_[index].end_ns != 0) return;
  // Normal case: `index` is the innermost span (exact LIFO). Defensive: an
  // inner span leaked open closes here with the same timestamp.
  CloseThrough(index, MonotonicNowNs());
}

void TraceContext::Close() {
  const int64_t now = MonotonicNowNs();
  CloseThrough(-1, now);
  if (end_ns_ == 0) end_ns_ = now;
}

void TraceContext::CloseThrough(int32_t last, int64_t now) {
  while (innermost_ >= 0) {
    const int32_t closed = innermost_;
    spans_[closed].end_ns = now;
    innermost_ = spans_[closed].parent;
    if (closed == last) break;
  }
}

}  // namespace mdatalog::telemetry
