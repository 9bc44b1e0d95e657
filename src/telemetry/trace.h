#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

/// \file trace.h
/// Request-scoped trace spans for the serving pipeline.
///
/// A TraceContext is created per request by the runtime's Telemetry bundle
/// and travels with the request: the executing thread installs it as the
/// thread-current trace (TraceScope), and every instrumented layer — HTML
/// parse, cache lookups, plan replay, SAT solve, stream
/// Feed/Propagate/Finish — opens a TraceSpan against CurrentTrace(). Spans
/// nest (parent/depth follow the open-span stack), carry nanosecond
/// monotonic timestamps, an optional outcome tag and up to three named
/// integer values (fired clauses, derived atoms, SAT conflicts, …).
///
/// Cost contract:
///  * untraced fast path: a TraceSpan over a null context is one branch — no
///    clock read, no allocation, nothing;
///  * traced path: two steady_clock reads per span plus amortized-O(1)
///    vector growth (the span array reserves a request's worth up front);
///  * unwind safety: TraceSpan is RAII, so spans close on every early
///    return — deadline unwinds included — and Close() force-closes
///    stragglers when the trace finishes, so a finished trace never has an
///    open span (pinned in telemetry_test.cc).
///
/// A TraceContext is owned by one request and must only be touched by the
/// thread currently executing that request (the runtime serializes this).

namespace mdatalog::telemetry {

/// steady_clock now, as nanoseconds since an arbitrary epoch.
inline int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One completed (or still-open) span. `name`, `tag` and the value names
/// must be string literals (static lifetime) — spans never own strings.
struct SpanRecord {
  static constexpr int32_t kMaxValues = 3;

  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;              ///< 0 while open
  int32_t parent = -1;             ///< index into spans(), -1 = top level
  int32_t depth = 0;
  const char* tag = nullptr;       ///< outcome ("hit", "miss", …), optional
  std::array<const char*, kMaxValues> value_names{};
  std::array<int64_t, kMaxValues> values{};
  int32_t num_values = 0;

  int64_t duration_ns() const { return end_ns > start_ns ? end_ns - start_ns : 0; }
};

/// The span log of one request. Spans are appended in start order; the cap
/// bounds a pathological request (a megabyte page fed one byte at a time) to
/// kMaxSpans records — later spans are counted in dropped_spans() instead of
/// recorded, and Begin/End stay balanced throughout.
class TraceContext {
 public:
  static constexpr size_t kMaxSpans = 4096;

  /// `kind` labels the request ("wrap", "stream", …); static lifetime.
  explicit TraceContext(const char* kind)
      : kind_(kind), start_ns_(MonotonicNowNs()) {
    spans_.reserve(32);
    open_.reserve(8);
  }

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Opens a span; returns its index, or -1 when the span cap is hit (the
  /// matching EndSpan(-1) is a no-op).
  int32_t BeginSpan(const char* name);
  void EndSpan(int32_t index);

  /// Force-closes any spans still open (stamped with the close time) and
  /// stamps the trace end. Idempotent.
  void Close();

  const char* kind() const { return kind_; }
  int64_t start_ns() const { return start_ns_; }
  int64_t end_ns() const { return end_ns_; }
  int64_t duration_ns() const {
    return (end_ns_ > 0 ? end_ns_ : MonotonicNowNs()) - start_ns_;
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::vector<SpanRecord>& mutable_spans() { return spans_; }
  int32_t open_spans() const { return static_cast<int32_t>(open_.size()); }
  int64_t dropped_spans() const { return dropped_spans_; }

  /// Request metadata for the per-page scatter (nodes vs wall time).
  void set_page_bytes(int64_t b) { page_bytes_ = b; }
  void set_nodes(int64_t n) { nodes_ = n; }
  int64_t page_bytes() const { return page_bytes_; }
  int64_t nodes() const { return nodes_; }

 private:
  friend class TraceSpan;

  const char* kind_;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
  int64_t page_bytes_ = 0;
  int64_t nodes_ = 0;
  int64_t dropped_spans_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;  // stack of open span indexes
};

/// The trace of the request this thread is currently executing, or nullptr.
/// Deep layers (EDB materialization, fixpoint engines, the SAT core) read
/// this instead of threading a pointer through every signature.
TraceContext* CurrentTrace();

/// Installs `trace` (may be null) as the thread-current trace for the
/// enclosing scope; restores the previous one on destruction.
class TraceScope {
 public:
  explicit TraceScope(TraceContext* trace);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  TraceContext* prev_;
};

/// RAII span. Over a null context every member is a no-op (one branch).
class TraceSpan {
 public:
  TraceSpan(TraceContext* ctx, const char* name) : ctx_(ctx) {
    if (ctx_ != nullptr) index_ = ctx_->BeginSpan(name);
  }
  ~TraceSpan() {
    if (ctx_ != nullptr) ctx_->EndSpan(index_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// True when the span is actually recording (lets call sites skip the
  /// cost of computing values nobody will see).
  explicit operator bool() const { return ctx_ != nullptr && index_ >= 0; }

  /// Sets the outcome tag (string literal).
  void Tag(const char* tag) {
    if (*this) ctx_->spans_[index_].tag = tag;
  }
  /// Attaches a named value (first kMaxValues stick).
  void Value(const char* name, int64_t v) {
    if (!*this) return;
    SpanRecord& s = ctx_->spans_[index_];
    if (s.num_values < SpanRecord::kMaxValues) {
      s.value_names[s.num_values] = name;
      s.values[s.num_values] = v;
      ++s.num_values;
    }
  }

 private:
  TraceContext* ctx_;
  int32_t index_ = -1;
};

}  // namespace mdatalog::telemetry
