#pragma once

#include <array>
#include <chrono>
#include <cstddef>
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
/// name their Stage (the one stage vocabulary below), nest (each span
/// records its parent; the context keeps only the innermost open span),
/// carry nanosecond monotonic timestamps, an optional outcome tag and up to
/// three named integer values (fired clauses, derived atoms, SAT
/// conflicts, …).
///
/// Cost contract:
///  * untraced fast path: a TraceSpan over a null context is one branch — no
///    clock read, no allocation, nothing;
///  * traced path: two steady_clock reads per span plus amortized-O(1)
///    growth of the one span vector (reserved a request's worth up front);
///    there is no open-span stack to push or pop — closing a span walks
///    the parent links from the innermost open span;
///  * unwind safety: TraceSpan is RAII, so spans close on every early
///    return — deadline unwinds included — and Close() force-closes
///    stragglers when the trace finishes, so a finished trace never has an
///    open span (pinned in telemetry_test.cc).
///
/// A TraceContext is owned by one request and must only be touched by the
/// thread currently executing that request (the runtime serializes this).

namespace mdatalog::telemetry {

/// The pipeline stages a span can time. Every span names one, and the
/// table below is the one place their display names are spelled: the JSON
/// span `"name"`, the breakdown lines and the `stage.<name>.ns` histograms
/// all read it.
enum class Stage : uint8_t {
  kHash,
  kMemoLookup,
  kDocFetch,
  kStoreRehydrate,
  kHtmlParse,
  kEvalGrounded,
  kEvalNative,
  kOutputBuild,
  kMemoInsert,
  kSatSolve,
  kStreamFeed,
  kStreamPropagate,
  kStreamFinish,
};

inline constexpr std::array<const char*, 13> kStageNames = {
    "hash",              // Stage::kHash
    "memo.lookup",       // Stage::kMemoLookup
    "doc.fetch",         // Stage::kDocFetch
    "store.rehydrate",   // Stage::kStoreRehydrate
    "html.parse",        // Stage::kHtmlParse
    "eval.grounded",     // Stage::kEvalGrounded
    "eval.native",       // Stage::kEvalNative
    "output.build",      // Stage::kOutputBuild
    "memo.insert",       // Stage::kMemoInsert
    "sat.solve",         // Stage::kSatSolve
    "stream.feed",       // Stage::kStreamFeed
    "stream.propagate",  // Stage::kStreamPropagate
    "stream.finish",     // Stage::kStreamFinish
};
inline constexpr size_t kNumStages = kStageNames.size();
static_assert(static_cast<size_t>(Stage::kStreamFinish) + 1 == kNumStages);

inline const char* StageName(Stage stage) {
  return kStageNames[static_cast<size_t>(stage)];
}

/// What a traced request is; its whole duration folds into
/// `request.<kind>.ns`.
enum class RequestKind : uint8_t { kWrap, kStream };

inline constexpr std::array<const char*, 2> kRequestKindNames = {
    "wrap",    // RequestKind::kWrap
    "stream",  // RequestKind::kStream
};
inline constexpr size_t kNumRequestKinds = kRequestKindNames.size();
static_assert(static_cast<size_t>(RequestKind::kStream) + 1 ==
              kNumRequestKinds);

inline const char* RequestKindName(RequestKind kind) {
  return kRequestKindNames[static_cast<size_t>(kind)];
}

/// steady_clock now, as nanoseconds since an arbitrary epoch.
inline int64_t MonotonicNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One completed (or still-open) span. `tag` and the value names must be
/// string literals (static lifetime) — spans never own strings.
struct SpanRecord {
  static constexpr int32_t kMaxValues = 3;

  Stage stage = Stage::kHash;
  int32_t parent = -1;             ///< index into spans(), -1 = top level
  int32_t depth = 0;
  int32_t num_values = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;              ///< 0 while open
  const char* tag = nullptr;       ///< outcome ("hit", "miss", …), optional
  std::array<const char*, kMaxValues> value_names{};
  std::array<int64_t, kMaxValues> values{};

  int64_t duration_ns() const { return end_ns > start_ns ? end_ns - start_ns : 0; }
};

/// The span log of one request. Spans are appended in start order; the cap
/// bounds a pathological request (a megabyte page fed one byte at a time) to
/// kMaxSpans records — later spans are counted in dropped_spans() instead of
/// recorded, and Begin/End stay balanced throughout.
class TraceContext {
 public:
  static constexpr size_t kMaxSpans = 4096;

  explicit TraceContext(RequestKind kind)
      : kind_(kind), start_ns_(MonotonicNowNs()) {
    spans_.reserve(32);
  }

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// Opens a span as a child of the innermost open one; returns its index,
  /// or -1 when the span cap is hit (the matching EndSpan(-1) is a no-op).
  int32_t BeginSpan(Stage stage);
  /// Closes span `index`, and first any span opened inside it and leaked
  /// open, all with the same timestamp. A no-op on a span already closed
  /// that way.
  void EndSpan(int32_t index);

  /// Force-closes any spans still open (stamped with the close time) and
  /// stamps the trace end. Idempotent.
  void Close();

  RequestKind kind() const { return kind_; }
  int64_t start_ns() const { return start_ns_; }
  int64_t end_ns() const { return end_ns_; }
  int64_t duration_ns() const {
    return (end_ns_ > 0 ? end_ns_ : MonotonicNowNs()) - start_ns_;
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::vector<SpanRecord>& mutable_spans() { return spans_; }
  int32_t open_spans() const {
    return innermost_ < 0 ? 0 : spans_[innermost_].depth + 1;
  }
  int64_t dropped_spans() const { return dropped_spans_; }

  /// Request metadata for the per-page scatter (nodes vs wall time).
  void set_page_bytes(int64_t b) { page_bytes_ = b; }
  void set_nodes(int64_t n) { nodes_ = n; }
  int64_t page_bytes() const { return page_bytes_; }
  int64_t nodes() const { return nodes_; }

 private:
  friend class TraceSpan;

  /// Stamps `now` on the innermost open span and its ancestors, up to and
  /// including `last` (every open span when `last` is -1).
  void CloseThrough(int32_t last, int64_t now);

  const RequestKind kind_;
  int64_t start_ns_;
  int64_t end_ns_ = 0;
  int64_t page_bytes_ = 0;
  int64_t nodes_ = 0;
  int64_t dropped_spans_ = 0;
  std::vector<SpanRecord> spans_;
  int32_t innermost_ = -1;  // the innermost open span, -1 when none is open
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
  TraceSpan(TraceContext* ctx, Stage stage) : ctx_(ctx) {
    if (ctx_ != nullptr) index_ = ctx_->BeginSpan(stage);
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
