#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/runtime/document_cache.h"
#include "src/runtime/program_cache.h"
#include "src/runtime/sharded_lfu_cache.h"
#include "src/runtime/tenant.h"
#include "src/runtime/thread_pool.h"
#include "src/stream/stream_types.h"
#include "src/telemetry/telemetry.h"
#include "src/util/deadline.h"
#include "src/util/hash.h"
#include "src/util/result.h"
#include "src/wrapper/wrapper.h"

/// \file runtime.h
/// The wrapper-serving runtime: one process-wide object that owns the
/// compiled-program cache, the shared-document cache, an optional result
/// memo, a tenant registry, and a fixed thread pool, and serves wrap
/// requests through them.
///
/// This is the workload the paper's complexity story targets — monadic
/// datalog wrappers are O(|P|·|dom|) per page (Theorem 4.2), so the
/// per-page constant factors (HTML re-parse, program re-validation,
/// plan re-compilation, arena allocation) dominate a serving deployment.
/// The runtime amortizes every one of them.
///
/// Production hardening: the document cache and the result memo are two
/// instantiations of one sharded TinyLFU store (sharded_lfu_cache.h), and
/// every request may carry a deadline and a cancel token (RequestOptions)
/// that the engines poll cooperatively — a pathological page unwinds with a
/// typed kDeadlineExceeded / kCancelled status instead of occupying a pool
/// worker forever.
///
/// Multi-tenant QoS (tenant.h): requests carry a TenantId; each tenant gets
/// a guaranteed cache share (fair-share eviction), a CPU token bucket
/// charged with measured evaluation time, and a priority class that maps
/// over-quota traffic to tightened deadlines instead of rejections. The
/// default tenant (id 0) is unmetered, so single-tenant callers pay almost
/// nothing for the machinery.
///
/// The request surface is one value type: build a Request (page + wrapper +
/// options) and hand it to Submit / SubmitBatch / SubmitStream, or wrap
/// synchronously with Wrap(Request).

namespace mdatalog::stream {
class StreamSession;  // stream_session.h includes runtime.h, not vice versa
}  // namespace mdatalog::stream

namespace mdatalog::runtime {

struct RuntimeOptions {
  /// Workers in the batch executor. 1 = synchronous single-thread.
  int32_t num_threads = 1;
  /// Shared-document cache tuning (sharded_lfu_cache.h). byte_budget 0
  /// disables document caching.
  CacheOptions document_cache{.byte_budget = 64 << 20};
  /// Result-memo tuning (wrapping is a pure function of
  /// (program, document), so the memo is exact). byte_budget 0 disables
  /// memoization. Memo entries are one XML string, so the sketch auto-sizing
  /// assumes ~4KB entries.
  CacheOptions result_memo{.byte_budget = 16 << 20,
                           .sketch_entry_bytes = 4 << 10};
  /// Max number of compiled programs kept. The program cache and the result
  /// memo key on the canonical wrapper key (analysis::CanonicalWrapperKey)
  /// as well as the wrapper text: reformulated-but-equivalent wrapper
  /// revisions share one compiled plan and one set of memoized results.
  int32_t program_cache_capacity = 64;
  /// Optional open corpus store (store::CorpusStore::Open), served as the
  /// document cache's second level: in-memory miss → mmap'd snapshot →
  /// only then an HTML parse. Documents must have been packed with the same
  /// projection attribute the wrapper registers with. May be null.
  std::shared_ptr<const store::CorpusStore> corpus_store = nullptr;
  /// Tenants registered at construction, in id order starting at 1 (id 0 is
  /// the always-present unmetered default tenant). More may be added later
  /// via RegisterTenant().
  std::vector<TenantQuota> tenants;
  /// Priority-class deadline caps for over-quota tenants.
  QosOptions qos;

  enum class EngineMode {
    /// Ground-plan replay, for every wrapper (Elog⁻ and Elog⁻Δ).
    kAuto,
    /// Always the native Elog evaluator: the reference engine.
    kNativeElog,
  };
  EngineMode engine = EngineMode::kAuto;

  /// Observability: tracing + latency histograms. `telemetry.enabled = false`
  /// reduces the instrumentation to one branch per would-be span (no clock
  /// reads, no allocation); the serving counters behind stats() record
  /// regardless — they are striped relaxed atomics, cheaper than the mutexed
  /// counters they replaced.
  telemetry::TelemetryOptions telemetry;
};

/// Per-request bounds and identity, threaded from Submit/SubmitBatch through
/// the engines. Default-constructed = unbounded, default tenant (the
/// pre-existing behavior, zero cost).
struct RequestOptions {
  /// Absolute deadline; evaluation unwinds with kDeadlineExceeded once it
  /// passes. The check is cooperative (strided polling inside the fixpoint
  /// loops), so overshoot is microseconds, not unbounded. An over-quota
  /// tenant may have this tightened further at admission (tenant.h).
  util::Deadline deadline;
  /// Shared cancel flag; one token may cover a whole batch. The runtime
  /// holds the shared_ptr in the request closure, so the token outlives the
  /// evaluation. Cancelled requests return kCancelled.
  std::shared_ptr<util::CancelToken> cancel;
  /// Caller-owned trace for this request. When set, the runtime records the
  /// request's span tree into it (bypassing the sampling policy and the
  /// trace ring — the caller keeps the trace) instead of starting its own.
  /// Must outlive the request; for Submit/SubmitBatch that means until the
  /// future resolves, for SubmitStream until the session is destroyed.
  /// Enforced in debug builds: the runtime counts async requests into
  /// TraceContext::inflight_requests() and the trace's destructor asserts
  /// the count is zero. Null = the runtime's own sampling policy decides.
  telemetry::TraceContext* trace = nullptr;
  /// Who this request runs as — pays for its cache bytes, is charged its
  /// CPU, and gets its QoS class. Unknown ids serve as the default tenant.
  TenantId tenant = kDefaultTenant;
};

/// The page bytes of one request, either borrowed or owned. Borrowed pages
/// (View) make batch submission zero-copy — the caller guarantees the bytes
/// outlive the request (for SubmitBatch: the call itself, which joins).
/// Owned pages (Copy) are for futures that outlive the caller's buffer.
class PageRef {
 public:
  PageRef() = default;

  /// Borrows `bytes`. Caller keeps them alive until the request completes.
  static PageRef View(std::string_view bytes) {
    PageRef p;
    p.view_ = bytes;
    return p;
  }
  /// Takes ownership of `bytes`; the request is self-contained.
  static PageRef Copy(std::string bytes) {
    PageRef p;
    p.owned_ = true;
    p.storage_ = std::move(bytes);
    return p;
  }

  /// Valid wherever the PageRef is (recomputed per call, so moves are safe).
  std::string_view bytes() const {
    return owned_ ? std::string_view(storage_) : view_;
  }

 private:
  bool owned_ = false;
  std::string storage_;     // when owned
  std::string_view view_;   // when borrowed
};

/// A registered wrapper: the shared compiled program plus the attribute
/// projection its pages are prepared with. Cheap to copy.
struct WrapperHandle {
  std::shared_ptr<const CompiledWrapperProgram> program;
  std::string project_attr;
};

/// One wrap request, complete: what to wrap, with which wrapper, under which
/// bounds and tenant. The single currency of the submission API — Wrap,
/// Submit, SubmitBatch and SubmitStream all take it (SubmitStream ignores
/// `page`; the page arrives via StreamSession::Feed).
struct Request {
  PageRef page;
  WrapperHandle wrapper;
  RequestOptions options;
};

struct RuntimeStats {
  DocumentCacheStats document_cache;
  ProgramCacheStats program_cache;
  int64_t memo_hits = 0;
  int64_t memo_misses = 0;
  int64_t memo_admission_rejects = 0;
  int64_t memo_fair_share_rejects = 0;
  int64_t memo_bytes = 0;
  int64_t pages_wrapped = 0;       // full evaluations (memo hits excluded)
  int64_t grounded_evals = 0;
  int64_t native_evals = 0;
  int64_t deadline_exceeded = 0;   // requests unwound by their deadline
  int64_t cancelled = 0;           // requests unwound by their cancel token
  int64_t degraded = 0;            // requests admitted with a tightened
                                   // deadline (tenant over CPU quota)
  int64_t stream_sessions = 0;     // stream sessions finished successfully
  int64_t stream_sessions_failed = 0;  // sessions ended by deadline/cancel/
                                       // parse failure (any non-OK terminal)
};

/// One tenant's view of the runtime: its QoS counters plus its slice of both
/// caches.
struct TenantStatsSnapshot {
  std::string name;
  int64_t requests = 0;
  int64_t pages_wrapped = 0;
  int64_t memo_hits = 0;
  int64_t deadline_exceeded = 0;
  int64_t cancelled = 0;
  int64_t degraded = 0;
  int64_t cpu_ns = 0;
  TenantCacheStats document_cache;
  TenantCacheStats result_memo;
};

class WrapperRuntime {
 public:
  explicit WrapperRuntime(const RuntimeOptions& options = {});
  ~WrapperRuntime();

  WrapperRuntime(const WrapperRuntime&) = delete;
  WrapperRuntime& operator=(const WrapperRuntime&) = delete;

  /// Compiles (or fetches) the wrapper program. `project_attr` non-empty
  /// projects that attribute into the labels of every page served to this
  /// wrapper (Remark 2.2), e.g. "class" for "tr@item"-style patterns.
  util::Result<WrapperHandle> Register(const wrapper::Wrapper& wrapper,
                                       const std::string& project_attr = "");

  /// Registers a tenant while serving; returns its id. Tenants listed in
  /// RuntimeOptions::tenants are registered at construction (ids 1, 2, …).
  TenantId RegisterTenant(const TenantQuota& quota) {
    return tenants_.Register(quota);
  }

  /// Wraps one page synchronously on the calling thread, through the caches
  /// and the tenant's QoS gate. Returns the output XML, or
  /// kDeadlineExceeded / kCancelled when the request's (possibly degraded)
  /// bounds fire mid-evaluation.
  util::Result<std::string> Wrap(const Request& request) {
    return Wrap(request.wrapper, request.page.bytes(), request.options);
  }
  /// Same, with the parts spelled out (the sync core Submit reuses).
  util::Result<std::string> Wrap(const WrapperHandle& handle,
                                 std::string_view html,
                                 const RequestOptions& request = {});

  /// Enqueues one request on the thread pool. A borrowed page (PageRef::View)
  /// must stay alive until the future resolves; prefer PageRef::Copy for
  /// fire-and-forget submission.
  std::future<util::Result<std::string>> Submit(Request request);

  /// Fans requests across the workers and merges deterministically: the
  /// result vector is index-aligned with `requests` regardless of completion
  /// order (request i's result is at position i, always). Joins before
  /// returning, so borrowed pages only need to outlive the call.
  std::vector<util::Result<std::string>> SubmitBatch(
      std::vector<Request> requests);

  /// Opens a streaming wrap session for `request` (its `page` is ignored —
  /// the page arrives in chunks via StreamSession::Feed) and extraction
  /// results emit via `options.on_result` as soon as they are derived and
  /// final — before end of input for programs on the datalog pipeline.
  /// Finish() returns XML byte-identical to Wrap on the concatenated bytes.
  /// The session is not cached or memoized (its page has no complete bytes
  /// to key on) and must not outlive the runtime. Fails fast if the request
  /// is already expired.
  util::Result<std::unique_ptr<stream::StreamSession>> SubmitStream(
      const Request& request, stream::StreamOptions options);

  RuntimeStats stats() const;
  /// One tenant's QoS counters and cache slices. Unknown ids read as the
  /// default tenant.
  TenantStatsSnapshot tenant_stats(TenantId tenant) const;
  const TenantRegistry& tenant_registry() const { return tenants_; }

  int32_t num_threads() const { return pool_.num_threads(); }

  /// The runtime's telemetry bundle: metrics registry, recent traces, slow
  /// log. Live for the runtime's lifetime.
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

  /// Prometheus text exposition of every metric the runtime knows — the
  /// registry (serving counters, per-tenant QoS counters, per-stage latency
  /// histograms) merged with the cache/memo statistics (injected as
  /// counters/gauges, including each tenant's cache slice).
  std::string ExportPrometheus() const;
  /// One JSON document: the same metrics plus the recent completed traces
  /// (full span trees) and the per-page nodes-vs-wall-time scatter.
  std::string ExportJson() const;

 private:
  struct MemoKey {
    uint64_t program_fp;   // canonical fingerprint: equivalent wrappers share
    util::Hash128 content_hash;  // 128-bit: the page bytes are untrusted input
    std::string attr;
    bool operator==(const MemoKey&) const = default;
  };
  struct MemoKeyHasher {
    size_t operator()(const MemoKey& k) const {
      return static_cast<size_t>(MemoKeyHash64(k));
    }
  };

  /// Keyed SipHash over the full memo key (see document_cache.h for why the
  /// in-memory key hashes are keyed).
  static uint64_t MemoKeyHash64(const MemoKey& key);
  static int64_t MemoCost(const MemoKey& key, const std::string& xml);

  /// Wrap minus trace lifecycle and QoS accounting: hash → memo → document →
  /// evaluate → memo insert, recording spans against `trace` (may be null)
  /// and per-tenant cache charges against `tenant`.
  util::Result<std::string> WrapImpl(const WrapperHandle& handle,
                                     std::string_view html,
                                     const util::EvalControl& control,
                                     telemetry::TraceContext* trace,
                                     TenantId tenant);

  /// The uncached evaluation core: engine selection + extent computation +
  /// output construction over a prepared document. `control` may be null.
  util::Result<std::string> Evaluate(const CompiledWrapperProgram& program,
                                     const CachedDocument& doc,
                                     const util::EvalControl* control);

  /// Books a terminal status into the runtime and tenant counters.
  void CountFailure(const util::Status& status, TenantId tenant);

  /// Registry snapshot with the cache/memo statistics folded in (the caches
  /// keep their own sharded counters; exports want one document).
  telemetry::MetricsSnapshot MetricsWithCacheStats() const;

  const RuntimeOptions options_;
  // Before the caches and the pool: counter handles below point into the
  // registry, and pool workers record through them until the pool drains.
  telemetry::Telemetry telemetry_;
  // Before the caches: both hold a pointer to the registry for fair share.
  TenantRegistry tenants_;
  ProgramCache programs_;
  DocumentCache documents_;
  ShardedLfuCache<MemoKey, std::string, MemoKeyHasher> memo_;

  // Serving counters, resolved once at construction. Striped lock-free
  // counters in the registry — stats() reads the same storage the exporters
  // scrape, so the two can never disagree.
  telemetry::Counter* const pages_wrapped_;
  telemetry::Counter* const grounded_evals_;
  telemetry::Counter* const native_evals_;
  telemetry::Counter* const deadline_exceeded_;
  telemetry::Counter* const cancelled_;
  telemetry::Counter* const degraded_;
  telemetry::Counter* const stream_sessions_;
  telemetry::Counter* const stream_sessions_failed_;

  // Last member on purpose: ~ThreadPool drains queued jobs, and those jobs
  // touch every cache/mutex above — the pool must die (and drain) first.
  ThreadPool pool_;
};

}  // namespace mdatalog::runtime
