#include "src/runtime/runtime.h"

#include <utility>

#include "src/core/eval.h"
#include "src/elog/eval.h"
#include "src/stream/stream_session.h"
#include "src/telemetry/export.h"
#include "src/telemetry/trace.h"
#include "src/tree/serialize.h"
#include "src/util/check.h"

namespace mdatalog::runtime {

WrapperRuntime::WrapperRuntime(const RuntimeOptions& options)
    : options_(options),
      telemetry_(options.telemetry),
      tenants_(&telemetry_.registry()),
      programs_(kProgramCacheCapacity),
      documents_([&] {
        DocumentCacheOptions doc_options;
        doc_options.cache = options.document_cache;
        doc_options.corpus_store = options.corpus_store;
        doc_options.tenants = &tenants_;
        return doc_options;
      }()),
      memo_(options.result_memo, &MemoCost, &tenants_),
      pages_wrapped_(
          telemetry_.registry().GetCounter("runtime.pages_wrapped")),
      grounded_evals_(
          telemetry_.registry().GetCounter("runtime.grounded_evals")),
      native_evals_(telemetry_.registry().GetCounter("runtime.native_evals")),
      deadline_exceeded_(
          telemetry_.registry().GetCounter("runtime.deadline_exceeded")),
      cancelled_(telemetry_.registry().GetCounter("runtime.cancelled")),
      degraded_(telemetry_.registry().GetCounter("runtime.degraded")),
      stream_sessions_(
          telemetry_.registry().GetCounter("runtime.stream_sessions")),
      stream_sessions_failed_(
          telemetry_.registry().GetCounter("runtime.stream_sessions_failed")),
      pool_(options.num_threads) {
  // Option-listed tenants register before any request, in listed order —
  // deterministic ids 1, 2, … that callers can keep by index.
  for (const TenantQuota& quota : options.tenants) tenants_.Register(quota);
}

WrapperRuntime::~WrapperRuntime() = default;

util::Result<WrapperHandle> WrapperRuntime::Register(
    const wrapper::Wrapper& wrapper, const std::string& project_attr) {
  MD_ASSIGN_OR_RETURN(std::shared_ptr<const CompiledWrapperProgram> program,
                      programs_.GetOrCompile(wrapper));
  return WrapperHandle{std::move(program), project_attr};
}

util::Result<std::string> WrapperRuntime::Wrap(const WrapperHandle& handle,
                                               std::string_view html,
                                               const RequestOptions& request) {
  MD_CHECK(handle.program != nullptr);
  // QoS admission: counts the request, refills the tenant's token bucket and
  // — when over quota — tightens the deadline to the tenant's priority cap.
  // Over quota never rejects; it shrinks the service level.
  const RequestAdmission admission =
      tenants_.Admit(request.tenant, request.deadline);
  if (admission.degraded) degraded_->Add(1);
  const util::EvalControl control(admission.deadline, request.cancel.get());
  // Fast-fail before any work: a request that arrives already past its
  // deadline (queue delay) must not hash or parse anything.
  if (!control.unbounded()) {
    util::Status s = control.Check();
    if (!s.ok()) {
      CountFailure(s, request.tenant);
      return s;
    }
  }
  // The runtime retains the finished trace (null when telemetry is off).
  // The TraceScope makes it visible to every layer below (store
  // rehydration, HTML parse, the engines) via CurrentTrace() without
  // threading a pointer through signatures.
  std::unique_ptr<telemetry::TraceContext> trace =
      telemetry_.StartTrace("wrap");
  const telemetry::TraceScope scope(trace.get());
  if (trace != nullptr) {
    trace->set_page_bytes(static_cast<int64_t>(html.size()));
  }

  // CPU metering: clock reads only for metered tenants — the default tenant
  // and unmetered tenants skip both reads entirely.
  const bool metered = tenants_.metered(request.tenant);
  const int64_t eval_start = metered ? telemetry::MonotonicNowNs() : 0;
  util::Result<std::string> xml =
      WrapImpl(handle, html, control, trace.get(), request.tenant);
  if (metered) {
    tenants_.ChargeCpu(request.tenant,
                       telemetry::MonotonicNowNs() - eval_start);
  }
  telemetry_.FinishTrace(
      std::move(trace), xml.ok() ? util::StatusCode::kOk : xml.status().code());
  return xml;
}

util::Result<std::string> WrapperRuntime::WrapImpl(
    const WrapperHandle& handle, std::string_view html,
    const util::EvalControl& control, telemetry::TraceContext* trace,
    TenantId tenant) {
  // One content hash per request, shared by the memo key and the document
  // cache key — the page bytes are scanned exactly once.
  util::Hash128 content_hash;
  {
    telemetry::TraceSpan span(trace, "hash");
    content_hash = util::HashBytes128(html);
  }
  const MemoKey key{handle.program->canonical_fingerprint, content_hash,
                    handle.project_attr};
  uint64_t memo_hash = 0;
  {
    telemetry::TraceSpan span(trace, "memo.lookup");
    // enabled() guard: a disabled memo books nothing (tag "off"), exactly
    // like the pre-template memo.
    if (memo_.enabled()) {
      memo_hash = MemoKeyHash64(key);
      if (auto memoized = memo_.Lookup(key, memo_hash, tenant)) {
        span.Tag("hit");
        tenants_.counters(tenant)->memo_hits->Add(1);
        return *memoized;
      }
      span.Tag("miss");
    } else {
      span.Tag("off");
    }
  }

  std::shared_ptr<const CachedDocument> doc;
  {
    telemetry::TraceSpan span(trace, "doc.fetch");
    MD_ASSIGN_OR_RETURN(doc,
                        documents_.GetOrParse(html, handle.project_attr,
                                              content_hash, &span, tenant));
  }
  if (trace != nullptr) trace->set_nodes(doc->tree().size());

  util::Result<std::string> xml =
      Evaluate(*handle.program, *doc,
               control.unbounded() ? nullptr : &control);
  if (!xml.ok()) {
    CountFailure(xml.status(), tenant);
    return xml.status();
  }
  tenants_.counters(tenant)->pages_wrapped->Add(1);
  if (!memo_.enabled()) return xml;
  telemetry::TraceSpan span(trace, "memo.insert");
  auto shared = std::make_shared<const std::string>(*std::move(xml));
  memo_.Insert(key, memo_hash, shared, tenant);
  return *shared;
}

util::Result<std::string> WrapperRuntime::Evaluate(
    const CompiledWrapperProgram& program, const CachedDocument& doc,
    const util::EvalControl* control) {
  // One engine for every wrapper: Elog⁻ and Elog⁻Δ programs alike replay
  // their ground plan (Theorem 4.2, the Δ builtins as residual checks). The
  // native evaluator serves only the forced kNativeElog reference mode.
  const bool grounded = options_.engine == RuntimeOptions::EngineMode::kAuto;
  MD_DCHECK(!grounded || program.has_ground_plan);
  telemetry::TraceContext* trace = telemetry::CurrentTrace();

  const auto& patterns = program.prepared.extraction_patterns;
  std::string xml;
  if (grounded) {
    core::EvalResult eval;
    {
      telemetry::TraceSpan span(trace, "eval.grounded");
      // One arena per worker thread: the queue, binding, cursor and builtin
      // tables amortize across the documents this thread serves.
      core::GroundStats gstats;
      MD_ASSIGN_OR_RETURN(
          eval, core::EvaluateGrounded(*program.ground_plan, doc.tree(),
                                       &ThreadArena(),
                                       span ? &gstats : nullptr, control));
      if (span) {
        span.Value("clauses", gstats.num_clauses);
        span.Value("derived", eval.num_derived());
      }
    }
    telemetry::TraceSpan span(trace, "output.build");
    std::vector<const core::NodeSet*> sets;
    sets.reserve(patterns.size());
    for (const core::PredId pred : program.pattern_preds) {
      sets.push_back(eval.UnarySet(pred));
    }
    wrapper::WriteXml(patterns, sets, doc.tree(), &xml);
    // The extents die inside the span: their teardown is output work.
    const core::EvalResult done = std::move(eval);
  } else {
    elog::ElogResult matches;
    {
      telemetry::TraceSpan span(trace, "eval.native");
      MD_ASSIGN_OR_RETURN(
          matches, elog::EvaluateElog(program.prepared.program, doc.tree(),
                                      elog::kDefaultMaxDerivations, control));
    }
    telemetry::TraceSpan span(trace, "output.build");
    xml = tree::ToXml(wrapper::BuildOutputTree(patterns, matches, doc.tree()));
  }

  pages_wrapped_->Add(1);
  (grounded ? grounded_evals_ : native_evals_)->Add(1);
  return xml;
}

void WrapperRuntime::CountFailure(const util::Status& status,
                                  TenantId tenant) {
  if (status.code() == util::StatusCode::kDeadlineExceeded) {
    deadline_exceeded_->Add(1);
    tenants_.counters(tenant)->deadline_exceeded->Add(1);
  } else if (status.code() == util::StatusCode::kCancelled) {
    cancelled_->Add(1);
    tenants_.counters(tenant)->cancelled->Add(1);
  }
}

util::Result<std::unique_ptr<stream::StreamSession>>
WrapperRuntime::SubmitStream(const Request& request,
                             stream::StreamOptions options) {
  MD_CHECK(request.wrapper.program != nullptr);
  const TenantId tenant = request.options.tenant;
  const RequestAdmission admission =
      tenants_.Admit(tenant, request.options.deadline);
  if (admission.degraded) degraded_->Add(1);
  RequestOptions effective = request.options;
  effective.deadline = admission.deadline;
  const util::EvalControl control(effective.deadline,
                                  effective.cancel.get());
  if (!control.unbounded()) {
    util::Status s = control.Check();
    if (!s.ok()) {
      // A session that cannot even open is still a failed session.
      stream_sessions_failed_->Add(1);
      CountFailure(s, tenant);
      return s;
    }
  }
  // Chain the session's terminal status into the runtime and tenant
  // counters; the user's own on_finish (if any) still fires.
  auto user_on_finish = std::move(options.on_finish);
  options.on_finish = [this, tenant, user_on_finish =
                                         std::move(user_on_finish)](
                          const util::Status& status) {
    if (status.ok()) {
      pages_wrapped_->Add(1);
      tenants_.counters(tenant)->pages_wrapped->Add(1);
      stream_sessions_->Add(1);
    } else {
      stream_sessions_failed_->Add(1);
      CountFailure(status, tenant);
    }
    if (user_on_finish) user_on_finish(status);
  };
  return std::make_unique<stream::StreamSession>(
      request.wrapper.program, request.wrapper.project_attr,
      std::move(options), effective, &telemetry_);
}

std::future<util::Result<std::string>> WrapperRuntime::Submit(
    Request request) {
  auto task = std::make_shared<
      std::packaged_task<util::Result<std::string>()>>(
      [this, request = std::move(request)] {
        return Wrap(request.wrapper, request.page.bytes(), request.options);
      });
  std::future<util::Result<std::string>> future = task->get_future();
  pool_.Submit([task = std::move(task)] { (*task)(); });
  return future;
}

std::vector<util::Result<std::string>> WrapperRuntime::SubmitBatch(
    std::vector<Request> requests) {
  std::vector<std::future<util::Result<std::string>>> futures;
  futures.reserve(requests.size());
  for (Request& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  std::vector<util::Result<std::string>> results;
  results.reserve(futures.size());
  // Collection in submission order = deterministic merge: result i belongs
  // to requests[i] no matter which worker finished first.
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

uint64_t WrapperRuntime::MemoKeyHash64(const MemoKey& key) {
  // Keyed SipHash over the full key: the memo shares shard-routing /
  // sketch-aliasing concerns with the document cache (document_cache.cc).
  util::SipHasher h;
  h.Update64(key.program_fp);
  h.Update64(key.content_hash.lo);
  h.Update64(key.content_hash.hi);
  h.Update(key.attr);
  return h.Finish();
}

int64_t WrapperRuntime::MemoCost(const MemoKey& key, const std::string& xml) {
  // The XML plus the key's heap string plus a flat allowance for the entry
  // bookkeeping (list node, index slot, shared_ptr control block).
  return static_cast<int64_t>(xml.size() + key.attr.size()) + 128;
}

RuntimeStats WrapperRuntime::stats() const {
  RuntimeStats out;
  out.document_cache = documents_.stats();
  out.program_cache = programs_.stats();
  const ShardedCacheStats memo = memo_.stats();
  out.memo_hits = memo.hits;
  out.memo_misses = memo.misses;
  out.memo_admission_rejects = memo.admission_rejects;
  out.memo_fair_share_rejects = memo.fair_share_rejects;
  out.memo_bytes = memo.bytes_in_use;
  out.pages_wrapped = pages_wrapped_->Value();
  out.grounded_evals = grounded_evals_->Value();
  out.native_evals = native_evals_->Value();
  out.deadline_exceeded = deadline_exceeded_->Value();
  out.cancelled = cancelled_->Value();
  out.degraded = degraded_->Value();
  out.stream_sessions = stream_sessions_->Value();
  out.stream_sessions_failed = stream_sessions_failed_->Value();
  return out;
}

TenantStatsSnapshot WrapperRuntime::tenant_stats(TenantId tenant) const {
  TenantStatsSnapshot out;
  out.name = tenants_.name(tenant);
  const TenantCounters* c = tenants_.counters(tenant);
  out.requests = c->requests->Value();
  out.pages_wrapped = c->pages_wrapped->Value();
  out.memo_hits = c->memo_hits->Value();
  out.deadline_exceeded = c->deadline_exceeded->Value();
  out.cancelled = c->cancelled->Value();
  out.degraded = c->degraded->Value();
  out.cpu_ns = c->cpu_ns->Value();
  out.document_cache = documents_.tenant_stats(tenant);
  out.result_memo = memo_.tenant_stats(tenant);
  return out;
}

telemetry::MetricsSnapshot WrapperRuntime::MetricsWithCacheStats() const {
  telemetry::MetricsSnapshot snap = telemetry_.registry().Snapshot();
  const RuntimeStats s = stats();
  // The caches keep their own sharded counters (their hot paths predate the
  // registry and already scale); exports fold them in so one scrape sees
  // everything. Monotonic series go in as counters, sizes as gauges.
  snap.counters["document_cache.hits"] = s.document_cache.hits;
  snap.counters["document_cache.misses"] = s.document_cache.misses;
  snap.counters["document_cache.evictions"] = s.document_cache.evictions;
  snap.counters["document_cache.admission_rejects"] =
      s.document_cache.admission_rejects;
  snap.counters["document_cache.fair_share_rejects"] =
      s.document_cache.fair_share_rejects;
  snap.counters["document_cache.store_hits"] = s.document_cache.store_hits;
  snap.gauges["document_cache.bytes_in_use"] = s.document_cache.bytes_in_use;
  snap.gauges["document_cache.byte_budget"] = s.document_cache.byte_budget;
  snap.gauges["document_cache.entries"] = s.document_cache.entries;
  snap.counters["program_cache.hits"] = s.program_cache.hits;
  snap.counters["program_cache.misses"] = s.program_cache.misses;
  snap.counters["program_cache.evictions"] = s.program_cache.evictions;
  snap.counters["program_cache.canonical_key_hits"] =
      s.program_cache.canonical_key_hits;
  snap.gauges["program_cache.entries"] = s.program_cache.entries;
  snap.gauges["program_cache.ground_plans"] = s.program_cache.ground_plans;
  snap.counters["result_memo.hits"] = s.memo_hits;
  snap.counters["result_memo.misses"] = s.memo_misses;
  snap.counters["result_memo.admission_rejects"] = s.memo_admission_rejects;
  snap.counters["result_memo.fair_share_rejects"] =
      s.memo_fair_share_rejects;
  snap.gauges["result_memo.bytes"] = s.memo_bytes;
  // Per-tenant cache slices. The tenants' QoS counters (requests, cpu_ns,
  // degraded, …) live in the registry already and arrived with Snapshot().
  for (TenantId id = 0; id < tenants_.num_tenants(); ++id) {
    const std::string prefix = "tenant." + tenants_.name(id) + ".";
    const TenantCacheStats doc = documents_.tenant_stats(id);
    const TenantCacheStats memo = memo_.tenant_stats(id);
    snap.counters[prefix + "document_cache_hits"] = doc.hits;
    snap.counters[prefix + "document_cache_misses"] = doc.misses;
    snap.counters[prefix + "document_cache_fair_share_rejects"] =
        doc.fair_share_rejects;
    snap.gauges[prefix + "document_cache_bytes"] = doc.bytes;
    snap.counters[prefix + "result_memo_hits"] = memo.hits;
    snap.gauges[prefix + "result_memo_bytes"] = memo.bytes;
  }
  return snap;
}

std::string WrapperRuntime::ExportPrometheus() const {
  return telemetry::ToPrometheus(MetricsWithCacheStats());
}

std::string WrapperRuntime::ExportJson() const {
  return telemetry::ToJson(MetricsWithCacheStats(), telemetry_.RecentTraces());
}

}  // namespace mdatalog::runtime
