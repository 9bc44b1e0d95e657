#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/telemetry/metrics.h"
#include "src/util/deadline.h"

/// \file tenant.h
/// Multi-tenant QoS for the serving runtime. The paper's complexity bound is
/// what makes metering honest here: monadic-datalog wrapping is
/// O(|P|·|dom|) per page (Theorem 4.2), so a tenant's CPU consumption is a
/// predictable function of the traffic it sends — a token bucket over
/// measured evaluation nanoseconds is a fair meter, not a lottery.
///
/// Three QoS mechanisms hang off the registry:
///  * cache fair share — every ShardedLfuCache entry is tagged with the
///    tenant that inserted it, and a tenant whose resident bytes sit at or
///    under its guaranteed share (weight / Σ weights of the shard budget)
///    cannot be evicted by another tenant's traffic. One tenant's cold-scan
///    flood therefore churns its own share and leaves other tenants' hot
///    sets resident (sharded_lfu_cache.h);
///  * CPU metering — a per-tenant token bucket refilled at cpu_ns_per_sec,
///    charged with the measured wall time of each evaluation;
///  * priority → deadline degradation — an over-quota tenant's requests get
///    their deadline tightened (util::EarlierOf) to a per-priority-class
///    cap instead of being rejected: high priority never degrades, normal
///    and low degrade to successively shorter effective deadlines. The
///    request still runs and still returns its result if it fits — over
///    quota shrinks the service level, it does not turn the service off.
///
/// Per-tenant counters live in the runtime's MetricsRegistry under
/// "tenant.<name>.*", so they ride the existing Prometheus/JSON exporters
/// with no extra plumbing.

namespace mdatalog::runtime {

/// Dense tenant identifier. 0 is the always-present default tenant
/// (unmetered, weight 1) that every request without an explicit tenant runs
/// as; Register() hands out 1, 2, … in registration order.
using TenantId = int32_t;
inline constexpr TenantId kDefaultTenant = 0;

/// Request priority classes, mapped to deadline-degradation caps (tenant.cc)
/// when the tenant is over its CPU quota: high never degrades, normal is
/// capped at 25 ms and low at 5 ms.
enum class Priority { kHigh = 0, kNormal = 1, kLow = 2 };

struct TenantQuota {
  /// Metric label ("tenant.<name>.requests" etc.). Must be non-empty and
  /// unique per registry; the default tenant is named "default".
  std::string name;
  /// Relative cache share. A tenant's guaranteed fraction of every
  /// fair-share cache is cache_weight / Σ registered cache_weights
  /// (default tenant included).
  double cache_weight = 1.0;
  /// CPU budget: evaluation nanoseconds this tenant may consume per second
  /// of wall time (token-bucket refill rate). 0 = unmetered — the tenant
  /// never runs over quota and never degrades.
  int64_t cpu_ns_per_sec = 0;
  /// Token-bucket depth: how far ahead a bursty tenant may run before the
  /// balance goes negative. 0 = one second's worth (cpu_ns_per_sec).
  int64_t cpu_burst_ns = 0;
  Priority priority = Priority::kNormal;
};

/// Per-tenant counter handles, resolved once at Register() time from the
/// owning MetricsRegistry. Stable for the registry's lifetime — hot paths
/// record through them without a name lookup.
struct TenantCounters {
  telemetry::Counter* requests = nullptr;
  telemetry::Counter* pages_wrapped = nullptr;
  telemetry::Counter* memo_hits = nullptr;
  telemetry::Counter* deadline_exceeded = nullptr;
  telemetry::Counter* cancelled = nullptr;
  telemetry::Counter* degraded = nullptr;
  telemetry::Counter* cpu_ns = nullptr;
};

/// The QoS admission decision for one request: the effective deadline (the
/// request's own, possibly tightened) and whether it was degraded.
struct RequestAdmission {
  util::Deadline deadline;
  bool degraded = false;
};

/// Registry of tenants and their quotas. Thread-safe throughout: Register
/// may race with serving; the per-tenant token buckets take one short
/// per-tenant mutex per request.
class TenantRegistry {
 public:
  /// `registry` hosts the per-tenant counters (pass the runtime's metrics
  /// registry so they export with everything else); null = the registry
  /// owns a private one (standalone/tests).
  explicit TenantRegistry(telemetry::MetricsRegistry* registry = nullptr);

  TenantRegistry(const TenantRegistry&) = delete;
  TenantRegistry& operator=(const TenantRegistry&) = delete;

  /// Registers a tenant and returns its id. Safe to call while serving.
  TenantId Register(const TenantQuota& quota);

  /// Admission control for one request: counts it, refills the tenant's
  /// token bucket, and — when the balance is negative and the tenant's
  /// priority class has a degradation cap — returns `requested` tightened
  /// to that cap. Unknown ids fall back to the default tenant.
  RequestAdmission Admit(TenantId tenant, const util::Deadline& requested);

  /// Charges `ns` of evaluation time against the tenant's bucket (and its
  /// cpu_ns counter). Call with the measured wall time of the evaluation.
  void ChargeCpu(TenantId tenant, int64_t ns);

  /// True when the tenant's CPU is metered (lets the serving path skip the
  /// clock reads entirely for unmetered tenants).
  bool metered(TenantId tenant) const;

  /// The tenant's guaranteed fraction of a fair-share cache:
  /// cache_weight / Σ registered cache_weights. In (0, 1].
  double ShareOf(TenantId tenant) const;

  /// Stable counter handles; unknown ids fall back to the default tenant.
  TenantCounters* counters(TenantId tenant) const;

  std::string name(TenantId tenant) const;
  int32_t num_tenants() const;
  /// Current token-bucket balance, after a refill (test observability;
  /// negative = over quota).
  int64_t cpu_balance_ns(TenantId tenant) const;

 private:
  struct Tenant {
    TenantQuota quota;
    TenantCounters counters;
    mutable std::mutex mu;       // guards the token bucket
    int64_t balance_ns = 0;      // may run negative (over quota)
    int64_t last_refill_ns = 0;  // steady_clock, ns
  };

  Tenant* Get(TenantId tenant) const;
  int64_t RefillLocked(Tenant& t) const;  // requires t.mu; returns balance

  telemetry::MetricsRegistry* registry_;
  std::unique_ptr<telemetry::MetricsRegistry> owned_registry_;

  mutable std::shared_mutex mu_;  // guards the vector, not the tenants
  std::vector<std::unique_ptr<Tenant>> tenants_;
  double total_weight_ = 0;
};

}  // namespace mdatalog::runtime
