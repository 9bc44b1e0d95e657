#include "src/runtime/tenant.h"

#include <algorithm>
#include <chrono>

#include "src/util/check.h"

namespace mdatalog::runtime {

namespace {

// Priority-class deadline caps applied to over-quota requests; 0 = the
// class never degrades. The caps deliberately leave high priority untouched:
// a paying interactive tenant that bursts past its quota keeps its latency
// contract, while batch (low) traffic over quota is squeezed hardest.
constexpr int64_t kHighDegradeMs = 0;
constexpr int64_t kNormalDegradeMs = 25;
constexpr int64_t kLowDegradeMs = 5;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TenantRegistry::TenantRegistry(telemetry::MetricsRegistry* registry)
    : registry_(registry) {
  MD_CHECK(registry_ != nullptr);
  Register(TenantQuota{.name = "default"});  // id 0, unmetered, weight 1
}

TenantId TenantRegistry::Register(const TenantQuota& quota) {
  auto t = std::make_unique<Tenant>();
  t->quota = quota;
  if (t->quota.name.empty()) t->quota.name = "anonymous";
  if (t->quota.cache_weight <= 0) t->quota.cache_weight = 1.0;
  if (t->quota.cpu_burst_ns <= 0) {
    t->quota.cpu_burst_ns = t->quota.cpu_ns_per_sec;  // one second's worth
  }
  t->balance_ns = t->quota.cpu_burst_ns;  // start full: bursts are allowed
  t->last_refill_ns = NowNs();
  const std::string prefix = "tenant." + t->quota.name + ".";
  t->counters.requests = registry_->GetCounter(prefix + "requests");
  t->counters.pages_wrapped = registry_->GetCounter(prefix + "pages_wrapped");
  t->counters.memo_hits = registry_->GetCounter(prefix + "memo_hits");
  t->counters.deadline_exceeded =
      registry_->GetCounter(prefix + "deadline_exceeded");
  t->counters.cancelled = registry_->GetCounter(prefix + "cancelled");
  t->counters.degraded = registry_->GetCounter(prefix + "degraded");
  t->counters.cpu_ns = registry_->GetCounter(prefix + "cpu_ns");

  std::unique_lock lock(mu_);
  const TenantId id = static_cast<TenantId>(tenants_.size());
  total_weight_ += t->quota.cache_weight;
  tenants_.push_back(std::move(t));
  return id;
}

TenantRegistry::Tenant* TenantRegistry::Get(TenantId tenant) const {
  std::shared_lock lock(mu_);
  if (tenant < 0 || tenant >= static_cast<TenantId>(tenants_.size())) {
    tenant = kDefaultTenant;  // unknown ids serve as the default tenant
  }
  return tenants_[static_cast<size_t>(tenant)].get();
}

int64_t TenantRegistry::RefillLocked(Tenant& t) const {
  const int64_t now = NowNs();
  const int64_t dt = std::max<int64_t>(now - t.last_refill_ns, 0);
  t.last_refill_ns = now;
  // Refill in 128-bit: dt * rate overflows int64 after ~9s at full rate.
  const __int128 earned =
      static_cast<__int128>(dt) * t.quota.cpu_ns_per_sec / 1000000000;
  const __int128 next = static_cast<__int128>(t.balance_ns) + earned;
  t.balance_ns = static_cast<int64_t>(
      std::min<__int128>(next, t.quota.cpu_burst_ns));
  return t.balance_ns;
}

RequestAdmission TenantRegistry::Admit(TenantId tenant,
                                       const util::Deadline& requested) {
  Tenant* t = Get(tenant);
  t->counters.requests->Add(1);
  RequestAdmission adm{requested, false};
  if (t->quota.cpu_ns_per_sec <= 0) return adm;  // unmetered
  int64_t balance;
  {
    std::lock_guard<std::mutex> lock(t->mu);
    balance = RefillLocked(*t);
  }
  if (balance >= 0) return adm;
  int64_t cap_ms = 0;
  switch (t->quota.priority) {
    case Priority::kHigh:
      cap_ms = kHighDegradeMs;
      break;
    case Priority::kNormal:
      cap_ms = kNormalDegradeMs;
      break;
    case Priority::kLow:
      cap_ms = kLowDegradeMs;
      break;
  }
  if (cap_ms <= 0) return adm;  // this class never degrades
  adm.deadline = util::EarlierOf(
      requested, util::Deadline::After(std::chrono::milliseconds(cap_ms)));
  adm.degraded = true;
  t->counters.degraded->Add(1);
  return adm;
}

void TenantRegistry::ChargeCpu(TenantId tenant, int64_t ns) {
  if (ns <= 0) return;
  Tenant* t = Get(tenant);
  t->counters.cpu_ns->Add(ns);
  if (t->quota.cpu_ns_per_sec <= 0) return;
  std::lock_guard<std::mutex> lock(t->mu);
  t->balance_ns -= ns;
}

bool TenantRegistry::metered(TenantId tenant) const {
  return Get(tenant)->quota.cpu_ns_per_sec > 0;
}

double TenantRegistry::ShareOf(TenantId tenant) const {
  Tenant* t = Get(tenant);
  std::shared_lock lock(mu_);
  return total_weight_ > 0 ? t->quota.cache_weight / total_weight_ : 1.0;
}

TenantCounters* TenantRegistry::counters(TenantId tenant) const {
  return &Get(tenant)->counters;
}

std::string TenantRegistry::name(TenantId tenant) const {
  return Get(tenant)->quota.name;
}

int32_t TenantRegistry::num_tenants() const {
  std::shared_lock lock(mu_);
  return static_cast<int32_t>(tenants_.size());
}

int64_t TenantRegistry::cpu_balance_ns(TenantId tenant) const {
  Tenant* t = Get(tenant);
  std::lock_guard<std::mutex> lock(t->mu);
  return RefillLocked(*t);
}

}  // namespace mdatalog::runtime
