#include "src/runtime/program_cache.h"

#include <algorithm>
#include <utility>

#include "src/analysis/canonical.h"
#include "src/elog/to_datalog.h"
#include "src/util/check.h"
#include "src/util/hash.h"

namespace mdatalog::runtime {

uint64_t ProgramCache::Fingerprint(const wrapper::Wrapper& wrapper) {
  std::string key = elog::ToString(wrapper.program);
  for (const std::string& p : wrapper.extraction_patterns) {
    key += '\x1f';  // unit separator: pattern lists must not concatenate
    key += p;
  }
  return util::HashBytes(key);
}

core::GroundArena& ThreadArena() {
  thread_local core::GroundArena arena;
  return arena;
}

ProgramCache::ProgramCache(int32_t capacity)
    : capacity_(std::max(capacity, 1)) {}

util::Result<std::shared_ptr<const CompiledWrapperProgram>>
ProgramCache::GetOrCompile(const wrapper::Wrapper& wrapper) {
  const uint64_t fp = Fingerprint(wrapper);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(fp);
  if (it != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->program;
  }

  // Syntactic miss: fall back to the canonical key, so a reformulated
  // revision of a cached wrapper reuses its compiled plan.
  uint64_t canonical_fp = fp;
  auto key = analysis::CanonicalWrapperKey(wrapper.program,
                                           wrapper.extraction_patterns);
  if (key.ok()) canonical_fp = key->fingerprint;
  auto cit = canonical_index_.find(canonical_fp);
  if (cit != canonical_index_.end()) {
    ++stats_.hits;
    ++stats_.canonical_key_hits;
    if (cit->second->syntactic_fps.size() < kMaxAliases) {
      cit->second->syntactic_fps.push_back(fp);
      index_.emplace(fp, cit->second);
    }
    lru_.splice(lru_.begin(), lru_, cit->second);
    return cit->second->program;
  }
  ++stats_.misses;

  MD_ASSIGN_OR_RETURN(
      elog::ElogGroundPlan plan,
      elog::CompileGroundPlan(wrapper.program, wrapper.extraction_patterns));
  auto compiled = std::make_shared<CompiledWrapperProgram>();
  compiled->prepared = wrapper;
  compiled->has_ground_plan = true;
  compiled->ground_plan = std::move(plan.plan);
  compiled->pattern_preds = std::move(plan.pattern_preds);
  compiled->fingerprint = fp;
  compiled->canonical_fingerprint = canonical_fp;
  ++stats_.ground_plans;

  lru_.push_front(Entry{canonical_fp, {fp}, compiled});
  index_.emplace(fp, lru_.begin());
  canonical_index_.emplace(canonical_fp, lru_.begin());
  ++stats_.entries;
  while (static_cast<int32_t>(lru_.size()) > capacity_) {
    const Entry& victim = lru_.back();
    for (uint64_t sfp : victim.syntactic_fps) index_.erase(sfp);
    canonical_index_.erase(victim.canonical_fp);
    lru_.pop_back();
    ++stats_.evictions;
    --stats_.entries;
  }
  return std::shared_ptr<const CompiledWrapperProgram>(std::move(compiled));
}

ProgramCacheStats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mdatalog::runtime
