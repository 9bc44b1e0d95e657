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

namespace {

/// Lowers the wrapper's Elog rules straight into its ground plan.
util::Status CompileGroundPlan(CompiledWrapperProgram* out) {
  MD_ASSIGN_OR_RETURN(
      core::Program lowered,
      elog::LowerToGroundProgram(out->prepared.program.program()));
  MD_ASSIGN_OR_RETURN(out->ground_plan, core::GroundPlan::Compile(lowered));
  // A pattern no rule defines (or whose rules were all dropped) is never
  // derivable; it may still name a predicate the plan holds no set for.
  const std::vector<bool> intensional = lowered.IntensionalMask();
  out->pattern_preds.reserve(out->prepared.extraction_patterns.size());
  for (const std::string& pattern : out->prepared.extraction_patterns) {
    const core::PredId p = lowered.preds().Find("pat_" + pattern);
    out->pattern_preds.push_back(p >= 0 && intensional[p] ? p : -1);
  }
  out->has_ground_plan = true;
  return util::Status::OK();
}

}  // namespace

elog::ElogResult CompiledWrapperProgram::Matches(
    const core::EvalResult& eval) const {
  elog::ElogResult matches;
  for (size_t i = 0; i < prepared.extraction_patterns.size(); ++i) {
    if (pattern_preds[i] < 0) continue;  // never derivable: empty extent
    matches.matches[prepared.extraction_patterns[i]] =
        eval.Unary(pattern_preds[i]);
  }
  return matches;
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

  auto compiled = std::make_shared<CompiledWrapperProgram>();
  MD_ASSIGN_OR_RETURN(compiled->prepared,
                      wrapper::PreparedWrapper::Prepare(wrapper));
  compiled->fingerprint = fp;
  compiled->canonical_fingerprint = canonical_fp;
  MD_RETURN_NOT_OK(CompileGroundPlan(compiled.get()));
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
