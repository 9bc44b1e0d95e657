#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/ast.h"
#include "src/core/grounder.h"
#include "src/util/result.h"
#include "src/wrapper/wrapper.h"

/// \file program_cache.h
/// The compiled-program side of the serving runtime. A wrapper program is
/// fixed while documents stream past, so everything derived from the program
/// alone is compiled exactly once and shared:
///
///  * the Elog validation (PreparedElogProgram);
///  * the ground plan: the Elog rules lowered straight into the Theorem 4.2
///    engine (elog::LowerToGroundProgram → GroundPlan), with the Elog⁻Δ
///    builtins as residual checks — one plan for every wrapper, batch and
///    stream alike, so per-document evaluation is a plan replay in
///    O(|P|·|dom|) with per-worker arena reuse, and a stream session replays
///    the same plan incrementally (core::IncrementalReplay). No TMNF
///    normalization runs at registration.

namespace mdatalog::runtime {

/// A wrapper compiled for serving. Immutable after construction; shared
/// (shared_ptr const) between all threads and all documents.
struct CompiledWrapperProgram {
  wrapper::PreparedWrapper prepared;

  /// The lowered Elog rules; every compiled wrapper has one.
  bool has_ground_plan = false;
  std::optional<core::GroundPlan> ground_plan;
  /// PredId of "pat_<pattern>" per extraction pattern (parallel to
  /// prepared.extraction_patterns) in the lowered program, so in the plan's
  /// EvalResult and IncrementalReplay; -1 if the pattern is never derivable.
  std::vector<core::PredId> pattern_preds;

  /// The extraction patterns' matches in a replay of `ground_plan`.
  elog::ElogResult Matches(const core::EvalResult& eval) const;

  /// Fingerprint of the wrapper text + pattern list, as registered.
  uint64_t fingerprint = 0;
  /// Canonical-key fingerprint (analysis::CanonicalWrapperKey): equal for
  /// every formulation of the same wrapper, so it is the right key for
  /// result memo entries. Equals `fingerprint` when CanonicalWrapperKey
  /// fails on the wrapper.
  uint64_t canonical_fingerprint = 0;
};

/// The calling thread's grounded-evaluation scratch, shared by every plan
/// replay on that thread, batch and stream alike.
core::GroundArena& ThreadArena();

struct ProgramCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int32_t entries = 0;
  /// Programs compiled to a ground plan (every compiled program).
  int64_t ground_plans = 0;
  /// Hits resolved through the canonical key: the wrapper text was new but
  /// canonically identical to a cached program (reformulated revision).
  /// Counted inside `hits` as well.
  int64_t canonical_key_hits = 0;
};

/// LRU cache of compiled wrapper programs, keyed two ways: by a fingerprint
/// of the program text plus the extraction-pattern list (cheap, exact), and
/// — on a syntactic miss — by the canonical key (analysis::CanonicalKey
/// pipeline: minimize, normalize variables, sort rules), so reformulated but
/// equivalent wrapper revisions share one compiled plan. Capacity is
/// entry-count based: programs are tiny next to documents, the bound only
/// guards against unbounded churn from generated programs.
///
/// Thread safety: all public methods are safe to call concurrently. A
/// compile miss holds the lock — program compilation is rare (once per
/// wrapper deployment) and concurrent duplicate compilation would waste more
/// than it saves.
class ProgramCache {
 public:
  explicit ProgramCache(int32_t capacity);

  util::Result<std::shared_ptr<const CompiledWrapperProgram>> GetOrCompile(
      const wrapper::Wrapper& wrapper);

  ProgramCacheStats stats() const;

  /// The syntactic fingerprint GetOrCompile keys on first.
  static uint64_t Fingerprint(const wrapper::Wrapper& wrapper);

 private:
  /// Aliases kept per entry: each new formulation of a cached wrapper adds
  /// its syntactic fingerprint so repeat registrations skip
  /// canonicalization. Bounded — formulations beyond the cap still hit via
  /// the canonical index, they just recompute the canonical key each time.
  static constexpr size_t kMaxAliases = 8;

  struct Entry {
    uint64_t canonical_fp;
    std::vector<uint64_t> syntactic_fps;  // every formulation seen (capped)
    std::shared_ptr<const CompiledWrapperProgram> program;
  };

  const int32_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  std::unordered_map<uint64_t, std::list<Entry>::iterator> canonical_index_;
  ProgramCacheStats stats_;
};

}  // namespace mdatalog::runtime
