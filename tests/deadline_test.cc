// Per-request deadlines and cooperative cancellation (util/deadline.h),
// threaded from WrapperRuntime through elog/eval, wrapper/wrapper, the
// naive rounds of core/eval.cc, and the node sweeps and atom
// propagation of the grounded evaluator (core/grounder.cc). The contract
// under test: a bounded request unwinds with a *typed* kDeadlineExceeded /
// kCancelled status — it never hangs a worker, never returns a partial result
// as success, and never poisons shared state for later requests.

#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/eval.h"
#include "src/core/examples.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/elog/ast.h"
#include "src/elog/eval.h"
#include "src/elog/to_datalog.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/runtime/runtime.h"
#include "src/tmnf/pipeline.h"
#include "src/tree/generator.h"
#include "src/tree/serialize.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"
#include "tests/engine_oracles.h"
#include "tests/support/fixtures.h"
#include "tests/support/trees.h"

namespace {

using namespace mdatalog;
using std::chrono::milliseconds;

util::Deadline ExpiredDeadline() { return util::Deadline::After(milliseconds(-1)); }

wrapper::Wrapper BoardWrapper() {
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    litem(X) <- anynode(P), subelem(P, "li", X).
    deepleaf(X) <- litem(X), leaf(X).
  )");
  EXPECT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"litem", "deepleaf"};
  return w;
}

/// The Corollary 6.4 pipeline of BoardWrapper: a TMNF program for the
/// engine-level checks.
core::Program BoardTmnf() {
  auto datalog = elog::ElogToDatalog(BoardWrapper().program);
  EXPECT_TRUE(datalog.ok());
  auto tmnf = tmnf::ToTmnf(*datalog);
  EXPECT_TRUE(tmnf.ok());
  return *tmnf;
}

// ---------------------------------------------------------------------------
// util/deadline.h primitives
// ---------------------------------------------------------------------------

TEST(DeadlineTest, DefaultIsInfinite) {
  util::Deadline d;
  EXPECT_FALSE(d.has_deadline());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(util::Deadline().expired());
}

TEST(DeadlineTest, PastDeadlineIsExpired) {
  EXPECT_TRUE(ExpiredDeadline().expired());
  EXPECT_FALSE(util::Deadline::After(std::chrono::hours(1)).expired());
}

TEST(CancelTokenTest, CancelIsSticky) {
  util::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(EvalControlTest, ChecksReportTypedStatuses) {
  EXPECT_TRUE(util::EvalControl().Check().ok());
  EXPECT_TRUE(util::EvalControl().unbounded());

  util::EvalControl expired(ExpiredDeadline(), nullptr);
  EXPECT_FALSE(expired.unbounded());
  EXPECT_EQ(expired.Check().code(), util::StatusCode::kDeadlineExceeded);

  util::CancelToken token;
  util::EvalControl cancellable(util::Deadline(), &token);
  EXPECT_TRUE(cancellable.Check().ok());
  token.Cancel();
  // Cancellation wins over the (infinite) deadline.
  EXPECT_EQ(cancellable.Check().code(), util::StatusCode::kCancelled);
}

TEST(EvalTickerTest, NullAndUnboundedControlsNeverFail) {
  util::EvalTicker null_ticker(nullptr);
  EXPECT_FALSE(null_ticker.active());
  util::EvalControl unbounded;
  util::EvalTicker unbounded_ticker(&unbounded);
  EXPECT_FALSE(unbounded_ticker.active());
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(null_ticker.Tick().ok());
    EXPECT_TRUE(unbounded_ticker.Tick().ok());
  }
}

TEST(EvalTickerTest, StridedTickFiresWithinOneStride) {
  util::EvalControl expired(ExpiredDeadline(), nullptr);
  util::EvalTicker ticker(&expired, /*stride=*/64);
  EXPECT_TRUE(ticker.active());
  int ok_ticks = 0;
  util::Status status = util::Status::OK();
  while (status.ok() && ok_ticks <= 64) {
    status = ticker.Tick();
    if (status.ok()) ++ok_ticks;
  }
  EXPECT_EQ(status.code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_LT(ok_ticks, 64);
}

// ---------------------------------------------------------------------------
// Engine-level checks: every fixpoint loop unwinds with the typed status.
// ---------------------------------------------------------------------------

TEST(EngineDeadlineTest, GroundedReplayHonorsTheControl) {
  core::Program tmnf = BoardTmnf();
  auto plan = core::GroundPlan::Compile(tmnf);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  util::Rng rng(9);
  tree::Tree t = tree::RandomTree(rng, 500, {"ul", "li", "a"});

  util::EvalControl expired(ExpiredDeadline(), nullptr);
  core::GroundArena arena;
  auto result =
      core::EvaluateGrounded(*plan, t, &arena, /*stats=*/nullptr, &expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);

  // The same arena still produces correct results afterwards — an aborted
  // replay leaves no residue (Clear() on entry).
  auto ok_result = core::EvaluateGrounded(*plan, t, &arena);
  ASSERT_TRUE(ok_result.ok());
  auto fresh = core::EvaluateGrounded(tmnf, t);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(ok_result->num_derived(), fresh->num_derived());
}

/// Runs `program` over `t` under a 1 ms deadline, expects the typed
/// kDeadlineExceeded, then checks that the aborted arena (queue and binding
/// left mid-evaluation) serves the next, unbounded evaluation correctly.
void ExpectGroundedUnwindsAt1ms(const core::Program& program,
                                const tree::Tree& t) {
  auto plan = core::GroundPlan::Compile(program);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  core::GroundArena arena;
  util::EvalControl bounded(util::Deadline::After(milliseconds(1)), nullptr);
  auto result =
      core::EvaluateGrounded(*plan, t, &arena, /*stats=*/nullptr, &bounded);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);

  auto reused = core::EvaluateGrounded(*plan, t, &arena);
  ASSERT_TRUE(reused.ok());
  auto fresh = core::EvaluateGrounded(*plan, t);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(reused->num_derived(), fresh->num_derived());
  EXPECT_EQ(reused->Query(), fresh->Query());
}

TEST(EngineDeadlineTest, GroundedSweepHonorsTheDeadline) {
  // One seed rule and nothing to propagate: on a chain no node has a next
  // sibling, so the sweep walks three steps from each of 2^20 anchors and
  // derives nothing. Only the per-node poll of the sweep can unwind it.
  auto p = core::ParseProgramWithQuery(
      "q(X) :- firstchild(X, Y), firstchild(Y, Z), firstchild(Z, U), "
      "nextsibling(U, V).",
      "q");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  tree::Tree t = tree::ChainTree(1 << 20, "a");
  ExpectGroundedUnwindsAt1ms(*p, t);
}

TEST(EngineDeadlineTest, GroundedPropagationHonorsTheDeadline) {
  // No seed sweep: the fact q(0) is the only seed, and the 2^20-node chain
  // is derived one atom per pop. All the work is propagation, so only the
  // per-atom poll can unwind it.
  auto p = core::ParseProgramWithQuery(
      "q(0). q(Y) :- q(X), firstchild(X, Y).", "q");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  tree::Tree t = tree::ChainTree(1 << 20, "a");
  ExpectGroundedUnwindsAt1ms(*p, t);
  auto full = core::EvaluateGrounded(*p, t);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->num_derived(), t.size());
}

TEST(EngineDeadlineTest, GroundedBuiltinPassHonorsTheDeadline) {
  // An Elog⁻Δ builtin over an 8-step path on a 2^20-node chain: the
  // per-tree pass fills its table (nine sweeps of the tree) before anything
  // propagates, and q has no seed, so nothing else runs. Only the polls of
  // the builtin pass can unwind it.
  core::Program p;
  const core::PredId q = p.preds().MustIntern("q", 1);
  const std::string eight_steps = "_._._._._._._._";
  const core::PredId notafter = p.preds().MustIntern(
      core::DeltaBuiltinPredName(core::DeltaBuiltin::kNotAfter, eight_steps),
      2);
  p.AddRule(core::MakeRule(
      core::MakeAtom(q, {core::Term::Var(0)}),
      {core::MakeAtom(q, {core::Term::Var(0)}),
       core::MakeAtom(notafter, {core::Term::Var(0), core::Term::Var(0)})},
      {"X"}));
  p.set_query_pred(q);
  tree::Tree t = tree::ChainTree(1 << 20, "a");
  ExpectGroundedUnwindsAt1ms(p, t);
}

TEST(EngineDeadlineTest, GroundedChildEnumerationHonorsTheDeadline) {
  // One pop, q(0), on a root with 2^20 children: each of its four triggers
  // enumerates every child and derives nothing. No sweep and no further
  // pops, so only the poll per enumerated child can unwind it.
  auto p = core::ParseProgramWithQuery(
      "q(0).\n"
      "r(Y) :- q(X), child(X, Y), label_b(Y).\n"
      "r(Y) :- q(X), child(X, Y), firstchild(Y, Z).\n"
      "r(Y) :- q(X), child(X, Y), leaf(Y), label_c(Y).\n"
      "r(Y) :- q(X), child(X, Y), nextsibling(Y, Z), label_b(Z).",
      "r");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  tree::Tree t =
      tree::ChildrenWord("r", std::vector<std::string>(1 << 20, "a"));
  ExpectGroundedUnwindsAt1ms(*p, t);
}

TEST(EngineDeadlineTest, NativeElogHonorsTheControl) {
  wrapper::Wrapper w = BoardWrapper();
  util::Rng rng(11);
  std::string page = html::NestedBoardPage(rng, 4, 3);
  auto doc = html::ParseHtml(page);
  ASSERT_TRUE(doc.ok());

  util::EvalControl expired(ExpiredDeadline(), nullptr);
  auto result = elog::EvaluateElog(w.program, doc->tree(),
                                   elog::kDefaultMaxDerivations, &expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);

  // And through the wrapper layer, which replays the ground plan.
  auto wrapped = wrapper::WrapTree(w, doc->tree(), &expired);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), util::StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Runtime-level: the adversarial page and the serving counters.
// ---------------------------------------------------------------------------

TEST(RuntimeDeadlineTest, AdversarialPageReturnsDeadlineExceededUnder1ms) {
  // A deep synthetic board (~47k nodes, ~30 ms to serve): hashing + parsing
  // + grounding far exceeds 1ms on any hardware this runs on, and the
  // evaluation polls cooperatively — the request must come back as a typed
  // kDeadlineExceeded, not hang the worker.
  util::Rng rng(13);
  const std::string adversarial = html::NestedBoardPage(rng, 12, 3);

  runtime::WrapperRuntime rt;
  auto handle = rt.Register(BoardWrapper());
  ASSERT_TRUE(handle.ok());

  runtime::RequestOptions request;
  request.deadline = util::Deadline::After(milliseconds(1));
  auto got = rt.Wrap(*handle, adversarial, request);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rt.stats().deadline_exceeded, 1);

  // A deadline failure is not memoized and does not poison the caches: the
  // same page without a deadline evaluates fully and correctly.
  auto unbounded = rt.Wrap(*handle, adversarial);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  auto t = html::ParseTree(adversarial);
  ASSERT_TRUE(t.ok());
  auto reference = oracle::NativeXml(BoardWrapper(), *t);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(*unbounded, *reference);
}

TEST(RuntimeDeadlineTest, ExpiredRequestFastFailsBeforeAnyWork) {
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(BoardWrapper());
  ASSERT_TRUE(handle.ok());
  runtime::RequestOptions request;
  request.deadline = ExpiredDeadline();
  auto got = rt.Wrap(*handle, "<ul><li>x</li></ul>", request);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);
  // Fast-fail means no parse, no cache traffic.
  EXPECT_EQ(rt.stats().document_cache.misses, 0);
  EXPECT_EQ(rt.stats().pages_wrapped, 0);
}

TEST(RuntimeDeadlineTest, MixedBoundedAndUnboundedTrafficAt8Threads) {
  // 8 workers, half the requests carrying an already-expired deadline: the
  // bounded half must all fail typed, the unbounded half must all succeed
  // byte-identically — bounded failures never bleed into neighbors.
  runtime::RuntimeOptions opts;
  opts.num_threads = 8;
  opts.result_memo.byte_budget = 0;  // every request actually evaluates
  runtime::WrapperRuntime rt(opts);
  auto handle = rt.Register(BoardWrapper());
  ASSERT_TRUE(handle.ok());

  std::vector<std::string> pages;
  std::vector<std::string> expected;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    util::Rng rng(seed);
    pages.push_back(html::NestedBoardPage(rng, 3, 3));
    auto t = html::ParseTree(pages.back());
    ASSERT_TRUE(t.ok());
    auto ref = oracle::NativeXml(BoardWrapper(), *t);
    ASSERT_TRUE(ref.ok());
    expected.push_back(*ref);
  }

  runtime::RequestOptions expired_request;
  expired_request.deadline = ExpiredDeadline();
  std::vector<std::future<util::Result<std::string>>> bounded;
  std::vector<std::future<util::Result<std::string>>> unbounded;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < pages.size(); ++i) {
      bounded.push_back(rt.Submit(
          {runtime::PageRef::View(pages[i]), *handle, expired_request}));
      unbounded.push_back(
          rt.Submit({runtime::PageRef::View(pages[i]), *handle, {}}));
    }
  }
  for (auto& f : bounded) {
    auto got = f.get();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), util::StatusCode::kDeadlineExceeded);
  }
  size_t i = 0;
  for (auto& f : unbounded) {
    auto got = f.get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, expected[i % pages.size()]);
    ++i;
  }
  EXPECT_EQ(rt.stats().deadline_exceeded,
            static_cast<int64_t>(bounded.size()));
}

}  // namespace
