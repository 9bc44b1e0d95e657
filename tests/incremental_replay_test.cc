// The incremental ground-plan replay (core::IncrementalReplay), the engine
// of the streaming front, against batch EvaluateGrounded. A tree is fed into
// a growing TreeBuilder in preorder — each node created, then closed once its
// subtree is complete — with Propagate called at random points, under both
// root hypotheses of a stream session: the kept world (the builder as it
// stands) and the stripped world (a synthetic root hidden above the tree).
// Two properties: after the last event the derived sets equal batch
// evaluation on the built tree, and every atom derived at an intermediate
// point is in that final result (the replay only ever reads final facts).

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/ast.h"
#include "src/core/grounder.h"
#include "src/core/parser.h"
#include "src/core/program_generator.h"
#include "src/elog/ast.h"
#include "src/elog/to_datalog.h"
#include "src/tree/generator.h"
#include "src/tree/tree.h"
#include "src/util/deadline.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace {

using namespace mdatalog;
using core::GroundPlan;
using core::IncrementalReplay;
using core::Program;
using tree::NodeId;

/// One event of a document-order build: a node's creation, or its close
/// once its whole subtree exists.
struct Event {
  NodeId node;
  bool close;
};

/// `t`'s creations and closes in document order.
std::vector<Event> PreorderEvents(const tree::Tree& t) {
  std::vector<Event> events;
  events.reserve(2 * static_cast<size_t>(t.size()));
  tree::WalkSubtree(
      t, t.root(), [&](NodeId m) { events.push_back({m, false}); },
      [&](NodeId m) { events.push_back({m, true}); });
  return events;
}

/// `t` below a synthetic "#document" root: the kept world's finished tree.
tree::Tree UnderDocumentRoot(const tree::Tree& t) {
  tree::TreeBuilder b;
  b.Root("#document");
  std::vector<NodeId> id(t.size());
  for (const Event& e : PreorderEvents(t)) {
    if (e.close) continue;
    const NodeId p = t.parent(e.node);
    id[e.node] = b.Child(p == tree::kNoNode ? 0 : id[p], t.label_name(e.node));
  }
  return b.Build();
}

/// Every IDB atom `world` holds is in `want` (builder ids are `shift` above
/// the batch tree's); with `exact`, the two are equal.
void ExpectAgrees(const Program& program, const IncrementalReplay& world,
                  const core::EvalResult& want, int32_t shift, bool exact,
                  const std::string& context) {
  const std::vector<bool> intensional = program.IntensionalMask();
  for (core::PredId q = 0; q < program.preds().size(); ++q) {
    if (!intensional[q]) continue;
    if (program.preds().Arity(q) == 0) {
      if (world.NullaryTrue(q)) {
        EXPECT_TRUE(want.NullaryTrue(q)) << context << " unsound nullary";
      } else if (exact) {
        EXPECT_FALSE(want.NullaryTrue(q)) << context << " missed nullary";
      }
      continue;
    }
    const core::NodeSet* members = world.Members(q);
    ASSERT_NE(members, nullptr) << context;
    std::vector<NodeId> got;
    members->ForEach([&](NodeId n) {
      got.push_back(n - shift);
      EXPECT_TRUE(want.ContainsUnary(q, n - shift))
          << context << ": unsound " << program.preds().Name(q) << "("
          << n - shift << ")";
    });
    if (exact) {
      EXPECT_EQ(got, want.Unary(q))
          << context << ": " << program.preds().Name(q);
    }
  }
}

/// Feeds `t` under both hypotheses, propagating after an event with
/// probability 1/`every` and checking soundness at up to `max_checks` of
/// those points, then checks the final sets.
void CheckReplay(const Program& program, const GroundPlan& plan,
                 const tree::Tree& t, util::Rng& rng, uint64_t every,
                 int32_t max_checks, const std::string& context) {
  auto batch = core::EvaluateGrounded(plan, t);
  ASSERT_TRUE(batch.ok()) << context;
  auto docked = core::EvaluateGrounded(plan, UnderDocumentRoot(t));
  ASSERT_TRUE(docked.ok()) << context;
  const std::vector<Event> events = PreorderEvents(t);

  for (const bool under_document : {false, true}) {
    // Without a document root the builder mirrors `t` (ids equal) and one
    // kept world replays it. Under one, node 0 is "#document" and `t`
    // starts at node 1: the stripped world hides node 0, the kept world
    // sees it — the two worlds of a stream session.
    tree::TreeBuilder b;
    const int32_t offset = under_document ? 1 : 0;
    if (under_document) b.Root("#document");
    IncrementalReplay kept(plan, b, /*hide_root=*/false);
    std::optional<IncrementalReplay> stripped;
    if (under_document) {
      stripped.emplace(plan, b, /*hide_root=*/true);
      kept.NodeCreated(0);
    }
    // (world, expected result, id shift)
    struct World {
      IncrementalReplay* replay;
      const core::EvalResult* want;
      int32_t shift;
    };
    std::vector<World> worlds = {
        {&kept, under_document ? &*docked : &*batch, 0}};
    if (stripped.has_value()) worlds.push_back({&*stripped, &*batch, 1});
    const std::string ctx =
        context + (under_document ? " [under #document]" : " [bare]");

    int32_t checks = 0;
    for (const Event& e : events) {
      const NodeId n = e.node + offset;
      if (e.close) {
        for (World& w : worlds) w.replay->NodeClosed(n);
      } else {
        const NodeId p = t.parent(e.node);
        const NodeId id =
            p == tree::kNoNode
                ? (under_document ? b.Child(0, t.label_name(e.node))
                                  : b.Root(t.label_name(e.node)))
                : b.Child(p + offset, t.label_name(e.node));
        ASSERT_EQ(id, n) << ctx;
        for (World& w : worlds) w.replay->NodeCreated(n);
      }
      if (!rng.Chance(1, every)) continue;
      for (World& w : worlds) {
        ASSERT_TRUE(w.replay->Propagate().ok()) << ctx;
        if (checks < max_checks) {
          ExpectAgrees(program, *w.replay, *w.want, w.shift, false, ctx);
        }
      }
      ++checks;
      if (::testing::Test::HasFailure()) return;
    }
    if (under_document) kept.NodeClosed(0);
    for (World& w : worlds) {
      ASSERT_TRUE(w.replay->Propagate().ok()) << ctx;
      ExpectAgrees(program, *w.replay, *w.want, w.shift, true, ctx);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

/// The Δ-free wrappers of the checked-in corpus, lowered to the program their
/// ground plan compiles from, with every label their paths name.
struct CorpusProgram {
  std::string name;
  Program program;
  std::vector<std::string> labels;
};

std::vector<CorpusProgram> DeltaFreeCorpus() {
  std::vector<CorpusProgram> out;
  for (const auto& entry :
       std::filesystem::directory_iterator(MDATALOG_WRAPPER_CORPUS_DIR)) {
    if (entry.path().extension() != ".elog") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    auto w = wrapper::ParseWrapperText(text.str());
    EXPECT_TRUE(w.ok()) << entry.path();
    if (!w.ok() || w->program.UsesDeltaBuiltins()) continue;
    auto lowered = elog::LowerToGroundProgram(w->program);
    EXPECT_TRUE(lowered.ok()) << entry.path();
    if (!lowered.ok()) continue;
    CorpusProgram cp{entry.path().filename().string(), *lowered, {"x"}};
    for (core::PredId p = 0; p < lowered->preds().size(); ++p) {
      const std::string label =
          core::LabelFromPredName(lowered->preds().Name(p));
      if (!label.empty()) cp.labels.push_back(label);
    }
    out.push_back(std::move(cp));
  }
  std::sort(out.begin(), out.end(),
            [](const CorpusProgram& a, const CorpusProgram& b) {
              return a.name < b.name;
            });
  return out;
}

/// Hand-written programs over the relations the generator does not emit:
/// child (both directions), child<k> and lastsibling next to leaf.
std::vector<Program> StructuralPrograms() {
  std::vector<Program> out;
  for (const char* text : {
           "q(X) :- root(X).\n"
           "q(Y) :- q(X), child(X, Y), label_a(Y).\n"
           "r(X) :- child(X, Y), leaf(Y), lastsibling(Y).\n"
           "s(X) :- child2(X, Y), label_b(Y), r(Y).\n",
           "q(X) :- leaf(X), lastsibling(X).\n"
           "q(X) :- child1(X, Y), q(Y), firstsibling(Y).\n"
           "p(Y) :- q(X), child(X, Y), child(Y, Z), label_a(Z).\n",
       }) {
    auto p = core::ParseProgram(text);
    EXPECT_TRUE(p.ok()) << text;
    if (p.ok()) out.push_back(*p);
  }
  return out;
}

TEST(IncrementalReplayTest, RandomProgramsOnRandomTreesMatchBatch) {
  util::Rng rng(20261017);
  int32_t streamed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    core::ProgramGenOptions opts;
    opts.num_rules = 2 + static_cast<int32_t>(rng.Below(9));
    opts.num_idb_preds = 2 + static_cast<int32_t>(rng.Below(4));
    opts.labels = {"a", "b", "c"};
    // Bridges and nullary predicates; plans with constants do not stream.
    opts.allow_nonlocal = trial % 2 == 1;
    const Program p = core::RandomMonadicProgram(rng, opts);
    ASSERT_TRUE(core::GroundableOverTree(p)) << core::ToString(p);
    auto plan = GroundPlan::Compile(p);
    ASSERT_TRUE(plan.ok());
    if (!plan->streamable()) continue;
    ++streamed;
    const tree::Tree t =
        tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(80)),
                         {"a", "b", "c"}, trial % 3 == 0);
    CheckReplay(p, *plan, t, rng, 1 + rng.Below(6), 1 << 20,
                core::ToString(p) + tree::ToDebugString(t));
    if (HasFailure()) return;
  }
  EXPECT_GE(streamed, 150);
}

TEST(IncrementalReplayTest, StructuralProgramsAndCorpusWrappersMatchBatch) {
  util::Rng rng(5);
  std::vector<CorpusProgram> programs = DeltaFreeCorpus();
  ASSERT_GE(programs.size(), 5u);
  for (Program& p : StructuralPrograms()) {
    programs.push_back({core::ToString(p), std::move(p), {"a", "b", "c"}});
  }
  for (const CorpusProgram& cp : programs) {
    auto plan = GroundPlan::Compile(cp.program);
    ASSERT_TRUE(plan.ok()) << cp.name;
    ASSERT_TRUE(plan->streamable()) << cp.name;
    for (int trial = 0; trial < 40; ++trial) {
      const tree::Tree t =
          tree::RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(150)),
                           cp.labels, trial % 2 == 1);
      CheckReplay(cp.program, *plan, t, rng, 1 + rng.Below(8), 1 << 20,
                  cp.name + "\n" + tree::ToDebugString(t));
      if (HasFailure()) return;
    }
  }
}

TEST(IncrementalReplayTest, HundredThousandDeepChainAndWideFanOut) {
  constexpr int32_t kNodes = 100000;
  // A chain alternating a/b, and one root with that many children.
  tree::TreeBuilder chain;
  tree::TreeBuilder fan;
  NodeId last = chain.Root("a");
  fan.Root("a");
  for (int32_t i = 1; i < kNodes; ++i) {
    last = chain.Child(last, i % 2 == 0 ? "a" : "b");
    fan.Child(0, i % 3 == 0 ? "a" : "b");
  }
  const std::vector<std::pair<std::string, tree::Tree>> trees = {
      {" chain", chain.Build()}, {" fan-out", fan.Build()}};
  util::Rng rng(11);
  std::vector<CorpusProgram> programs = DeltaFreeCorpus();
  for (Program& p : StructuralPrograms()) {
    programs.push_back({core::ToString(p), std::move(p), {}});
  }
  for (const CorpusProgram& cp : programs) {
    auto plan = GroundPlan::Compile(cp.program);
    ASSERT_TRUE(plan.ok()) << cp.name;
    for (const auto& [shape, t] : trees) {
      CheckReplay(cp.program, *plan, t, rng, 4096, 3, cp.name + shape);
      if (HasFailure()) return;
    }
  }
}

TEST(IncrementalReplayTest, ExpiredDeadlineInsidePropagateResumes) {
  // A large page's events are queued before any propagation; an expired
  // control must stop the replay inside its pop loop, and the replay must
  // resume from there to exactly the batch result.
  const Program program = [] {
    auto p = core::ParseProgram(
        "q(X) :- root(X).\n"
        "q(Y) :- q(X), child(X, Y).\n"
        "r(Y) :- q(X), child(X, Y), label_a(Y), leaf(Y).\n");
    EXPECT_TRUE(p.ok());
    return *p;
  }();
  auto plan = GroundPlan::Compile(program);
  ASSERT_TRUE(plan.ok());
  util::Rng rng(3);
  const tree::Tree t = tree::RandomTree(rng, 50000, {"a", "b"});
  auto batch = core::EvaluateGrounded(*plan, t);
  ASSERT_TRUE(batch.ok());

  tree::TreeBuilder b;
  IncrementalReplay world(*plan, b, /*hide_root=*/false);
  for (const Event& e : PreorderEvents(t)) {
    if (e.close) {
      world.NodeClosed(e.node);
      continue;
    }
    const NodeId p = t.parent(e.node);
    ASSERT_EQ(p == tree::kNoNode ? b.Root(t.label_name(e.node))
                                 : b.Child(p, t.label_name(e.node)),
              e.node);
    world.NodeCreated(e.node);
  }
  const util::EvalControl expired(
      util::Deadline::After(std::chrono::milliseconds(0)), nullptr);
  EXPECT_EQ(world.Propagate(&expired).code(),
            util::StatusCode::kDeadlineExceeded);
  EXPECT_LT(world.num_derived(), batch->num_derived());
  // Each expired call gets one poll stride further.
  for (int i = 0; i < 3; ++i) {
    const util::StatusCode code = world.Propagate(&expired).code();
    EXPECT_TRUE(code == util::StatusCode::kDeadlineExceeded ||
                code == util::StatusCode::kOk);
  }
  ASSERT_TRUE(world.Propagate().ok());
  ExpectAgrees(program, world, *batch, 0, true, "resumed");
}

}  // namespace
