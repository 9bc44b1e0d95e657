// Differential tests for wrapper::WriteXml, the serving runtime's and the
// streaming front's one result writer: on every input it must produce
// exactly tree::ToXml(wrapper::BuildOutputTree(...)), the reference renderer.
// Inputs: random trees (ids in creation order, not document order) with
// random texts, random extents over up to 130 patterns, the same trees frozen
// through the corpus store, and the 100,000-deep chain and 100,000-wide
// fan-out (the writer must not recurse).

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/nodeset.h"
#include "src/elog/eval.h"
#include "src/store/corpus_store.h"
#include "src/tree/serialize.h"
#include "src/tree/tree.h"
#include "src/util/rng.h"
#include "src/wrapper/wrapper.h"

namespace mdatalog {
namespace {

using tree::NodeId;

/// Extents by pattern name: a repeated name in the pattern list shares one
/// set, as a repeated pattern shares one predicate in the runtime.
using Extents = std::map<std::string, core::NodeSet>;

std::string ReferenceXml(const std::vector<std::string>& patterns,
                         const Extents& extents, const tree::Tree& t) {
  elog::ElogResult matches;
  for (const auto& [name, set] : extents) {
    matches.matches[name] = set.ToVector();
  }
  return tree::ToXml(wrapper::BuildOutputTree(patterns, matches, t));
}

/// WriteXml over the same extents, each set's members shifted up by
/// `shift` (the streaming front's sets count a dropped synthetic root).
std::string WrittenXml(const std::vector<std::string>& patterns,
                       const Extents& extents, const tree::Tree& t,
                       int32_t shift = 0) {
  Extents shifted;
  for (const auto& [name, set] : extents) {
    core::NodeSet& s = shifted[name];
    s.Reset(set.domain_size() + shift);
    set.ForEach([&](int32_t n) { s.Insert(n + shift); });
  }
  std::vector<const core::NodeSet*> sets;
  for (const std::string& name : patterns) {
    const auto it = shifted.find(name);
    sets.push_back(it == shifted.end() ? nullptr : &it->second);
  }
  std::string out;
  wrapper::WriteXml(patterns, sets, t, &out, shift);
  return out;
}

const char* const kTexts[] = {"",     "",    "plain", "a&b", "<tag>",
                              "\"q\"", "x>y", "&&<<>>\"\"", " spaced "};

/// A random tree: each new node hangs under a uniformly chosen earlier one,
/// so ids follow creation order, not document order. A third of the nodes
/// carry a text from kTexts (empty ones included).
tree::Tree RandomTextTree(util::Rng& rng, int32_t num_nodes) {
  tree::TreeBuilder b;
  b.Root("r");
  const char* const labels[] = {"a", "b", "c"};
  for (int32_t i = 1; i < num_nodes; ++i) {
    const NodeId n = b.Child(static_cast<NodeId>(rng.Below(i)),
                             labels[rng.Below(3)]);
    if (rng.Chance(1, 3)) {
      b.SetText(n, kTexts[rng.Below(std::size(kTexts))]);
    }
  }
  return b.Build();
}

/// `num_patterns` pattern names, a few of them repeated; each distinct name
/// gets a random extent (or none) over `t`.
std::vector<std::string> RandomPatterns(util::Rng& rng, int32_t num_patterns,
                                        const tree::Tree& t,
                                        Extents* extents) {
  std::vector<std::string> patterns;
  for (int32_t i = 0; i < num_patterns; ++i) {
    if (i > 0 && rng.Chance(1, 8)) {
      patterns.push_back(patterns[rng.Below(patterns.size())]);
    } else {
      patterns.push_back("p" + std::to_string(i));
    }
  }
  for (const std::string& name : patterns) {
    if (extents->count(name) != 0 || rng.Chance(1, 6)) continue;
    core::NodeSet& set = (*extents)[name];
    set.Reset(t.size());
    const uint64_t density = 1 + rng.Below(4);  // in eighths
    for (NodeId n = 0; n < t.size(); ++n) {
      if (rng.Chance(density, 8 * (num_patterns > 8 ? 4 : 1))) set.Insert(n);
    }
  }
  return patterns;
}

TEST(OutputXmlTest, RandomTreesAndExtentsMatchTheReferenceRenderer) {
  util::Rng rng(2202);
  int32_t root_selected = 0, stacked = 0;
  for (int32_t trial = 0; trial < 300; ++trial) {
    const tree::Tree t = RandomTextTree(rng, 1 + rng.Below(60));
    const int32_t num_patterns =
        trial % 50 == 0 ? 65 : trial % 50 == 1 ? 130 : 1 + rng.Below(5);
    Extents extents;
    const std::vector<std::string> patterns =
        RandomPatterns(rng, num_patterns, t, &extents);
    if (trial % 7 == 0 && !extents.empty()) {
      extents.begin()->second.Insert(t.root());
    }
    int32_t on_root = 0;
    for (const std::string& name : patterns) {
      const auto it = extents.find(name);
      if (it != extents.end() && it->second.Contains(t.root())) ++on_root;
    }
    root_selected += on_root > 0;
    stacked += on_root > 1;
    const std::string want = ReferenceXml(patterns, extents, t);
    ASSERT_EQ(WrittenXml(patterns, extents, t), want)
        << "trial " << trial << ": " << tree::ToDebugString(t);
    ASSERT_EQ(WrittenXml(patterns, extents, t, /*shift=*/1), want)
        << "trial " << trial;
  }
  EXPECT_GT(root_selected, 20);
  EXPECT_GT(stacked, 5);
}

TEST(OutputXmlTest, ManyPatternsOnOneNodeSpanMaskWords) {
  // One node under 130 patterns (three mask words), a descendant under the
  // last of them, and the patterns' element names escaped nowhere.
  tree::TreeBuilder b;
  b.Root("r");
  const NodeId a = b.Child(0, "a");
  const NodeId leaf = b.Child(a, "b");
  b.SetText(leaf, "5 < 6 & \"7\"");
  const tree::Tree t = b.Build();
  std::vector<std::string> patterns;
  Extents extents;
  for (int32_t i = 0; i < 130; ++i) {
    patterns.push_back("p" + std::to_string(i));
    core::NodeSet& set = extents[patterns.back()];
    set.Reset(t.size());
    set.Insert(a);
    if (i == 63 || i == 64 || i == 129) set.Insert(leaf);
  }
  const std::string want = ReferenceXml(patterns, extents, t);
  EXPECT_EQ(WrittenXml(patterns, extents, t), want);
  EXPECT_NE(want.find("<p129>5 &lt; 6 &amp; &quot;7&quot;</p129>"),
            std::string::npos);
}

TEST(OutputXmlTest, EdgeCases) {
  tree::TreeBuilder b;
  b.Root("r");
  const NodeId x = b.Child(0, "x");
  b.SetText(b.Child(x, "y"), "t");
  const tree::Tree t = b.Build();
  // No patterns, no extents, and an extent of the root alone.
  EXPECT_EQ(WrittenXml({}, {}, t), "<result></result>\n");
  EXPECT_EQ(WrittenXml({"p"}, {}, t), "<result></result>\n");
  Extents root_only;
  root_only["p"].Reset(t.size());
  root_only["p"].Insert(0);
  EXPECT_EQ(WrittenXml({"p"}, root_only, t),
            "<result>\n  <p>t</p>\n</result>\n");
  EXPECT_EQ(WrittenXml({"p", "p"}, root_only, t),
            ReferenceXml({"p", "p"}, root_only, t));
  // WriteXml appends.
  std::string out = "prefix";
  const core::NodeSet* none = nullptr;
  wrapper::WriteXml({"p"}, {&none, 1}, t, &out);
  EXPECT_EQ(out, "prefix<result></result>\n");
}

TEST(OutputXmlTest, StoreRehydratedTreesMatchTheReferenceRenderer) {
  util::Rng rng(2203);
  std::vector<tree::Tree> trees;
  store::CorpusStore::Builder builder;
  for (uint64_t i = 0; i < 20; ++i) {
    trees.push_back(RandomTextTree(rng, 1 + rng.Below(80)));
    ASSERT_TRUE(
        builder.AddTree(trees.back(), "tree " + std::to_string(i), "").ok());
  }
  const std::string path = testing::TempDir() + "/output_xml.mdcs";
  ASSERT_TRUE(builder.Save(path).ok());
  auto store = store::CorpusStore::Open(path);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  for (int64_t i = 0; i < (*store)->size(); ++i) {
    auto doc = (*store)->Get(i);
    ASSERT_TRUE(doc.ok());
    const tree::Tree frozen = doc->MakeTree();
    ASSERT_TRUE(frozen.frozen());
    Extents extents;
    const std::vector<std::string> patterns =
        RandomPatterns(rng, 1 + rng.Below(4), frozen, &extents);
    const std::string want = ReferenceXml(patterns, extents, frozen);
    EXPECT_EQ(WrittenXml(patterns, extents, frozen), want) << "doc " << i;
    bool same_tree = false;
    for (const tree::Tree& built : trees) {
      if (tree::TreesEqual(built, frozen)) {
        same_tree = true;
        EXPECT_EQ(WrittenXml(patterns, extents, built), want) << "doc " << i;
        break;
      }
    }
    EXPECT_TRUE(same_tree) << "doc " << i;
  }
  std::remove(path.c_str());
}

constexpr int32_t kHuge = 100000;

TEST(OutputXmlTest, DeepChainNeedsNoRecursion) {
  // Every 5000th node and the bottom leaf selected; texts on the way down.
  tree::TreeBuilder b;
  NodeId n = b.Root("a");
  for (int32_t i = 1; i < kHuge; ++i) {
    n = b.Child(n, "a");
    if (i % 1000 == 0) b.SetText(n, "&");
  }
  const tree::Tree t = b.Build();
  Extents extents;
  core::NodeSet& every = extents["step"];
  every.Reset(t.size());
  for (NodeId m = 0; m < t.size(); m += 5000) every.Insert(m);
  core::NodeSet& bottom = extents["bottom"];
  bottom.Reset(t.size());
  bottom.Insert(t.size() - 1);
  bottom.Insert(t.size() - 2);
  const std::vector<std::string> patterns = {"step", "bottom"};
  EXPECT_EQ(WrittenXml(patterns, extents, t),
            ReferenceXml(patterns, extents, t));
}

TEST(OutputXmlTest, WideFanOutNeedsNoRecursion) {
  tree::TreeBuilder b;
  b.Root("r");
  for (int32_t i = 1; i < kHuge; ++i) {
    const NodeId c = b.Child(0, "c");
    if (i % 7 == 0) b.SetText(c, "<" + std::to_string(i) + ">");
  }
  const tree::Tree t = b.Build();
  Extents extents;
  core::NodeSet& thirds = extents["third"];
  thirds.Reset(t.size());
  for (NodeId m = 0; m < t.size(); m += 3) thirds.Insert(m);  // root too
  core::NodeSet& fifths = extents["fifth"];
  fifths.Reset(t.size());
  for (NodeId m = 5; m < t.size(); m += 5) fifths.Insert(m);
  const std::vector<std::string> patterns = {"third", "fifth"};
  EXPECT_EQ(WrittenXml(patterns, extents, t),
            ReferenceXml(patterns, extents, t));
}

}  // namespace
}  // namespace mdatalog
