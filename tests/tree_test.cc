#include <gtest/gtest.h>

#include <algorithm>

#include "src/tree/binary.h"
#include "src/tree/generator.h"
#include "src/tree/ranked.h"
#include "src/tree/serialize.h"
#include "src/tree/tree.h"
#include "src/util/rng.h"
#include "tests/support/trees.h"

namespace mdatalog::tree {
namespace {

Tree SmallTree() {
  // a(b, c(d, e), f)
  TreeBuilder b;
  NodeId r = b.Root("a");
  b.Child(r, "b");
  NodeId c = b.Child(r, "c");
  b.Child(c, "d");
  b.Child(c, "e");
  b.Child(r, "f");
  return b.Build();
}

/// Number of edges from `n` up to the root.
int32_t Depth(const Tree& t, NodeId n) {
  int32_t d = 0;
  for (NodeId p = t.parent(n); p != kNoNode; p = t.parent(p)) ++d;
  return d;
}

/// Longest root-to-leaf path, in edges.
int32_t Height(const Tree& t) {
  int32_t best = 0;
  for (NodeId n = 0; n < t.size(); ++n) best = std::max(best, Depth(t, n));
  return best;
}

/// Largest number of children of any node.
int32_t MaxArity(const Tree& t) {
  int32_t best = 0;
  for (NodeId n = 0; n < t.size(); ++n) {
    best = std::max(best, t.NumChildren(n));
  }
  return best;
}

TEST(TreeTest, BuilderLinksSiblingsAndParents) {
  Tree t = SmallTree();
  ASSERT_EQ(t.size(), 6);
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.label_name(0), "a");
  std::vector<NodeId> kids = t.Children(0);
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(t.label_name(kids[0]), "b");
  EXPECT_EQ(t.label_name(kids[1]), "c");
  EXPECT_EQ(t.label_name(kids[2]), "f");
  EXPECT_EQ(t.parent(kids[1]), 0);
  EXPECT_EQ(t.next_sibling(kids[0]), kids[1]);
  EXPECT_EQ(t.prev_sibling(kids[1]), kids[0]);
  EXPECT_EQ(t.first_child(0), kids[0]);
  EXPECT_EQ(t.last_child(0), kids[2]);
}

TEST(TreeTest, UnaryRelationsOfTauUr) {
  Tree t = SmallTree();
  // root
  EXPECT_TRUE(t.IsRoot(0));
  EXPECT_FALSE(t.IsRoot(1));
  // leaf
  EXPECT_TRUE(t.IsLeaf(1));
  EXPECT_FALSE(t.IsLeaf(2));
  EXPECT_TRUE(t.IsLeaf(5));
  // lastsibling: root is NOT a last sibling (paper, Section 2).
  EXPECT_FALSE(t.IsLastSibling(0));
  EXPECT_TRUE(t.IsLastSibling(5));   // f
  EXPECT_TRUE(t.IsLastSibling(4));   // e
  EXPECT_FALSE(t.IsLastSibling(1));  // b
  // firstsibling symmetric
  EXPECT_FALSE(t.IsFirstSibling(0));
  EXPECT_TRUE(t.IsFirstSibling(1));
  EXPECT_TRUE(t.IsFirstSibling(3));
  EXPECT_FALSE(t.IsFirstSibling(5));
}

TEST(TreeTest, ChildKIsOneBased) {
  Tree t = SmallTree();
  EXPECT_EQ(t.ChildK(0, 1), 1);
  EXPECT_EQ(t.ChildK(0, 2), 2);
  EXPECT_EQ(t.ChildK(0, 3), 5);
  EXPECT_EQ(t.ChildK(0, 4), kNoNode);
  EXPECT_EQ(t.ChildK(1, 1), kNoNode);
}

TEST(TreeTest, DepthHeightArity) {
  Tree t = SmallTree();
  EXPECT_EQ(Depth(t, 0), 0);
  EXPECT_EQ(Depth(t, 3), 2);
  EXPECT_EQ(Height(t), 2);
  EXPECT_EQ(MaxArity(t), 3);
  EXPECT_EQ(t.NumChildren(2), 2);
}

TEST(TreeTest, AncestorCheck) {
  Tree t = SmallTree();
  EXPECT_TRUE(t.IsAncestor(0, 3));
  EXPECT_TRUE(t.IsAncestor(2, 4));
  EXPECT_FALSE(t.IsAncestor(3, 2));
  EXPECT_FALSE(t.IsAncestor(3, 3));  // not a *proper* ancestor
  EXPECT_FALSE(t.IsAncestor(1, 3));
}

TEST(TreeTest, PreorderIsDocumentOrder) {
  Tree t = SmallTree();
  std::vector<NodeId> order = t.Preorder();
  // Built in document order, so ids are already sorted.
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<NodeId>(i));
  }
  std::vector<int32_t> rank = t.PreorderRanks();
  for (NodeId n = 0; n < t.size(); ++n) EXPECT_EQ(rank[n], n);
}

TEST(TreeTest, TextPayload) {
  TreeBuilder b;
  NodeId r = b.Root("p");
  NodeId c = b.Child(r, "text");
  b.SetText(c, "hello");
  Tree t = b.Build();
  EXPECT_EQ(t.text(c), "hello");
  EXPECT_EQ(t.text(r), "");
  EXPECT_TRUE(t.HasText(c));
  EXPECT_FALSE(t.HasText(r));
  EXPECT_EQ(t.SubtreeText(r), "hello");
}

TEST(TreeTest, EqualityIsStructuralAndLabelBased) {
  Tree a = SmallTree();
  Tree b = SmallTree();
  EXPECT_TRUE(TreesEqual(a, b));
  TreeBuilder tb;
  NodeId r = tb.Root("a");
  tb.Child(r, "b");
  Tree c = tb.Build();
  EXPECT_FALSE(TreesEqual(a, c));
}

TEST(TreeTest, EqualityDifferentInternOrder) {
  // Same tree built with different label-interning order must compare equal.
  TreeBuilder b1;
  NodeId r1 = b1.Root("x");
  b1.Child(r1, "y");
  Tree t1 = b1.Build();

  TreeBuilder b2;
  NodeId r2 = b2.Root("x");  // interner here sees "x" first too, so force skew:
  NodeId c2 = b2.Child(r2, "y");
  (void)c2;
  Tree t2 = b2.Build();
  EXPECT_TRUE(TreesEqual(t1, t2));
}

TEST(TreeTest, DebugString) {
  EXPECT_EQ(ToDebugString(SmallTree()), "a(b,c(d,e),f)");
  EXPECT_EQ(ToDebugString(ChainTree(3, "z")), "z(z(z))");
}

TEST(BinaryEncodingTest, Figure1Encoding) {
  // Figure 1: n1 -fc-> n2, n2 -ns-> n3, n3 -fc-> n4, n4 -ns-> n5, n3 -ns-> n6.
  Tree t = PaperFigure1Tree();
  BinaryTree b = EncodeFirstChildNextSibling(t);
  // Node ids: n1=0, n2=1, n3=2, n4=3, n5=4, n6=5.
  EXPECT_EQ(b.nodes[0].left, 1);
  EXPECT_EQ(b.nodes[0].right, kNoNode);
  EXPECT_EQ(b.nodes[1].left, kNoNode);
  EXPECT_EQ(b.nodes[1].right, 2);
  EXPECT_EQ(b.nodes[2].left, 3);
  EXPECT_EQ(b.nodes[2].right, 5);
  EXPECT_EQ(b.nodes[3].right, 4);
  EXPECT_EQ(b.nodes[4].right, kNoNode);
  EXPECT_EQ(b.nodes[5].right, kNoNode);
}

TEST(BinaryEncodingTest, RoundTripSmall) {
  Tree t = SmallTree();
  auto back = DecodeFirstChildNextSibling(EncodeFirstChildNextSibling(t));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(TreesEqual(t, *back));
}

TEST(BinaryEncodingTest, RoundTripRandomProperty) {
  util::Rng rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    Tree t = RandomTree(rng, 1 + static_cast<int32_t>(rng.Below(80)),
                        {"a", "b", "c"});
    auto back = DecodeFirstChildNextSibling(EncodeFirstChildNextSibling(t));
    ASSERT_TRUE(back.ok());
    EXPECT_TRUE(TreesEqual(t, *back)) << ToDebugString(t);
  }
}

TEST(BinaryEncodingTest, DecodeRejectsRootWithRightChild) {
  BinaryTree b;
  b.nodes.push_back({.label = "a", .left = kNoNode, .right = 1});
  b.nodes.push_back({.label = "b", .left = kNoNode, .right = kNoNode});
  b.root = 0;
  EXPECT_FALSE(DecodeFirstChildNextSibling(b).ok());
}

TEST(BinaryEncodingTest, DecodeRejectsEmpty) {
  BinaryTree b;
  EXPECT_FALSE(DecodeFirstChildNextSibling(b).ok());
}

/// A two-node encoding a(b): n0 -fc-> n1.
BinaryTree TwoNodeEncoding() {
  BinaryTree b;
  b.nodes.push_back({.label = "a", .left = 1, .right = kNoNode});
  b.nodes.push_back({.label = "b", .left = kNoNode, .right = kNoNode});
  b.root = 0;
  return b;
}

TEST(BinaryEncodingTest, DecodeRejectsOutOfRangeRoot) {
  BinaryTree b = TwoNodeEncoding();
  for (NodeId root : {2, 7, -2}) {
    b.root = root;
    EXPECT_EQ(DecodeFirstChildNextSibling(b).status().code(),
              util::StatusCode::kInvalidArgument)
        << root;
  }
}

TEST(BinaryEncodingTest, DecodeRejectsOutOfRangeChildren) {
  for (NodeId bad : {2, 7, -2}) {
    BinaryTree left = TwoNodeEncoding();
    left.nodes[1].left = bad;
    EXPECT_EQ(DecodeFirstChildNextSibling(left).status().code(),
              util::StatusCode::kInvalidArgument)
        << "left " << bad;
    BinaryTree right = TwoNodeEncoding();
    right.nodes[1].right = bad;
    EXPECT_EQ(DecodeFirstChildNextSibling(right).status().code(),
              util::StatusCode::kInvalidArgument)
        << "right " << bad;
  }
}

TEST(BinaryEncodingTest, DecodeRejectsBackEdgeCycle) {
  BinaryTree b = TwoNodeEncoding();
  b.nodes[1].left = b.root;
  EXPECT_EQ(DecodeFirstChildNextSibling(b).status().code(),
            util::StatusCode::kInvalidArgument);
  BinaryTree self = TwoNodeEncoding();
  self.nodes[1].right = 1;
  EXPECT_EQ(DecodeFirstChildNextSibling(self).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(BinaryEncodingTest, DecodeRejectsNodeWithTwoParents) {
  // n0 -fc-> n1, n1 -ns-> n2, n1 -fc-> n2: n2 is both n1's child and its
  // sibling, so it would be built twice.
  BinaryTree b = TwoNodeEncoding();
  b.nodes.push_back({.label = "c", .left = kNoNode, .right = kNoNode});
  b.nodes[1].left = 2;
  b.nodes[1].right = 2;
  EXPECT_EQ(DecodeFirstChildNextSibling(b).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST(BinaryEncodingTest, DeepChainRoundTrips) {
  // Deep enough to overflow a recursive decoder's stack.
  Tree t = ChainTree(100000, "a");
  auto back = DecodeFirstChildNextSibling(EncodeFirstChildNextSibling(t));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->size(), t.size());
  EXPECT_TRUE(TreesEqual(t, *back));
}

TEST(GeneratorTest, CompleteBinaryTreeSize) {
  for (int32_t d = 0; d <= 6; ++d) {
    Tree t = CompleteBinaryTree(d, "a");
    EXPECT_EQ(t.size(), (1 << (d + 1)) - 1);
    EXPECT_EQ(Height(t), d);
    EXPECT_LE(MaxArity(t), 2);
  }
}

TEST(GeneratorTest, ChainTree) {
  Tree t = ChainTree(5, "a");
  EXPECT_EQ(t.size(), 5);
  EXPECT_EQ(Height(t), 4);
  EXPECT_EQ(MaxArity(t), 1);
}

TEST(GeneratorTest, ChildrenWord) {
  Tree t = ChildrenWord("r", {"a", "a", "b"});
  EXPECT_EQ(t.size(), 4);
  EXPECT_EQ(t.label_name(0), "r");
  EXPECT_EQ(t.label_name(1), "a");
  EXPECT_EQ(t.label_name(3), "b");
}

TEST(GeneratorTest, RandomTreeRespectsSizeAndLabels) {
  util::Rng rng(1);
  Tree t = RandomTree(rng, 200, {"x", "y"});
  EXPECT_EQ(t.size(), 200);
  for (NodeId n = 0; n < t.size(); ++n) {
    EXPECT_TRUE(t.label_name(n) == "x" || t.label_name(n) == "y");
  }
}

TEST(GeneratorTest, RandomBoundedArity) {
  util::Rng rng(5);
  Tree t = RandomBoundedArityTree(rng, 300, {"a"}, 2);
  EXPECT_EQ(t.size(), 300);
  EXPECT_LE(MaxArity(t), 2);
}

TEST(GeneratorTest, PaperTrees) {
  EXPECT_EQ(ToDebugString(PaperExample32Tree()), "a(a,a,a)");
  EXPECT_EQ(ToDebugString(PaperFigure1Tree()), "a(a,a(a,a),a)");
  EXPECT_EQ(ToDebugString(PaperExample49Tree()), "a(a,a)");
}

TEST(RankedAlphabetTest, ValidatesArity) {
  RankedAlphabet sigma;
  sigma.Declare("f", 2);
  sigma.Declare("g", 1);
  sigma.Declare("c", 0);
  EXPECT_EQ(sigma.MaxRank(), 2);
  EXPECT_EQ(sigma.RankOf("f"), 2);
  EXPECT_EQ(sigma.RankOf("nope"), -1);

  TreeBuilder b;
  NodeId r = b.Root("f");
  NodeId g = b.Child(r, "g");
  b.Child(g, "c");
  b.Child(r, "c");
  Tree ok = b.Build();
  EXPECT_TRUE(sigma.Validate(ok).ok());

  TreeBuilder b2;
  NodeId r2 = b2.Root("f");
  b2.Child(r2, "c");
  Tree bad = b2.Build();  // f should have 2 children
  EXPECT_FALSE(sigma.Validate(bad).ok());
}

TEST(RankedAlphabetTest, MaxArityCheck) {
  Tree t = PaperExample32Tree();  // root has 3 children
  EXPECT_TRUE(ValidateMaxArity(t, 3).ok());
  EXPECT_FALSE(ValidateMaxArity(t, 2).ok());
}

TEST(SerializeTest, SimpleXml) {
  TreeBuilder b;
  NodeId r = b.Root("item");
  NodeId name = b.Child(r, "name");
  b.SetText(name, "Widget <1> & \"co\"");
  Tree t = b.Build();
  std::string xml = ToXml(t, -1);
  EXPECT_EQ(xml,
            "<item><name>Widget &lt;1&gt; &amp; &quot;co&quot;</name></item>");
}

TEST(SerializeTest, IndentedXmlHasNewlines) {
  Tree t = SmallTree();
  std::string xml = ToXml(t, 2);
  EXPECT_NE(xml.find("<a>\n"), std::string::npos);
  EXPECT_NE(xml.find("  <b></b>"), std::string::npos);
}

}  // namespace
}  // namespace mdatalog::tree
