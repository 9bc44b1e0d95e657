// Deterministic fuzzing of the streaming front (runs under ASan in the
// sanitizer presets and under TSan via the `tsan` label): seeded byte-level
// mutations of real pages, fed chunk-wise through StreamSession. The
// contract on arbitrary garbage is exact: never crash, fail only with typed
// statuses, and — success or failure — agree with batch Wrap on the same
// bytes.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/elog/ast.h"
#include "src/html/synthetic.h"
#include "src/runtime/runtime.h"
#include "src/stream/stream_session.h"
#include "src/util/rng.h"
#include "src/util/status.h"
#include "src/wrapper/wrapper.h"
#include "tests/support/fixtures.h"

namespace {

using namespace mdatalog;

wrapper::Wrapper FuzzWrapper() {
  auto program = elog::ParseElog(R"(
    anynode(X) <- root(X).
    anynode(X) <- anynode(P), subelem(P, "_", X).
    adiv(X) <- anynode(P), subelem(P, "div", X).
    aleaf(X) <- anynode(P), subelem(P, "_", X), leaf(X).
  )");
  EXPECT_TRUE(program.ok());
  wrapper::Wrapper w;
  w.program = *program;
  w.extraction_patterns = {"adiv", "aleaf"};
  return w;
}

/// Small, structure-rich bases; every mutant stays ≤ ~2KB so the whole corpus
/// is cheap even single-threaded under sanitizers.
std::vector<std::string> BasePages() {
  std::vector<std::string> pages = {
      "<div class=\"a\"><ul><li>x<li>y &amp; z</ul>"
      "<!-- c --><script>a<b</script><p>tail</p></div>",
      "lead<div><div id='q'>deep</div></div><br>trail",
      "<table><tr><td>1</td><td>2<tr><td>3</table>",
  };
  util::Rng rng(99);
  pages.push_back(html::NestedBoardPage(rng, 2, 3));
  return pages;
}

/// One seeded mutation pass: byte flips, insertions of markup-significant
/// bytes, duplications and truncations.
std::string Mutate(const std::string& base, util::Rng& rng) {
  static const std::string kMarkup = "<>&\"'=/!-;# \tli";
  std::string s = base;
  const int32_t edits = 1 + static_cast<int32_t>(rng.Below(6));
  for (int32_t e = 0; e < edits && !s.empty(); ++e) {
    const size_t pos = rng.Below(s.size());
    switch (rng.Below(4)) {
      case 0:  // flip to a markup-significant byte
        s[pos] = kMarkup[rng.Below(kMarkup.size())];
        break;
      case 1:  // insert one
        s.insert(s.begin() + pos, kMarkup[rng.Below(kMarkup.size())]);
        break;
      case 2:  // duplicate a small span
        s.insert(pos, s.substr(pos, 1 + rng.Below(8)));
        break;
      case 3:  // truncate the tail (mid-construct EOF)
        if (rng.Chance(3, 10)) s.resize(pos);
        break;
    }
  }
  return s;
}

std::vector<std::string> ChunkUp(const std::string& page, util::Rng& rng) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < page.size()) {
    const size_t n = 1 + rng.Below(13);
    out.push_back(page.substr(i, n));
    i += n;
  }
  return out;
}

TEST(StreamFuzzTest, MutatedPagesNeverCrashAndAlwaysAgreeWithBatch) {
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(FuzzWrapper(), "class");
  ASSERT_TRUE(handle.ok());

  const std::vector<std::string> bases = BasePages();
  util::Rng rng(20260808);
  int32_t checked = 0;
  for (int32_t round = 0; round < 60; ++round) {
    const std::string mutant = Mutate(bases[round % bases.size()], rng);
    const std::string context =
        "round " + std::to_string(round) + " input: " + mutant;

    auto batch = rt.Wrap(*handle, mutant);

    size_t emitted = 0;
    stream::StreamOptions options;
    options.on_result = [&emitted](const stream::StreamResult&) { ++emitted; };
    auto session = rt.SubmitStream({.wrapper = *handle}, std::move(options));
    ASSERT_TRUE(session.ok()) << context;
    util::Status feed_status;
    for (const std::string& chunk : ChunkUp(mutant, rng)) {
      feed_status = (*session)->Feed(chunk);
      if (!feed_status.ok()) break;
    }
    // Feeding arbitrary bytes never fails without a deadline/cancel bound:
    // the tokenizer is total on malformed markup.
    EXPECT_TRUE(feed_status.ok()) << context;

    auto streamed = (*session)->Finish();
    ASSERT_EQ(streamed.ok(), batch.ok()) << context;
    if (batch.ok()) {
      EXPECT_EQ(*streamed, *batch) << context;
      ++checked;
    } else {
      // Same typed failure (kInvalidArgument for content-free pages), never
      // a crash or an untyped state.
      EXPECT_EQ(streamed.status().code(), batch.status().code()) << context;
      EXPECT_EQ(emitted, 0u) << context;
    }
  }
  // The corpus is useful only if most mutants still wrap successfully.
  EXPECT_GT(checked, 30);
}

TEST(StreamFuzzTest, TruncationAtEveryByteOfASmallPageAgreesWithBatch) {
  // Exhaustive prefix truncation: EOF lands inside every construct the page
  // has (tag name, attribute, quoted value, entity, comment, script body).
  const std::string page =
      "<!DOCTYPE html><div class=\"a&amp;b\"><!-- x --><script>1<2</script>"
      "<p>t &lt; u<li>v</div>";
  runtime::WrapperRuntime rt;
  auto handle = rt.Register(FuzzWrapper(), "class");
  ASSERT_TRUE(handle.ok());
  for (size_t cut = 0; cut <= page.size(); ++cut) {
    const std::string prefix = page.substr(0, cut);
    auto batch = rt.Wrap(*handle, prefix);
    auto session = rt.SubmitStream({.wrapper = *handle}, {});
    ASSERT_TRUE(session.ok());
    // Two-chunk split in the middle of the prefix, for variety.
    if (cut > 1) {
      ASSERT_TRUE((*session)->Feed(prefix.substr(0, cut / 2)).ok());
      ASSERT_TRUE((*session)->Feed(prefix.substr(cut / 2)).ok());
    } else if (cut == 1) {
      ASSERT_TRUE((*session)->Feed(prefix).ok());
    }
    auto streamed = (*session)->Finish();
    ASSERT_EQ(streamed.ok(), batch.ok()) << "cut at " << cut;
    if (batch.ok()) {
      EXPECT_EQ(*streamed, *batch) << "cut at " << cut;
    } else {
      EXPECT_EQ(streamed.status().code(), batch.status().code())
          << "cut at " << cut;
    }
  }
}

}  // namespace
