// Section 7: Core XPath compiled to monadic datalog. Queries over a
// synthetic news page, answered by the Theorem 4.2 linear-time engine, with
// the generated program shown for one of them.

#include <cstdio>
#include <utility>

#include "src/core/grounder.h"
#include "src/html/parser.h"
#include "src/html/synthetic.h"
#include "src/util/rng.h"
#include "src/xpath/xpath.h"

int main() {
  using namespace mdatalog;

  util::Rng rng(4);
  auto parsed = html::ParseTree(html::NewsIndexPage(rng, 5), "class");
  if (!parsed.ok()) return 1;
  const tree::Tree t = *std::move(parsed);

  const char* queries[] = {
      "//div@article",
      "//div@article/h2/a",
      "//div@article[span@date]",
      "//div@article[following-sibling::div@article]",
      "//h2/ancestor::div@article",
      "//div@article[not(h2)]",  // negation: one more ground-plan stratum
  };
  for (const char* q : queries) {
    auto result = xpath::EvalXPath(t, q);
    if (!result.ok()) {
      std::printf("%-55s ERROR: %s\n", q, result.status().ToString().c_str());
      continue;
    }
    std::printf("%-55s -> %zu nodes\n", q, result->size());
  }

  auto path = xpath::ParseXPath("//div@article[span@date]");
  auto program = xpath::XPathToDatalog(*path);
  if (!program.ok()) return 1;
  std::printf(
      "\nthe second-to-last positive query compiles to %zu monadic datalog "
      "rules\nover tau_ur (groundable: %s); first rules:\n",
      program->rules().size(),
      core::GroundableOverTree(*program) ? "yes" : "no");
  for (size_t i = 0; i < program->rules().size() && i < 6; ++i) {
    std::printf("  %s\n",
                core::ToString(*program, program->rules()[i]).c_str());
  }
  std::printf("  ...\n");
  return 0;
}
