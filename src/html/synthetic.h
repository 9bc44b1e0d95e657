#pragma once

#include <string>

#include "src/util/rng.h"

/// \file synthetic.h
/// Synthetic Web document generators.
///
/// The paper's motivating workloads are live Web pages (the Lixto demos wrap
/// eBay-style listings). This environment has no network access, so these
/// generators produce parameterized HTML with realistic nesting and layout
/// noise; the wrapper code paths (parse → document tree → monadic datalog /
/// Elog⁻ evaluation) are identical to wrapping real pages — only the byte
/// source differs (see DESIGN.md, substitutions).

namespace mdatalog::html {

struct CatalogOptions {
  int32_t num_items = 10;
  /// Insert advertisement rows between items (layout noise wrappers must
  /// skip).
  bool with_ads = false;
  /// Use an alternative page skeleton (extra wrapper divs, moved navigation)
  /// to exercise wrapper robustness under layout change.
  bool alt_layout = false;
};

/// An eBay-style product listing: a table of items, each row with name,
/// price and seller cells (class attributes name the roles).
std::string ProductCatalogPage(util::Rng& rng, const CatalogOptions& options);

/// A news index: repeated <div class=article> blocks with headline link,
/// summary paragraph and date span.
std::string NewsIndexPage(util::Rng& rng, int32_t num_articles);

}  // namespace mdatalog::html
