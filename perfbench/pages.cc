#include "perfbench/pages.h"

namespace perfbench {

namespace {

const char* kProducts[] = {"Vintage Camera",   "Mechanical Keyboard",
                           "Road Bike",        "Espresso Machine",
                           "Antique Clock",    "USB Microscope",
                           "Graphing Calculator", "Noise-cancelling Phones"};
const char* kSellers[] = {"alice_shop", "bob-trading", "carol&amp;sons",
                          "deals4u", "ebay_pro"};
const char* kHeadlines[] = {"Local Team Wins Championship",
                            "New Library Opens Downtown",
                            "Council Approves Budget",
                            "Startup Raises Series A",
                            "Museum Announces Exhibit"};
const char* kUsers[] = {"ann", "ben", "cho", "dev", "eli", "fay"};

template <size_t N>
const char* Pick(Rng& rng, const char* (&words)[N]) {
  return words[rng.Below(N)];
}

constexpr char kHtmlOpen[] = "<html data-req=\"00000000\">";

std::string CatalogPage(Rng& rng, size_t target, const std::string& preamble) {
  std::string out = std::string("<!DOCTYPE html>\n") + kHtmlOpen +
                    "\n<head><title>Catalog</title></head>\n<body>\n"
                    "<div class=header><h1>MegaMart</h1></div>\n"
                    "<ul class=nav><li>Home<li>Deals<li>Contact</ul>\n" +
                    preamble +
                    "<table class=items>\n"
                    "<tr class=head><th>Item</th><th>Price</th>"
                    "<th>Seller</th></tr>\n";
  for (int i = 1; out.size() < target; ++i) {
    if (rng.Below(5) == 0) {
      out += "<tr class=ad><td colspan=3><b>Sponsored:</b> buy more "
             "things!</td></tr>\n";
    }
    out += "<tr class=item><td class=name>";
    out += Pick(rng, kProducts);
    out += " #" + std::to_string(i) + "</td><td class=price>$" +
           std::to_string(5 + rng.Below(995)) + "." +
           std::to_string(10 + rng.Below(90)) + "</td><td class=seller>";
    out += Pick(rng, kSellers);
    out += "</td></tr>\n";
  }
  out += "</table>\n<div class=footer>&copy; MegaMart</div>\n"
         "</body>\n</html>\n";
  return out;
}

std::string NewsPage(Rng& rng, size_t target, const std::string& preamble) {
  std::string out = std::string(kHtmlOpen) +
                    "<head><title>The Daily</title></head><body>"
                    "<div class=masthead><h1>The Daily</h1></div>" +
                    preamble;
  for (int story = 1, section = 1; out.size() < target; ++section) {
    out += "<div class=section><h3>Section " + std::to_string(section) +
           "</h3>";
    const int articles = 3 + static_cast<int>(rng.Below(10));
    for (int a = 0; a < articles; ++a, ++story) {
      out += "<div class=article><h2><a href=\"/s/" + std::to_string(story) +
             "\">";
      out += Pick(rng, kHeadlines);
      out += "</a></h2><p class=summary>Story " + std::to_string(story) +
             ": something happened, sources say.</p><span class=date>"
             "2026-06-" +
             std::to_string(10 + rng.Below(19)) + "</span></div>";
    }
    out += "</div>";
  }
  out += "<div class=footer>All the news that fits.</div></body></html>";
  return out;
}

void BoardReplies(Rng& rng, int depth, int* post, std::string* out) {
  const int replies = 1 + static_cast<int>(rng.Below(3));
  for (int r = 0; r < replies; ++r) {
    *out += "<li><span class=post>post " + std::to_string(++*post) + " by ";
    *out += Pick(rng, kUsers);
    *out += "</span>";
    if (depth > 0 && rng.Below(3) != 0) {
      *out += "<ul class=replies>";
      BoardReplies(rng, depth - 1, post, out);
      *out += "</ul>";
    }
    *out += "</li>";
  }
}

std::string BoardPage(Rng& rng, size_t target, const std::string& preamble) {
  std::string out = std::string(kHtmlOpen) +
                    "<head><title>Forum</title></head><body><h1>Forum</h1>" +
                    preamble;
  int post = 0;
  while (out.size() < target) {
    out += "<ul class=thread>";
    BoardReplies(rng, 4, &post, &out);
    out += "</ul>";
  }
  out += "</body></html>";
  return out;
}

}  // namespace

// `anynode` reaches every node, so each wrapper visits the whole tree: the
// per-page cost is the paper's O(|P|·|dom|), not a short fixed path.
const char* WrapperText(Family family) {
  switch (family) {
    case Family::kCatalog:
      return R"(%! extract: item, name, price
anynode(X) <- root(X).
anynode(X) <- anynode(P), subelem(P, "_", X).
item(X)  <- anynode(P), subelem(P, "tr@item", X).
name(Y)  <- item(X), subelem(X, "td@name", Y).
price(Y) <- item(X), subelem(X, "td@price", Y).
)";
    case Family::kNews:
      return R"(%! extract: story, headline, lead
anynode(X)  <- root(X).
anynode(X)  <- anynode(P), subelem(P, "_", X).
story(X)    <- anynode(P), subelem(P, "div@article", X).
headline(Y) <- story(X), subelem(X, "h2.a", Y).
lead(X)     <- anynode(P), subelem(P, "div@article", X),
               notafter(P, "div@article", X).
)";
    case Family::kBoard:
      return R"(%! extract: thread, post
anynode(X) <- root(X).
anynode(X) <- anynode(P), subelem(P, "_", X).
thread(X)  <- anynode(P), subelem(P, "ul@thread", X).
post(Y)    <- anynode(P), subelem(P, "li.span@post", Y).
)";
  }
  return "";
}

std::string MakePage(Family family, Rng& rng, size_t target_bytes,
                     size_t preamble_bytes) {
  std::string preamble;
  if (preamble_bytes > 0) {
    preamble = "<div class=nav>";
    for (int i = 1; preamble.size() < preamble_bytes; ++i) {
      preamble += "<a href=\"/c/" + std::to_string(rng.Below(1000)) +
                  "\">Category " + std::to_string(i) + "</a>\n";
    }
    preamble += "</div>\n";
  }
  switch (family) {
    case Family::kCatalog:
      return CatalogPage(rng, target_bytes, preamble);
    case Family::kNews:
      return NewsPage(rng, target_bytes, preamble);
    case Family::kBoard:
      return BoardPage(rng, target_bytes, preamble);
  }
  return "";
}

size_t CounterOffset(const std::string& page) {
  return page.find("data-req=\"") + 10;
}

void WriteCounter(std::string& page, size_t offset, uint64_t value) {
  for (size_t i = kCounterWidth; i-- > 0; value /= 10) {
    page[offset + i] = static_cast<char>('0' + value % 10);
  }
}

}  // namespace perfbench
