#include "src/html/synthetic.h"

#include "src/util/check.h"

namespace mdatalog::html {

namespace {

const char* kProductNames[] = {"Vintage Camera", "Mechanical Keyboard",
                               "Graphing Calculator", "Road Bike",
                               "Espresso Machine", "Noise-cancelling Phones",
                               "Antique Clock", "USB Microscope"};
const char* kSellers[] = {"alice_shop", "bob-trading", "carol&sons",
                          "deals4u", "ebay_pro"};
const char* kHeadlines[] = {"Local Team Wins Championship",
                            "New Library Opens Downtown",
                            "Council Approves Budget",
                            "Startup Raises Series A",
                            "Museum Announces Exhibit"};

std::string Price(util::Rng& rng) {
  return "$" + std::to_string(5 + rng.Below(995)) + "." +
         std::to_string(10 + rng.Below(90));
}

}  // namespace

std::string ProductCatalogPage(util::Rng& rng, const CatalogOptions& options) {
  std::string out =
      "<!DOCTYPE html>\n<html>\n<head><title>Catalog</title>"
      "<style>.price { color: green; }</style></head>\n<body>\n";
  if (options.alt_layout) {
    out += "<div class=chrome><div class=banner>MegaMart</div>"
           "<ul class=nav><li>Home<li>Deals<li>Contact</ul></div>\n";
  } else {
    out += "<div class=header><h1>MegaMart Catalog</h1></div>\n"
           "<ul class=nav><li>Home<li>Deals<li>Contact</ul>\n";
  }
  if (options.alt_layout) out += "<div class=content-wrapper>\n";
  out += "<table class=items>\n";
  out += "<tr class=head><th>Item</th><th>Price</th><th>Seller</th></tr>\n";
  for (int32_t i = 0; i < options.num_items; ++i) {
    if (options.with_ads && i > 0 && i % 3 == 0) {
      out += "<tr class=ad><td colspan=3><b>Sponsored:</b> Buy more "
             "things!</td></tr>\n";
    }
    const char* name = kProductNames[rng.Below(std::size(kProductNames))];
    const char* seller = kSellers[rng.Below(std::size(kSellers))];
    out += "<tr class=item>";
    out += "<td class=name>" + std::string(name) + " #" +
           std::to_string(i + 1) + "</td>";
    out += "<td class=price>" + Price(rng) + "</td>";
    out += "<td class=seller>" + std::string(seller) + "</td>";
    out += "</tr>\n";
  }
  out += "</table>\n";
  if (options.alt_layout) out += "</div>\n";
  out += "<div class=footer>&copy; MegaMart &amp; partners</div>\n";
  out += "</body>\n</html>\n";
  return out;
}

std::string NewsIndexPage(util::Rng& rng, int32_t num_articles) {
  std::string out =
      "<html><head><title>The Daily Synthetic</title></head><body>"
      "<div class=masthead><h1>The Daily Synthetic</h1></div>"
      "<div class=stories>";
  for (int32_t i = 0; i < num_articles; ++i) {
    const char* headline = kHeadlines[rng.Below(std::size(kHeadlines))];
    out += "<div class=article>";
    out += "<h2><a href=\"/story/" + std::to_string(i) + "\">" +
           std::string(headline) + "</a></h2>";
    out += "<p class=summary>Story " + std::to_string(i + 1) +
           ": something happened, sources say.</p>";
    out += "<span class=date>2026-06-" +
           std::to_string(1 + rng.Below(28)) + "</span>";
    out += "</div>";
  }
  out += "</div><div class=footer>All the news that fits.</div>"
         "</body></html>";
  return out;
}

}  // namespace mdatalog::html
