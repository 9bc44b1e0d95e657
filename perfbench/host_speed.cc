#include "perfbench/host_speed.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string_view>
#include <unordered_map>

#include "perfbench/pages.h"

namespace perfbench {

namespace {

constexpr uint64_t kKernelSeed = 0x5eed;

bool IsNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

uint64_t RunKernel(std::string_view text) {
  // Scan: open/close tags with their class attribute, into a parent-linked
  // node array; labels interned as "tag@class".
  std::unordered_map<std::string, int> labels;
  std::vector<int> parent, label;
  std::vector<int> open = {-1};
  for (size_t i = 0; i < text.size();) {
    if (text[i] != '<') {
      ++i;
      continue;
    }
    size_t j = i + 1;
    const bool closing = j < text.size() && text[j] == '/';
    if (closing) ++j;
    size_t k = j;
    while (k < text.size() && IsNameChar(text[k])) ++k;
    const size_t end = text.find('>', k);
    if (end == std::string_view::npos) break;
    std::string name(text.substr(j, k - j));
    const size_t cls = text.substr(k, end - k).find("class=");
    if (cls != std::string_view::npos) {
      size_t c = k + cls + 6;
      name += '@';
      while (c < end && text[c] != ' ') name += text[c++];
    }
    if (closing) {
      if (open.size() > 1) open.pop_back();
    } else if (k > j) {
      const int id = static_cast<int>(parent.size());
      parent.push_back(open.back());
      label.push_back(
          labels.emplace(std::move(name), static_cast<int>(labels.size()))
              .first->second);
      open.push_back(id);
    }
    i = end + 1;
  }

  // Mark: nodes of one label and their descendants, over word bitsets.
  const size_t n = parent.size();
  std::vector<uint64_t> marked((n + 63) / 64, 0);
  uint64_t sum = 0;
  for (int target = 0; target < static_cast<int>(labels.size()); ++target) {
    std::fill(marked.begin(), marked.end(), 0);
    for (size_t v = 0; v < n; ++v) {
      const int p = parent[v];
      const bool hit =
          label[v] == target || (p >= 0 && ((marked[p / 64] >> (p % 64)) & 1));
      if (hit) marked[v / 64] |= uint64_t{1} << (v % 64);
    }
    for (uint64_t w : marked) sum += static_cast<uint64_t>(__builtin_popcountll(w));
  }

  // Render: the labels in sorted order with their counts, as text.
  std::vector<std::pair<std::string, int>> sorted(labels.begin(), labels.end());
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (size_t v = 0; v < n; ++v) {
    out += "<n l=\"";
    out += sorted[static_cast<size_t>(label[v]) % sorted.size()].first;
    out += "\"/>";
  }
  return sum + out.size();
}

}  // namespace

HostSpeed::HostSpeed() {
  // Two pages of different shape and size: a flat catalog and a deeply
  // nested board, the larger one beyond the L2 cache of common hosts.
  Rng rng(kKernelSeed);
  pages_.push_back(MakePage(Family::kCatalog, rng, 128 << 10));
  pages_.push_back(MakePage(Family::kBoard, rng, 256 << 10));
  MeasureMs();  // first touch: allocator and caches
}

double HostSpeed::MeasureMs() {
  const auto t0 = std::chrono::steady_clock::now();
  for (const std::string& page : pages_) checksum_ += RunKernel(page);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace perfbench
