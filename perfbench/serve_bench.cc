// The serving benchmark: drives mdatalog::runtime::WrapperRuntime from
// outside, through its public calls, on seeded synthetic pages, and prints
// one JSON result line. See perfbench/README.md for the workloads, the
// metrics and what each layer metric should move.
//
// Usage: serve_bench --workload <cold_crawl|warm_recrawl|stream_pages>
//                    [--seed N] [--seconds S] [--trace 0|1]
//                    [--digests FILE] [--print-digest]
//
// --trace 0 times whole requests (the end-to-end metrics); --trace 1 replays
// each request layer by layer through the layers' own public functions (the
// per-layer metrics). --digests names the committed digests of the default
// seed's reference outputs; --print-digest prints this build's digest for
// the workload and exits.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perfbench/host_speed.h"
#include "perfbench/pages.h"
#include "src/core/grounder.h"
#include "src/elog/eval.h"
#include "src/html/parser.h"
#include "src/html/tokenizer.h"
#include "src/runtime/document_cache.h"
#include "src/runtime/runtime.h"
#include "src/stream/stream_session.h"
#include "src/tree/serialize.h"
#include "src/util/hash.h"
#include "src/wrapper/wrapper.h"

namespace perfbench {
namespace {

using mdatalog::core::GroundArena;
using mdatalog::core::GroundStats;
using mdatalog::elog::ElogResult;
using mdatalog::runtime::CachedDocument;
using mdatalog::runtime::CompiledWrapperProgram;
using mdatalog::runtime::DocumentCache;
using mdatalog::runtime::DocumentCacheOptions;
using mdatalog::runtime::PageRef;
using mdatalog::runtime::Request;
using mdatalog::runtime::RuntimeOptions;
using mdatalog::runtime::RuntimeStats;
using mdatalog::runtime::WrapperHandle;
using mdatalog::runtime::WrapperRuntime;
namespace html = mdatalog::html;
namespace stream = mdatalog::stream;
namespace tree = mdatalog::tree;
namespace util = mdatalog::util;
namespace wrapper = mdatalog::wrapper;

constexpr uint64_t kDefaultSeed = 1;
// Set-up (construction, Register, warm-up) is repeated and its median
// reported: one set-up is too short a sample to compare across runs.
constexpr int kSetupReps = 5;
// p99 then has at least 10 samples above it.
constexpr int64_t kMinRequests = 1000;
constexpr size_t kChunkBytes = 4096;
const std::string kProjectAttr = "class";

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}
double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// A field of /proc/self/status, in kB (-1 when unreadable).
int64_t ProcStatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::atoll(line.c_str() + n + 1);
    }
  }
  return -1;
}

/// Resets the RSS high-water mark to the current RSS.
bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

uint64_t Fnv1a(uint64_t h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  std::vector<Family> families;  // page i is of family i mod size
  int pages = 0;
  size_t min_bytes = 0;
  size_t max_bytes = 0;
  size_t max_preamble_bytes = 0;  // navigation before the first record
  bool unique_requests = false;  // fresh counter per request: every cache misses
  bool stream = false;           // SubmitStream + Feed + Finish instead of Wrap
  int warmup_passes = 1;
  RuntimeOptions options;
};

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  // One closed-loop client on one runtime thread. Telemetry is off in every
  // workload: its cost has its own bench (bench/bench_telemetry.cc) and the
  // trace ring adds noise here.
  w.options.num_threads = 1;
  w.options.telemetry.enabled = false;
  if (name == "cold_crawl" || name == "warm_recrawl") {
    // An odd number of pages, each 1/51 of the requests: the p50 sits in
    // the middle of one page's samples and so does the p99, in those of the
    // most expensive page.
    w.families = {Family::kCatalog, Family::kNews, Family::kBoard};
    w.pages = 51;
    w.min_bytes = 2 << 10;
    w.max_bytes = 128 << 10;
    if (name == "cold_crawl") {
      // Default options; warm-up fills the 64MB document cache and the
      // 16MB memo until both evict.
      w.unique_requests = true;
      w.warmup_passes = 12;
    } else {
      w.options.result_memo.byte_budget = 0;
      w.options.document_cache.byte_budget = int64_t{512} << 20;
      w.warmup_passes = 2;
    }
    return w;
  }
  if (name == "stream_pages") {
    w.families = {Family::kCatalog, Family::kBoard};
    w.pages = 51;
    w.min_bytes = 32 << 10;
    w.max_bytes = 256 << 10;
    // The first result waits for the preamble, so time to first result
    // differs by page and its p99 is a page's, not a timing outlier's.
    w.max_preamble_bytes = 16 << 10;
    w.stream = true;
    w.warmup_passes = 1;
    return w;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

struct PoolPage {
  Family family = Family::kCatalog;
  std::string html;
  size_t counter_offset = 0;
  std::string reference;  // expected output XML
  // Exact per-page work, from the library's own counts.
  int64_t nodes = 0;
  int64_t clauses = 0;
  int64_t derived = 0;
};

struct Pool {
  std::vector<PoolPage> pages;
  std::vector<int> schedule;  // one pass: every page once
  std::vector<wrapper::Wrapper> wrappers;  // indexed by Family
};

uint64_t SubSeed(uint64_t seed, uint64_t a, uint64_t b) {
  Rng rng(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL));
  return rng.Next();
}

bool MakePool(const WorkloadSpec& spec, uint64_t seed, Pool* pool,
              std::string* error) {
  for (int f = 0; f < kNumFamilies; ++f) {
    auto w = wrapper::ParseWrapperText(WrapperText(static_cast<Family>(f)));
    if (!w.ok()) {
      *error = "wrapper text: " + w.status().ToString();
      return false;
    }
    pool->wrappers.push_back(*std::move(w));
  }
  // Page sizes sit at the midpoints of equal log-width strata and preambles
  // at those of equal-width strata, in another order (7 is prime to the page
  // counts); both are the same for every seed, as are the families and the
  // request order. The seed changes page content only, so runs on different
  // seeds do nearly the same work in the same order.
  const double ratio = static_cast<double>(spec.max_bytes) /
                       static_cast<double>(spec.min_bytes);
  const double n = spec.pages;
  for (int i = 0; i < spec.pages; ++i) {
    const auto target = static_cast<size_t>(
        static_cast<double>(spec.min_bytes) * std::pow(ratio, (i + 0.5) / n));
    const auto preamble =
        static_cast<size_t>(static_cast<double>(spec.max_preamble_bytes) *
                            ((i * 7 % spec.pages) + 0.5) / n);
    Rng rng(SubSeed(seed, 1, i));
    PoolPage page;
    page.family = spec.families[i % spec.families.size()];
    page.html = MakePage(page.family, rng, target, preamble);
    page.counter_offset = CounterOffset(page.html);
    pool->pages.push_back(std::move(page));
  }
  Rng order(SubSeed(kDefaultSeed, 99, 0));
  pool->schedule.resize(pool->pages.size());
  for (size_t i = 0; i < pool->schedule.size(); ++i) {
    pool->schedule[i] = static_cast<int>(i);
  }
  for (size_t i = pool->schedule.size(); i > 1; --i) {
    std::swap(pool->schedule[i - 1], pool->schedule[order.Below(i)]);
  }
  return true;
}

/// Reference outputs come from a runtime with both caches off and the native
/// Elog engine forced, so they depend on neither cache nor on the grounded
/// engine the timed runtime uses for catalog and board pages.
bool ComputeReferences(Pool* pool, std::string* error) {
  RuntimeOptions options;
  options.engine = RuntimeOptions::EngineMode::kNativeElog;
  options.document_cache.byte_budget = 0;
  options.result_memo.byte_budget = 0;
  options.telemetry.enabled = false;
  WrapperRuntime rt(options);
  std::vector<WrapperHandle> handles;
  for (const wrapper::Wrapper& w : pool->wrappers) {
    auto h = rt.Register(w, kProjectAttr);
    if (!h.ok()) {
      *error = "reference Register: " + h.status().ToString();
      return false;
    }
    handles.push_back(*std::move(h));
  }
  GroundArena arena;
  for (PoolPage& page : pool->pages) {
    const WrapperHandle& h = handles[static_cast<int>(page.family)];
    auto xml = rt.Wrap(h, page.html);
    if (!xml.ok()) {
      *error = "reference Wrap: " + xml.status().ToString();
      return false;
    }
    page.reference = *std::move(xml);
    auto doc = CachedDocument::Parse(page.html, kProjectAttr);
    if (!doc.ok()) {
      *error = "reference parse: " + doc.status().ToString();
      return false;
    }
    page.nodes = (*doc)->tree().size();
    if (h.program->has_ground_plan) {
      GroundStats stats;
      auto eval = mdatalog::core::EvaluateGrounded(
          *h.program->ground_plan, (*doc)->tree(), &arena, &stats);
      if (!eval.ok()) {
        *error = "reference grounded count: " + eval.status().ToString();
        return false;
      }
      page.clauses = stats.num_clauses;
      page.derived = eval->num_derived();
    }
  }
  return true;
}

uint64_t ReferenceDigest(const Pool& pool) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const PoolPage& page : pool.pages) {
    h = Fnv1a(h, page.reference);
    h = Fnv1a(h, std::string_view("\0", 1));
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The committed digest for `workload`, or "" when the file has none.
std::string CommittedDigest(const std::string& path,
                            const std::string& workload) {
  std::ifstream in(path);
  std::string name, digest;
  while (in >> name >> digest) {
    if (name == workload) return digest;
  }
  return "";
}

// ---------------------------------------------------------------------------
// The timed client
// ---------------------------------------------------------------------------

/// On workloads of unique requests, gives the page the next counter value.
void NextCounter(const WorkloadSpec& spec, PoolPage& page, uint64_t* counter) {
  if (spec.unique_requests) {
    WriteCounter(page.html, page.counter_offset, ++*counter);
  }
}

/// Exact work of one pass over the schedule. Every pass of a run does the
/// same work, so every pass must produce the same counters.
struct PassCounters {
  int64_t requests = 0;
  int64_t bytes = 0;
  int64_t nodes = 0;
  int64_t ground_clauses = 0;
  int64_t derived_atoms = 0;
  int64_t output_bytes = 0;
  int64_t doc_cache_hits = 0;
  int64_t doc_cache_misses = 0;
  int64_t memo_hits = 0;
  int64_t grounded_evals = 0;
  int64_t native_evals = 0;
  int64_t stream_results = 0;
  int64_t bytes_until_first_result = 0;
  bool operator==(const PassCounters&) const = default;

  std::string Json() const {
    std::ostringstream o;
    o << "{\"requests\": " << requests << ", \"bytes\": " << bytes
      << ", \"nodes\": " << nodes << ", \"ground_clauses\": " << ground_clauses
      << ", \"derived_atoms\": " << derived_atoms
      << ", \"output_bytes\": " << output_bytes
      << ", \"doc_cache_hits\": " << doc_cache_hits
      << ", \"doc_cache_misses\": " << doc_cache_misses
      << ", \"memo_hits\": " << memo_hits
      << ", \"grounded_evals\": " << grounded_evals
      << ", \"native_evals\": " << native_evals
      << ", \"stream_results\": " << stream_results
      << ", \"bytes_until_first_result\": " << bytes_until_first_result
      << "}";
    return o.str();
  }
};

struct Samples {
  std::vector<double> latency_us;
  std::vector<double> ttfr_us;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// One closed-loop client over one runtime: one request at a time on the
/// calling thread.
class Client {
 public:
  Client(const WorkloadSpec& spec, Pool* pool, uint64_t* counter)
      : spec_(spec), pool_(pool), counter_(counter) {}

  /// Builds the runtime, registers every wrapper and runs the warm-up
  /// passes, calling `after_each` after each warm-up request.
  bool SetUp(const std::function<void(PoolPage&)>& after_each,
             std::string* error) {
    rt_ = std::make_unique<WrapperRuntime>(spec_.options);
    for (Family family : spec_.families) {
      auto h = rt_->Register(pool_->wrappers[static_cast<int>(family)],
                             kProjectAttr);
      if (!h.ok()) {
        *error = "Register: " + h.status().ToString();
        return false;
      }
      handles_[static_cast<int>(family)] = *std::move(h);
    }
    Samples warmup;
    for (int p = 0; p < spec_.warmup_passes; ++p) {
      RunPass(&warmup, nullptr, after_each);
    }
    if (warmup.failed > 0) {
      *error = "warm-up: " + std::to_string(warmup.failed) + " of " +
               std::to_string(warmup.attempted) + " requests failed";
      return false;
    }
    return true;
  }

  void TearDown() { rt_.reset(); }

  /// Serves every page of the schedule once, calling `after_each` with the
  /// page after each request. `counters` may be null.
  void RunPass(Samples* samples, PassCounters* counters,
               const std::function<void(PoolPage&)>& after_each) {
    const RuntimeStats before = rt_->stats();
    PassCounters c;
    for (int index : pool_->schedule) {
      PoolPage& page = pool_->pages[index];
      Serve(page, samples, &c);
      if (after_each) after_each(page);
    }
    if (counters == nullptr) return;
    const RuntimeStats after = rt_->stats();
    c.doc_cache_hits = after.document_cache.hits - before.document_cache.hits;
    c.doc_cache_misses =
        after.document_cache.misses - before.document_cache.misses;
    c.memo_hits = after.memo_hits - before.memo_hits;
    c.grounded_evals = after.grounded_evals - before.grounded_evals;
    c.native_evals = after.native_evals - before.native_evals;
    *counters = c;
  }

  WrapperRuntime& runtime() { return *rt_; }
  const WrapperHandle& handle(Family family) const {
    return handles_[static_cast<int>(family)];
  }

 private:
  /// One timed request; its outcome is checked after the clock stops.
  void Serve(PoolPage& page, Samples* samples, PassCounters* c) {
    ++samples->attempted;
    ++c->requests;
    c->bytes += static_cast<int64_t>(page.html.size());
    c->nodes += page.nodes;
    c->ground_clauses += page.clauses;
    c->derived_atoms += page.derived;
    const bool ok = spec_.stream ? ServeStream(page, samples, c)
                                 : ServeBatch(page, samples, c);
    if (!ok) ++samples->failed;
  }

  bool ServeBatch(PoolPage& page, Samples* samples, PassCounters* c) {
    NextCounter(spec_, page, counter_);
    const WrapperHandle& h = handle(page.family);
    const int64_t t0 = NowNs();
    util::Result<std::string> xml = rt_->Wrap(h, page.html);
    const int64_t t1 = NowNs();
    samples->latency_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (!xml.ok()) return false;
    c->output_bytes += static_cast<int64_t>(xml->size());
    return *xml == page.reference;
  }

  bool ServeStream(PoolPage& page, Samples* samples, PassCounters* c) {
    NextCounter(spec_, page, counter_);
    int64_t first_ns = -1;
    int64_t fed = 0;
    int64_t first_fed = 0;
    int64_t results = 0;
    stream::StreamOptions options;
    options.on_result = [&](const stream::StreamResult&) {
      if (first_ns < 0) {
        first_ns = NowNs();
        first_fed = fed;
      }
      ++results;
    };
    const Request request{PageRef{}, handle(page.family), {}};
    const std::string_view bytes = page.html;
    std::optional<util::Result<std::string>> xml;
    const int64_t t0 = NowNs();
    auto session = rt_->SubmitStream(request, std::move(options));
    bool ok = session.ok();
    for (size_t off = 0; ok && off < bytes.size(); off += kChunkBytes) {
      const std::string_view chunk = bytes.substr(off, kChunkBytes);
      fed += static_cast<int64_t>(chunk.size());
      ok = (*session)->Feed(chunk).ok();
    }
    if (ok) xml.emplace((*session)->Finish());
    const int64_t t1 = NowNs();
    samples->latency_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    if (!ok || !xml->ok() || first_ns < 0) return false;
    samples->ttfr_us.push_back(static_cast<double>(first_ns - t0) * 1e-3);
    c->output_bytes += static_cast<int64_t>((*xml)->size());
    c->stream_results += results;
    c->bytes_until_first_result += first_fed;
    return **xml == page.reference;
  }

  const WorkloadSpec& spec_;
  Pool* const pool_;
  uint64_t* const counter_;
  std::unique_ptr<WrapperRuntime> rt_;
  std::array<WrapperHandle, kNumFamilies> handles_;  // indexed by Family
};

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

/// Scales timings to the host speed HostSpeed::kReferenceMs stands for. A
/// phase is cut into slices of at least kSliceNs; the reference kernel runs
/// at every cut, and the timings of a slice are scaled by kReferenceMs over
/// the mean kernel time at its two ends. The kernel's own time is in no
/// slice.
class SpeedNormalizer {
 public:
  static constexpr int64_t kSliceNs = 50'000'000;

  explicit SpeedNormalizer(HostSpeed* host) : host_(host) {}

  /// Samples appended to `samples` from now on are scaled at each cut.
  void Track(std::vector<double>* samples) { tracked_.push_back({samples, 0}); }

  /// Opens the first slice.
  void Start() {
    before_ms_ = host_->MeasureMs();
    Open();
  }

  /// Closes the open slice at the first call after it has lasted kSliceNs
  /// and opens the next.
  void CutIfDue() {
    if (NowNs() - slice_start_ >= kSliceNs) {
      Close();
      Open();
    }
  }

  /// Closes the open slice: runs the kernel and scales the slice.
  void Close() {
    const int64_t end = NowNs();
    const double after_ms = host_->MeasureMs();
    const double factor = HostSpeed::kReferenceMs / ((before_ms_ + after_ms) / 2);
    for (auto& [samples, from] : tracked_) {
      for (size_t i = from; i < samples->size(); ++i) (*samples)[i] *= factor;
    }
    raw_s_ += static_cast<double>(end - slice_start_) * 1e-9;
    wall_s_ += static_cast<double>(end - slice_start_) * 1e-9 * factor;
    kernel_ms_.push_back(after_ms);
    before_ms_ = after_ms;
  }

  /// Opens a slice; its first kernel reading is the last one taken.
  void Open() {
    for (auto& [samples, from] : tracked_) from = samples->size();
    slice_start_ = NowNs();
  }

  /// Scaled and raw time inside slices, in seconds.
  double wall_s() const { return wall_s_; }
  double raw_wall_s() const { return raw_s_; }
  const std::vector<double>& kernel_ms() const { return kernel_ms_; }

 private:
  HostSpeed* const host_;
  std::vector<std::pair<std::vector<double>*, size_t>> tracked_;
  double before_ms_ = 0;
  int64_t slice_start_ = 0;
  double wall_s_ = 0;
  double raw_s_ = 0;
  std::vector<double> kernel_ms_;
};

struct TimedRun {
  Samples samples;  // latencies scaled to the reference host speed
  double wall_s = 0;      // scaled time spent serving
  double raw_wall_s = 0;  // unscaled time spent serving
  std::vector<double> kernel_ms;
  int64_t passes = 0;
  bool counters_exact = true;
  PassCounters counters;  // of one pass
};

/// Closed-loop timed phase: whole passes until `seconds` have elapsed and at
/// least `min_requests` completed.
TimedRun RunTimed(Client* client, HostSpeed* host, double seconds,
                  int64_t min_requests) {
  TimedRun run;
  SpeedNormalizer norm(host);
  norm.Track(&run.samples.latency_us);
  norm.Track(&run.samples.ttfr_us);
  const auto between = [&norm](PoolPage&) { norm.CutIfDue(); };
  const int64_t start = NowNs();
  norm.Start();
  while (static_cast<double>(NowNs() - start) * 1e-9 < seconds ||
         run.samples.attempted < min_requests) {
    PassCounters c;
    client->RunPass(&run.samples, &c, between);
    if (run.passes == 0) {
      run.counters = c;
    } else if (!(c == run.counters)) {
      run.counters_exact = false;
    }
    ++run.passes;
  }
  norm.Close();
  run.wall_s = norm.wall_s();
  run.raw_wall_s = norm.raw_wall_s();
  run.kernel_ms = norm.kernel_ms();
  return run;
}

// ---------------------------------------------------------------------------
// --trace 1: layer-by-layer replay
// ---------------------------------------------------------------------------

/// Per-layer samples by metric name.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  double Median(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0 : perfbench::Median(it->second);
  }
  size_t Count(const std::string& name) const {
    auto it = samples_.find(name);
    return it == samples_.end() ? 0 : it->second.size();
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

double Ns(int64_t a, int64_t b) { return static_cast<double>(b - a); }

class Replayer {
 public:
  Replayer(const WorkloadSpec& spec, Pool* pool, uint64_t* counter,
           Client* client)
      : spec_(spec),
        pool_(pool),
        counter_(counter),
        client_(client),
        cache_(DocumentCacheOptions{.cache = spec.options.document_cache}) {}

  /// Brings the replay's own document cache to the state the runtime's was
  /// in at the end of its warm-up.
  void WarmUp() {
    for (int p = 0; p < spec_.warmup_passes; ++p) {
      for (int index : pool_->schedule) {
        PoolPage& page = pool_->pages[index];
        NextCounter(spec_, page, counter_);
        (void)cache_.GetOrParse(page.html, kProjectAttr);
      }
    }
  }

  /// Replays one request. The request's own path comes first, timed layer
  /// by layer in Wrap's order; layers the workload does not run come after
  /// it, so per-layer numbers exist on every workload.
  void Replay(PoolPage& page) {
    NextCounter(spec_, page, counter_);
    ++attempted_;
    const CompiledWrapperProgram& program =
        *client_->handle(page.family).program;
    bool ok = true;
    if (spec_.stream) {
      ok &= ReplayStream(page, /*on_path=*/true);
      ok &= ReplayBatch(page, program, /*on_path=*/false);
    } else {
      ok &= ReplayBatch(page, program, /*on_path=*/true);
      if (program.has_ground_plan) ok &= ReplayStream(page, false);
    }
    ok &= ReplayHtml(page);
    if (!ok) ++failed_;
  }

  void BeginPhase() { stats_before_ = cache_.stats(); }
  void EndPhase() { stats_after_ = cache_.stats(); }

  const LayerSamples& samples() const { return samples_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const mdatalog::runtime::DocumentCacheStats& before() const {
    return stats_before_;
  }
  const mdatalog::runtime::DocumentCacheStats& after() const {
    return stats_after_;
  }

 private:
  /// hash → doc.fetch → eval → output.build, as in Wrap.
  bool ReplayBatch(const PoolPage& page, const CompiledWrapperProgram& program,
                   bool on_path) {
    const double kb = static_cast<double>(page.html.size()) / 1024.0;
    const int64_t t0 = NowNs();
    const util::Hash128 hash = util::HashBytes128(page.html);
    const int64_t t1 = NowNs();
    auto doc = cache_.GetOrParse(page.html, kProjectAttr, hash);
    const int64_t t2 = NowNs();
    if (!doc.ok()) return false;
    const tree::Tree& t = (*doc)->tree();
    const double nodes = t.size();
    samples_.Add("hash.ns_per_kb", Ns(t0, t1) / kb);
    samples_.Add("doc_cache.get_ns", Ns(t1, t2));

    // The engine Wrap would pick; off the request path, both engines.
    ElogResult matches;
    double eval_ns = 0;
    if (program.has_ground_plan) {
      GroundStats stats;
      const int64_t e0 = NowNs();
      auto eval = mdatalog::core::EvaluateGrounded(*program.ground_plan, t,
                                                   &arena_, &stats);
      const int64_t e1 = NowNs();
      if (!eval.ok()) return false;
      eval_ns = Ns(e0, e1);
      samples_.Add("eval.grounded.ns_per_node", eval_ns / nodes);
      samples_.Add("eval.grounded.clauses_per_node",
                   static_cast<double>(stats.num_clauses) / nodes);
      samples_.Add("eval.grounded.derived_per_node",
                   static_cast<double>(eval->num_derived()) / nodes);
      const auto& patterns = program.prepared.extraction_patterns;
      for (size_t i = 0; i < patterns.size(); ++i) {
        if (program.pattern_preds[i] < 0) continue;
        matches.matches[patterns[i]] = eval->Unary(program.pattern_preds[i]);
      }
    }
    if (!program.has_ground_plan || !on_path) {
      const int64_t e0 = NowNs();
      auto native = mdatalog::elog::EvaluateElog(program.prepared.program, t);
      const int64_t e1 = NowNs();
      if (!native.ok()) return false;
      samples_.Add("eval.native.ns_per_node", Ns(e0, e1) / nodes);
      if (!program.has_ground_plan) {
        eval_ns = Ns(e0, e1);
        matches = *std::move(native);
      }
    }

    const int64_t o0 = NowNs();
    const tree::Tree out = wrapper::BuildOutputTree(
        program.prepared.extraction_patterns, matches, t);
    const std::string xml = tree::ToXml(out);
    const int64_t o1 = NowNs();
    samples_.Add("output.build.ns_per_output_node",
                 Ns(o0, o1) / std::max(1, out.size()));
    samples_.Add("output.bytes_per_page", static_cast<double>(xml.size()));
    if (on_path) {
      samples_.Add("path.hash_us", Ns(t0, t1) * 1e-3);
      samples_.Add("path.doc_us", Ns(t1, t2) * 1e-3);
      samples_.Add("path.eval_us", eval_ns * 1e-3);
      samples_.Add("path.output_us", Ns(o0, o1) * 1e-3);
      samples_.Add("path.sum_us",
                   (Ns(t0, t2) + eval_ns + Ns(o0, o1)) * 1e-3);
    }
    return xml == page.reference;
  }

  /// SubmitStream, each 4KB Feed and Finish, timed separately.
  bool ReplayStream(const PoolPage& page, bool on_path) {
    int64_t fed = 0;
    int64_t first_fed = -1;
    stream::StreamOptions options;
    options.on_result = [&](const stream::StreamResult&) {
      if (first_fed < 0) first_fed = fed;
    };
    const Request request{PageRef{}, client_->handle(page.family), {}};
    auto session =
        client_->runtime().SubmitStream(request, std::move(options));
    if (!session.ok()) return false;
    const std::string_view bytes = page.html;
    double feed_ns = 0;
    for (size_t off = 0; off < bytes.size(); off += kChunkBytes) {
      const std::string_view chunk = bytes.substr(off, kChunkBytes);
      fed += static_cast<int64_t>(chunk.size());
      const int64_t f0 = NowNs();
      const util::Status s = (*session)->Feed(chunk);
      const int64_t f1 = NowNs();
      if (!s.ok()) return false;
      feed_ns += Ns(f0, f1);
    }
    const int64_t f0 = NowNs();
    auto xml = (*session)->Finish();
    const int64_t f1 = NowNs();
    if (!xml.ok() || first_fed < 0) return false;
    const double kb = static_cast<double>(bytes.size()) / 1024.0;
    samples_.Add("stream.feed.ns_per_kb", feed_ns / kb);
    samples_.Add("stream.finish_us", Ns(f0, f1) * 1e-3);
    samples_.Add("stream.first_result_kb",
                 static_cast<double>(first_fed) / 1024.0);
    samples_.Add("stream.peak_live_nodes",
                 static_cast<double>((*session)->peak_live_nodes()));
    if (on_path) {
      samples_.Add("path.sum_us", (feed_ns + Ns(f0, f1)) * 1e-3);
      samples_.Add("path.feed_us", feed_ns * 1e-3);
      samples_.Add("path.finish_us", Ns(f0, f1) * 1e-3);
    }
    return *xml == page.reference;
  }

  /// Tokenize, tree build and attribute projection as separate calls.
  bool ReplayHtml(const PoolPage& page) {
    const double kb = static_cast<double>(page.html.size()) / 1024.0;
    const int64_t t0 = NowNs();
    const std::vector<html::Token> tokens = html::Tokenize(page.html);
    const int64_t t1 = NowNs();
    auto doc = html::ParseHtml(page.html);
    const int64_t t2 = NowNs();
    if (!doc.ok()) return false;
    const tree::Tree projected =
        html::ProjectAttributeIntoLabels(*doc, kProjectAttr);
    const int64_t t3 = NowNs();
    const double nodes = projected.size();
    samples_.Add("html.tokenize.ns_per_kb", Ns(t0, t1) / kb);
    // ParseHtml tokenizes again; the tree build is the remainder.
    samples_.Add("html.parse.ns_per_node", (Ns(t1, t2) - Ns(t0, t1)) / nodes);
    samples_.Add("html.project.ns_per_node", Ns(t2, t3) / nodes);
    samples_.Add("html.nodes_per_page", nodes);
    return !tokens.empty() && projected.size() == page.nodes;
  }

  const WorkloadSpec& spec_;
  Pool* const pool_;
  uint64_t* const counter_;
  Client* const client_;
  DocumentCache cache_;
  GroundArena arena_;
  LayerSamples samples_;
  mdatalog::runtime::DocumentCacheStats stats_before_, stats_after_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Register cost of the workload's wrappers on fresh runtimes.
double RegisterMsPerWrapper(const WorkloadSpec& spec, const Pool& pool,
                            std::vector<double>* samples) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    WrapperRuntime rt(spec.options);
    for (Family family : spec.families) {
      const int64_t t0 = NowNs();
      auto h = rt.Register(pool.wrappers[static_cast<int>(family)],
                           kProjectAttr);
      const int64_t t1 = NowNs();
      if (!h.ok()) return -1;
      samples->push_back(Ns(t0, t1) * 1e-6);
    }
  }
  return Median(*samples);
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::string digests;
  bool print_digest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args->workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args->seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args->trace = std::string(argv[++i]) != "0";
    } else if (a == "--digests" && has_value) {
      args->digests = argv[++i];
    } else if (a == "--print-digest") {
      args->print_digest = true;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "serve_bench: %s\n", message.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  // glibc's initial mmap threshold, fixed: buffers of 128 KiB and more are
  // mapped and unmapped, not carved from the heap. Left to adjust itself, the
  // threshold moves with the order of the first large frees, and the heap's
  // shape, and so peak RSS, then differs between runs of one seed.
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail(
        "usage: serve_bench --workload NAME [--seed N] [--seconds S] "
        "[--trace 0|1] [--digests FILE] [--print-digest]");
  }
  const std::optional<WorkloadSpec> found = FindWorkload(args.workload);
  if (!found) return Fail("unknown workload " + args.workload);
  const WorkloadSpec& spec = *found;
  std::string error;
  bool correct = true;

  // The default seed's reference outputs must match the committed digest
  // on every run, whatever the seed: a parser change that breaks both the
  // timed path and the reference path alike still fails here. The default
  // pool is then rebuilt like any other seed's, so every seed leaves the heap
  // in the same shape before the memory high-water mark is reset.
  std::string digest;
  {
    Pool default_pool;
    if (!MakePool(spec, kDefaultSeed, &default_pool, &error) ||
        !ComputeReferences(&default_pool, &error)) {
      return Fail(error);
    }
    digest = Hex(ReferenceDigest(default_pool));
  }
  if (args.print_digest) {
    std::printf("%s %s\n", spec.name.c_str(), digest.c_str());
    return 0;
  }
  const std::string committed = CommittedDigest(args.digests, spec.name);
  if (committed != digest) {
    std::fprintf(stderr,
                 "reference digest %s does not match the committed %s\n",
                 digest.c_str(), committed.empty() ? "(none)" : committed.c_str());
    correct = false;
  }

  Pool pool;
  if (!MakePool(spec, args.seed, &pool, &error) ||
      !ComputeReferences(&pool, &error)) {
    return Fail(error);
  }
  int64_t pool_bytes = 0;
  for (const PoolPage& p : pool.pages) pool_bytes += p.html.size();
  std::printf("workload %s seed %llu: %zu pages, %.1f KB mean\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              pool.pages.size(),
              static_cast<double>(pool_bytes) / 1024.0 /
                  static_cast<double>(pool.pages.size()));

  HostSpeed host;
  // Memory high-water mark from here on: the inputs and references are
  // resident in the baseline, the transient peaks of building them are not.
  malloc_trim(0);
  if (!ResetPeakRss()) std::fprintf(stderr, "warning: clear_refs failed\n");
  const int64_t baseline_kb = ProcStatusKb("VmRSS");

  uint64_t counter = 0;
  Client client(spec, &pool, &counter);
  std::vector<double> setups;
  {
    // Each set-up is cut into slices like the timed phase; the previous
    // runtime is torn down outside them. The traced run reports no set-up
    // time and sets up once.
    SpeedNormalizer norm(&host);
    norm.Start();
    for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
      if (rep > 0) {
        client.TearDown();
        norm.Open();
      }
      const double before = norm.wall_s();
      if (!client.SetUp([&norm](PoolPage&) { norm.CutIfDue(); }, &error)) {
        return Fail(error);
      }
      norm.Close();
      setups.push_back(norm.wall_s() - before);
    }
  }
  const RuntimeStats warm = client.runtime().stats();
  const int64_t warm_rss_kb = ProcStatusKb("VmRSS");

  // The warm-up must have reached the state the workload is defined by.
  if (spec.unique_requests) {
    const auto& dc = warm.document_cache;
    const bool full = dc.bytes_in_use * 10 >= dc.byte_budget * 8;
    const bool evicting = dc.evictions + dc.admission_rejects > 0;
    if (!full || !evicting) {
      std::fprintf(stderr, "warm-up left the document cache %s\n",
                   full ? "not evicting" : "not full");
      correct = false;
    }
  } else if (!spec.stream) {
    const auto& dc = warm.document_cache;
    if (dc.entries != static_cast<int32_t>(pool.pages.size()) ||
        dc.evictions != 0 || dc.admission_rejects != 0) {
      std::fprintf(stderr, "warm-up did not cache the whole working set\n");
      correct = false;
    }
  }

  if (args.trace) {
    // Times here are raw: the untraced request and the traced replay of the
    // same page run back to back, so both see the same host speed and the
    // additivity gap and the tracing overhead need no scaling.
    std::vector<double> register_ms;
    const double register_ms_median =
        RegisterMsPerWrapper(spec, pool, &register_ms);
    if (register_ms_median < 0) return Fail("Register failed");

    Replayer replayer(spec, &pool, &counter, &client);
    replayer.WarmUp();
    replayer.BeginPhase();
    Samples untraced;
    PassCounters counters;
    bool counters_exact = true;
    const int64_t start = NowNs();
    for (int64_t passes = 0;
         passes == 0 || static_cast<double>(NowNs() - start) * 1e-9 < args.seconds;
         ++passes) {
      PassCounters c;
      client.RunPass(&untraced, &c,
                     [&replayer](PoolPage& page) { replayer.Replay(page); });
      if (passes == 0) {
        counters = c;
      } else if (!(c == counters)) {
        counters_exact = false;
      }
    }
    replayer.EndPhase();
    const double untraced_p50 = Median(untraced.latency_us);
    std::printf("counters per pass %s\n", counters.Json().c_str());
    if (!counters_exact) {
      std::fprintf(stderr, "exact work counters differ between passes\n");
      correct = false;
    }
    const LayerSamples& s = replayer.samples();
    const auto& b = replayer.before();
    const auto& a = replayer.after();
    const int64_t hits = a.hits - b.hits;
    const int64_t misses = a.misses - b.misses;
    const double path_sum =
        spec.stream ? s.Median("path.feed_us") + s.Median("path.finish_us")
                    : s.Median("path.hash_us") + s.Median("path.doc_us") +
                          s.Median("path.eval_us") +
                          s.Median("path.output_us");
    const size_t path_n = s.Count("path.sum_us");

    struct Row {
      const char* name;
      double value;
      const char* unit;
      size_t samples;
    };
    const auto sample = [&](const char* name, const char* unit) {
      return Row{name, s.Median(name), unit, s.Count(name)};
    };
    const size_t requests = static_cast<size_t>(hits + misses);
    const std::vector<Row> rows = {
        sample("hash.ns_per_kb", "ns/KiB"),
        sample("html.tokenize.ns_per_kb", "ns/KiB"),
        sample("html.parse.ns_per_node", "ns/node"),
        sample("html.project.ns_per_node", "ns/node"),
        sample("html.nodes_per_page", "count"),
        sample("doc_cache.get_ns", "ns"),
        Row{"doc_cache.hit_ratio",
            requests ? static_cast<double>(hits) / requests : 0, "ratio",
            requests},
        Row{"doc_cache.bytes_per_doc",
            a.entries ? static_cast<double>(a.bytes_in_use) / a.entries : 0,
            "B", static_cast<size_t>(a.entries)},
        Row{"doc_cache.evictions", static_cast<double>(a.evictions - b.evictions),
            "count", requests},
        Row{"register.ms_per_wrapper", register_ms_median, "ms",
            register_ms.size()},
        sample("eval.grounded.ns_per_node", "ns/node"),
        sample("eval.grounded.clauses_per_node", "count/node"),
        sample("eval.grounded.derived_per_node", "count/node"),
        sample("eval.native.ns_per_node", "ns/node"),
        sample("output.build.ns_per_output_node", "ns/node"),
        sample("output.bytes_per_page", "B"),
        sample("stream.feed.ns_per_kb", "ns/KiB"),
        sample("stream.finish_us", "us"),
        sample("stream.first_result_kb", "KiB"),
        sample("stream.peak_live_nodes", "count"),
        Row{"runtime.unattributed_us", untraced_p50 - path_sum, "us",
            untraced.latency_us.size()},
        Row{"trace.overhead_us", s.Median("path.sum_us") - untraced_p50, "us",
            path_n},
    };
    std::printf("untraced p50 %.3f us over %zu requests; traced layer "
                "medians sum to %.3f us over %zu replays\n",
                untraced_p50, untraced.latency_us.size(), path_sum,
                path_n);
    std::printf("%-34s %14s %-10s %s\n", "metric", "median", "unit",
                "samples");
    std::vector<Metric> metrics;
    for (const Row& r : rows) {
      std::printf("%-34s %14.3f %-10s %zu\n", r.name, r.value, r.unit,
                  r.samples);
      metrics.push_back(Metric{r.name, r.value, r.unit});
    }
    const int64_t failed = untraced.failed + replayer.failed();
    PrintResult(correct && failed == 0,
                untraced.attempted + replayer.attempted(), failed,
                metrics);
    return 0;
  }

  const TimedRun run = RunTimed(&client, &host, args.seconds, kMinRequests);
  const RuntimeStats end = client.runtime().stats();
  const int64_t end_rss_kb = ProcStatusKb("VmRSS");
  const int64_t peak_kb = ProcStatusKb("VmHWM") - baseline_kb;

  if (!run.counters_exact) {
    std::fprintf(stderr, "exact work counters differ between passes\n");
    correct = false;
  }
  if (spec.unique_requests) {
    // Cold crawling must stay inside the cache budgets, not grow with the
    // run: no RSS growth past the warm state beyond allocator slack.
    const int64_t budgets_kb = (spec.options.document_cache.byte_budget +
                                spec.options.result_memo.byte_budget) >>
                               10;
    if (end_rss_kb > warm_rss_kb + (32 << 10) ||
        peak_kb > 2 * budgets_kb) {
      std::fprintf(stderr,
                   "RSS not bounded by the cache budgets: warm %lld kB, end "
                   "%lld kB, peak above baseline %lld kB\n",
                   static_cast<long long>(warm_rss_kb),
                   static_cast<long long>(end_rss_kb),
                   static_cast<long long>(peak_kb));
      correct = false;
    }
  }

  std::printf("timed: %lld requests in %lld passes, %.3f s serving "
              "(%.3f s at reference speed)\n",
              static_cast<long long>(run.samples.attempted),
              static_cast<long long>(run.passes), run.raw_wall_s, run.wall_s);
  std::printf("host speed: kernel %.4f ms p50 over %zu cuts (q1 %.4f, q3 "
              "%.4f; reference %.4f); raw %.2f pages/s\n",
              Median(run.kernel_ms), run.kernel_ms.size(),
              Quantile(run.kernel_ms, 0.25), Quantile(run.kernel_ms, 0.75),
              HostSpeed::kReferenceMs,
              static_cast<double>(run.samples.attempted) / run.raw_wall_s);
  std::printf("counters per pass %s\n", run.counters.Json().c_str());
  std::printf("inexact (keyed-hash dependent) totals {\"doc_cache.evictions\": "
              "%lld, \"doc_cache.admission_rejects\": %lld, "
              "\"memo.admission_rejects\": %lld}\n",
              static_cast<long long>(end.document_cache.evictions -
                                     warm.document_cache.evictions),
              static_cast<long long>(end.document_cache.admission_rejects -
                                     warm.document_cache.admission_rejects),
              static_cast<long long>(end.memo_admission_rejects -
                                     warm.memo_admission_rejects));
  std::printf("rss: baseline %lld kB, after warm-up %lld kB, end %lld kB\n",
              static_cast<long long>(baseline_kb),
              static_cast<long long>(warm_rss_kb),
              static_cast<long long>(end_rss_kb));

  const std::vector<double>& lat = run.samples.latency_us;
  // A batch Wrap delivers its first result when it returns, so on the batch
  // workloads time to first result is the request latency.
  const std::vector<double>& ttfr = spec.stream ? run.samples.ttfr_us : lat;
  PrintResult(correct && run.samples.failed == 0, run.samples.attempted,
              run.samples.failed,
              {
                  {"pages_per_s",
                   static_cast<double>(run.samples.attempted) / run.wall_s,
                   "1/s"},
                  {"latency_p50_us", Quantile(lat, 0.50), "us"},
                  {"latency_p99_us", Quantile(lat, 0.99), "us"},
                  {"ttfr_p50_us", Quantile(ttfr, 0.50), "us"},
                  {"ttfr_p99_us", Quantile(ttfr, 0.99), "us"},
                  {"setup_s", Median(setups), "s"},
                  {"peak_rss_mb", static_cast<double>(peak_kb) / 1024.0, "MB"},
              });
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
