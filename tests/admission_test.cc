// TinyLFU admission (runtime/admission.{h,cc}): the frequency sketch must
// rank repeat traffic above one-hit traffic, saturate, age, and drive the
// Admit decision that gives the serving caches their scan resistance.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "src/runtime/admission.h"
#include "src/util/hash.h"

namespace {

using namespace mdatalog;

uint64_t KeyHash(const std::string& s) { return util::HashBytes(s); }

TEST(FrequencySketchTest, UnseenKeyEstimatesZero) {
  runtime::FrequencySketch sketch(1024);
  EXPECT_EQ(sketch.EstimateFrequency(KeyHash("never seen")), 0);
}

TEST(FrequencySketchTest, OneHitKeyStopsAtTheDoorkeeper) {
  runtime::FrequencySketch sketch(1024);
  sketch.RecordAccess(KeyHash("one hit"));
  // First sighting marks the doorkeeper only: estimate 1, counters untouched.
  EXPECT_EQ(sketch.EstimateFrequency(KeyHash("one hit")), 1);
}

TEST(FrequencySketchTest, RepeatAccessesRankAboveOneHitTraffic) {
  runtime::FrequencySketch sketch(4096);
  const uint64_t hot = KeyHash("hot page");
  for (int i = 0; i < 10; ++i) sketch.RecordAccess(hot);
  // Background of one-hit wonders (the scan workload).
  for (int i = 0; i < 200; ++i) {
    sketch.RecordAccess(KeyHash("cold " + std::to_string(i)));
  }
  const int32_t hot_freq = sketch.EstimateFrequency(hot);
  EXPECT_GE(hot_freq, 8);  // ~10, modulo sketch collisions
  for (int i = 0; i < 200; i += 17) {
    EXPECT_LT(sketch.EstimateFrequency(KeyHash("cold " + std::to_string(i))),
              hot_freq);
  }
}

TEST(FrequencySketchTest, CountersSaturate) {
  runtime::FrequencySketch sketch(1024);
  const uint64_t key = KeyHash("very hot");
  for (int i = 0; i < 1000; ++i) sketch.RecordAccess(key);
  // 4-bit counters cap at 15, +1 for the doorkeeper.
  EXPECT_LE(sketch.EstimateFrequency(key), 16);
  EXPECT_GE(sketch.EstimateFrequency(key), 15);
}

TEST(FrequencySketchTest, AgingHalvesTheWindow) {
  runtime::FrequencySketch sketch(1024);
  const uint64_t hot = KeyHash("aging hot");
  for (int i = 0; i < 100; ++i) sketch.RecordAccess(hot);
  const int32_t before = sketch.EstimateFrequency(hot);
  // Push total samples past the aging threshold with distinct filler keys.
  const int64_t period = sketch.sample_period();
  for (int64_t i = 0; sketch.samples() < period - 1; ++i) {
    sketch.RecordAccess(KeyHash("filler " + std::to_string(i)));
  }
  sketch.RecordAccess(KeyHash("the straw"));  // crosses the threshold: Age()
  const int32_t after = sketch.EstimateFrequency(hot);
  EXPECT_LT(after, before);
  EXPECT_GE(after, before / 2 - 2);  // halved, doorkeeper cleared
}

TEST(TinyLfuAdmissionTest, AdmitsOnlyStrictlyMorePopularCandidates) {
  runtime::TinyLfuAdmission lfu(1024);
  const uint64_t hot = KeyHash("resident hot");
  const uint64_t cold_candidate = KeyHash("cold candidate");
  const uint64_t cold_resident = KeyHash("cold resident");
  const uint64_t warm_candidate = KeyHash("warm candidate");
  for (int i = 0; i < 10; ++i) lfu.RecordAccess(hot);
  lfu.RecordAccess(cold_candidate);
  lfu.RecordAccess(cold_resident);
  for (int i = 0; i < 20; ++i) lfu.RecordAccess(warm_candidate);

  // A one-hit candidate never displaces the hot resident.
  EXPECT_FALSE(lfu.Admit(cold_candidate, hot));
  // A hotter candidate does.
  EXPECT_TRUE(lfu.Admit(warm_candidate, hot));
  // Ties reject: equally-cold keys must not rotate the cache.
  EXPECT_FALSE(lfu.Admit(cold_candidate, cold_resident));
}

}  // namespace
