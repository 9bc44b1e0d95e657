#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// \file host_speed.h
/// A fixed reference kernel for normalising timings to a steady host speed.
///
/// The benchmark runs on shared virtual machines whose speed drifts by
/// 10-20% over seconds. The kernel is shaped like the serving path (scan an
/// HTML page byte by byte, build a tree, intern labels in a hash map, mark
/// matching nodes over bitsets, render the matches as text) but is the
/// benchmark's own code: no change to the library changes its cost. Timing it
/// right before and after each short slice of requests tells how fast the
/// host ran during that slice; see SpeedNormalizer in serve_bench.cc.

namespace perfbench {

class HostSpeed {
 public:
  /// Kernel wall time, in ms, on the host the reference was taken on
  /// (README.md, "Host-speed normalisation").
  static constexpr double kReferenceMs = 2.9;

  HostSpeed();

  /// Runs the kernel once and returns its wall time in ms.
  double MeasureMs();

 private:
  std::vector<std::string> pages_;
  uint64_t checksum_ = 0;  // keeps the kernel's result observable
};

}  // namespace perfbench
