#pragma once
// The one monotonic clock every timing consumer shares: trace spans, the
// metrics registry's duration histograms, and wall-clock reporting
// (Stopwatch).  Before the observability layer each bench carried its own
// ad-hoc chrono plumbing; routing everything through now_ns() means a span
// total and a Stopwatch reading of the same region agree exactly.

#include <chrono>
#include <cstdint>

namespace yoso {
namespace obs {

/// Monotonic nanoseconds since an arbitrary (per-process) epoch.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace obs

/// Wall-clock timing for speedup reporting and bench footers, built on the
/// same timebase the trace spans record against.
class Stopwatch {
 public:
  Stopwatch() : start_(obs::now_ns()) {}

  void reset() { start_ = obs::now_ns(); }

  double elapsed_seconds() const {
    return static_cast<double>(obs::now_ns() - start_) * 1e-9;
  }

 private:
  std::uint64_t start_;
};

}  // namespace yoso
