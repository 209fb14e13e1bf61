#ifndef TDP_PERFBENCH_CORE_STATS_H_
#define TDP_PERFBENCH_CORE_STATS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

namespace tdp {
namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it: p99 needs 1000 samples, p90 needs 100, the median 20.
inline constexpr double kMinSamplesBeyond = 10;

/// Samples needed before `Percentile(values, p)` reports.
int64_t MinSamplesFor(double p);

/// Nearest-rank percentile (`p` in (0, 1)) of `values`, or nullopt when
/// fewer than `MinSamplesFor(p)` samples were taken.
std::optional<double> Percentile(std::vector<double> values, double p);

/// Median of a non-empty sample; no sample-count rule (used for repeated
/// measurements of one quantity, such as set-up time or a kernel replay).
double Median(std::vector<double> values);

double Mean(const std::vector<double>& values);

/// Outcome counts of one kind of work (timed ops or output checks).
/// Every `Record` call is one attempt, so attempted == completed + failed
/// holds by construction.
struct Tally {
  int64_t attempted = 0;
  int64_t completed = 0;
  int64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    (ok ? completed : failed) += 1;
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    completed += other.completed;
    failed += other.failed;
  }
};

/// The run's verdict: timed ops and output checks counted together. A
/// failed, refused or wrong-result op and a failed check are all failures.
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = false;
  double error_rate = 0;
};
Outcome Summarize(const Tally& ops, const Tally& checks);

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Median wall milliseconds of `reps` calls of `fn` after one warm call.
double MedianMs(int reps, const std::function<void()>& fn);

/// Process resource counters (`getrusage(RUSAGE_SELF)`).
struct Usage {
  double cpu_s = 0;  // user + system
  int64_t ctx_switches = 0;  // voluntary + involuntary
  double max_rss_mb = 0;
  static Usage Now();
};

}  // namespace perfbench
}  // namespace tdp

#endif  // TDP_PERFBENCH_CORE_STATS_H_
