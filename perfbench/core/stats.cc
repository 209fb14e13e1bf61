#include "perfbench/core/stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <numeric>

namespace tdp {
namespace perfbench {

int64_t MinSamplesFor(double p) {
  // The 1e-6 slack absorbs the rounding of 1 - p (1 - 0.9 is just below
  // 0.1), so p90 needs exactly 100 samples, not 101.
  return static_cast<int64_t>(std::ceil(kMinSamplesBeyond / (1.0 - p) - 1e-6));
}

std::optional<double> Percentile(std::vector<double> values, double p) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (n == 0 || n < MinSamplesFor(p)) return std::nullopt;
  const int64_t rank = static_cast<int64_t>(std::ceil(p * n - 1e-9));
  const auto nth = values.begin() + std::clamp<int64_t>(rank - 1, 0, n - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

Outcome Summarize(const Tally& ops, const Tally& checks) {
  Outcome out;
  out.attempted = ops.attempted + checks.attempted;
  out.failed = ops.failed + checks.failed;
  out.correct = out.failed == 0 && checks.attempted > 0 && ops.completed > 0;
  out.error_rate = out.attempted == 0
                       ? 1.0
                       : static_cast<double>(out.failed) /
                             static_cast<double>(out.attempted);
  return out;
}

double MedianMs(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    ms.push_back(MsSince(start));
  }
  return Median(std::move(ms));
}

Usage Usage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

}  // namespace perfbench
}  // namespace tdp
