#ifndef TDP_PERFBENCH_CORE_REPORT_H_
#define TDP_PERFBENCH_CORE_REPORT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/core/stats.h"
#include "perfbench/core/trace.h"

namespace tdp {
namespace perfbench {

/// Command-line settings shared by every workload.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // span CSV path; empty: do not write
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Named metrics of one run, printed as the result line's `metrics` object.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
  std::string ResultJson(const Outcome& outcome) const;

 private:
  std::map<std::string, Metric> metrics_;
};

/// What a workload hands back to `main`.
struct RunResult {
  Report report;
  Tally ops;     // timed ops of every window
  Tally checks;  // output checks
};

/// One completed op: when it ended and how long it took.
struct Sample {
  Clock::time_point end;
  double ms = 0;
};

/// Latencies and counters of one timed window of a closed loop.
struct Window {
  Clock::time_point start;
  double seconds = 0;
  Tally ops;
  std::vector<Sample> op_ms;     // ops that define p50/p90 (reads on serve_rw)
  std::vector<Sample> write_ms;  // DML ops (serve_rw only)
  Usage before, after;

  void AddOp(double ms) { op_ms.push_back({Clock::now(), ms}); }
  void AddWrite(double ms) { write_ms.push_back({Clock::now(), ms}); }
  void Merge(const Window& client);
  double ops_per_s() const {
    return static_cast<double>(ops.completed) / seconds;
  }
};

/// Most slices a window is cut into for the end-to-end metrics.
inline constexpr int kMaxSlices = 10;

/// The best slice of a window for percentile `p`: the window is cut into
/// the most equal slices of time (at most `kMaxSlices`) in which every
/// slice still holds the samples `p` needs, and the best per-slice values
/// are taken (highest ops/s, lowest latency). Noise from other tenants of
/// a shared host only ever slows a slice, so the best slice is the one it
/// disturbed least; a change to the engine moves every slice. nullopt when
/// even the whole window has too few ops for `p`.
struct BestSlice {
  int slices = 0;
  double ops_per_s = 0;
  double latency_ms = 0;
};
std::optional<BestSlice> BestSliceFor(const Window& window, double p);

/// Latencies of `samples`, in ms.
std::vector<double> Millis(const std::vector<Sample>& samples);

/// Runs `client(i, deadline)` on `n` threads and joins them: each client is
/// a closed loop that issues its next op only after the previous returned,
/// until `deadline`. Returns the merged window.
Window RunClosedLoop(int n, double seconds,
                     const std::function<Window(int, Clock::time_point)>& client);

/// Runs `setup` `reps` times (each returns the seconds its engine calls
/// took) and returns the median; the state of the last repetition is kept
/// by the caller.
double MedianSetupSeconds(int reps, const std::function<double()>& setup);

/// Ends the run on an error that is not one op's failure (a failed set-up
/// call, too few ops for p90): prints why and exits non-zero with no
/// result.
[[noreturn]] void Fail(const std::string& message);

/// Prints why an op failed to stderr (the first few per run only).
void NoteFailure(const std::string& what);

/// The end-to-end metrics every workload reports from its untraced window.
void ReportEndToEnd(Report& report, const Window& window, double setup_s,
                    double peak_rss_mb);

/// Per-layer metrics every workload reports in the traced run: the pooled
/// tail percentiles and process counters of `untraced`, and the tracing
/// overhead (untraced vs traced ops/s, and the op span's self time).
void ReportCommonLayers(Report& report, const Window& untraced,
                        const Window& traced,
                        const std::vector<SpanRecord>& spans);

/// Mean duration (ms) of the spans named `name`, or 0 when there are none.
double SpanMeanMs(const std::map<std::string, SpanStats>& stats,
                  const std::string& name);
double SpanP50Ms(const std::map<std::string, SpanStats>& stats,
                 const std::string& name);

/// Span names shared by workloads.
inline constexpr char kOpSpan[] = "op";

}  // namespace perfbench
}  // namespace tdp

#endif  // TDP_PERFBENCH_CORE_REPORT_H_
