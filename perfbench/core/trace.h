#ifndef TDP_PERFBENCH_CORE_TRACE_H_
#define TDP_PERFBENCH_CORE_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/core/stats.h"

namespace tdp {
namespace perfbench {

/// One timed call, recorded by the benchmark around a call it makes into
/// an engine layer. `name` is a string literal ("exec.run", ...).
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: a root span
  uint64_t request = 0;  // the op this span belongs to (0: set-up/replay)
};

/// Process-wide span recorder. Spans are appended to per-thread buffers
/// (no lock on the hot path) and merged by `Collect` after the recording
/// threads have been joined. Disabled, a span costs one branch.
class Tracer {
 public:
  static Tracer& Get();

  /// Toggle only while no client thread is running.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Moves every recorded span out, ordered by start time. Call only while
  /// no thread is recording.
  std::vector<SpanRecord> Collect();

  /// Appends to the calling thread's buffer.
  void Append(const SpanRecord& span);

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::mutex mu_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
};

/// Records one span from construction to destruction on the current thread,
/// child of the thread's innermost open span. No-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecord span_;
  uint64_t saved_parent_ = 0;
  bool active_ = false;
};

/// Tags spans opened on this thread while alive with a fresh request id.
class RequestScope {
 public:
  RequestScope();
  ~RequestScope();

  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t saved_ = 0;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once).
/// Returned in the order of `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// Per-name aggregate of a span list.
struct SpanStats {
  std::vector<double> ms;  // durations
  double mean_ms() const { return Mean(ms); }
  double p50_ms() const { return ms.empty() ? 0 : Median(ms); }
};
std::map<std::string, SpanStats> Aggregate(const std::vector<SpanRecord>& spans);

/// Writes spans as CSV (name,start_ns,end_ns,id,parent,request,self_ns).
bool WriteSpansCsv(const std::string& path,
                   const std::vector<SpanRecord>& spans);

}  // namespace perfbench
}  // namespace tdp

#endif  // TDP_PERFBENCH_CORE_TRACE_H_
