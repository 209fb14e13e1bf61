#include "perfbench/core/report.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

namespace tdp {
namespace perfbench {

std::string Report::ResultJson(const Outcome& outcome) const {
  std::ostringstream out;
  out.precision(12);
  out << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
        << metric.value << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void Window::Merge(const Window& client) {
  ops.Merge(client.ops);
  op_ms.insert(op_ms.end(), client.op_ms.begin(), client.op_ms.end());
  write_ms.insert(write_ms.end(), client.write_ms.begin(),
                  client.write_ms.end());
}

Window RunClosedLoop(
    int n, double seconds,
    const std::function<Window(int, Clock::time_point)>& client) {
  std::vector<Window> per_client(static_cast<size_t>(n));
  Window window;
  window.before = Usage::Now();
  const auto start = Clock::now();
  window.start = start;
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      per_client[static_cast<size_t>(i)] = client(i, deadline);
    });
  }
  for (auto& t : threads) t.join();
  window.seconds = MsSince(start) / 1000.0;
  window.after = Usage::Now();
  for (const Window& w : per_client) window.Merge(w);
  return window;
}

double MedianSetupSeconds(int reps, const std::function<double()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) seconds.push_back(setup());
  return Median(std::move(seconds));
}

void Fail(const std::string& message) {
  std::cerr << "perfbench: " << message << std::endl;
  std::exit(2);
}

void NoteFailure(const std::string& what) {
  static std::atomic<int> printed{0};
  if (printed.fetch_add(1, std::memory_order_relaxed) < 10) {
    std::cerr << "perfbench: op failed: " << what << std::endl;
  }
}

std::vector<double> Millis(const std::vector<Sample>& samples) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const Sample& s : samples) ms.push_back(s.ms);
  return ms;
}

std::optional<BestSlice> BestSliceFor(const Window& window, double p) {
  const int64_t n = static_cast<int64_t>(window.op_ms.size());
  for (int slices = static_cast<int>(
           std::min<int64_t>(kMaxSlices, n / MinSamplesFor(p)));
       slices >= 1; --slices) {
    const double width = window.seconds / slices;
    auto slice_of = [&](const Sample& s) {
      const double t =
          std::chrono::duration<double>(s.end - window.start).count();
      return static_cast<size_t>(
          std::clamp(static_cast<int>(t / width), 0, slices - 1));
    };
    std::vector<std::vector<double>> ms(static_cast<size_t>(slices));
    std::vector<double> done(static_cast<size_t>(slices), 0);
    for (const Sample& s : window.op_ms) {
      ms[slice_of(s)].push_back(s.ms);
      done[slice_of(s)] += 1;
    }
    for (const Sample& s : window.write_ms) done[slice_of(s)] += 1;
    std::vector<double> latency;
    for (const auto& slice : ms) {
      const auto q = Percentile(slice, p);
      if (!q) break;
      latency.push_back(*q);
    }
    if (static_cast<int>(latency.size()) < slices) continue;
    std::cerr << "perfbench: p" << static_cast<int>(p * 100)
              << " per slice (ops/s, ms):";
    for (int i = 0; i < slices; ++i) {
      std::cerr << " " << done[static_cast<size_t>(i)] / width << "/"
                << latency[static_cast<size_t>(i)];
    }
    std::cerr << std::endl;
    return BestSlice{slices, *std::max_element(done.begin(), done.end()) / width,
                     *std::min_element(latency.begin(), latency.end())};
  }
  return std::nullopt;
}

void ReportEndToEnd(Report& report, const Window& window, double setup_s,
                    double peak_rss_mb) {
  const auto median = BestSliceFor(window, 0.50);
  const auto tail = BestSliceFor(window, 0.90);
  if (!median || !tail) {
    Fail("too few timed ops for p90 (" + std::to_string(window.op_ms.size()) +
         " < " + std::to_string(MinSamplesFor(0.90)) + ")");
  }
  report.Set("setup_s", setup_s, "s");
  report.Set("ops_per_s", median->ops_per_s, "ops/s");
  report.Set("p50_ms", median->latency_ms, "ms");
  report.Set("p90_ms", tail->latency_ms, "ms");
  report.Set("peak_rss_mb", peak_rss_mb, "MiB");
}

void ReportCommonLayers(Report& report, const Window& untraced,
                        const Window& traced,
                        const std::vector<SpanRecord>& spans) {
  // Tails beyond p90 are reported only where the sample rule allows; 0
  // marks "not measured" (too few ops in the window for that percentile).
  const std::vector<double> reads = Millis(untraced.op_ms);
  const std::vector<double> writes = Millis(untraced.write_ms);
  report.Set("p99_ms", Percentile(reads, 0.99).value_or(0), "ms");
  report.Set("write_p50_ms", Percentile(writes, 0.50).value_or(0), "ms");
  report.Set("write_p99_ms", Percentile(writes, 0.99).value_or(0), "ms");

  const double cpu_s = untraced.after.cpu_s - untraced.before.cpu_s;
  const double ops = static_cast<double>(std::max<int64_t>(
      untraced.ops.completed, 1));
  const double nproc = static_cast<double>(
      std::max(1u, std::thread::hardware_concurrency()));
  report.Set("process.cpu_util", cpu_s / (untraced.seconds * nproc), "ratio");
  report.Set("process.cpu_ms_per_op", cpu_s * 1000.0 / ops, "ms");
  report.Set("process.ctx_switches_per_op",
             static_cast<double>(untraced.after.ctx_switches -
                                 untraced.before.ctx_switches) /
                 ops,
             "count");

  report.Set("trace.overhead_ratio",
             untraced.ops_per_s() / std::max(traced.ops_per_s(), 1e-9),
             "ratio");
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::vector<double> op_self_us;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) == kOpSpan) {
      op_self_us.push_back(static_cast<double>(self[i]) * 1e-3);
    }
  }
  report.Set("trace.op_self_us_mean", Mean(op_self_us), "us");
}

double SpanMeanMs(const std::map<std::string, SpanStats>& stats,
                  const std::string& name) {
  auto it = stats.find(name);
  return it == stats.end() ? 0 : it->second.mean_ms();
}

double SpanP50Ms(const std::map<std::string, SpanStats>& stats,
                 const std::string& name) {
  auto it = stats.find(name);
  return it == stats.end() ? 0 : it->second.p50_ms();
}

}  // namespace perfbench
}  // namespace tdp
