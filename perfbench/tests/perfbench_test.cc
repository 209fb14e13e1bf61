// Tests of the benchmark's own logic: the percentile sample rule, window
// slicing, the outcome arithmetic, self time, and the serve_rw writer's
// invariant.
//
//   .bench_build/perfbench_test     (built by `python3 perfbench/run.py --test`)

#include <gtest/gtest.h>

#include <numeric>

#include "perfbench/core/report.h"
#include "perfbench/core/stats.h"
#include "perfbench/core/trace.h"
#include "perfbench/workloads/common.h"

namespace tdp {
namespace perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileRule, P99NeedsAThousandSamples) {
  EXPECT_EQ(MinSamplesFor(0.99), 1000);
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).has_value());
  ASSERT_TRUE(Percentile(Ramp(1000), 0.99).has_value());
  // Nearest rank: exactly 10 samples lie beyond the reported value.
  EXPECT_EQ(*Percentile(Ramp(1000), 0.99), 990.0);
}

TEST(PercentileRule, P90NeedsAHundredSamples) {
  EXPECT_EQ(MinSamplesFor(0.90), 100);
  EXPECT_FALSE(Percentile(Ramp(99), 0.90).has_value());
  ASSERT_TRUE(Percentile(Ramp(100), 0.90).has_value());
  EXPECT_EQ(*Percentile(Ramp(100), 0.90), 90.0);
}

TEST(PercentileRule, MedianOfShuffledInput) {
  std::vector<double> v = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10,
                           15, 11, 14, 12, 13, 19, 18, 17, 16, 20};
  ASSERT_TRUE(Percentile(v, 0.5).has_value());
  EXPECT_EQ(*Percentile(v, 0.5), 10.0);
  EXPECT_FALSE(Percentile(std::vector<double>{}, 0.5).has_value());
}

/// A 10-second window of `n` ops ending evenly spaced, each taking `ms`
/// except those ending in [slow_from, slow_to) seconds, which take 100 ms.
Window EvenWindow(int n, double ms, double slow_from = 0, double slow_to = 0) {
  Window w;
  w.start = Clock::now();
  w.seconds = 10;
  for (int i = 0; i < n; ++i) {
    const double t = 10.0 * (i + 0.5) / n;
    const auto end = w.start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(t));
    w.op_ms.push_back({end, t >= slow_from && t < slow_to ? 100.0 : ms});
  }
  return w;
}

TEST(BestSlice, IgnoresNoisySlices) {
  const Window w = EvenWindow(1000, 1.0, 2.0, 8.0);
  for (double p : {0.5, 0.9}) {
    const auto best = BestSliceFor(w, p);
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->slices, kMaxSlices);
    EXPECT_DOUBLE_EQ(best->ops_per_s, 100.0);
    EXPECT_EQ(best->latency_ms, 1.0);
  }
}

TEST(BestSlice, EverySliceHoldsTheSamplesItsPercentileNeeds) {
  // 250 ops: p90 gets two slices of 125, p50 ten slices of 25.
  EXPECT_EQ(BestSliceFor(EvenWindow(250, 2.0), 0.9)->slices, 2);
  EXPECT_EQ(BestSliceFor(EvenWindow(250, 2.0), 0.5)->slices, 10);
  EXPECT_EQ(BestSliceFor(EvenWindow(150, 2.0), 0.9)->slices, 1);
  EXPECT_FALSE(BestSliceFor(EvenWindow(99, 2.0), 0.9).has_value());
}

TEST(Outcome, AttemptedIsCompletedPlusFailed) {
  Tally ops;
  for (int i = 0; i < 10; ++i) ops.Record(i % 4 != 0);
  EXPECT_EQ(ops.attempted, 10);
  EXPECT_EQ(ops.completed + ops.failed, ops.attempted);
  Tally other;
  other.Record(true);
  other.Record(false);
  ops.Merge(other);
  EXPECT_EQ(ops.attempted, 12);
  EXPECT_EQ(ops.completed + ops.failed, ops.attempted);

  Tally checks;
  checks.Record(true);
  checks.Record(false);
  const Outcome out = Summarize(ops, checks);
  EXPECT_EQ(out.attempted, 14);
  EXPECT_EQ(out.failed, ops.failed + 1);
  EXPECT_FALSE(out.correct);
  EXPECT_DOUBLE_EQ(out.error_rate, static_cast<double>(out.failed) / 14.0);
}

TEST(Outcome, CleanRunIsCorrect) {
  Tally ops, checks;
  ops.Record(true);
  checks.Record(true);
  const Outcome out = Summarize(ops, checks);
  EXPECT_TRUE(out.correct);
  EXPECT_EQ(out.error_rate, 0.0);
}

SpanRecord MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  SpanRecord s;
  s.name = "x";
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SpanMinusChildren) {
  // root [0, 100) with children [10, 30) and [50, 60); grandchild [12, 20).
  const std::vector<SpanRecord> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 30), MakeSpan(3, 2, 12, 20),
      MakeSpan(4, 1, 50, 60)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 20 - 10);
  EXPECT_EQ(self[1], 20 - 8);
  EXPECT_EQ(self[2], 8);
  EXPECT_EQ(self[3], 10);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children [10, 40) and [30, 50) overlap on [30, 40); one child spills
  // past its parent's end and is clipped.
  const std::vector<SpanRecord> spans = {
      MakeSpan(1, 0, 0, 100), MakeSpan(2, 1, 10, 40), MakeSpan(3, 1, 30, 50),
      MakeSpan(4, 1, 90, 120)};
  EXPECT_EQ(SelfTimesNs(spans)[0], 100 - 40 - 10);
}

TEST(SelfTime, RecordedSpansNest) {
  Tracer::Get().set_enabled(true);
  {
    RequestScope request;
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
  }
  Tracer::Get().set_enabled(false);
  const std::vector<SpanRecord> spans = Tracer::Get().Collect();
  ASSERT_EQ(spans.size(), 2u);
  const SpanRecord& outer = spans[0];
  const SpanRecord& inner = spans[1];
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(inner.request, outer.request);
  EXPECT_NE(outer.request, 0u);
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], (outer.end_ns - outer.start_ns) -
                         (inner.end_ns - inner.start_ns));
}

TEST(Deck, EveryRoundHoldsTheExactMix) {
  Deck deck({3, 1, 2}, Rng(5));
  for (int round = 0; round < 4; ++round) {
    std::vector<int> seen(3, 0);
    for (int i = 0; i < 6; ++i) ++seen[static_cast<size_t>(deck.Next())];
    EXPECT_EQ(seen, (std::vector<int>{3, 1, 2}));
  }
}

TEST(ServeRwWriter, KeepsLiveRowCountConstant) {
  // A short serve_rw run: its output checks include the writer invariant
  // (tenant 0 ends with exactly its initial live rows) and every read
  // checked against BaselineDB over the rows the writer produced.
  RunConfig config;
  config.seed = 3;
  config.seconds = 0.5;
  const RunResult result = RunServeRw(config);
  EXPECT_GT(result.ops.completed, 0);
  EXPECT_EQ(result.ops.failed, 0);
  EXPECT_GT(result.checks.attempted, 0);
  EXPECT_EQ(result.checks.failed, 0);
}

TEST(Oracle, SubstituteRendersLiterals) {
  EXPECT_EQ(Substitute("SELECT a FROM t WHERE b = ? AND c > ?",
                       {exec::ScalarValue::String("x"),
                        exec::ScalarValue::Int(7)}),
            "SELECT a FROM t WHERE b = 'x' AND c > 7");
}

}  // namespace
}  // namespace perfbench
}  // namespace tdp
