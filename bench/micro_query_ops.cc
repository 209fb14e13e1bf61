// Query-operator microbenchmarks (google-benchmark): end-to-end timing of
// compiled relational operators on both kernel backends, plus the soft
// (differentiable) group-by against its exact counterpart — the ablation
// for the TRAINABLE compilation mode's overhead.

#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/exec/soft_ops.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

std::shared_ptr<Table> MakeTable(int64_t rows, Rng& rng) {
  std::vector<int64_t> keys;
  std::vector<double> values;
  std::vector<std::string> tags;
  const std::vector<std::string> vocab = {"alpha", "beta", "gamma", "delta"};
  for (int64_t i = 0; i < rows; ++i) {
    keys.push_back(rng.UniformInt(0, 63));
    values.push_back(rng.Uniform(-100, 100));
    tags.push_back(vocab[static_cast<size_t>(rng.UniformInt(0, 3))]);
  }
  return TableBuilder("t")
      .AddInt64("k", keys)
      .AddFloat64("v", values)
      .AddStrings("tag", tags)
      .Build()
      .value();
}

Device ArgDevice(const benchmark::State& state) {
  return state.range(0) == 0 ? Device::kCpu : Device::kAccel;
}

class QueryBench {
 public:
  explicit QueryBench(int64_t rows) {
    Rng rng(17);
    TDP_CHECK(session.RegisterTable("t", MakeTable(rows, rng)).ok());
  }
  Session session;
};

void BM_FilterQuery(benchmark::State& state) {
  QueryBench bench(1 << 14);
  QueryOptions options;
  options.device = ArgDevice(state);
  auto query =
      bench.session.Query("SELECT k, v FROM t WHERE v > 0 AND k < 32",
                          options);
  TDP_CHECK(query.ok());
  for (auto _ : state) {
    auto result = (*query)->RunChunk();
    TDP_CHECK(result.ok());
    benchmark::DoNotOptimize(result->num_rows());
  }
}
BENCHMARK(BM_FilterQuery)->Arg(0)->Arg(1);

void BM_GroupByQuery(benchmark::State& state) {
  QueryBench bench(1 << 14);
  QueryOptions options;
  options.device = ArgDevice(state);
  auto query = bench.session.Query(
      "SELECT k, COUNT(*), SUM(v), AVG(v) FROM t GROUP BY k", options);
  TDP_CHECK(query.ok());
  for (auto _ : state) {
    auto result = (*query)->RunChunk();
    TDP_CHECK(result.ok());
    benchmark::DoNotOptimize(result->num_rows());
  }
}
BENCHMARK(BM_GroupByQuery)->Arg(0)->Arg(1);

void BM_TopKQuery(benchmark::State& state) {
  QueryBench bench(1 << 14);
  QueryOptions options;
  options.device = ArgDevice(state);
  auto query = bench.session.Query(
      "SELECT k, v FROM t ORDER BY v DESC LIMIT 10", options);
  TDP_CHECK(query.ok());
  for (auto _ : state) {
    auto result = (*query)->RunChunk();
    TDP_CHECK(result.ok());
    benchmark::DoNotOptimize(result->num_rows());
  }
}
BENCHMARK(BM_TopKQuery)->Arg(0)->Arg(1);

void BM_JoinQuery(benchmark::State& state) {
  QueryBench bench(1 << 12);
  Rng rng(23);
  TDP_CHECK(
      bench.session.RegisterTable("u", MakeTable(1 << 10, rng)).ok());
  QueryOptions options;
  options.device = ArgDevice(state);
  auto query = bench.session.Query(
      "SELECT t.k, u.v FROM t JOIN u ON t.k = u.k WHERE u.v > 50", options);
  TDP_CHECK(query.ok());
  for (auto _ : state) {
    auto result = (*query)->RunChunk();
    TDP_CHECK(result.ok());
    benchmark::DoNotOptimize(result->num_rows());
  }
}
BENCHMARK(BM_JoinQuery)->Arg(0)->Arg(1);

// Whole-query thread scaling: the morsel-parallel operator loop at 1 vs N
// threads over a larger table (results are identical across thread counts).
void BM_GroupByQueryThreads(benchmark::State& state) {
  ScopedNumThreads guard(static_cast<int>(state.range(0)));
  QueryBench bench(1 << 17);
  QueryOptions options;
  options.device = Device::kAccel;
  auto query = bench.session.Query(
      "SELECT k, COUNT(*), SUM(v), AVG(v) FROM t GROUP BY k", options);
  TDP_CHECK(query.ok());
  for (auto _ : state) {
    auto result = (*query)->RunChunk();
    TDP_CHECK(result.ok());
    benchmark::DoNotOptimize(result->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_GroupByQueryThreads)->Arg(1)->Arg(2)->Arg(4);

// The streaming executor on a filter-heavy query: scan, filter, project
// and assembly per morsel, with no intermediate relation materialized
// between them.
void BM_ExecutorFilterProject(benchmark::State& state) {
  QueryBench bench(1 << 17);
  QueryOptions options;
  options.device = Device::kAccel;
  auto query = bench.session.Query(
      "SELECT k + 1, v * 2 FROM t WHERE v > 0 AND k < 32", options);
  TDP_CHECK(query.ok());
  for (auto _ : state) {
    auto result = (*query)->RunChunk();
    TDP_CHECK(result.ok());
    benchmark::DoNotOptimize(result->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_ExecutorFilterProject);

// The streaming executor on a group-by: per-morsel aggregate-input
// evaluation merged at the breaker.
void BM_ExecutorGroupBy(benchmark::State& state) {
  QueryBench bench(1 << 17);
  QueryOptions options;
  options.device = Device::kAccel;
  auto query = bench.session.Query(
      "SELECT k, COUNT(*), SUM(v) FROM t WHERE v > -50 GROUP BY k", options);
  TDP_CHECK(query.ok());
  for (auto _ : state) {
    auto result = (*query)->RunChunk();
    TDP_CHECK(result.ok());
    benchmark::DoNotOptimize(result->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_ExecutorGroupBy);

// GROUP BY over 65,536 distinct keys in 2^18 rows, both sides of the
// aggregate's choice between dense slots and the key table. Arm 0 keys
// are 0 .. 65535, whose code range fits the row count, so each row's
// group is its key's slot. Arm 1 multiplies the same keys by a large odd
// constant: the range is far wider than the row count, so groups go
// through the key table. The second argument is the thread count.
void BM_GroupByHighCardinality(benchmark::State& state) {
  const bool sparse = state.range(0) == 1;
  ScopedNumThreads guard(static_cast<int>(state.range(1)));
  constexpr int64_t kRows = int64_t{1} << 18;
  constexpr int64_t kKeys = int64_t{1} << 16;
  constexpr int64_t kSparseStride = 2654435761;
  Rng rng(31);
  std::vector<int64_t> keys(kRows);
  std::vector<double> values(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    keys[static_cast<size_t>(i)] = i % kKeys;
    values[static_cast<size_t>(i)] = rng.Uniform(-100, 100);
  }
  for (int64_t i = kRows - 1; i > 0; --i) {
    std::swap(keys[static_cast<size_t>(i)],
              keys[static_cast<size_t>(rng.UniformInt(0, i))]);
  }
  if (sparse) {
    for (int64_t& k : keys) k *= kSparseStride;
  }
  Session session;
  TDP_CHECK(session
                .RegisterTable("t", TableBuilder("t")
                                        .AddInt64("k", keys)
                                        .AddFloat64("v", values)
                                        .Build()
                                        .value())
                .ok());
  QueryOptions options;
  options.device = Device::kAccel;
  auto query = session.Query("SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k",
                             options);
  TDP_CHECK(query.ok());
  for (auto _ : state) {
    auto result = (*query)->RunChunk();
    TDP_CHECK(result.ok());
    benchmark::DoNotOptimize(result->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK(BM_GroupByHighCardinality)
    ->ArgNames({"sparse", "threads"})
    ->ArgsProduct({{0, 1}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

// Morsel-size sweep at a fixed thread count: the scheduling-granularity
// knob (results are identical at every size; only throughput moves).
void BM_MorselRows(benchmark::State& state) {
  QueryBench bench(1 << 17);
  QueryOptions options;
  options.device = Device::kAccel;
  exec::RunOptions run;
  run.morsel_rows = state.range(0);
  auto query = bench.session.Query(
      "SELECT k, v FROM t WHERE v > 0", options);
  TDP_CHECK(query.ok());
  for (auto _ : state) {
    auto result = (*query)->RunChunk(run);
    TDP_CHECK(result.ok());
    benchmark::DoNotOptimize(result->num_rows());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_MorselRows)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16)->Arg(1 << 20);

// Soft vs exact group-by/count: the price of differentiability.
void BM_SoftVsExactGroupBy(benchmark::State& state) {
  const bool soft = state.range(0) == 1;
  Rng rng(29);
  const int64_t rows = 1 << 12;
  Tensor logits_a = RandNormal({rows, 10}, 0, 1, rng);
  Tensor logits_b = RandNormal({rows, 2}, 0, 1, rng);
  Column pe_a = Column::Probability(Softmax(logits_a, 1),
                                    {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  Column pe_b = Column::Probability(Softmax(logits_b, 1), {0, 1});
  Column hard_a = Column::Plain(pe_a.DecodeValues());
  Column hard_b = Column::Plain(pe_b.DecodeValues());

  for (auto _ : state) {
    if (soft) {
      auto result = exec::SoftGroupByCount({pe_a, pe_b});
      TDP_CHECK(result.ok());
      benchmark::DoNotOptimize(result->counts.impl().get());
    } else {
      // Exact path: codes + unique + counts.
      UniqueResult ua = Unique(hard_a.data());
      UniqueResult ub = Unique(hard_b.data());
      Tensor combined =
          Add(MulScalar(ua.inverse,
                        static_cast<double>(ub.values.numel())),
              ub.inverse);
      UniqueResult groups = Unique(combined);
      benchmark::DoNotOptimize(groups.counts.impl().get());
    }
  }
}
BENCHMARK(BM_SoftVsExactGroupBy)->Arg(0)->Arg(1);

}  // namespace
}  // namespace tdp

BENCHMARK_MAIN();
