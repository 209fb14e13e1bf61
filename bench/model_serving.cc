// Model-serving throughput: queries/sec against one Session at 1/4/8
// client threads, where every query runs a small MLP UDF over its rows.
//
//   ./model_serving --benchmark_counters_tabular=true
//
// The interesting comparisons:
//   - BM_ModelServeBatched vs BM_ModelServeUnbatched: the batched arm's
//     UDF is batchable, so each query calls the model directly from a
//     ModelEval stage streamed with the scan; the unbatched control is
//     the same weights registered non-batchable, so each query runs
//     them behind a pipeline breaker.
//   - items_per_second scaling across ->Threads(1/4/8): concurrent
//     clients each run their own forwards on the shared kernel pool.
//
// Both UDFs share one set of weights, and the per-query result is
// CHECK'd bit-identical across the two paths at setup (row-local model,
// so any batch partition returns the same bytes).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "src/nn/layers.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

// Each query scores kRowsPerQuery embeddings, one ModelEval batch of up
// to kBatchTarget rows.
constexpr int64_t kRowsPerQuery = 8;
constexpr int64_t kDim = 128;
constexpr int64_t kHidden = 256;
constexpr int64_t kBatchTarget = 32;

constexpr const char* kBatchedQuery =
    "SELECT SUM(mlp_batched(e)) FROM embs";
constexpr const char* kUnbatchedQuery =
    "SELECT SUM(mlp_unbatched(e)) FROM embs";

/// One process-wide Session shared by all client threads, serving one
/// two-layer MLP registered twice: `mlp_batched` (batchable — streamed
/// through ModelEval) and `mlp_unbatched` (the breaker control). Built on
/// first use.
Session& ServingSession() {
  static Session* session = [] {
    auto* s = new Session();
    Rng rng(21);
    Tensor embs = RandNormal({kRowsPerQuery, kDim}, 0, 1, rng);
    auto table = TableBuilder("embs").AddTensor("e", embs).Build();
    TDP_CHECK(table.ok()) << table.status().ToString();
    TDP_CHECK(s->RegisterTable("embs", table.value()).ok());

    auto l1 = std::make_shared<nn::Linear>(kDim, kHidden, rng);
    auto l2 = std::make_shared<nn::Linear>(kHidden, 1, rng);
    const auto register_mlp = [&](const std::string& name, bool batchable) {
      udf::ScalarFunction fn;
      fn.name = name;
      fn.return_type = udf::DeclaredType::kFloat;
      fn.batchable = batchable;
      fn.preferred_batch_rows = kBatchTarget;
      fn.modules = {l1, l2};
      // Row-local: out[i] = l2(l1(e[i])) — two matmuls whose per-row
      // reductions never cross rows, so any batch partition is
      // bit-identical.
      fn.fn = [l1, l2](const std::vector<udf::Argument>& args, int64_t,
                       Device) -> StatusOr<Column> {
        const Tensor x = args[0].column.DecodeValues();
        return Column::Plain(
            Squeeze(l2->Forward(l1->Forward(x)), 1).Contiguous());
      };
      TDP_CHECK(s->functions().RegisterScalar(std::move(fn)).ok());
    };
    register_mlp("mlp_batched", /*batchable=*/true);
    register_mlp("mlp_unbatched", /*batchable=*/false);

    // Exactness gate: the two paths must return the same bytes.
    auto batched = bench::MustSql(*s, kBatchedQuery);
    auto unbatched = bench::MustSql(*s, kUnbatchedQuery);
    TDP_CHECK(batched->column(0).data().At({0}) ==
              unbatched->column(0).data().At({0}))
        << "batched and unbatched model paths disagree";
    return s;
  }();
  return *session;
}

/// Batchable path: each query calls the model directly from a ModelEval
/// stage streamed with the scan.
void BM_ModelServeBatched(benchmark::State& state) {
  Session& session = ServingSession();
  for (auto _ : state) {
    auto result = session.Sql(kBatchedQuery);
    TDP_CHECK(result.ok()) << result.status().ToString();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelServeBatched)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Breaker control: same weights, same query shape, registered
/// non-batchable, so the call runs behind a pipeline breaker.
void BM_ModelServeUnbatched(benchmark::State& state) {
  Session& session = ServingSession();
  for (auto _ : state) {
    auto result = session.Sql(kUnbatchedQuery);
    TDP_CHECK(result.ok()) << result.status().ToString();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelServeUnbatched)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
}  // namespace tdp

BENCHMARK_MAIN();
