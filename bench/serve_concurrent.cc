// Multi-client serving throughput: queries/sec against one Session at
// 1/4/8 client threads, cold (fresh compile per call) vs. cached
// (plan-cache hit) vs. prepared (`?` parameter binding, zero re-compiles).
//
//   ./serve_concurrent --benchmark_counters_tabular=true
//
// The interesting comparisons:
//   - BM_ColdCompileSql vs BM_CachedSql at equal thread count: the win
//     from skipping lex/parse/bind/optimize on repeat statements
//     (acceptance: cached >= 5x cold on the repeated point query).
//   - items_per_second scaling across ->Threads(1/4/8): aggregate QPS
//     must grow with client threads (catalog snapshots + shared plans
//     mean clients contend only on a pointer copy and a cache splice).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

using exec::ScalarValue;

constexpr const char* kPointQuery =
    "SELECT amount, qty FROM sales WHERE id = 123";
constexpr const char* kAggQuery =
    "SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region";

int64_t NumRows() { return bench::Scaled(256, 1 << 20); }

/// Multi-get point lookup (`WHERE id IN (48 keys)`) — the classic serving
/// pattern where the statement, not the data, dominates compilation: the
/// parser desugars the IN list into a 48-way disjunction that cold
/// compilation re-lexes, re-binds and re-optimizes on every call.
std::string MultiGetQuery() {
  std::string sql = "SELECT amount, qty FROM sales WHERE id IN (";
  for (int i = 0; i < 48; ++i) {
    if (i > 0) sql += ",";
    sql += std::to_string((i * 7) % NumRows());
  }
  sql += ")";
  return sql;
}

/// One process-wide Session shared by all client threads (that is the
/// scenario under test). Built on first use.
Session& SharedSession() {
  static Session* session = [] {
    auto* s = new Session();
    const int64_t n = NumRows();
    std::vector<int64_t> ids;
    std::vector<float> amounts;
    std::vector<int64_t> qty;
    std::vector<std::string> regions;
    const char* kRegions[] = {"east", "west", "north", "south"};
    ids.reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      ids.push_back(i);
      amounts.push_back(static_cast<float>((i * 7) % 1000));
      qty.push_back(i % 13);
      regions.push_back(kRegions[i % 4]);
    }
    auto table = TableBuilder("sales")
                     .AddInt64("id", ids)
                     .AddFloat32("amount", amounts)
                     .AddInt64("qty", qty)
                     .AddStrings("region", regions)
                     .Build();
    TDP_CHECK(table.ok()) << table.status().ToString();
    TDP_CHECK(s->RegisterTable("sales", table.value()).ok());
    return s;
  }();
  return *session;
}

/// Cold path: what every Session::Sql call paid before the plan cache —
/// lex + parse + bind + optimize + execute, per call.
void BM_ColdCompileSql(benchmark::State& state) {
  Session& session = SharedSession();
  for (auto _ : state) {
    auto query = session.Query(kPointQuery);
    TDP_CHECK(query.ok()) << query.status().ToString();
    auto result = (*query)->Run();
    TDP_CHECK(result.ok()) << result.status().ToString();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColdCompileSql)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Cached path: repeat Session::Sql hits the plan cache.
void BM_CachedSql(benchmark::State& state) {
  Session& session = SharedSession();
  for (auto _ : state) {
    auto result = session.Sql(kPointQuery);
    TDP_CHECK(result.ok()) << result.status().ToString();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedSql)->Threads(1)->Threads(4)->Threads(8)->UseRealTime();

/// Prepared path: one shared CompiledQuery, per-call `?` bindings.
void BM_PreparedPointQuery(benchmark::State& state) {
  Session& session = SharedSession();
  static std::shared_ptr<exec::CompiledQuery> prepared;
  static std::once_flag once;
  std::call_once(once, [&] {
    auto q = session.Prepare("SELECT amount, qty FROM sales WHERE id = ?");
    TDP_CHECK(q.ok()) << q.status().ToString();
    prepared = q.value();
  });
  int64_t id = state.thread_index() * 37;
  for (auto _ : state) {
    id = (id + 1) % NumRows();
    auto result = prepared->Run({ScalarValue::Int(id)});
    TDP_CHECK(result.ok()) << result.status().ToString();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PreparedPointQuery)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Cold vs cached on the multi-get statement: this is where the plan
/// cache pays hardest (acceptance target: cached >= 5x cold).
void BM_ColdCompileMultiGet(benchmark::State& state) {
  Session& session = SharedSession();
  const std::string sql = MultiGetQuery();
  for (auto _ : state) {
    auto query = session.Query(sql);
    TDP_CHECK(query.ok()) << query.status().ToString();
    auto result = (*query)->Run();
    TDP_CHECK(result.ok()) << result.status().ToString();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ColdCompileMultiGet)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_CachedMultiGet(benchmark::State& state) {
  Session& session = SharedSession();
  const std::string sql = MultiGetQuery();
  for (auto _ : state) {
    auto result = session.Sql(sql);
    TDP_CHECK(result.ok()) << result.status().ToString();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedMultiGet)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// ---- Cursor-native serving (PR 4) ------------------------------------------
//
// The scenarios behind the streaming API's acceptance criteria, all over
// the same large scan+filter statement sliced into ~64 chunks:
//   - BM_CursorFirstChunk vs BM_CursorFullDrain: time-to-first-chunk must
//     sit measurably below full-drain latency (the first chunk costs one
//     wave of morsels, not the whole relation);
//   - BM_CursorEarlyClose: a client that abandons after two chunks (LIMIT
//     satisfied downstream / disconnect) — the chunks_produced counter
//     shows production stopping at ~queue-capacity chunks, not ~64.

constexpr const char* kScanFilterQuery =
    "SELECT ev, score FROM events WHERE score > 0.0";

int64_t EventRows() { return bench::Scaled(1 << 16, 1 << 22); }

/// Morsel size yielding ~64 chunks on the events scan at either scale.
int64_t EventMorselRows() { return EventRows() / 64; }

/// Lazily registers the larger cursor-bench table on the shared session.
void EnsureEventsTable() {
  static std::once_flag once;
  std::call_once(once, [] {
    const int64_t n = EventRows();
    std::vector<int64_t> ev;
    std::vector<float> scores;
    ev.reserve(n);
    scores.reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      ev.push_back(i);
      scores.push_back(static_cast<float>((i % 997) - 498) / 499.0f);
    }
    auto table = TableBuilder("events")
                     .AddInt64("ev", ev)
                     .AddFloat32("score", scores)
                     .Build();
    TDP_CHECK(table.ok()) << table.status().ToString();
    TDP_CHECK(SharedSession().RegisterTable("events", table.value()).ok());
  });
}

/// Drains `count` chunks (all of them when count < 0); returns how many
/// chunks the producer pushed by the time the cursor is closed.
int64_t ConsumeChunks(Session& session, int64_t count) {
  exec::RunOptions run;
  run.morsel_rows = EventMorselRows();
  auto cursor = session.Execute(kScanFilterQuery, {}, std::move(run));
  TDP_CHECK(cursor.ok()) << cursor.status().ToString();
  int64_t seen = 0;
  while (count < 0 || seen < count) {
    auto chunk = (*cursor)->Next();
    TDP_CHECK(chunk.ok()) << chunk.status().ToString();
    if (!chunk->has_value()) break;
    benchmark::DoNotOptimize((**chunk).num_rows());
    ++seen;
  }
  (*cursor)->Close();
  return (*cursor)->chunks_produced();
}

/// Time-to-first-chunk: open a streaming cursor, consume ONE chunk, close.
/// Compare against BM_CursorFullDrain — the gap is the win for clients
/// that act on early rows (paginated UIs, top-k consumers, disconnects).
void BM_CursorFirstChunk(benchmark::State& state) {
  Session& session = SharedSession();
  EnsureEventsTable();
  int64_t produced = 0;
  for (auto _ : state) {
    produced += ConsumeChunks(session, 1);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["chunks_produced"] = benchmark::Counter(
      static_cast<double>(produced), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CursorFirstChunk)->Threads(1)->Threads(4)->UseRealTime();

/// Full drain through the cursor: the denominator for time-to-first-chunk.
void BM_CursorFullDrain(benchmark::State& state) {
  Session& session = SharedSession();
  EnsureEventsTable();
  int64_t produced = 0;
  for (auto _ : state) {
    produced += ConsumeChunks(session, -1);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["chunks_produced"] = benchmark::Counter(
      static_cast<double>(produced), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CursorFullDrain)->Threads(1)->Threads(4)->UseRealTime();

/// LIMIT-abandon: the client stops after two chunks. Backpressure +
/// cooperative cancellation keep chunks_produced at ~(consumed + queue
/// capacity + one wave) — the rows never read are never produced.
void BM_CursorEarlyClose(benchmark::State& state) {
  Session& session = SharedSession();
  EnsureEventsTable();
  int64_t produced = 0;
  for (auto _ : state) {
    produced += ConsumeChunks(session, 2);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["chunks_produced"] = benchmark::Counter(
      static_cast<double>(produced), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_CursorEarlyClose)->Threads(1)->Threads(4)->UseRealTime();

// ---- Index-accelerated top-k serving (PR 5) --------------------------------
//
// The same top-k similarity statement served two ways from two sessions
// over identical data: BM_SqlTopKBrute compiles to the exact Sort+Limit
// plan (no index registered), BM_SqlTopKIndex to the IndexTopK operator
// with a per-run probe budget. The acceptance comparison is index vs
// brute at equal thread count; the probe arg (1/4/16 of 64 lists) sweeps
// the scan-fraction knob — recall stays measured by the differential
// suite, this measures time only.

int64_t VecRows() { return bench::Scaled(4096, 1 << 17); }
constexpr int64_t kVecDim = 32;
constexpr int64_t kVecLists = 64;
constexpr const char* kTopKQuery =
    "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 10";

/// Deterministic clustered unit embeddings (cheap to build at bench scale).
std::shared_ptr<Table> MakeVecTable() {
  const int64_t n = VecRows();
  Rng rng(99);
  Tensor centers = L2Normalize(RandNormal({kVecLists, kVecDim}, 0, 1, rng),
                               1);
  Tensor emb = Tensor::Zeros({n, kVecDim});
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    ids[static_cast<size_t>(i)] = i;
    const int64_t c = i % kVecLists;
    for (int64_t d = 0; d < kVecDim; ++d) {
      emb.SetAt({i, d}, centers.At({c, d}) +
                            0.05 * (static_cast<double>((i * 31 + d) % 17) /
                                        17.0 -
                                    0.5));
    }
  }
  auto table =
      TableBuilder("vecs").AddInt64("id", ids).AddTensor("emb", emb).Build();
  TDP_CHECK(table.ok()) << table.status().ToString();
  return table.value();
}

Tensor TopKQueryVec(int64_t salt) {
  Rng rng(7000 + static_cast<uint64_t>(salt));
  return L2Normalize(RandNormal({1, kVecDim}, 0, 1, rng), 1).Squeeze(0)
      .Contiguous();
}

/// Session WITHOUT an index: the statement compiles to Sort+Limit.
Session& BruteTopKSession() {
  static Session* session = [] {
    auto* s = new Session();
    TDP_CHECK(s->RegisterTable("vecs", MakeVecTable()).ok());
    return s;
  }();
  return *session;
}

/// Session WITH a 64-list IVF index: the statement compiles to IndexTopK.
Session& IndexTopKSession() {
  static Session* session = [] {
    auto* s = new Session();
    TDP_CHECK(s->RegisterTable("vecs", MakeVecTable()).ok());
    index::IvfIndex::Options options;
    options.num_lists = kVecLists;
    TDP_CHECK(s->CreateVectorIndex("vecs", "emb", options).ok());
    return s;
  }();
  return *session;
}

void BM_SqlTopKBrute(benchmark::State& state) {
  Session& session = BruteTopKSession();
  auto query = session.Prepare(kTopKQuery);
  TDP_CHECK(query.ok()) << query.status().ToString();
  const Tensor qvec = TopKQueryVec(state.thread_index());
  int64_t rows = 0;
  for (auto _ : state) {
    exec::RunOptions run;
    run.params = {ScalarValue::FromTensor(qvec)};
    auto result = (*query)->Run(run);
    TDP_CHECK(result.ok()) << result.status().ToString();
    rows += (*result)->num_rows();
  }
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlTopKBrute)->Threads(1)->Threads(4)->UseRealTime();

void BM_SqlTopKIndex(benchmark::State& state) {
  Session& session = IndexTopKSession();
  auto query = session.Prepare(kTopKQuery);
  TDP_CHECK(query.ok()) << query.status().ToString();
  const Tensor qvec = TopKQueryVec(state.thread_index());
  const int64_t probes = state.range(0);
  int64_t rows = 0;
  for (auto _ : state) {
    exec::RunOptions run;
    run.params = {ScalarValue::FromTensor(qvec)};
    run.vector_search.num_probes = probes;
    auto result = (*query)->Run(run);
    TDP_CHECK(result.ok()) << result.status().ToString();
    rows += (*result)->num_rows();
  }
  benchmark::DoNotOptimize(rows);
  state.SetItemsProcessed(state.iterations());
  state.counters["probes"] = benchmark::Counter(
      static_cast<double>(probes), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_SqlTopKIndex)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Threads(1)
    ->UseRealTime();
BENCHMARK(BM_SqlTopKIndex)->Arg(4)->Threads(4)->UseRealTime();

// ---- Request latency percentiles (PR 9) ------------------------------------
//
// Serving SLOs are percentile, not mean, targets: the throughput columns
// above hide a p99 that queueing or a stop-the-world breaker can blow up
// without moving items_per_second much. These benchmarks time every
// individual request and report p50_ms/p99_ms counters, which ride into
// the benchmark-gate trajectory JSON and are gated lower-is-better by
// tools/bench_compare.py (kAvgThreads: each thread reports its own
// distribution; the counter is the across-thread average).

/// Per-request latency distribution of the cached point-query path.
void BM_CachedSqlLatency(benchmark::State& state) {
  Session& session = SharedSession();
  std::vector<int64_t> latencies_us;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto result = session.Sql(kPointQuery);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    TDP_CHECK(result.ok()) << result.status().ToString();
    latencies_us.push_back(elapsed.count());
  }
  state.SetItemsProcessed(state.iterations());
  std::sort(latencies_us.begin(), latencies_us.end());
  auto pct_ms = [&](double p) {
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(latencies_us.size() - 1) + 0.5);
    return static_cast<double>(latencies_us[idx]) / 1000.0;
  };
  state.counters["p50_ms"] =
      benchmark::Counter(pct_ms(0.50), benchmark::Counter::kAvgThreads);
  state.counters["p99_ms"] =
      benchmark::Counter(pct_ms(0.99), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_CachedSqlLatency)->Threads(1)->Threads(8)->UseRealTime();

/// The same distribution for the aggregate statement — a breaker-bearing
/// plan, so this is the one a regressed sort/aggregate kernel moves.
void BM_CachedAggregateLatency(benchmark::State& state) {
  Session& session = SharedSession();
  std::vector<int64_t> latencies_us;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto result = session.Sql(kAggQuery);
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    TDP_CHECK(result.ok()) << result.status().ToString();
    latencies_us.push_back(elapsed.count());
  }
  state.SetItemsProcessed(state.iterations());
  std::sort(latencies_us.begin(), latencies_us.end());
  auto pct_ms = [&](double p) {
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(latencies_us.size() - 1) + 0.5);
    return static_cast<double>(latencies_us[idx]) / 1000.0;
  };
  state.counters["p50_ms"] =
      benchmark::Counter(pct_ms(0.50), benchmark::Counter::kAvgThreads);
  state.counters["p99_ms"] =
      benchmark::Counter(pct_ms(0.99), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_CachedAggregateLatency)->Threads(1)->Threads(8)->UseRealTime();

/// Heavier per-query work: grouped aggregation, cached plan. Shows how
/// aggregate QPS scales when execution (not compilation) dominates.
void BM_CachedAggregate(benchmark::State& state) {
  Session& session = SharedSession();
  for (auto _ : state) {
    auto result = session.Sql(kAggQuery);
    TDP_CHECK(result.ok()) << result.status().ToString();
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CachedAggregate)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
}  // namespace tdp

BENCHMARK_MAIN();
