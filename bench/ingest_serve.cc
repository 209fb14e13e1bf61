// Sustained ingest while serving: DML throughput through the full SQL
// stack, alone and with concurrent readers on the same Session.
//
//   ./ingest_serve --benchmark_counters_tabular=true
//
// The interesting numbers:
//   - BM_InsertRows/batch: rows/sec a single writer sustains through
//     prepared INSERTs; the copy-on-write install clones only the tail
//     segment, so throughput must not fall off as the table accumulates
//     sealed segments (rows_per_second across batch sizes).
//   - BM_UpdatePoint / BM_DeleteInsertChurn: in-place rewrite and
//     bitmap-delete cost on a serving-sized table.
//   - BM_ReadAfterDelete: the first point read of each version a DELETE
//     installs, on a CPU table under an accel plan, timed alone. It stays
//     a point read's cost because the DELETE builds the live view and the
//     scan retags columns instead of copying them.
//   - BM_IngestWhileServing at ->Threads(4/8): thread 0 ingests, the rest
//     serve cached point aggregates; reader throughput under write churn
//     vs. BM_ReadOnlyBaseline at the same thread count is the headline
//     "ingest tax" on serving latency.

#include <benchmark/benchmark.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/runtime/session.h"

namespace tdp {
namespace {

using exec::ScalarValue;

int64_t BaseRows() { return bench::Scaled(4096, 1 << 18); }

// A session with `base` pre-populated through the same DML path being
// measured (multi-row INSERT statements), so the table is genuinely
// segmented rather than one registered monolith.
std::unique_ptr<Session> MakeIngestSession() {
  auto session = std::make_unique<Session>();
  TDP_CHECK(
      session->Sql("CREATE TABLE base (id INT, val INT, tag TEXT)").ok());
  const int64_t n = BaseRows();
  const char* kTags[] = {"alpha", "beta", "gamma", "delta"};
  for (int64_t at = 0; at < n;) {
    std::string sql = "INSERT INTO base VALUES ";
    for (int i = 0; i < 512 && at < n; ++i, ++at) {
      if (i > 0) sql += ", ";
      sql += '(';
      sql += std::to_string(at);
      sql += ", ";
      sql += std::to_string((at * 7) % 1000);
      sql += ", '";
      sql += kTags[at % 4];
      sql += "')";
    }
    TDP_CHECK(session->Sql(sql).ok());
  }
  return session;
}

/// Single-writer ingest: one prepared single-row INSERT per iteration.
/// The append clones the tail segment only; sealed segments are shared
/// between the old and new table versions untouched.
void BM_InsertRows(benchmark::State& state) {
  auto session = MakeIngestSession();
  auto prepared = session->Prepare("INSERT INTO base VALUES (?, ?, 'hot')");
  TDP_CHECK(prepared.ok()) << prepared.status().ToString();
  int64_t id = BaseRows();
  for (auto _ : state) {
    auto r = (*prepared)->Run(
        {ScalarValue::Int(id), ScalarValue::Int(id % 1000)});
    TDP_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r);
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["rows_per_second"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InsertRows)->UseRealTime();

/// Point UPDATE on a serving-sized table: predicate scan + single-row
/// rewrite + install. WithUpdated compacts to one segment, so the cost is
/// dominated by the column copy — the worst case for in-place DML.
void BM_UpdatePoint(benchmark::State& state) {
  auto session = MakeIngestSession();
  auto prepared =
      session->Prepare("UPDATE base SET val = val + 1 WHERE id = ?");
  TDP_CHECK(prepared.ok()) << prepared.status().ToString();
  int64_t id = 0;
  for (auto _ : state) {
    auto r = (*prepared)->Run({ScalarValue::Int(id % BaseRows())});
    TDP_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r);
    id += 17;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UpdatePoint)->UseRealTime();

/// Steady-state churn: insert a row, delete an older one. Deletes are
/// bitmap-only (no compaction), so this also measures reads-through-
/// bitmap staying cheap as tombstones accumulate.
void BM_DeleteInsertChurn(benchmark::State& state) {
  auto session = MakeIngestSession();
  auto ins = session->Prepare("INSERT INTO base VALUES (?, 1, 'churn')");
  auto del = session->Prepare("DELETE FROM base WHERE id = ?");
  TDP_CHECK(ins.ok() && del.ok());
  int64_t id = BaseRows();
  for (auto _ : state) {
    auto r1 = (*ins)->Run({ScalarValue::Int(id)});
    TDP_CHECK(r1.ok()) << r1.status().ToString();
    auto r2 = (*del)->Run({ScalarValue::Int(id - BaseRows())});
    TDP_CHECK(r2.ok()) << r2.status().ToString();
    ++id;
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_DeleteInsertChurn)->UseRealTime();

/// Each iteration runs an INSERT and a DELETE untimed, then times one
/// point read of the version they installed. The session's tables sit on
/// the CPU and its plans compile for accel, so the read's scan crosses
/// devices.
void BM_ReadAfterDelete(benchmark::State& state) {
  auto session = MakeIngestSession();
  auto ins = session->Prepare("INSERT INTO base VALUES (?, 1, 'churn')");
  auto del = session->Prepare("DELETE FROM base WHERE id = ?");
  auto read = session->Prepare("SELECT val FROM base WHERE id = ?");
  TDP_CHECK(ins.ok() && del.ok() && read.ok());
  int64_t id = BaseRows();
  for (auto _ : state) {
    state.PauseTiming();
    auto r1 = (*ins)->Run({ScalarValue::Int(id)});
    TDP_CHECK(r1.ok()) << r1.status().ToString();
    auto r2 = (*del)->Run({ScalarValue::Int(id - BaseRows())});
    TDP_CHECK(r2.ok()) << r2.status().ToString();
    state.ResumeTiming();
    auto r = (*read)->Run({ScalarValue::Int(id)});
    TDP_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r);
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadAfterDelete)->UseRealTime();

// ---- Ingest-while-serving ---------------------------------------------------

Session& ServingSession() {
  static Session* session = MakeIngestSession().release();
  return *session;
}

constexpr const char* kServeQuery =
    "SELECT COUNT(*), SUM(val) FROM base WHERE tag = 'alpha'";

/// Thread 0 ingests single-row INSERTs; every other thread serves the
/// cached aggregate. items_per_second aggregates both roles; compare the
/// per-thread reader rate against BM_ReadOnlyBaseline at the same thread
/// count for the serving tax of concurrent writes.
void BM_IngestWhileServing(benchmark::State& state) {
  Session& session = ServingSession();
  if (state.thread_index() == 0) {
    auto prepared =
        session.Prepare("INSERT INTO base VALUES (?, ?, 'live')");
    TDP_CHECK(prepared.ok()) << prepared.status().ToString();
    int64_t id = 1 << 20;
    for (auto _ : state) {
      auto r = (*prepared)->Run(
          {ScalarValue::Int(id), ScalarValue::Int(id % 1000)});
      TDP_CHECK(r.ok()) << r.status().ToString();
      ++id;
    }
  } else {
    for (auto _ : state) {
      auto r = session.Sql(kServeQuery);
      TDP_CHECK(r.ok()) << r.status().ToString();
      benchmark::DoNotOptimize(r);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IngestWhileServing)->Threads(4)->Threads(8)->UseRealTime();

/// The same aggregate with no writer — the baseline the ingest tax is
/// measured against.
void BM_ReadOnlyBaseline(benchmark::State& state) {
  Session& session = ServingSession();
  for (auto _ : state) {
    auto r = session.Sql(kServeQuery);
    TDP_CHECK(r.ok()) << r.status().ToString();
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadOnlyBaseline)->Threads(3)->Threads(7)->UseRealTime();

}  // namespace
}  // namespace tdp

BENCHMARK_MAIN();
