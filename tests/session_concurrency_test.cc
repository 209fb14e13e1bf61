// Thread-safety tests for the serving layer: many clients issuing cached
// and uncached queries against one Session while a writer re-registers
// tables. Run under the ThreadSanitizer CI job (build-tsan/); every
// assertion also checks results against single-threaded ground truth.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/nn/layers.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

using exec::ScalarValue;

std::shared_ptr<Table> MakeSales() {
  auto sales = TableBuilder("sales")
                   .AddInt64("id", {1, 2, 3, 4, 5, 6})
                   .AddStrings("region", {"east", "west", "east", "north",
                                          "west", "east"})
                   .AddFloat32("amount", {10, 20, 30, 40, 50, 60})
                   .Build();
  EXPECT_TRUE(sales.ok()) << sales.status().ToString();
  return sales.value();
}

double ScalarResult(const StatusOr<std::shared_ptr<Table>>& r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return -1;
  EXPECT_EQ((*r)->num_rows(), 1);
  return (*r)->column(0).data().At({0});
}

TEST(SessionConcurrencyTest, CachedAndUncachedQueriesFromManyThreads) {
  Session session;
  ASSERT_TRUE(session.RegisterTable("sales", MakeSales()).ok());

  const std::vector<std::pair<std::string, double>> queries = {
      {"SELECT SUM(amount) FROM sales WHERE region = 'east'", 100.0},
      {"SELECT COUNT(*) FROM sales", 6.0},
      {"SELECT MAX(amount) FROM sales WHERE id <= 4", 40.0},
      {"SELECT SUM(id) FROM sales WHERE amount > 25", 18.0},
  };
  // Ground truth single-threaded first (also warms the cache for half the
  // threads; the other half compiles fresh via Query()).
  for (const auto& [sql, expected] : queries) {
    EXPECT_EQ(ScalarResult(session.Sql(sql)), expected) << sql;
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto& [sql, expected] = queries[(t + i) % queries.size()];
        StatusOr<std::shared_ptr<Table>> r =
            t % 2 == 0 ? session.Sql(sql)  // plan-cache path
                       : [&]() -> StatusOr<std::shared_ptr<Table>> {
                           auto q = session.Query(sql);  // fresh compile
                           if (!q.ok()) return q.status();
                           return (*q)->Run();
                         }();
        if (!r.ok() || (*r)->num_rows() != 1 ||
            (*r)->column(0).data().At({0}) != expected) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  const PlanCacheStats stats = session.plan_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_EQ(stats.size, queries.size());
}

TEST(SessionConcurrencyTest, OnePreparedStatementManyThreadsManyBindings) {
  Session session;
  ASSERT_TRUE(session.RegisterTable("sales", MakeSales()).ok());

  auto prepared = session.Prepare("SELECT amount FROM sales WHERE id = ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ((*prepared)->num_params(), 1);

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 60; ++i) {
        const int64_t id = 1 + (t + i) % 6;
        auto r = (*prepared)->Run({ScalarValue::Int(id)});
        if (!r.ok() || (*r)->num_rows() != 1 ||
            (*r)->column(0).data().At({0}) !=
                static_cast<double>(10 * id)) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SessionConcurrencyTest, QueriesRaceWithTableReRegistration) {
  Session session;
  ASSERT_TRUE(session.RegisterTable("sales", MakeSales()).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // Writer: keeps re-registering the same logical content (the paper's
  // training loop does exactly this each iteration) plus fresh throwaway
  // tables so the catalog version keeps moving.
  std::thread writer([&] {
    int round = 0;
    while (!stop.load()) {
      if (!session.RegisterTable("sales", MakeSales()).ok()) ++failures;
      if (!session
               .RegisterTensor("scratch",
                               Tensor::FromVector(std::vector<float>{
                                   static_cast<float>(round)}))
               .ok()) {
        ++failures;
      }
      ++round;
    }
  });

  constexpr int kThreads = 6;
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        // Alternate cached and uncached paths under the writer.
        const char* sql = "SELECT COUNT(*), SUM(amount) FROM sales";
        StatusOr<std::shared_ptr<Table>> r =
            (t + i) % 2 == 0 ? session.Sql(sql)
                             : [&]() -> StatusOr<std::shared_ptr<Table>> {
                                 auto q = session.Query(sql);
                                 if (!q.ok()) return q.status();
                                 return (*q)->Run();
                               }();
        if (!r.ok() || (*r)->column(0).data().At({0}) != 6.0 ||
            (*r)->column(1).data().At({0}) != 210.0) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop = true;
  writer.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SessionConcurrencyTest, SelfJoinSeesOneCatalogSnapshotPerRun) {
  // The writer flips table t between "all x = 1" and "all x = 2". A
  // self-join sums x from both scans: a torn run (scans resolving
  // different registrations) would yield 3 * n; one snapshot per run
  // guarantees 2n or 4n only.
  constexpr int64_t kRows = 8;
  auto variant = [](float x) {
    std::vector<int64_t> keys(kRows);
    std::vector<float> xs(kRows, x);
    for (int64_t i = 0; i < kRows; ++i) keys[static_cast<size_t>(i)] = i;
    auto t = TableBuilder("t").AddInt64("k", keys).AddFloat32("x", xs).Build();
    EXPECT_TRUE(t.ok());
    return t.value();
  };

  Session session;
  ASSERT_TRUE(session.RegisterTable("t", variant(1.0f)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    int round = 0;
    while (!stop.load()) {
      if (!session
               .RegisterTable("t", variant(round % 2 == 0 ? 2.0f : 1.0f))
               .ok()) {
        ++failures;
      }
      ++round;
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        auto r = session.Sql(
            "SELECT SUM(t1.x + t2.x) FROM t t1 JOIN t t2 ON t1.k = t2.k");
        if (!r.ok()) {
          ++failures;
          continue;
        }
        const double sum = (*r)->column(0).data().At({0});
        if (sum != 2.0 * kRows && sum != 4.0 * kRows) ++failures;
      }
    });
  }
  for (auto& th : readers) th.join();
  stop = true;
  writer.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- Vector-index races -----------------------------------------------------

namespace {

// Deterministic unit-norm embedding table: row i points along axis
// (i % dim) with a small row-dependent tilt, so similarity scores are
// unique and every plan — brute Sort, IndexTopK with a fresh index,
// IndexTopK falling back after invalidation — must produce the same rows.
std::shared_ptr<Table> MakeEmbeddings(int64_t n, int64_t dim) {
  Tensor emb = Tensor::Zeros({n, dim});
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    ids[static_cast<size_t>(i)] = i;
    emb.SetAt({i, i % dim}, 1.0);
    emb.SetAt({i, (i + 1) % dim},
              0.001 * static_cast<double>(i % 97));
  }
  auto table =
      TableBuilder("vecs").AddInt64("id", ids).AddTensor("emb", emb).Build();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.value();
}

Tensor AxisQuery(int64_t dim, int64_t axis) {
  Tensor q = Tensor::Zeros({dim});
  q.SetAt({axis}, 1.0);
  q.SetAt({(axis + 1) % dim}, 0.05);
  return q;
}

}  // namespace

// Readers serve top-k similarity queries while one thread races index
// builds (and drops) against them. Plans flip between Sort+Limit and
// IndexTopK as the catalog version moves; every result must equal the
// single-threaded ground truth because the default probe budget (= every
// cell) keeps the index path exact. Runs under TSan in CI.
TEST(SessionConcurrencyTest, IndexBuildRacesTopKQueries) {
  constexpr int64_t kRows = 192, kDim = 8;
  Session session;
  ASSERT_TRUE(session.RegisterTable("vecs", MakeEmbeddings(kRows, kDim))
                  .ok());
  const char* sql =
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 6";

  // Ground truth per query axis, computed single-threaded pre-index.
  std::vector<std::vector<double>> truth(static_cast<size_t>(kDim));
  for (int64_t axis = 0; axis < kDim; ++axis) {
    exec::RunOptions run;
    run.params = {ScalarValue::FromTensor(AxisQuery(kDim, axis))};
    auto r = session.Sql(sql, {}, run);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (int64_t i = 0; i < (*r)->num_rows(); ++i) {
      truth[static_cast<size_t>(axis)].push_back(
          (*r)->column(0).data().At({i}));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread indexer([&] {
    index::IvfIndex::Options options;
    options.num_lists = 6;
    while (!stop.load()) {
      // Builds may legitimately lose a race with DropVectorIndex-induced
      // version moves only via re-registration; here the table is stable,
      // so Create must succeed, and Drop only fails when nothing is
      // installed yet.
      if (!session.CreateVectorIndex("vecs", "emb", options).ok()) {
        ++failures;
      }
      (void)session.DropVectorIndex("vecs", "emb");
    }
  });

  constexpr int kThreads = 6;
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        const int64_t axis = (t + i) % kDim;
        exec::RunOptions run;
        run.params = {ScalarValue::FromTensor(AxisQuery(kDim, axis))};
        auto r = session.Sql(sql, {}, run);
        if (!r.ok() ||
            (*r)->num_rows() !=
                static_cast<int64_t>(truth[static_cast<size_t>(axis)]
                                         .size())) {
          ++failures;
          continue;
        }
        for (int64_t row = 0; row < (*r)->num_rows(); ++row) {
          if ((*r)->column(0).data().At({row}) !=
              truth[static_cast<size_t>(axis)][static_cast<size_t>(row)]) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop = true;
  indexer.join();
  EXPECT_EQ(failures.load(), 0);
}

// Re-registration vs. index build vs. queries, all racing: a build that
// loses to a re-registration fails cleanly (ExecutionError, never a
// crash or a stale install), in-flight IndexTopK plans fall back to exact
// results, and every query still returns the truth — the embedding data
// is identical across registrations.
TEST(SessionConcurrencyTest, ReRegistrationRacesIndexBuildAndQueries) {
  constexpr int64_t kRows = 160, kDim = 8;
  Session session;
  ASSERT_TRUE(session.RegisterTable("vecs", MakeEmbeddings(kRows, kDim))
                  .ok());
  const char* sql =
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 5";
  exec::RunOptions truth_run;
  truth_run.params = {ScalarValue::FromTensor(AxisQuery(kDim, 2))};
  auto truth = session.Sql(sql, {}, truth_run);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  std::vector<double> expected_ids;
  for (int64_t i = 0; i < (*truth)->num_rows(); ++i) {
    expected_ids.push_back((*truth)->column(0).data().At({i}));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    while (!stop.load()) {
      if (!session.RegisterTable("vecs", MakeEmbeddings(kRows, kDim)).ok()) {
        ++failures;
      }
    }
  });
  std::thread indexer([&] {
    index::IvfIndex::Options options;
    options.num_lists = 5;
    while (!stop.load()) {
      const Status s = session.CreateVectorIndex("vecs", "emb", options);
      // Either installed, or cleanly lost the race to a re-registration.
      if (!s.ok() && s.code() != StatusCode::kExecutionError) ++failures;
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        exec::RunOptions run;
        run.params = {ScalarValue::FromTensor(AxisQuery(kDim, 2))};
        auto r = session.Sql(sql, {}, run);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        for (size_t row = 0; row < expected_ids.size(); ++row) {
          if ((*r)->column(0).data().At({static_cast<int64_t>(row)}) !=
              expected_ids[row]) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop = true;
  writer.join();
  indexer.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- DML races --------------------------------------------------------------

// Runs a DML statement with the documented retry contract: the loser of a
// write-write race gets a retryable ExecutionError and simply re-runs.
// Returns false (a real failure) for any other error or if the statement
// cannot land within a generous retry budget.
bool RunDmlWithRetry(Session& session, const std::string& sql,
                     const std::vector<ScalarValue>& params = {}) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    exec::RunOptions run;
    run.params = params;
    auto r = session.Sql(sql, {}, run);
    if (r.ok()) return true;
    if (r.status().code() != StatusCode::kExecutionError) return false;
  }
  return false;
}

// One writer ingests and trims rows while readers aggregate. The writer
// maintains the invariant that every row has val = 1, so any consistent
// snapshot satisfies SUM(val) == COUNT(*) — a torn read (an INSERT's rows
// visible in one column but not the other, or a half-applied DELETE)
// breaks the equality.
TEST(SessionConcurrencyTest, DmlWriterRacesAggregatingReaders) {
  Session session;
  ASSERT_TRUE(session.Sql("CREATE TABLE feed (id INT, val INT)").ok());
  ASSERT_TRUE(session.Sql("INSERT INTO feed VALUES (0, 1)").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    int64_t next_id = 1;
    while (!stop.load()) {
      const std::string ins = "INSERT INTO feed VALUES (" +
                              std::to_string(next_id) + ", 1), (" +
                              std::to_string(next_id + 1) + ", 1)";
      if (!RunDmlWithRetry(session, ins)) ++failures;
      next_id += 2;
      // Trim old rows so the table stays small; full rows remain val = 1.
      if (next_id % 10 == 0 &&
          !RunDmlWithRetry(session, "DELETE FROM feed WHERE id < " +
                                        std::to_string(next_id - 20))) {
        ++failures;
      }
    }
  });

  constexpr int kThreads = 6;
  std::vector<std::thread> readers;
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      for (int i = 0; i < 40; ++i) {
        // Alternate morsel sizes (default and 7) under concurrent writes.
        exec::RunOptions run;
        run.morsel_rows = (t + i) % 2 == 0 ? 0 : 7;
        auto r = session.Sql("SELECT COUNT(*), SUM(val) FROM feed", {}, run);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        const double count = (*r)->column(0).data().At({0});
        const double sum = (*r)->column(1).data().At({0});
        if (count < 1.0 || count != sum) ++failures;
      }
    });
  }
  for (auto& th : readers) th.join();
  stop = true;
  writer.join();
  EXPECT_EQ(failures.load(), 0);

  // Nothing was lost: every row the writer landed (and didn't delete) is
  // present exactly once, still with val = 1.
  auto r = session.Sql("SELECT COUNT(*), SUM(val) FROM feed");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->column(0).data().At({0}), (*r)->column(1).data().At({0}));
}

// Writers to the SAME table serialize optimistically: losers retry on
// ExecutionError and every increment lands exactly once. Writers to
// DIFFERENT tables must never conflict at all.
TEST(SessionConcurrencyTest, ConcurrentWritersRetryLostRacesLosslessly) {
  Session session;
  ASSERT_TRUE(session.Sql("CREATE TABLE shared (who INT)").ok());
  constexpr int kWriters = 4;
  for (int w = 0; w < kWriters; ++w) {
    ASSERT_TRUE(session
                    .Sql("CREATE TABLE own" + std::to_string(w) +
                         " (x INT)")
                    .ok());
  }

  constexpr int kIters = 25;
  std::atomic<int> failures{0};
  std::atomic<int> private_conflicts{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        // Contended table: retries allowed (and expected under load).
        if (!RunDmlWithRetry(session, "INSERT INTO shared VALUES (" +
                                          std::to_string(w) + ")")) {
          ++failures;
        }
        // Private table: no other writer touches it, so a write-write
        // conflict here would be a catalog-scoping bug.
        auto r = session.Sql("INSERT INTO own" + std::to_string(w) +
                             " VALUES (" + std::to_string(i) + ")");
        if (!r.ok()) {
          ++failures;
          if (r.status().code() == StatusCode::kExecutionError) {
            ++private_conflicts;
          }
        }
      }
    });
  }
  for (auto& th : writers) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(private_conflicts.load(), 0);

  auto total = session.Sql("SELECT COUNT(*) FROM shared");
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  EXPECT_EQ((*total)->column(0).data().At({0}),
            static_cast<double>(kWriters * kIters));
  for (int w = 0; w < kWriters; ++w) {
    auto own = session.Sql("SELECT COUNT(*) FROM own" + std::to_string(w));
    ASSERT_TRUE(own.ok());
    EXPECT_EQ((*own)->column(0).data().At({0}),
              static_cast<double>(kIters));
  }
}

// DML races CREATE VECTOR INDEX on the same table while readers serve
// top-k. The writer only ever adds (and then deletes) rows whose
// similarity to the probe axis is strongly negative, so the correct top-k
// set never changes; index builds may cleanly lose their install race to
// a DML write (retryable ExecutionError), never crash or corrupt results.
TEST(SessionConcurrencyTest, DmlRacesIndexBuildUnderServing) {
  constexpr int64_t kRows = 160, kDim = 8;
  Session session;
  ASSERT_TRUE(session.RegisterTable("vecs", MakeEmbeddings(kRows, kDim))
                  .ok());
  const char* sql =
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 6";
  exec::RunOptions truth_run;
  truth_run.params = {ScalarValue::FromTensor(AxisQuery(kDim, 3))};
  auto truth = session.Sql(sql, {}, truth_run);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  std::vector<double> expected_ids;
  for (int64_t i = 0; i < (*truth)->num_rows(); ++i) {
    expected_ids.push_back((*truth)->column(0).data().At({i}));
  }

  // Decoy rows: strongly anti-aligned with the probe axis.
  Tensor decoy = Tensor::Zeros({kDim});
  decoy.SetAt({3}, -1.0);

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    int64_t next_id = 100000;
    while (!stop.load()) {
      if (!RunDmlWithRetry(session, "INSERT INTO vecs VALUES (?, ?)",
                           {ScalarValue::Int(next_id),
                            ScalarValue::FromTensor(decoy)})) {
        ++failures;
      }
      ++next_id;
      if (next_id % 8 == 0 &&
          !RunDmlWithRetry(session,
                           "DELETE FROM vecs WHERE id >= 100000")) {
        ++failures;
      }
    }
  });
  std::thread indexer([&] {
    index::IvfIndex::Options options;
    options.num_lists = 5;
    while (!stop.load()) {
      const Status s = session.CreateVectorIndex("vecs", "emb", options);
      // Either installed, or cleanly lost the race to a concurrent DML
      // install — the same retryable contract as a re-registration.
      if (!s.ok() && s.code() != StatusCode::kExecutionError) ++failures;
      (void)session.DropVectorIndex("vecs", "emb");
    }
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        exec::RunOptions run;
        run.params = {ScalarValue::FromTensor(AxisQuery(kDim, 3))};
        auto r = session.Sql(sql, {}, run);
        if (!r.ok() ||
            (*r)->num_rows() !=
                static_cast<int64_t>(expected_ids.size())) {
          ++failures;
          continue;
        }
        for (size_t row = 0; row < expected_ids.size(); ++row) {
          if ((*r)->column(0).data().At({static_cast<int64_t>(row)}) !=
              expected_ids[row]) {
            ++failures;
          }
        }
      }
    });
  }
  for (auto& th : readers) th.join();
  stop = true;
  writer.join();
  indexer.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---- Shared inference-scheduler races ---------------------------------------

// N sessions serve the SAME model (one nn::Linear shared by every
// session's registered UDF — the scheduler groups on module identity, so
// their forwards may coalesce across sessions) while one client keeps
// opening a cursor and closing it after the first chunk. Every completed
// query must equal its session's solo ground truth bit for bit, and the
// early closes must only ever surface as clean kCancelled — never a
// crash, a hang, or another session's rows. Runs under TSan in CI.
TEST(SessionConcurrencyTest, SharedModelServingRacesAcrossSessions) {
  constexpr int kSessions = 4;
  constexpr int64_t kRows = 24;
  Rng rng(123);
  auto model = std::make_shared<nn::Linear>(1, 1, rng);  // on kAccel, like
                                                         // the query device
  // in_features == 1 keeps the forward row-local at the arithmetic level
  // too (one multiply + one add per row, no reduction), so any coalesced
  // batch partition is bit-identical to a solo run.
  auto make_udf = [&model]() {
    udf::ScalarFunction fn;
    fn.name = "embed1";
    fn.return_type = udf::DeclaredType::kFloat;
    fn.batchable = true;
    fn.preferred_batch_rows = 16;
    fn.modules = {model};
    fn.fn = [model](const std::vector<udf::Argument>& args, int64_t,
                    Device) -> StatusOr<Column> {
      const Tensor x = Unsqueeze(args[0].column.DecodeValues(), 1);
      return Column::Plain(Squeeze(model->Forward(x), 1).Contiguous());
    };
    return fn;
  };

  std::vector<std::unique_ptr<Session>> sessions;
  std::vector<std::vector<double>> truth(kSessions);
  const char* sql = "SELECT embed1(x) AS e FROM vals";
  for (int s = 0; s < kSessions; ++s) {
    sessions.push_back(std::make_unique<Session>());
    ASSERT_TRUE(sessions[s]->functions().RegisterScalar(make_udf()).ok());
    std::vector<float> xs;
    for (int64_t i = 0; i < kRows; ++i) {
      xs.push_back(static_cast<float>(s * 1000 + i));
    }
    auto t = TableBuilder("vals").AddFloat32("x", xs).Build();
    ASSERT_TRUE(sessions[s]->RegisterTable("vals", t.value()).ok());
    // Solo ground truth, before any concurrency.
    auto r = sessions[s]->Sql(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ((*r)->num_rows(), kRows);
    for (int64_t i = 0; i < kRows; ++i) {
      truth[s].push_back((*r)->column(0).data().At({i}));
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  // The early-closer: streams session 0's query, takes one chunk, closes.
  // Its withdrawn/cancelled inference requests must never perturb the
  // other sessions' coalesced batches.
  std::thread closer([&] {
    exec::RunOptions run;
    run.morsel_rows = 4;  // several chunks, so Close() really lands early
    while (!stop.load()) {
      auto cursor = sessions[0]->Execute(sql, {}, run);
      if (!cursor.ok()) {
        ++failures;
        continue;
      }
      auto chunk = (*cursor)->Next();
      // A first chunk either arrives intact or reports the close's own
      // cancellation; anything else is a real failure.
      if (!chunk.ok() &&
          chunk.status().code() != StatusCode::kCancelled) {
        ++failures;
      }
      (*cursor)->Close();
    }
  });

  std::vector<std::thread> clients;
  for (int s = 0; s < kSessions; ++s) {
    clients.emplace_back([&, s] {
      for (int i = 0; i < 30; ++i) {
        auto r = sessions[s]->Sql(sql);
        if (!r.ok() || (*r)->num_rows() != kRows) {
          ++failures;
          continue;
        }
        for (int64_t row = 0; row < kRows; ++row) {
          if ((*r)->column(0).data().At({row}) != truth[s][row]) {
            ++failures;  // wrong bytes or another session's rows
          }
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  stop = true;
  closer.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SessionConcurrencyTest, ReRegistrationInvalidatesCachedPlans) {
  Session session;
  auto narrow = TableBuilder("t").AddInt64("a", {1, 2, 3}).Build();
  ASSERT_TRUE(session.RegisterTable("t", narrow.value()).ok());
  EXPECT_EQ(ScalarResult(session.Sql("SELECT COUNT(*) FROM t")), 3.0);

  // Re-register with a different shape: the cached plan must not survive.
  auto wide = TableBuilder("t")
                  .AddInt64("b", {9, 9})
                  .AddInt64("a", {4, 5})
                  .Build();
  ASSERT_TRUE(session.RegisterTable("t", wide.value()).ok());
  EXPECT_EQ(ScalarResult(session.Sql("SELECT COUNT(*) FROM t")), 2.0);
  EXPECT_EQ(ScalarResult(session.Sql("SELECT SUM(a) FROM t")), 9.0);
  EXPECT_GE(session.plan_cache_stats().invalidations, 1u);
}

}  // namespace
}  // namespace tdp
