// SQL-path regression tests for index-accelerated top-k similarity:
// CreateVectorIndex + the IndexTopK rewrite (EXPLAIN shape, invalidation
// on re-registration, plan-cache sharing across probe counts, RunOptions
// probe override, partial probes over deleted rows), plus the IvfIndex
// probe edge cases the serving path leans on (probe clamping, a floor
// above the row count, selections, empty k-means cells,
// dimension-mismatch queries — clean Status, never a crash).

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/index/ivf_index.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"
#include "tests/vector_test_util.h"

namespace tdp {
namespace {

using exec::ScalarValue;
using testutil::MakeClusteredUnitVectors;

std::shared_ptr<Table> MakeVecTable(int64_t n, int64_t dim, int64_t clusters,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  auto table =
      TableBuilder("vecs")
          .AddInt64("id", ids)
          .AddTensor("emb", MakeClusteredUnitVectors(n, dim, clusters, rng))
          .Build();
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return table.value();
}

Tensor MakeQuery(int64_t dim, uint64_t seed) {
  Rng rng(seed);
  return testutil::MakeUnitQuery(dim, rng);
}

constexpr const char* kTopK =
    "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 5";

exec::RunOptions WithParams(std::vector<ScalarValue> params) {
  exec::RunOptions run;
  run.params = std::move(params);
  return run;
}

class IvfIndexSqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(session_.RegisterTable("vecs", MakeVecTable(240, 8, 6, 11))
                    .ok());
  }

  Status CreateIndex(int64_t num_lists = 6) {
    index::IvfIndex::Options options;
    options.num_lists = num_lists;
    return session_.CreateVectorIndex("vecs", "emb", options);
  }

  Session session_;
};

// ---- Plan shape / invalidation ----------------------------------------------

TEST_F(IvfIndexSqlTest, ExplainShowsIndexTopKThenSortAfterReRegistration) {
  auto before = session_.Explain(kTopK);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->find("IndexTopK"), std::string::npos) << *before;
  EXPECT_NE(before->find("Sort"), std::string::npos) << *before;

  ASSERT_TRUE(CreateIndex().ok());
  auto with_index = session_.Explain(kTopK);
  ASSERT_TRUE(with_index.ok()) << with_index.status().ToString();
  EXPECT_NE(with_index->find("IndexTopK"), std::string::npos) << *with_index;
  EXPECT_EQ(with_index->find("Sort"), std::string::npos) << *with_index;

  // Re-registering the table invalidates the index (it snapshots data the
  // catalog no longer serves): the plan falls back to the exact sort.
  ASSERT_TRUE(session_.RegisterTable("vecs", MakeVecTable(240, 8, 6, 12))
                  .ok());
  auto after = session_.Explain(kTopK);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->find("IndexTopK"), std::string::npos) << *after;
  EXPECT_NE(after->find("Sort"), std::string::npos) << *after;
}

TEST_F(IvfIndexSqlTest, DropVectorIndexRestoresSortPlan) {
  ASSERT_TRUE(CreateIndex().ok());
  auto with_index = session_.Explain(kTopK);
  ASSERT_TRUE(with_index.ok());
  EXPECT_NE(with_index->find("IndexTopK"), std::string::npos);

  ASSERT_TRUE(session_.DropVectorIndex("vecs", "emb").ok());
  auto after = session_.Explain(kTopK);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->find("IndexTopK"), std::string::npos) << *after;
  EXPECT_FALSE(session_.DropVectorIndex("vecs", "emb").ok());  // NotFound
}

TEST_F(IvfIndexSqlTest, RewritePreconditionsKeepExactPlan) {
  ASSERT_TRUE(CreateIndex().ok());
  // A WHERE clause no longer blocks the rewrite: it is absorbed into a
  // FilteredIndexTopK (strategy chosen by the cost rule; see the
  // FilteredTopK* tests for per-strategy pins).
  auto filtered = session_.Explain(
      "SELECT id, dot(emb, ?) AS sim FROM vecs WHERE id > 10 "
      "ORDER BY sim DESC LIMIT 5");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_NE(filtered->find("FilteredIndexTopK"), std::string::npos)
      << *filtered;
  EXPECT_EQ(filtered->find("Filter"), filtered->find("FilteredIndexTopK"))
      << *filtered;  // no residual Filter node survives below
  // Ascending order is not a top-k-by-similarity search.
  auto asc = session_.Explain(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim ASC LIMIT 5");
  ASSERT_TRUE(asc.ok());
  EXPECT_EQ(asc->find("IndexTopK"), std::string::npos) << *asc;
  // No LIMIT -> full sort, nothing to accelerate.
  auto unlimited = session_.Explain(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC");
  ASSERT_TRUE(unlimited.ok());
  EXPECT_EQ(unlimited->find("IndexTopK"), std::string::npos) << *unlimited;
  // ORDER BY key outside the select list rides a hidden projected column;
  // the rewrite still applies (the cleanup projection sits above).
  auto hidden = session_.Explain(
      "SELECT id FROM vecs ORDER BY dot(emb, ?) DESC LIMIT 5");
  ASSERT_TRUE(hidden.ok());
  EXPECT_NE(hidden->find("IndexTopK"), std::string::npos) << *hidden;
}

TEST_F(IvfIndexSqlTest, CreateVectorIndexValidatesInput) {
  EXPECT_FALSE(session_.CreateVectorIndex("missing", "emb").ok());
  EXPECT_FALSE(session_.CreateVectorIndex("vecs", "missing").ok());
  // Scalar column: not a rank-2 embedding column.
  EXPECT_FALSE(session_.CreateVectorIndex("vecs", "id").ok());
}

TEST_F(IvfIndexSqlTest, BuiltInNamesCannotBeShadowedByUdfs) {
  // dot/cosine_sim resolve before the registry; registering a UDF under
  // either name would be silently shadowed, so it must fail loudly.
  for (const char* name : {"dot", "cosine_sim", "DOT"}) {
    udf::ScalarFunction fn;
    fn.name = name;
    fn.fn = [](const std::vector<udf::Argument>&, int64_t rows,
               Device device) -> StatusOr<Column> {
      return Column::Plain(Tensor::Zeros({rows}, DType::kFloat32, device));
    };
    const Status s = session_.functions().RegisterScalar(std::move(fn));
    ASSERT_FALSE(s.ok()) << name;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find("reserved"), std::string::npos);
  }
}

// ---- Execution: exactness, probes, parameters -------------------------------

TEST_F(IvfIndexSqlTest, IndexPlanMatchesBrutePlanBitForBit) {
  const std::vector<ScalarValue> params = {
      ScalarValue::FromTensor(MakeQuery(8, 21))};
  // Compile the brute plan BEFORE the index exists; it stays pinned to
  // the Sort+Limit shape.
  auto brute = session_.Query(kTopK);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  ASSERT_TRUE(CreateIndex().ok());
  auto indexed = session_.Query(kTopK);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  EXPECT_NE((*indexed)->Explain().find("IndexTopK"), std::string::npos);

  auto brute_result = (*brute)->Run(params);
  ASSERT_TRUE(brute_result.ok()) << brute_result.status().ToString();
  ASSERT_EQ((*brute_result)->num_rows(), 5);

  // Default probes (= every cell) must be bit-identical to brute force.
  auto exact = (*indexed)->Run(params);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  testutil::ExpectTablesBitIdentical(**brute_result, **exact);

  // Explicit full-probe override: same thing.
  exec::RunOptions full;
  full.params = params;
  full.vector_search.num_probes = 6;
  auto full_result = (*indexed)->Run(full);
  ASSERT_TRUE(full_result.ok());
  testutil::ExpectTablesBitIdentical(**brute_result, **full_result);

  // Over-clamped probe count behaves like full probes.
  exec::RunOptions over;
  over.params = params;
  over.vector_search.num_probes = 1000;
  auto over_result = (*indexed)->Run(over);
  ASSERT_TRUE(over_result.ok());
  testutil::ExpectTablesBitIdentical(**brute_result, **over_result);
}

TEST_F(IvfIndexSqlTest, ProbeBudgetTradesRecallNeverShape) {
  ASSERT_TRUE(CreateIndex().ok());
  auto query = session_.Prepare(kTopK);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  exec::RunOptions run;
  run.params = {ScalarValue::FromTensor(MakeQuery(8, 33))};
  run.vector_search.num_probes = 1;
  auto result = (*query)->Run(run);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // One probed cell still yields a full k-row, descending result.
  ASSERT_EQ((*result)->num_rows(), 5);
  const Column& sim = (*result)->column(1);
  for (int64_t i = 1; i < 5; ++i) {
    EXPECT_GE(sim.data().At({i - 1}), sim.data().At({i}));
  }

  // k far beyond any single cell (240 rows across 6 lists): the probe
  // budget is a floor, so a 1-probe run keeps probing until k candidate
  // rows exist — the result never shrinks below min(k, n).
  auto big_k = session_.Prepare(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 100");
  ASSERT_TRUE(big_k.ok()) << big_k.status().ToString();
  exec::RunOptions one_probe;
  one_probe.params = {ScalarValue::FromTensor(MakeQuery(8, 33))};
  one_probe.vector_search.num_probes = 1;
  auto topped_up = (*big_k)->Run(one_probe);
  ASSERT_TRUE(topped_up.ok()) << topped_up.status().ToString();
  EXPECT_EQ((*topped_up)->num_rows(), 100);
}

TEST_F(IvfIndexSqlTest, ProbeCountsShareOneCachedPlan) {
  ASSERT_TRUE(CreateIndex().ok());
  const std::vector<ScalarValue> params = {
      ScalarValue::FromTensor(MakeQuery(8, 5))};
  for (int64_t probes : {0, 1, 2, 6}) {
    exec::RunOptions run;
    run.params = params;
    run.vector_search.num_probes = probes;
    auto result = session_.Sql(kTopK, {}, run);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ((*result)->num_rows(), 5);
  }
  const PlanCacheStats stats = session_.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);  // one compile serves every probe budget
  EXPECT_GE(stats.hits, 3u);
}

TEST_F(IvfIndexSqlTest, StaleCompiledPlanFallsBackToExactResults) {
  ASSERT_TRUE(CreateIndex().ok());
  auto query = session_.Prepare(kTopK);
  ASSERT_TRUE(query.ok());
  EXPECT_NE((*query)->Explain().find("IndexTopK"), std::string::npos);
  // Re-register with DIFFERENT content while the compiled plan lives on:
  // the in-flight IndexTopK node must serve exact results over the new
  // data (schema still matches), not index results over the old snapshot.
  ASSERT_TRUE(session_.RegisterTable("vecs", MakeVecTable(240, 8, 6, 99))
                  .ok());
  const std::vector<ScalarValue> params = {
      ScalarValue::FromTensor(MakeQuery(8, 7))};
  auto stale = (*query)->Run(params);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  // Ground truth from a freshly compiled (Sort+Limit) plan.
  auto fresh = session_.Sql(kTopK, {}, WithParams(params));
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  testutil::ExpectTablesBitIdentical(**stale, **fresh);
}

TEST_F(IvfIndexSqlTest, SqlEdgeCasesReturnCleanResults) {
  ASSERT_TRUE(CreateIndex().ok());
  const std::vector<ScalarValue> params = {
      ScalarValue::FromTensor(MakeQuery(8, 3))};

  // LIMIT 0: empty result, correct two-column shape.
  auto zero = session_.Sql(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 0",
      {}, WithParams(params));
  ASSERT_TRUE(zero.ok()) << zero.status().ToString();
  EXPECT_EQ((*zero)->num_rows(), 0);
  EXPECT_EQ((*zero)->num_columns(), 2);

  // k far beyond the table: every row, still globally sorted.
  auto all = session_.Sql(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC "
      "LIMIT 100000",
      {}, WithParams(params));
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ((*all)->num_rows(), 240);
  const Column& sim = (*all)->column(1);
  for (int64_t i = 1; i < 240; ++i) {
    EXPECT_GE(sim.data().At({i - 1}), sim.data().At({i}));
  }

  // OFFSET rides on top of the fused top-k.
  auto offset = session_.Sql(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC "
      "LIMIT 3 OFFSET 2",
      {}, WithParams(params));
  ASSERT_TRUE(offset.ok()) << offset.status().ToString();
  EXPECT_EQ((*offset)->num_rows(), 3);
  EXPECT_EQ(static_cast<double>((*offset)->column(1).data().At({0})),
            static_cast<double>(sim.data().At({2})));

  // Dimension-mismatch query vector: clean InvalidArgument, no crash.
  auto bad_dim = session_.Sql(
      kTopK, {},
      WithParams({ScalarValue::FromTensor(MakeQuery(5, 3))}));
  ASSERT_FALSE(bad_dim.ok());
  EXPECT_EQ(bad_dim.status().code(), StatusCode::kInvalidArgument);

  // Non-tensor parameter where a query vector is expected: clean error.
  auto bad_type = session_.Sql(
      kTopK, {}, WithParams({ScalarValue::Int(42)}));
  ASSERT_FALSE(bad_type.ok());
  EXPECT_EQ(bad_type.status().code(), StatusCode::kTypeError);

  // cosine_sim goes through the same rewrite and executes.
  auto cos = session_.Explain(
      "SELECT id, cosine_sim(emb, ?) AS sim FROM vecs "
      "ORDER BY sim DESC LIMIT 4");
  ASSERT_TRUE(cos.ok());
  EXPECT_NE(cos->find("IndexTopK"), std::string::npos) << *cos;
  auto cos_result = session_.Sql(
      "SELECT id, cosine_sim(emb, ?) AS sim FROM vecs "
      "ORDER BY sim DESC LIMIT 4",
      {}, WithParams(params));
  ASSERT_TRUE(cos_result.ok()) << cos_result.status().ToString();
  EXPECT_EQ((*cos_result)->num_rows(), 4);

  // dot() over a scalar column: clean TypeError.
  auto scalar_col = session_.Sql(
      "SELECT dot(id, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 2", {},
      WithParams(params));
  ASSERT_FALSE(scalar_col.ok());
  EXPECT_EQ(scalar_col.status().code(), StatusCode::kTypeError);

  // Wrong arity is a bind error.
  auto arity = session_.Sql("SELECT dot(emb) FROM vecs");
  ASSERT_FALSE(arity.ok());
  EXPECT_EQ(arity.status().code(), StatusCode::kBindError);
}

TEST_F(IvfIndexSqlTest, NegativeProbeBudgetFailsCleanly) {
  exec::RunOptions run = WithParams({ScalarValue::FromTensor(MakeQuery(8, 3))});
  run.vector_search.num_probes = -2;  // e.g. an underflowed lists/4 - overhead
  // The contract is unconditional (validated at run entry): the same bad
  // value fails identically with no index (brute plan), ...
  auto brute = session_.Sql(kTopK, {}, run);
  ASSERT_FALSE(brute.ok());
  EXPECT_EQ(brute.status().code(), StatusCode::kInvalidArgument);
  // ... with a live index (IndexTopK plan), ...
  ASSERT_TRUE(CreateIndex().ok());
  auto indexed = session_.Sql(kTopK, {}, run);
  ASSERT_FALSE(indexed.ok());
  EXPECT_EQ(indexed.status().code(), StatusCode::kInvalidArgument);
  // ... and through the cursor path.
  auto cursor = session_.Execute(kTopK, {}, run);
  ASSERT_FALSE(cursor.ok());
  EXPECT_EQ(cursor.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(IvfIndexSqlTest, CosineOverUnnormalizedRowsNeverLosesRecall) {
  // Rows with wildly different norms: the dot-ordered cell probe is
  // untrustworthy for cosine ranking, so a partial budget must silently
  // widen to every cell — results stay exact instead of recall collapsing.
  const int64_t n = 120, d = 8;
  Rng rng(77);
  Tensor emb = testutil::MakeClusteredUnitVectors(n, d, 6, rng);
  for (int64_t i = 0; i < n; ++i) {
    const double scale = 0.05 + 2.0 * static_cast<double>(i % 7);
    for (int64_t j = 0; j < d; ++j) {
      emb.SetAt({i, j}, emb.At({i, j}) * scale);
    }
  }
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  auto table =
      TableBuilder("vecs").AddInt64("id", ids).AddTensor("emb", emb).Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session_.RegisterTable("vecs", table.value()).ok());

  const char* cos_sql =
      "SELECT id, cosine_sim(emb, ?) AS sim FROM vecs "
      "ORDER BY sim DESC LIMIT 8";
  const std::vector<ScalarValue> params = {
      ScalarValue::FromTensor(MakeQuery(8, 9))};
  auto brute = session_.Query(cos_sql);  // pinned pre-index (Sort+Limit)
  ASSERT_TRUE(brute.ok());
  ASSERT_TRUE(CreateIndex().ok());
  auto expected = (*brute)->Run(params);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  exec::RunOptions one_probe = WithParams(params);
  one_probe.vector_search.num_probes = 1;
  auto got = session_.Sql(cos_sql, {}, one_probe);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  testutil::ExpectTablesBitIdentical(**expected, **got);
}

TEST_F(IvfIndexSqlTest, RecallAtQuarterProbesOnClusteredData) {
  index::IvfIndex::Options options;
  options.num_lists = 12;
  ASSERT_TRUE(session_.RegisterTable("vecs", MakeVecTable(600, 16, 12, 44))
                  .ok());
  ASSERT_TRUE(session_.CreateVectorIndex("vecs", "emb", options).ok());
  auto query = session_.Prepare(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 10");
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  double recall = 0;
  const int kQueries = 10;
  for (int q = 0; q < kQueries; ++q) {
    const Tensor qvec = MakeQuery(16, 1000 + static_cast<uint64_t>(q));
    exec::RunOptions exact;
    exact.params = {ScalarValue::FromTensor(qvec)};
    auto truth = (*query)->Run(exact);
    ASSERT_TRUE(truth.ok());
    std::set<int64_t> exact_ids;
    for (int64_t i = 0; i < 10; ++i) {
      exact_ids.insert(
          static_cast<int64_t>((*truth)->column(0).data().At({i})));
    }
    exec::RunOptions approx;
    approx.params = {ScalarValue::FromTensor(qvec)};
    approx.vector_search.num_probes = 3;  // num_lists / 4
    auto got = (*query)->Run(approx);
    ASSERT_TRUE(got.ok());
    for (int64_t i = 0; i < (*got)->num_rows(); ++i) {
      if (exact_ids.contains(
              static_cast<int64_t>((*got)->column(0).data().At({i})))) {
        recall += 1;
      }
    }
  }
  recall /= kQueries * 10;
  EXPECT_GE(recall, 0.9) << "recall@10 at num_lists/4 probes";
}

// ---- Filtered vector search (pre/post-filter + cost rule) -------------------

// EXPLAIN pins: one per strategy the cost rule can choose, plus the
// no-index fallback. vecs has 240 rows and k=5:
//   id > 10             -> s=0.3,  ~72 survivors  -> pre_filter
//   id <> 10            -> s=0.9,  ~216 survivors -> post_filter
//   id = 1 AND id > 200 -> s=0.03, ~7 survivors   -> pre_filter (no more
//                          than k true survivors: ranked without a probe)
TEST_F(IvfIndexSqlTest, ExplainShowsChosenFilteredStrategy) {
  ASSERT_TRUE(CreateIndex().ok());
  const struct {
    const char* where;
    const char* expect;
  } cases[] = {
      {"id > 10", "FilteredIndexTopK(strategy=pre_filter"},
      {"id <> 10", "FilteredIndexTopK(strategy=post_filter"},
      {"id = 1 AND id > 200", "FilteredIndexTopK(strategy=pre_filter"},
  };
  for (const auto& c : cases) {
    auto plan = session_.Explain(
        "SELECT id, dot(emb, ?) AS sim FROM vecs WHERE " +
        std::string(c.where) + " ORDER BY sim DESC LIMIT 5");
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find(c.expect), std::string::npos)
        << c.where << " rendered:\n" << *plan;
    EXPECT_NE(plan->find("where="), std::string::npos) << *plan;
  }
}

TEST_F(IvfIndexSqlTest, FilteredTopKWithoutIndexKeepsFilterSortPlan) {
  // No index: a filtered top-k stays the exact Filter + Sort plan.
  auto plan = session_.Explain(
      "SELECT id, dot(emb, ?) AS sim FROM vecs WHERE id > 10 "
      "ORDER BY sim DESC LIMIT 5");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->find("IndexTopK"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Filter"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("Sort"), std::string::npos) << *plan;
}

// Predicates the cost rule sends down each path (see the EXPLAIN pins
// above): a range is estimated at 0.3 (pre_filter), its negation at 0.7
// (post_filter).
struct FilteredCase {
  std::string where;
  const char* strategy;
};

void ExpectStrategy(Session& session, const std::string& sql,
                    const char* strategy) {
  auto plan = session.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find(std::string("strategy=") + strategy),
            std::string::npos)
      << *plan;
}

TEST_F(IvfIndexSqlTest, FilteredStrategiesAllMatchBruteAtFullProbes) {
  ASSERT_TRUE(CreateIndex().ok());
  const std::vector<ScalarValue> params = {
      ScalarValue::FromTensor(MakeQuery(8, 51))};
  for (const FilteredCase& c :
       {FilteredCase{"id > 10", "pre_filter"},
        FilteredCase{"id <> 10", "post_filter"}}) {
    const std::string sql = "SELECT id, dot(emb, ?) AS sim FROM vecs WHERE " +
                            c.where + " ORDER BY sim DESC LIMIT 5";
    // Ground truth: the Filter + Sort plan of a session without an index.
    Session reference;
    ASSERT_TRUE(
        reference.RegisterTable("vecs", MakeVecTable(240, 8, 6, 11)).ok());
    auto expected = reference.Sql(sql, {}, WithParams(params));
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_EQ((*expected)->num_rows(), 5);

    ExpectStrategy(session_, sql, c.strategy);
    // The default budget (every cell) and an over-clamped one.
    for (const int64_t probes : {int64_t{0}, int64_t{1000}}) {
      exec::RunOptions run = WithParams(params);
      run.vector_search.num_probes = probes;
      auto got = session_.Sql(sql, {}, run);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      testutil::ExpectTablesBitIdentical(
          **expected, **got,
          c.where + " probes=" + std::to_string(probes));
    }
  }
}

TEST_F(IvfIndexSqlTest, FilteredTopKHonorsSurvivorFloorUnderTinyBudgets) {
  ASSERT_TRUE(CreateIndex().ok());
  const std::vector<ScalarValue> params = {
      ScalarValue::FromTensor(MakeQuery(8, 52))};
  // 12 survivors (ids 0..11) under either strategy. However small the
  // probe budget, the result must hold min(k, survivors) rows.
  for (const FilteredCase& c :
       {FilteredCase{"id < 12", "pre_filter"},
        FilteredCase{"NOT (id >= 12)", "post_filter"}}) {
    exec::RunOptions run = WithParams(params);
    run.vector_search.num_probes = 1;
    // k=5 <= survivors: full k rows.
    const std::string top5 = "SELECT id, dot(emb, ?) AS sim FROM vecs WHERE " +
                             c.where + " ORDER BY sim DESC LIMIT 5";
    ExpectStrategy(session_, top5, c.strategy);
    auto r = session_.Sql(top5, {}, run);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)->num_rows(), 5) << c.where;
    // k=100 > survivors: exactly the 12 surviving rows, sorted.
    auto all = session_.Sql("SELECT id, dot(emb, ?) AS sim FROM vecs WHERE " +
                                c.where + " ORDER BY sim DESC LIMIT 100",
                            {}, run);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    EXPECT_EQ((*all)->num_rows(), 12) << c.where;
    for (int64_t i = 0; i < (*all)->num_rows(); ++i) {
      EXPECT_LT((*all)->column(0).data().At({i}), 12.0) << c.where;
    }
  }
}

TEST_F(IvfIndexSqlTest, FilteredTopKWithZeroSurvivorsIsEmptyNotAnError) {
  ASSERT_TRUE(CreateIndex().ok());
  for (const FilteredCase& c :
       {FilteredCase{"id < 0", "pre_filter"},
        FilteredCase{"NOT (id >= 0)", "post_filter"}}) {
    const std::string sql = "SELECT id, dot(emb, ?) AS sim FROM vecs WHERE " +
                            c.where + " ORDER BY sim DESC LIMIT 5";
    ExpectStrategy(session_, sql, c.strategy);
    for (const int64_t probes : {int64_t{0}, int64_t{1}}) {
      exec::RunOptions run =
          WithParams({ScalarValue::FromTensor(MakeQuery(8, 53))});
      run.vector_search.num_probes = probes;
      auto r = session_.Sql(sql, {}, run);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ((*r)->num_rows(), 0) << c.where << " probes=" << probes;
      EXPECT_EQ((*r)->num_columns(), 2);
    }
  }
}

// An unfiltered probe over a table with deletes: the best cells hold few
// live rows, yet a partial budget must still return k live rows, the
// nearest first. 2048 rows in 8 clusters (row i in cluster i % 8), 16
// lists; all but 6 rows of the query's own cluster are deleted.
TEST(IvfIndexDeleteTest, UnfilteredPartialProbeSkipsDeletedRows) {
  constexpr int64_t kRows = 2048;
  constexpr int64_t kClusters = 8;
  constexpr int64_t kDim = 16;
  Rng rng(41);
  const Tensor centers =
      L2Normalize(RandNormal({kClusters, kDim}, 0, 1, rng), 1);
  Tensor emb = Tensor::Zeros({kRows, kDim});
  std::vector<int64_t> ids(static_cast<size_t>(kRows));
  for (int64_t i = 0; i < kRows; ++i) {
    ids[static_cast<size_t>(i)] = i;
    const Tensor row = L2Normalize(
        Add(Slice(centers, 0, i % kClusters, 1),
            RandNormal({1, kDim}, 0, 0.08, rng)),
        1);
    for (int64_t d = 0; d < kDim; ++d) emb.SetAt({i, d}, row.At({0, d}));
  }
  auto table =
      TableBuilder("vecs").AddInt64("id", ids).AddTensor("emb", emb).Build();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  Session session;
  ASSERT_TRUE(session.RegisterTable("vecs", table.value()).ok());
  index::IvfIndex::Options options;
  options.num_lists = 16;
  ASSERT_TRUE(session.CreateVectorIndex("vecs", "emb", options).ok());

  // Cluster 0 keeps ids 0, 8, ..., 40.
  auto del = session.Sql("DELETE FROM vecs WHERE id % 8 = 0 AND id >= 48");
  ASSERT_TRUE(del.ok()) << del.status().ToString();
  ASSERT_NE(session.catalog().FindVectorIndex("vecs", "emb"), nullptr)
      << "DELETE keeps the index";
  const std::set<int64_t> survivors = {0, 8, 16, 24, 32, 40};

  const char* sql =
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 10";
  auto plan = session.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_NE(plan->find("IndexTopK"), std::string::npos) << *plan;
  exec::RunOptions run =
      WithParams({ScalarValue::FromTensor(Slice(centers, 0, 0, 1)
                                              .Squeeze(0)
                                              .Contiguous())});
  run.vector_search.num_probes = 1;
  auto got = session.Sql(sql, {}, run);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ((*got)->num_rows(), 10);
  const std::vector<int64_t> top =
      (*got)->column(0).data().ToVector<int64_t>();
  const Tensor sims = (*got)->column(1).data().Contiguous();
  for (int64_t i = 0; i < 10; ++i) {
    const int64_t id = top[static_cast<size_t>(i)];
    EXPECT_FALSE(id % 8 == 0 && id >= 48) << "deleted row " << id;
    EXPECT_EQ(survivors.contains(id), i < 6) << "rank " << i << " id " << id;
    if (i > 0) {
      EXPECT_GE(sims.At({i - 1}), sims.At({i})) << "rank " << i;
    }
  }
}

TEST_F(IvfIndexSqlTest, SecondarySortKeysRideTheIndexAsTiebreaks) {
  ASSERT_TRUE(CreateIndex().ok());
  const char* sql =
      "SELECT id, dot(emb, ?) AS sim FROM vecs "
      "ORDER BY sim DESC, id DESC LIMIT 7";
  auto plan = session_.Explain(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexTopK"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("tiebreak=1"), std::string::npos) << *plan;

  const std::vector<ScalarValue> params = {
      ScalarValue::FromTensor(MakeQuery(8, 54))};
  Session reference;
  ASSERT_TRUE(
      reference.RegisterTable("vecs", MakeVecTable(240, 8, 6, 11)).ok());
  auto expected = reference.Sql(sql, {}, WithParams(params));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto got = session_.Sql(sql, {}, WithParams(params));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  testutil::ExpectTablesBitIdentical(**expected, **got, "tiebreak");
}

TEST(IvfIndexBoolTiebreakTest, BoolTiebreakRanksLikeThePlanWithoutIndex) {
  // Every embedding appears twice, flagged false then true, so the bool
  // tiebreak decides between equal similarities.
  Rng rng(31);
  constexpr int64_t kDistinct = 60;
  const Tensor emb = MakeClusteredUnitVectors(kDistinct, 8, 4, rng);
  std::vector<int64_t> ids, twice;
  std::vector<bool> flags;
  for (int64_t i = 0; i < 2 * kDistinct; ++i) {
    ids.push_back(i);
    twice.push_back(i % kDistinct);
    flags.push_back(i >= kDistinct);
  }
  const auto make_table = [&] {
    auto table = TableBuilder("flagged")
                     .AddInt64("id", ids)
                     .AddBool("flag", flags)
                     .AddTensor("emb", IndexSelect(emb, 0,
                                                   Tensor::FromVector(twice)))
                     .Build();
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    return table.value();
  };
  Session plain, indexed;
  ASSERT_TRUE(plain.RegisterTable("flagged", make_table()).ok());
  ASSERT_TRUE(indexed.RegisterTable("flagged", make_table()).ok());
  index::IvfIndex::Options options;
  options.num_lists = 4;
  ASSERT_TRUE(indexed.CreateVectorIndex("flagged", "emb", options).ok());

  const char* sql =
      "SELECT id, flag, dot(emb, ?) AS sim FROM flagged "
      "ORDER BY sim DESC, flag DESC LIMIT 5";
  auto plan = indexed.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("IndexTopK"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("tiebreak=1"), std::string::npos) << *plan;

  const exec::RunOptions run =
      WithParams({ScalarValue::FromTensor(MakeQuery(8, 77))});
  auto expected = plain.Sql(sql, {}, run);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto got = indexed.Sql(sql, {}, run);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  testutil::ExpectTablesBitIdentical(**expected, **got, "bool tiebreak");
  // The best pair comes first, its true-flagged copy ahead.
  const std::vector<int64_t> top = (*got)->column(0).data().ToVector<int64_t>();
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0], top[1] + kDistinct);
}

// ---- IvfIndex edge-case regressions (the API the SQL path leans on) --------

TEST(IvfIndexEdgeTest, ProbeEdgeCasesReturnCleanStatus) {
  Rng rng(6);
  Tensor data = MakeClusteredUnitVectors(40, 4, 4, rng);
  index::IvfIndex::Options options;
  options.num_lists = 8;
  auto built = index::IvfIndex::Build(data, options, rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Tensor query = MakeQuery(4, 9);

  // Non-positive probes: InvalidArgument.
  EXPECT_EQ(built->ProbeCandidates(query, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(built->ProbeCandidates(query, -3).status().code(),
            StatusCode::kInvalidArgument);

  // num_probes > num_lists clamps to every row; so does a floor above
  // num_rows at a single probe.
  using ProbeAndFloor = std::pair<int64_t, int64_t>;
  for (const auto& [probes, floor] :
       {ProbeAndFloor{1000, 0}, ProbeAndFloor{1, 1000}}) {
    auto all = built->ProbeCandidates(query, probes, floor);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    EXPECT_EQ(all->size(), 40u) << probes << " probes, floor " << floor;
  }

  // A selection of the wrong length: InvalidArgument. An empty one
  // selects nothing.
  const std::vector<uint8_t> short_selection(39, 1);
  EXPECT_EQ(built->ProbeCandidates(query, 2, 0, &short_selection)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  const std::vector<uint8_t> none(40, 0);
  auto nothing = built->ProbeCandidates(query, 2, 5, &none);
  ASSERT_TRUE(nothing.ok()) << nothing.status().ToString();
  EXPECT_TRUE(nothing->empty());

  // Dimension mismatch / undefined query: InvalidArgument with dims.
  auto bad = built->ProbeCandidates(MakeQuery(7, 9), 2);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("d=4"), std::string::npos);
  EXPECT_FALSE(built->ProbeCandidates(Tensor(), 2).ok());
}

TEST(IvfIndexEdgeTest, EmptyCellsNeverEatTheProbeBudget) {
  // 10 identical rows with 8 requested lists: k-means leaves most cells
  // empty. A single probe must land on the NON-empty cell and come back
  // with its rows, not zero.
  Tensor data = Tensor::Zeros({10, 4});
  for (int64_t i = 0; i < 10; ++i) data.SetAt({i, 0}, 1.0);
  index::IvfIndex::Options options;
  options.num_lists = 8;
  Rng rng(3);
  auto built = index::IvfIndex::Build(data, options, rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  Tensor query = Tensor::Zeros({4});
  query.SetAt({0}, 1.0);
  auto result = built->ProbeCandidates(query, 1);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 10u);
}

TEST(IvfIndexEdgeTest, FullProbeCandidatesAreEveryRowAscending) {
  Rng rng(8);
  Tensor data = MakeClusteredUnitVectors(57, 8, 5, rng);
  index::IvfIndex::Options options;
  options.num_lists = 5;
  auto built = index::IvfIndex::Build(data, options, rng);
  ASSERT_TRUE(built.ok());
  auto candidates = built->ProbeCandidates(MakeQuery(8, 2), 5);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 57u);
  for (int64_t i = 0; i < 57; ++i) {
    EXPECT_EQ((*candidates)[static_cast<size_t>(i)], i);
  }
}

}  // namespace
}  // namespace tdp
