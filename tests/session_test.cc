#include "src/runtime/session.h"

#include <gtest/gtest.h>

#include "src/models/tvfs.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

TEST(SessionTest, RegisterTensorCreatesSingleColumnTable) {
  Session session;
  ASSERT_TRUE(session
                  .RegisterTensor("nums",
                                  Tensor::FromVector(
                                      std::vector<float>{3, 1, 2}))
                  .ok());
  auto r = session.Sql("SELECT value FROM nums ORDER BY value");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->column(0).data().At({0}), 1.0);
  EXPECT_FALSE(session.RegisterTensor("bad", Tensor()).ok());
}

TEST(SessionTest, RegisterTensorSupportsMultiDim) {
  Session session;
  ASSERT_TRUE(
      session.RegisterTensor("grids", Tensor::Zeros({4, 1, 6, 6})).ok());
  auto r = session.Sql("SELECT COUNT(*) FROM grids");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->column(0).data().At({0}), 4.0);
}

TEST(SessionTest, QueryOptionsSelectDevice) {
  Session session;
  ASSERT_TRUE(session
                  .RegisterTensor("t", Tensor::FromVector(
                                           std::vector<float>{1, 2}))
                  .ok());
  QueryOptions cpu;
  cpu.device = Device::kCpu;
  auto query = session.Query("SELECT value + 1 FROM t", cpu);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ((*query)->device(), Device::kCpu);
  auto chunk = (*query)->RunChunk();
  ASSERT_TRUE(chunk.ok());
  EXPECT_EQ(chunk->columns[0].data().device(), Device::kCpu);
}

TEST(SessionTest, NonTrainableQueryHasNoParameters) {
  Session session;
  ASSERT_TRUE(session
                  .RegisterTensor("t", Tensor::FromVector(
                                           std::vector<float>{1, 2}))
                  .ok());
  auto query = session.Query("SELECT value FROM t");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE((*query)->trainable());
  EXPECT_TRUE((*query)->Parameters().empty());
  EXPECT_TRUE((*query)->Modules().empty());
}

TEST(SessionTest, TrainableQuerySurfacesTvfModules) {
  Session session;
  Rng rng(1);
  auto tvf = models::RegisterClassifyIncomesTvf(session.functions(), 6, rng);
  ASSERT_TRUE(tvf.ok());
  ASSERT_TRUE(
      session.RegisterTensor("bags", Tensor::Zeros({8, 6})).ok());
  QueryOptions options;
  options.trainable = true;
  auto query = session.Query(
      "SELECT Income, COUNT(*) FROM classify_incomes(bags) GROUP BY Income",
      options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ((*query)->Modules().size(), 1u);
  // Linear(6 -> 2) with bias: 14 scalars.
  int64_t total = 0;
  for (const Tensor& p : (*query)->Parameters()) total += p.numel();
  EXPECT_EQ(total, 14);
}

TEST(SessionTest, ExplainMentionsTvfAndAggregate) {
  Session session;
  Rng rng(2);
  auto tvf = models::RegisterClassifyIncomesTvf(session.functions(), 6, rng);
  ASSERT_TRUE(tvf.ok());
  ASSERT_TRUE(session.RegisterTensor("bags", Tensor::Zeros({8, 6})).ok());
  auto plan = session.Explain(
      "SELECT Income, COUNT(*) FROM classify_incomes(bags) GROUP BY Income");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("TvfScan(classify_incomes)"), std::string::npos)
      << *plan;
  EXPECT_NE(plan->find("Aggregate"), std::string::npos);
}

TEST(SessionTest, TvfOverMissingTableIsBindError) {
  Session session;
  Rng rng(3);
  auto tvf = models::RegisterClassifyIncomesTvf(session.functions(), 6, rng);
  ASSERT_TRUE(tvf.ok());
  auto r = session.Sql("SELECT Income FROM classify_incomes(missing)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(SessionTest, UnknownTvfIsBindError) {
  Session session;
  ASSERT_TRUE(session.RegisterTensor("t", Tensor::Zeros({2})).ok());
  auto r = session.Sql("SELECT x FROM not_a_tvf(t)");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST(SessionTest, CompiledQueriesSurviveTableDrop) {
  Session session;
  ASSERT_TRUE(session.RegisterTensor("t", Tensor::Zeros({2})).ok());
  auto query = session.Query("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(session.catalog().DropTable("t").ok());
  // Run after drop: a clean execution error, not a crash.
  auto r = (*query)->Run();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  // Re-register and the query works again.
  ASSERT_TRUE(session.RegisterTensor("t", Tensor::Zeros({5})).ok());
  auto again = (*query)->Run();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->column(0).data().At({0}), 5.0);
}

TEST(SessionTest, ParameterizedQueryMatchesFreshCompiles) {
  Session session;
  auto sales = TableBuilder("sales")
                   .AddInt64("id", {1, 2, 3, 4})
                   .AddFloat32("amount", {10, 20, 30, 40})
                   .Build();
  ASSERT_TRUE(session.RegisterTable("sales", sales.value()).ok());

  auto prepared =
      session.Prepare("SELECT SUM(amount) FROM sales WHERE id >= ?");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ((*prepared)->num_params(), 1);

  // The same plan, re-run with different bindings, must agree with a
  // fresh compile of the literal-inlined statement.
  for (int64_t cut = 1; cut <= 5; ++cut) {
    auto with_param = (*prepared)->Run({exec::ScalarValue::Int(cut)});
    ASSERT_TRUE(with_param.ok()) << with_param.status().ToString();
    auto fresh = session.Query("SELECT SUM(amount) FROM sales WHERE id >= " +
                               std::to_string(cut));
    ASSERT_TRUE(fresh.ok());
    auto fresh_result = (*fresh)->Run();
    ASSERT_TRUE(fresh_result.ok());
    EXPECT_EQ((*with_param)->column(0).data().At({0}),
              (*fresh_result)->column(0).data().At({0}))
        << "cut=" << cut;
  }
}

TEST(SessionTest, ParametersWorkInSelectListAndCompoundPredicates) {
  Session session;
  ASSERT_TRUE(session
                  .RegisterTensor("nums", Tensor::FromVector(
                                              std::vector<float>{1, 2, 3}))
                  .ok());
  auto q = session.Prepare(
      "SELECT value * ? FROM nums WHERE value BETWEEN ? AND ?");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ((*q)->num_params(), 3);
  auto r = (*q)->Run({exec::ScalarValue::Float(10.0),
                      exec::ScalarValue::Int(2), exec::ScalarValue::Int(3)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 2);
  EXPECT_FLOAT_EQ(static_cast<float>((*r)->column(0).data().At({0})), 20.0f);
  EXPECT_FLOAT_EQ(static_cast<float>((*r)->column(0).data().At({1})), 30.0f);
}

TEST(SessionTest, IntegerParametersInAggregatesKeepPrecision) {
  Session session;
  ASSERT_TRUE(session
                  .RegisterTensor("nums", Tensor::FromVector(
                                              std::vector<float>{1, 2, 3}))
                  .ok());
  // 2^24 + 1 is not representable in float32; the parameter's column must
  // be wide enough that the prepared run matches the literal-inlined one.
  const int64_t big = (int64_t{1} << 24) + 1;
  auto q = session.Prepare("SELECT MAX(?) FROM nums");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto prepared = (*q)->Run({exec::ScalarValue::Int(big)});
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto fresh = session.Sql("SELECT MAX(" + std::to_string(big) +
                           ") FROM nums");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ((*prepared)->column(0).data().At({0}),
            (*fresh)->column(0).data().At({0}));
  EXPECT_EQ((*prepared)->column(0).data().At({0}),
            static_cast<double>(big));
}

TEST(SessionTest, ParameterCountMismatchIsAnError) {
  Session session;
  ASSERT_TRUE(session
                  .RegisterTensor("nums",
                                  Tensor::FromVector(std::vector<float>{1}))
                  .ok());
  auto q = session.Prepare("SELECT value FROM nums WHERE value > ?");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE((*q)->Run().ok());                             // 0 of 1
  EXPECT_FALSE((*q)->Run({exec::ScalarValue::Int(1),
                          exec::ScalarValue::Int(2)}).ok());  // 2 of 1
  auto no_params = session.Prepare("SELECT value FROM nums");
  ASSERT_TRUE(no_params.ok());
  EXPECT_EQ((*no_params)->num_params(), 0);
  EXPECT_FALSE((*no_params)->Run({exec::ScalarValue::Int(1)}).ok());
}

TEST(SessionTest, PlanCacheHitsOnRepeatAndNormalizedText) {
  Session session;
  ASSERT_TRUE(session
                  .RegisterTensor("nums", Tensor::FromVector(
                                              std::vector<float>{1, 2, 3}))
                  .ok());
  auto first = session.Prepare("SELECT COUNT(*) FROM nums");
  ASSERT_TRUE(first.ok());
  // Identical modulo case/whitespace: one plan, shared instance.
  auto second = session.Prepare("select   count(*)\n FROM  nums");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  // String literals stay case-sensitive in the cache key.
  auto third = session.Prepare("SELECT COUNT(*) FROM nums WHERE 'a' = 'a'");
  ASSERT_TRUE(third.ok());
  EXPECT_NE(first->get(), third->get());

  const PlanCacheStats stats = session.plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.size, 2u);
}

// Per-run morsel options are not plan state, so they are not in the cache
// key: clients with different morsel sizes share ONE cached plan and run
// it concurrently with their own RunOptions.
TEST(SessionTest, OneCachedPlanServesAllRunOptions) {
  Session session;
  ASSERT_TRUE(session
                  .RegisterTensor("nums", Tensor::FromVector(
                                              std::vector<float>{1, 2, 3}))
                  .ok());
  const std::string sql = "SELECT value FROM nums WHERE value > 0";
  auto first = session.Prepare(sql);
  ASSERT_TRUE(first.ok());
  auto second = session.Prepare(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(session.plan_cache_stats().hits, 1u);
  EXPECT_EQ(session.plan_cache_stats().size, 1u);

  exec::RunOptions tiny;
  tiny.morsel_rows = 1;
  exec::RunOptions odd;
  odd.morsel_rows = 7;
  auto a = (*first)->Run(tiny);
  auto b = (*second)->Run(odd);
  auto c = (*second)->Run();  // defaults
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ((*a)->num_rows(), 3);
  EXPECT_EQ((*b)->num_rows(), 3);
  EXPECT_EQ((*c)->num_rows(), 3);
  // Still one plan, no extra compilation happened for the option spread.
  EXPECT_EQ(session.plan_cache_stats().size, 1u);
  EXPECT_EQ(session.plan_cache_stats().misses, 1u);
}

// EXPLAIN is an inspection tool: it must read through the plan cache
// without perturbing it — no insert (ad-hoc EXPLAINs would evict hot
// serving plans), no LRU reorder, no stats movement.
TEST(SessionTest, ExplainDoesNotTouchThePlanCache) {
  Session session;
  ASSERT_TRUE(session
                  .RegisterTensor("nums", Tensor::FromVector(
                                              std::vector<float>{1, 2, 3}))
                  .ok());
  session.set_plan_cache_capacity(2);
  ASSERT_TRUE(session.Prepare("SELECT value FROM nums").ok());      // A
  ASSERT_TRUE(session.Prepare("SELECT value + 1 FROM nums").ok());  // B
  const PlanCacheStats before = session.plan_cache_stats();

  // EXPLAINs of uncached statements: compiled outside the cache, no
  // insert, no eviction of A/B.
  for (int i = 2; i < 6; ++i) {
    auto plan = session.Explain("SELECT value + " + std::to_string(i) +
                                " FROM nums");
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->find("Project"), std::string::npos);
  }
  // EXPLAIN of a cached statement: served from the cache, still no stats
  // movement and no LRU reorder.
  ASSERT_TRUE(session.Explain("SELECT value FROM nums").ok());

  const PlanCacheStats after = session.plan_cache_stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.invalidations, before.invalidations);
  EXPECT_EQ(after.size, before.size);

  // A and B are both still cached (the EXPLAIN burst evicted nothing).
  ASSERT_TRUE(session.Prepare("SELECT value FROM nums").ok());
  ASSERT_TRUE(session.Prepare("SELECT value + 1 FROM nums").ok());
  EXPECT_EQ(session.plan_cache_stats().hits, before.hits + 2);
  EXPECT_EQ(session.plan_cache_stats().evictions, 0u);
}

TEST(SessionTest, PlanCacheEvictsLeastRecentlyUsed) {
  Session session;
  ASSERT_TRUE(session
                  .RegisterTensor("nums", Tensor::FromVector(
                                              std::vector<float>{1, 2, 3}))
                  .ok());
  session.set_plan_cache_capacity(2);
  ASSERT_TRUE(session.Prepare("SELECT value FROM nums").ok());        // A
  ASSERT_TRUE(session.Prepare("SELECT value + 1 FROM nums").ok());    // B
  ASSERT_TRUE(session.Prepare("SELECT value FROM nums").ok());        // hit A
  ASSERT_TRUE(session.Prepare("SELECT value + 2 FROM nums").ok());    // evict B
  const PlanCacheStats stats = session.plan_cache_stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.hits, 1u);
  // Device is part of the key: same text, different target, new plan.
  QueryOptions cpu;
  cpu.device = Device::kCpu;
  auto accel = session.Prepare("SELECT value FROM nums");
  auto on_cpu = session.Prepare("SELECT value FROM nums", cpu);
  ASSERT_TRUE(accel.ok());
  ASSERT_TRUE(on_cpu.ok());
  EXPECT_NE(accel->get(), on_cpu->get());
}

TEST(SessionTest, HeldQueryFailsLoudlyWhenTableColumnsReorder) {
  Session session;
  auto t = TableBuilder("t")
               .AddInt64("a", {1, 2, 3})
               .AddInt64("b", {10, 20, 30})
               .Build();
  ASSERT_TRUE(session.RegisterTable("t", t.value()).ok());
  auto query = session.Prepare("SELECT a, b FROM t");
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE((*query)->Run().ok());

  // Re-register with columns swapped: the held plan reads by position and
  // must fail with a re-compile error instead of returning b's data as a.
  auto swapped = TableBuilder("t")
                     .AddInt64("b", {10, 20, 30})
                     .AddInt64("a", {1, 2, 3})
                     .Build();
  ASSERT_TRUE(session.RegisterTable("t", swapped.value()).ok());
  auto stale = (*query)->Run();
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kExecutionError);
  // A fresh Prepare (catalog version moved, cache invalidated) is correct.
  auto fresh = session.Sql("SELECT a, b FROM t");
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ((*fresh)->column(0).data().At({0}), 1.0);
  EXPECT_EQ((*fresh)->column(1).data().At({0}), 10.0);
}

TEST(SessionTest, TrainableQueriesBypassThePlanCache) {
  Session session;
  Rng rng(5);
  auto tvf = models::RegisterClassifyIncomesTvf(session.functions(), 6, rng);
  ASSERT_TRUE(tvf.ok());
  ASSERT_TRUE(session.RegisterTensor("bags", Tensor::Zeros({8, 6})).ok());
  QueryOptions options;
  options.trainable = true;
  const std::string sql =
      "SELECT Income, COUNT(*) FROM classify_incomes(bags) GROUP BY Income";
  auto a = session.Prepare(sql, options);
  auto b = session.Prepare(sql, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->get(), b->get());  // each trainable compile is private
}

TEST(SessionTest, ConvBackendParity) {
  // Conv2d must agree across kernel backends (direct vs im2col+GEMM).
  Rng rng(4);
  Tensor input = RandNormal({2, 3, 9, 9}, 0, 1, rng);
  Tensor weight = RandNormal({4, 3, 3, 3}, 0, 0.3, rng);
  Tensor bias = RandNormal({4}, 0, 0.1, rng);
  Tensor cpu = Conv2d(input, weight, bias, 1, 1);
  Tensor accel = Conv2d(input.To(Device::kAccel), weight.To(Device::kAccel),
                        bias.To(Device::kAccel), 1, 1);
  EXPECT_TRUE(AllClose(cpu, accel.To(Device::kCpu), 1e-4, 1e-4));
}

}  // namespace
}  // namespace tdp
