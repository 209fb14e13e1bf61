#include "src/plan/optimizer.h"

#include <gtest/gtest.h>

#include "src/runtime/session.h"
#include "src/sql/binder.h"
#include "src/sql/parser.h"

namespace tdp {
namespace plan {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = TableBuilder("t")
                 .AddInt64("k", {1, 2, 3})
                 .AddFloat32("v", {1, 2, 3})
                 .AddTensor("img", Tensor::Zeros({3, 1, 4, 4}))
                 .Build();
    ASSERT_TRUE(session_.RegisterTable("t", t.value()).ok());
    auto u = TableBuilder("u")
                 .AddInt64("k2", {1, 2})
                 .AddFloat32("w", {5, 6})
                 .Build();
    ASSERT_TRUE(session_.RegisterTable("u", u.value()).ok());
  }

  std::string Plan(const std::string& sql) {
    auto result = session_.Explain(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.value() : "";
  }

  Session session_;
};

TEST_F(OptimizerTest, LimitFusesIntoSort) {
  const std::string plan = Plan("SELECT k FROM t ORDER BY v LIMIT 2");
  EXPECT_NE(plan.find("topk=2"), std::string::npos) << plan;
  // The standalone Limit node is gone (offset = 0).
  EXPECT_EQ(plan.find("Limit("), std::string::npos) << plan;
}

TEST_F(OptimizerTest, LimitWithOffsetKeepsLimitNode) {
  const std::string plan =
      Plan("SELECT k FROM t ORDER BY v LIMIT 2 OFFSET 1");
  EXPECT_NE(plan.find("topk=3"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Limit(2, offset=1)"), std::string::npos) << plan;
}

TEST_F(OptimizerTest, FilterPushesThroughJoin) {
  const std::string plan = Plan(
      "SELECT t.k FROM t JOIN u ON t.k = u.k2 WHERE t.v > 1 AND u.w > 5");
  // Both conjuncts moved below the join: Filter appears under Join sides.
  const size_t join_pos = plan.find("Join");
  ASSERT_NE(join_pos, std::string::npos);
  EXPECT_NE(plan.find("Filter", join_pos), std::string::npos)
      << "expected pushed-down filters below the join:\n" << plan;
  // No filter remains above the join.
  EXPECT_EQ(plan.substr(0, join_pos).find("Filter"), std::string::npos)
      << plan;
}

TEST_F(OptimizerTest, ScanPruningDropsUnusedTensorColumn) {
  const std::string plan = Plan("SELECT k FROM t WHERE v > 1");
  EXPECT_NE(plan.find("cols=2"), std::string::npos)
      << "scan should read only k and v, not the image column:\n" << plan;
}

TEST_F(OptimizerTest, PruningPreservesResults) {
  auto full = session_.Sql("SELECT k, v FROM t WHERE v > 1 ORDER BY k");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ((*full)->num_rows(), 2);
  EXPECT_EQ((*full)->column(0).data().At({0}), 2.0);
  EXPECT_FLOAT_EQ(static_cast<float>((*full)->column(1).data().At({1})),
                  3.0f);
}

TEST_F(OptimizerTest, SelectStarIsNotPruned) {
  const std::string plan = Plan("SELECT * FROM t");
  EXPECT_EQ(plan.find("cols="), std::string::npos) << plan;
}

TEST_F(OptimizerTest, LiteralOnlyProjectionKeepsOneNarrowColumn) {
  // Regression: pruning `SELECT 1 FROM t` down to zero scan columns made
  // the chunk report zero rows. The scan must keep one (narrow, non-
  // tensor) column purely for the row count.
  const std::string plan = Plan("SELECT 1 FROM t");
  EXPECT_NE(plan.find("cols=1"), std::string::npos) << plan;

  auto r = session_.Sql("SELECT 1 FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 3);
  EXPECT_EQ((*r)->column(0).data().At({2}), 1.0);

  auto filtered = session_.Sql("SELECT 1 + 1 FROM t WHERE k > 1");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_EQ((*filtered)->num_rows(), 2);
}

TEST_F(OptimizerTest, ScanUnderFilteredAggregateKeepsReferencedColumns) {
  // The group key and the argument are `k` and `v`; the filter reads `v`
  // too. The image column is never read, so the scan drops it.
  const std::string plan =
      Plan("SELECT k, SUM(v) FROM t WHERE v > 1 GROUP BY k");
  EXPECT_NE(plan.find("cols=2"), std::string::npos) << plan;
  // Only the key is referenced: one column survives.
  const std::string key_only =
      Plan("SELECT k, COUNT(*) FROM t WHERE k > 1 GROUP BY k");
  EXPECT_NE(key_only.find("cols=1"), std::string::npos) << key_only;

  auto r = session_.Sql("SELECT k, SUM(v) FROM t WHERE v > 1 GROUP BY k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 2);
  EXPECT_EQ((*r)->column(0).data().At({0}), 2.0);
  EXPECT_EQ((*r)->column(1).data().At({1}), 3.0);
}

TEST_F(OptimizerTest, CountStarKeepsOneNarrowColumn) {
  // COUNT(*) references no column, yet the scan must still carry the row
  // count: the cheapest-column rule keeps the narrowest non-tensor one.
  const std::string plan = Plan("SELECT COUNT(*) FROM t");
  EXPECT_NE(plan.find("cols=1"), std::string::npos) << plan;

  auto r = session_.Sql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 1);
  EXPECT_EQ((*r)->column(0).data().At({0}), 3.0);
}

TEST_F(OptimizerTest, LimitOffsetAboveHiddenSortCleanupProject) {
  // ORDER BY key not in the select list -> hidden sort column + cleanup
  // Project between the Limit and the Sort. The fused top-k must keep
  // offset+limit rows and the Limit node must survive to apply the offset.
  const std::string plan =
      Plan("SELECT k FROM t ORDER BY v DESC LIMIT 2 OFFSET 1");
  EXPECT_NE(plan.find("topk=3"), std::string::npos) << plan;
  EXPECT_NE(plan.find("Limit(2, offset=1)"), std::string::npos) << plan;

  auto r = session_.Sql("SELECT k FROM t ORDER BY v DESC LIMIT 2 OFFSET 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 2);
  EXPECT_EQ((*r)->num_columns(), 1);  // hidden sort column dropped
  // v desc orders k as 3, 2, 1; offset 1 limit 2 -> 2, 1.
  EXPECT_EQ((*r)->column(0).data().At({0}), 2.0);
  EXPECT_EQ((*r)->column(0).data().At({1}), 1.0);
}

TEST_F(OptimizerTest, ZeroOffsetLimitDropsLimitNodeThroughCleanupProject) {
  const std::string plan = Plan("SELECT k FROM t ORDER BY v DESC LIMIT 2");
  EXPECT_NE(plan.find("topk=2"), std::string::npos) << plan;
  EXPECT_EQ(plan.find("Limit("), std::string::npos) << plan;

  auto r = session_.Sql("SELECT k FROM t ORDER BY v DESC LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 2);
  EXPECT_EQ((*r)->column(0).data().At({0}), 3.0);
  EXPECT_EQ((*r)->column(0).data().At({1}), 2.0);
}

}  // namespace
}  // namespace plan
}  // namespace tdp
