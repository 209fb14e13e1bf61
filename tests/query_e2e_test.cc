#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

class QueryE2ETest : public ::testing::Test {
 protected:
  void SetUp() override {
    // A small sales table.
    auto sales = TableBuilder("sales")
                     .AddInt64("id", {1, 2, 3, 4, 5, 6})
                     .AddStrings("region", {"east", "west", "east", "north",
                                            "west", "east"})
                     .AddFloat32("amount", {10, 20, 30, 40, 50, 60})
                     .AddInt64("qty", {1, 2, 3, 4, 5, 6})
                     .Build();
    ASSERT_TRUE(sales.ok()) << sales.status().ToString();
    ASSERT_TRUE(session_.RegisterTable("sales", sales.value()).ok());

    auto regions = TableBuilder("regions")
                       .AddStrings("name", {"east", "west", "south"})
                       .AddInt64("population", {100, 200, 300})
                       .Build();
    ASSERT_TRUE(regions.ok());
    ASSERT_TRUE(session_.RegisterTable("regions", regions.value()).ok());
  }

  std::shared_ptr<Table> Run(const std::string& sql,
                             Device device = Device::kAccel) {
    QueryOptions options;
    options.device = device;
    auto result = session_.Sql(sql, options);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    return result.ok() ? result.value() : nullptr;
  }

  Session session_;
};

TEST_F(QueryE2ETest, SelectStar) {
  auto t = Run("SELECT * FROM sales");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 6);
  EXPECT_EQ(t->num_columns(), 4);
}

TEST_F(QueryE2ETest, ProjectionWithArithmetic) {
  auto t = Run("SELECT amount * 2 AS double_amount, amount + qty FROM sales");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->column_names()[0], "double_amount");
  EXPECT_FLOAT_EQ(static_cast<float>(t->column(0).data().At({0})), 20.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(t->column(1).data().At({5})), 66.0f);
}

TEST_F(QueryE2ETest, WhereNumericFilter) {
  auto t = Run("SELECT id FROM sales WHERE amount > 25");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 4);
  EXPECT_EQ(t->column(0).data().At({0}), 3.0);
}

TEST_F(QueryE2ETest, WhereStringEquality) {
  auto t = Run("SELECT id FROM sales WHERE region = 'east'");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 3);
}

TEST_F(QueryE2ETest, WhereStringRangeUsesOrderPreservingCodes) {
  // 'east' < 'north' < 'west' lexicographically.
  auto t = Run("SELECT id FROM sales WHERE region < 'north'");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 3);  // the three 'east' rows
  auto u = Run("SELECT id FROM sales WHERE region >= 'north'");
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->num_rows(), 3);  // north + two west
}

TEST_F(QueryE2ETest, CompoundPredicates) {
  auto t = Run(
      "SELECT id FROM sales WHERE (amount > 15 AND region = 'east') OR id = "
      "1");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 3);  // ids 1, 3, 6
}

TEST_F(QueryE2ETest, BetweenAndIn) {
  auto t = Run("SELECT id FROM sales WHERE amount BETWEEN 20 AND 40");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 3);
  auto u = Run("SELECT id FROM sales WHERE region IN ('west', 'north')");
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->num_rows(), 3);
}

TEST_F(QueryE2ETest, GroupByCount) {
  auto t = Run(
      "SELECT region, COUNT(*) AS n FROM sales GROUP BY region ORDER BY n "
      "DESC");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 3);
  // east=3, west=2, north=1.
  EXPECT_EQ(t->column(1).data().At({0}), 3.0);
  EXPECT_EQ(t->column(1).data().At({2}), 1.0);
  EXPECT_EQ(t->column(0).DecodeStrings()[0], "east");
}

TEST_F(QueryE2ETest, GroupByAggregates) {
  auto t = Run(
      "SELECT region, SUM(amount), AVG(amount), MIN(qty), MAX(qty) FROM "
      "sales GROUP BY region ORDER BY region");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->num_rows(), 3);
  // Sorted by region: east, north, west.
  EXPECT_FLOAT_EQ(static_cast<float>(t->column(1).data().At({0})), 100.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(t->column(2).data().At({0})),
                  100.0f / 3.0f);
  EXPECT_EQ(t->column(3).data().At({2}), 2.0);  // west min qty
  EXPECT_EQ(t->column(4).data().At({2}), 5.0);  // west max qty
}

TEST_F(QueryE2ETest, GlobalAggregatesWithoutGroupBy) {
  auto t = Run("SELECT COUNT(*), SUM(amount), AVG(qty) FROM sales");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->num_rows(), 1);
  EXPECT_EQ(t->column(0).data().At({0}), 6.0);
  EXPECT_FLOAT_EQ(static_cast<float>(t->column(1).data().At({0})), 210.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(t->column(2).data().At({0})), 3.5f);
}

TEST_F(QueryE2ETest, AggregateArithmetic) {
  auto t = Run("SELECT SUM(amount) / COUNT(*) AS avg2, AVG(amount) FROM sales");
  ASSERT_NE(t, nullptr);
  EXPECT_FLOAT_EQ(static_cast<float>(t->column(0).data().At({0})),
                  static_cast<float>(t->column(1).data().At({0})));
}

TEST_F(QueryE2ETest, HavingFiltersGroups) {
  auto t = Run(
      "SELECT region, COUNT(*) FROM sales GROUP BY region HAVING COUNT(*) > "
      "1 ORDER BY region");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 2);  // east, west
}

TEST_F(QueryE2ETest, CountDistinct) {
  auto t = Run("SELECT COUNT(DISTINCT region) FROM sales");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->column(0).data().At({0}), 3.0);
}

TEST_F(QueryE2ETest, OrderByMultipleKeys) {
  auto t = Run("SELECT region, amount FROM sales ORDER BY region ASC, "
               "amount DESC");
  ASSERT_NE(t, nullptr);
  const auto regions = t->column(0).DecodeStrings();
  EXPECT_EQ(regions[0], "east");
  EXPECT_FLOAT_EQ(static_cast<float>(t->column(1).data().At({0})), 60.0f);
  EXPECT_FLOAT_EQ(static_cast<float>(t->column(1).data().At({2})), 10.0f);
}

TEST_F(QueryE2ETest, LimitAndOffset) {
  auto t = Run("SELECT id FROM sales ORDER BY id LIMIT 2 OFFSET 1");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->num_rows(), 2);
  EXPECT_EQ(t->column(0).data().At({0}), 2.0);
  EXPECT_EQ(t->column(0).data().At({1}), 3.0);
}

TEST_F(QueryE2ETest, Distinct) {
  auto t = Run("SELECT DISTINCT region FROM sales");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 3);
}

TEST_F(QueryE2ETest, InnerJoin) {
  auto t = Run(
      "SELECT s.id, r.population FROM sales s JOIN regions r ON s.region = "
      "r.name ORDER BY s.id");
  ASSERT_NE(t, nullptr);
  // north has no match; 5 rows survive.
  EXPECT_EQ(t->num_rows(), 5);
  EXPECT_EQ(t->column(1).data().At({0}), 100.0);  // east
  EXPECT_EQ(t->column(1).data().At({1}), 200.0);  // west
}

TEST_F(QueryE2ETest, JoinWithResidualAndPushdown) {
  auto t = Run(
      "SELECT s.id FROM sales s JOIN regions r ON s.region = r.name WHERE "
      "r.population > 100 AND s.amount > 20");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 1);  // id 5 (west, 50)
  EXPECT_EQ(t->column(0).data().At({0}), 5.0);
}

TEST_F(QueryE2ETest, FromSubquery) {
  auto t = Run(
      "SELECT big_id FROM (SELECT id AS big_id FROM sales WHERE amount > 30) "
      "sub WHERE big_id < 6");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->num_rows(), 2);  // 4, 5
}

TEST_F(QueryE2ETest, CaseExpression) {
  auto t = Run(
      "SELECT CASE WHEN amount > 35 THEN 1 ELSE 0 END AS is_big FROM sales "
      "ORDER BY id");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->column(0).data().At({0}), 0.0);
  EXPECT_EQ(t->column(0).data().At({5}), 1.0);
}

TEST_F(QueryE2ETest, SelectWithoutFrom) {
  auto t = Run("SELECT 1 + 2 AS three, 10 / 4 AS frac");
  ASSERT_NE(t, nullptr);
  ASSERT_EQ(t->num_rows(), 1);
  EXPECT_EQ(t->column(0).data().At({0}), 3.0);
  EXPECT_FLOAT_EQ(static_cast<float>(t->column(1).data().At({0})), 2.5f);
}

TEST_F(QueryE2ETest, ResultsIdenticalAcrossDevices) {
  const std::string sql =
      "SELECT region, SUM(amount), COUNT(*) FROM sales WHERE qty >= 2 GROUP "
      "BY region ORDER BY region";
  auto cpu = Run(sql, Device::kCpu);
  auto accel = Run(sql, Device::kAccel);
  ASSERT_NE(cpu, nullptr);
  ASSERT_NE(accel, nullptr);
  ASSERT_EQ(cpu->num_rows(), accel->num_rows());
  for (int64_t r = 0; r < cpu->num_rows(); ++r) {
    EXPECT_EQ(cpu->column(1).data().At({r}), accel->column(1).data().At({r}));
    EXPECT_EQ(cpu->column(2).data().At({r}), accel->column(2).data().At({r}));
  }
}

TEST_F(QueryE2ETest, ErrorsAreStatusesNotCrashes) {
  EXPECT_FALSE(session_.Sql("SELECT nope FROM sales").ok());
  EXPECT_FALSE(session_.Sql("SELECT FROM sales").ok());
  EXPECT_FALSE(session_.Sql("SELECT id FROM missing_table").ok());
  EXPECT_FALSE(session_.Sql("SELECT id, COUNT(*) FROM sales").ok());
  EXPECT_FALSE(session_.Sql("SELECT id FROM sales WHERE region").ok());
}

TEST_F(QueryE2ETest, ExplainShowsPlan) {
  auto plan = session_.Explain(
      "SELECT region, COUNT(*) FROM sales WHERE amount > 10 GROUP BY region");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan.value().find("Aggregate"), std::string::npos);
  EXPECT_NE(plan.value().find("Scan"), std::string::npos);
}

TEST_F(QueryE2ETest, ReRegisteringTableRerunsQuery) {
  auto query = session_.Query("SELECT COUNT(*) FROM sales WHERE amount > 25");
  ASSERT_TRUE(query.ok());
  auto r1 = query.value()->Run();
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value()->column(0).data().At({0}), 4.0);

  auto sales2 = TableBuilder("sales")
                    .AddInt64("id", {7})
                    .AddStrings("region", {"east"})
                    .AddFloat32("amount", {100})
                    .AddInt64("qty", {1})
                    .Build();
  ASSERT_TRUE(session_.RegisterTable("sales", sales2.value()).ok());
  auto r2 = query.value()->Run();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2.value()->column(0).data().At({0}), 1.0);
}

TEST(LargeAggregateTest, BlockedAccumulationDeterministicAcrossThreads) {
  // More than one 4096-row block, so the aggregate's parallel fixed-block
  // accumulation (and its per-block min/max/count merge) actually runs —
  // the small fixture tables above never leave the serial path. Results
  // must be bit-identical to the serial engine at every thread count.
  constexpr int64_t kRows = 10000;
  std::vector<int64_t> keys;
  std::vector<double> values;
  keys.reserve(kRows);
  values.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    keys.push_back(i % 7);
    values.push_back(std::sin(static_cast<double>(i)) * 100.0);
  }
  Session session;
  auto big = TableBuilder("big").AddInt64("k", keys).AddFloat64("v", values)
                 .Build();
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE(session.RegisterTable("big", big.value()).ok());

  auto run = [&session](int threads) {
    ScopedNumThreads guard(threads);
    auto result = session.Sql(
        "SELECT k, COUNT(*) AS n, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, "
        "MAX(v) AS hi FROM big GROUP BY k ORDER BY k");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.value()->ToString() : std::string();
  };

  const std::string serial = run(1);
  ASSERT_FALSE(serial.empty());
  // 10000 rows over 7 keys: group 0 holds ceil(10000/7) rows.
  EXPECT_NE(serial.find("1429"), std::string::npos) << serial;
  for (int threads : {2, 4, 7}) {
    EXPECT_EQ(run(threads), serial) << "threads=" << threads;
  }
}

TEST(QueryNanTest, OrderBySortsNanLast) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Session session;
  auto t = TableBuilder("t")
               .AddInt64("id", {1, 2, 3, 4, 5})
               .AddFloat32("v", {2.0f, nan, 1.0f, nan, 3.0f})
               .Build();
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(session.RegisterTable("t", t.value()).ok());

  auto asc = session.Sql("SELECT id, v FROM t ORDER BY v");
  ASSERT_TRUE(asc.ok()) << asc.status().ToString();
  ASSERT_EQ((*asc)->num_rows(), 5);
  // Reals ascending (ids 3, 1, 5), then the NaN rows (stable: 2 before 4).
  EXPECT_EQ((*asc)->column(0).data().At({0}), 3.0);
  EXPECT_EQ((*asc)->column(0).data().At({1}), 1.0);
  EXPECT_EQ((*asc)->column(0).data().At({2}), 5.0);
  EXPECT_EQ((*asc)->column(0).data().At({3}), 2.0);
  EXPECT_EQ((*asc)->column(0).data().At({4}), 4.0);
  EXPECT_TRUE(std::isnan((*asc)->column(1).data().At({4})));

  auto desc = session.Sql("SELECT id FROM t ORDER BY v DESC");
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  // Reals descending (ids 5, 1, 3), NaNs still last.
  EXPECT_EQ((*desc)->column(0).data().At({0}), 5.0);
  EXPECT_EQ((*desc)->column(0).data().At({1}), 1.0);
  EXPECT_EQ((*desc)->column(0).data().At({2}), 3.0);
  EXPECT_EQ((*desc)->column(0).data().At({3}), 2.0);
  EXPECT_EQ((*desc)->column(0).data().At({4}), 4.0);

  // -0 and +0 tie (rows keep their order), NaNs stay last under DESC and
  // under a LIMIT that cuts between them.
  auto z = TableBuilder("z")
               .AddInt64("id", {1, 2, 3, 4, 5, 6, 7})
               .AddFloat32("v", {-0.0f, nan, 0.0f, -1.0f, 0.0f, nan, -0.0f})
               .Build();
  ASSERT_TRUE(z.ok());
  ASSERT_TRUE(session.RegisterTable("z", z.value()).ok());
  const auto ids = [&session](const std::string& sql) {
    auto r = session.Sql(sql);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    if (!r.ok()) return std::vector<int64_t>{};
    return (*r)->column(0).data().ToVector<int64_t>();
  };
  using Ids = std::vector<int64_t>;
  EXPECT_EQ(ids("SELECT id FROM z ORDER BY v"), (Ids{4, 1, 3, 5, 7, 2, 6}));
  EXPECT_EQ(ids("SELECT id FROM z ORDER BY v DESC"),
            (Ids{1, 3, 5, 7, 4, 2, 6}));
  EXPECT_EQ(ids("SELECT id FROM z ORDER BY v LIMIT 2"), (Ids{4, 1}));
  EXPECT_EQ(ids("SELECT id FROM z ORDER BY v DESC LIMIT 3"), (Ids{1, 3, 5}));
  EXPECT_EQ(ids("SELECT id FROM z ORDER BY v DESC LIMIT 6"),
            (Ids{1, 3, 5, 7, 4, 2}));
  EXPECT_EQ(ids("SELECT id FROM z ORDER BY v DESC, id DESC LIMIT 3"),
            (Ids{7, 5, 3}));
  // The tied zeros come back with their own signs.
  auto signs = session.Sql("SELECT v FROM z ORDER BY v DESC LIMIT 4");
  ASSERT_TRUE(signs.ok()) << signs.status().ToString();
  const std::vector<float> zeros =
      (*signs)->column(0).data().ToVector<float>();
  ASSERT_EQ(zeros.size(), 4u);
  EXPECT_TRUE(std::signbit(zeros[0]));
  EXPECT_FALSE(std::signbit(zeros[1]));
  EXPECT_FALSE(std::signbit(zeros[2]));
  EXPECT_TRUE(std::signbit(zeros[3]));
}

TEST(QueryNanTest, GroupByCollapsesNanKeysIntoOneGroup) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Session session;
  auto t = TableBuilder("t")
               .AddFloat32("v", {1.0f, nan, 1.0f, nan, nan})
               .Build();
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(session.RegisterTable("t", t.value()).ok());
  auto r = session.Sql("SELECT v, COUNT(*) AS n FROM t GROUP BY v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Two groups: {1.0 x2} and one collapsed NaN group x3.
  ASSERT_EQ((*r)->num_rows(), 2);
  EXPECT_EQ((*r)->column(0).data().At({0}), 1.0);
  EXPECT_EQ((*r)->column(1).data().At({0}), 2.0);
  EXPECT_TRUE(std::isnan((*r)->column(0).data().At({1})));
  EXPECT_EQ((*r)->column(1).data().At({1}), 3.0);
}

}  // namespace
}  // namespace tdp
