#include "src/baseline/baseline_db.h"

#include <gtest/gtest.h>

namespace tdp {
namespace baseline {
namespace {

BaselineTable MakeSales() {
  BaselineTable t;
  t.column_names = {"id", "region", "amount"};
  t.rows = {
      {int64_t{1}, std::string("east"), 10.0},
      {int64_t{2}, std::string("west"), 20.0},
      {int64_t{3}, std::string("east"), 30.0},
      {int64_t{4}, std::string("north"), 40.0},
  };
  return t;
}

TEST(BaselineDbTest, SelectWhere) {
  BaselineDb db;
  ASSERT_TRUE(db.RegisterTable("sales", MakeSales()).ok());
  auto r = db.Sql("SELECT id FROM sales WHERE amount > 15");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 3u);
}

TEST(BaselineDbTest, GroupByAggregates) {
  BaselineDb db;
  ASSERT_TRUE(db.RegisterTable("sales", MakeSales()).ok());
  auto r = db.Sql(
      "SELECT region, COUNT(*), SUM(amount) FROM sales GROUP BY region "
      "ORDER BY region");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(std::get<std::string>(r->rows[0][0]), "east");
  EXPECT_EQ(std::get<int64_t>(r->rows[0][1]), 2);
  EXPECT_DOUBLE_EQ(std::get<double>(r->rows[0][2]), 40.0);
}

TEST(BaselineDbTest, GlobalAvg) {
  BaselineDb db;
  ASSERT_TRUE(db.RegisterTable("sales", MakeSales()).ok());
  auto r = db.Sql("SELECT AVG(amount) FROM sales");
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(std::get<double>(r->rows[0][0]), 25.0);
}

TEST(BaselineDbTest, JoinAndSubquery) {
  BaselineDb db;
  ASSERT_TRUE(db.RegisterTable("sales", MakeSales()).ok());
  BaselineTable regions;
  regions.column_names = {"name", "pop"};
  regions.rows = {{std::string("east"), int64_t{100}},
                  {std::string("west"), int64_t{200}}};
  ASSERT_TRUE(db.RegisterTable("regions", regions).ok());
  auto r = db.Sql(
      "SELECT s.id FROM sales s JOIN regions r ON s.region = r.name "
      "ORDER BY s.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 3u);

  auto sub = db.Sql(
      "SELECT big FROM (SELECT amount AS big FROM sales WHERE id > 1) t "
      "WHERE big < 40");
  ASSERT_TRUE(sub.ok()) << sub.status().ToString();
  EXPECT_EQ(sub->rows.size(), 2u);
}

TEST(BaselineDbTest, RejectsUdfs) {
  BaselineDb db;
  ASSERT_TRUE(db.RegisterTable("sales", MakeSales()).ok());
  EXPECT_FALSE(db.Sql("SELECT my_udf(amount) FROM sales").ok());
}

TEST(BaselineDbTest, DistinctLimitOffset) {
  BaselineDb db;
  ASSERT_TRUE(db.RegisterTable("sales", MakeSales()).ok());
  auto d = db.Sql("SELECT DISTINCT region FROM sales");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->rows.size(), 3u);
  auto l = db.Sql("SELECT id FROM sales ORDER BY id DESC LIMIT 2 OFFSET 1");
  ASSERT_TRUE(l.ok());
  ASSERT_EQ(l->rows.size(), 2u);
  EXPECT_EQ(std::get<int64_t>(l->rows[0][0]), 3);
}

// A string used as a number, or a number used as a bool, is a type error,
// not a process abort; a column that mixes strings and numbers still
// sorts (numbers first).
TEST(BaselineDbTest, MistypedOperandsAreTypeErrors) {
  BaselineDb db;
  ASSERT_TRUE(db.RegisterTable("sales", MakeSales()).ok());
  for (const char* sql :
       {"SELECT id FROM sales WHERE region > 0",
        "SELECT id FROM sales WHERE region = 1", "SELECT -region FROM sales",
        "SELECT SUM(region) FROM sales", "SELECT MIN(region) FROM sales",
        "SELECT region, -region FROM sales GROUP BY region",
        "SELECT region + 1 FROM sales GROUP BY region",
        "SELECT id FROM sales WHERE NOT id",
        "SELECT id FROM sales WHERE id AND TRUE",
        // A predicate that is not boolean.
        "SELECT CASE WHEN id THEN 1 ELSE 0 END FROM sales",
        "SELECT a.id FROM sales a JOIN sales b ON a.id",
        "SELECT id FROM sales WHERE id",
        "SELECT region FROM sales GROUP BY region HAVING COUNT(*)"}) {
    SCOPED_TRACE(sql);
    auto r = db.Sql(sql);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
  }
  auto mixed = db.Sql(
      "SELECT id FROM sales ORDER BY CASE WHEN id > 2 THEN region ELSE id "
      "END");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ASSERT_EQ(mixed->rows.size(), 4u);
  EXPECT_EQ(std::get<int64_t>(mixed->rows[0][0]), 1);
  EXPECT_EQ(std::get<int64_t>(mixed->rows[2][0]), 3);  // "east" < "north"
}

}  // namespace
}  // namespace baseline
}  // namespace tdp
