// End-to-end DML coverage: CREATE TABLE / INSERT / UPDATE / DELETE through
// the full stack (lexer -> parser -> binder -> plan -> executor),
// plus the write-adjacent serving contracts — per-table plan-cache
// freshness under DML, and exact top-k results while a vector index is
// stale or dropped by a write.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/exec/value.h"
#include "src/runtime/session.h"
#include "src/storage/table.h"
#include "src/tensor/ops.h"
#include "tests/vector_test_util.h"

namespace tdp {
namespace {

using exec::ScalarValue;

// Runs `sql` and returns the single rows_affected value; fails the test on
// any error.
int64_t RowsAffected(Session& session, const std::string& sql) {
  auto r = session.Sql(sql);
  EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
  if (!r.ok()) return -1;
  EXPECT_EQ((*r)->num_rows(), 1);
  EXPECT_EQ((*r)->column_names()[0], "rows_affected");
  return static_cast<int64_t>((*r)->column(0).data().At({0}));
}

// All int64 values of column `c`, in table order.
std::vector<int64_t> IntColumn(const Table& t, int64_t c) {
  std::vector<int64_t> out;
  const Tensor data = t.column(c).data().Contiguous();
  for (int64_t i = 0; i < t.num_rows(); ++i) {
    out.push_back(static_cast<int64_t>(data.At({i})));
  }
  return out;
}

TEST(DmlTest, CreateInsertSelectRoundTrip) {
  Session session;
  EXPECT_EQ(RowsAffected(session,
                         "CREATE TABLE items (id BIGINT, score DOUBLE, "
                         "name TEXT)"),
            0);
  EXPECT_EQ(RowsAffected(session,
                         "INSERT INTO items VALUES (1, 0.5, 'ale'), "
                         "(2, 1.5, 'bock'), (3, 2.5, 'cask')"),
            3);
  auto r = session.Sql("SELECT id, name FROM items WHERE score > 1.0 "
                       "ORDER BY id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 2);
  EXPECT_EQ(IntColumn(**r, 0), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ((*r)->column(1).DecodeStrings(),
            (std::vector<std::string>{"bock", "cask"}));
}

TEST(DmlTest, EveryStatementKindReportsRowsAffected) {
  Session session;
  EXPECT_EQ(RowsAffected(session, "CREATE TABLE t (a INT, b INT)"), 0);
  EXPECT_EQ(RowsAffected(session, "INSERT INTO t VALUES (1, 10), (2, 20)"),
            2);
  EXPECT_EQ(RowsAffected(session, "UPDATE t SET b = b + 1 WHERE a = 2"), 1);
  EXPECT_EQ(RowsAffected(session, "DELETE FROM t WHERE a = 1"), 1);
  auto r = session.Sql("SELECT a, b FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(IntColumn(**r, 0), (std::vector<int64_t>{2}));
  EXPECT_EQ(IntColumn(**r, 1), (std::vector<int64_t>{21}));
}

TEST(DmlTest, InsertHonorsColumnListReordering) {
  Session session;
  RowsAffected(session, "CREATE TABLE t (a INT, b INT, c TEXT)");
  EXPECT_EQ(RowsAffected(session,
                         "INSERT INTO t (c, a, b) VALUES ('x', 1, 2)"),
            1);
  auto r = session.Sql("SELECT a, b, c FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(IntColumn(**r, 0), (std::vector<int64_t>{1}));
  EXPECT_EQ(IntColumn(**r, 1), (std::vector<int64_t>{2}));
  EXPECT_EQ((*r)->column(2).DecodeStrings(),
            (std::vector<std::string>{"x"}));
}

TEST(DmlTest, UpdateEvaluatesAssignmentsOverOldRows) {
  Session session;
  RowsAffected(session, "CREATE TABLE t (a INT, b INT)");
  RowsAffected(session, "INSERT INTO t VALUES (1, 100), (2, 200)");
  // Standard SQL swap: both right-hand sides see the OLD row.
  EXPECT_EQ(RowsAffected(session, "UPDATE t SET a = b, b = a"), 2);
  auto r = session.Sql("SELECT a, b FROM t ORDER BY b");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(IntColumn(**r, 0), (std::vector<int64_t>{100, 200}));
  EXPECT_EQ(IntColumn(**r, 1), (std::vector<int64_t>{1, 2}));
}

TEST(DmlTest, DeleteWithoutWhereEmptiesTheTable) {
  Session session;
  RowsAffected(session, "CREATE TABLE t (a INT)");
  RowsAffected(session, "INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(RowsAffected(session, "DELETE FROM t"), 3);
  auto r = session.Sql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->column(0).data().At({0}), 0.0);
  // The emptied table accepts fresh rows.
  EXPECT_EQ(RowsAffected(session, "INSERT INTO t VALUES (7)"), 1);
  r = session.Sql("SELECT a FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(IntColumn(**r, 0), (std::vector<int64_t>{7}));
}

TEST(DmlTest, ParameterizedDmlBindsScalarsAndTensors) {
  Session session;
  RowsAffected(session, "CREATE TABLE t (id INT, emb TENSOR(3))");
  {
    auto r = session.Sql(
        "INSERT INTO t VALUES (?, ?)", {},
        testutil::WithParams(
            {ScalarValue::Int(42),
             ScalarValue::FromTensor(
                 Tensor::FromVector(std::vector<float>{1, 0, 0}))}));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)->column(0).data().At({0}), 1.0);
  }
  {
    auto r = session.Sql("DELETE FROM t WHERE id = ?", {},
                         testutil::WithParams({ScalarValue::Int(41)}));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)->column(0).data().At({0}), 0.0);
  }
  auto r = session.Sql("SELECT id FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(IntColumn(**r, 0), (std::vector<int64_t>{42}));
  // A wrong-shape tensor row is a TypeError, not a crash.
  auto bad = session.Sql(
      "INSERT INTO t VALUES (?, ?)", {},
      testutil::WithParams(
          {ScalarValue::Int(1),
           ScalarValue::FromTensor(
               Tensor::FromVector(std::vector<float>{1, 0}))}));
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
}

TEST(DmlTest, InsertFromSelectCopiesBetweenTables) {
  Session session;
  RowsAffected(session, "CREATE TABLE src (a INT, b TEXT)");
  RowsAffected(session, "CREATE TABLE dst (a INT, b TEXT)");
  RowsAffected(session,
               "INSERT INTO src VALUES (1, 'p'), (2, 'q'), (3, 'r')");
  EXPECT_EQ(RowsAffected(session,
                         "INSERT INTO dst SELECT a, b FROM src "
                         "WHERE a >= 2"),
            2);
  auto r = session.Sql("SELECT a, b FROM dst ORDER BY a");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(IntColumn(**r, 0), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ((*r)->column(1).DecodeStrings(),
            (std::vector<std::string>{"q", "r"}));
}

TEST(DmlTest, StreamingCursorExecutesDml) {
  Session session;
  RowsAffected(session, "CREATE TABLE t (a INT)");
  auto cursor = session.Execute("INSERT INTO t VALUES (5), (6)");
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto chunk = (*cursor)->Next();
  ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
  ASSERT_TRUE(chunk->has_value());
  EXPECT_EQ((**chunk).columns[0].data().At({0}), 2.0);
  auto r = session.Sql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->column(0).data().At({0}), 2.0);
}

TEST(DmlTest, ErrorsComeBackAsStatusesNotCrashes) {
  Session session;
  RowsAffected(session, "CREATE TABLE t (a INT, b TEXT)");

  // Duplicate CREATE TABLE.
  auto dup = session.Sql("CREATE TABLE t (x INT)");
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);

  // Unknown declared type is a bind error (type names are identifiers).
  auto bad_type = session.Sql("CREATE TABLE u (x FROBNICATE)");
  EXPECT_EQ(bad_type.status().code(), StatusCode::kBindError);

  // Unknown target table.
  auto no_table = session.Sql("INSERT INTO nope VALUES (1)");
  EXPECT_EQ(no_table.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(session.Sql("UPDATE nope SET a = 1").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(session.Sql("DELETE FROM nope").status().code(),
            StatusCode::kNotFound);

  // Arity mismatches: partial column lists are rejected (no defaults),
  // and VALUES row width must match the column list.
  EXPECT_EQ(session.Sql("INSERT INTO t (a) VALUES (1)").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(session.Sql("INSERT INTO t VALUES (1)").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(
      session.Sql("INSERT INTO t (a, a) VALUES (1, 2)").status().code(),
      StatusCode::kBindError);

  // Unknown assignment / value-type mismatches.
  EXPECT_EQ(session.Sql("UPDATE t SET zz = 1").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(
      session.Sql("INSERT INTO t VALUES (1, 2)").status().code(),
      StatusCode::kTypeError);  // int into TEXT column

  // Aggregates make no sense in DML expressions.
  EXPECT_EQ(session.Sql("UPDATE t SET a = COUNT(*)").status().code(),
            StatusCode::kBindError);
  EXPECT_EQ(session.Sql("DELETE FROM t WHERE SUM(a) > 1").status().code(),
            StatusCode::kBindError);

  // Malformed syntax is a parse error.
  EXPECT_EQ(session.Sql("INSERT t VALUES (1, 'x')").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(session.Sql("CREATE TABLE ()").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(session.Sql("UPDATE t").status().code(),
            StatusCode::kParseError);

  // None of the failures wrote anything.
  auto r = session.Sql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->column(0).data().At({0}), 0.0);
}

TEST(DmlTest, ExplainRendersDmlPlans) {
  Session session;
  RowsAffected(session, "CREATE TABLE t (a INT)");
  RowsAffected(session, "INSERT INTO t VALUES (1)");
  auto insert = session.Explain("INSERT INTO t VALUES (2)");
  ASSERT_TRUE(insert.ok()) << insert.status().ToString();
  EXPECT_NE(insert->find("Insert"), std::string::npos);
  auto update = session.Explain("UPDATE t SET a = 3 WHERE a = 1");
  ASSERT_TRUE(update.ok());
  EXPECT_NE(update->find("Update"), std::string::npos);
  EXPECT_NE(update->find("Scan"), std::string::npos);
  auto del = session.Explain("DELETE FROM t WHERE a = 1");
  ASSERT_TRUE(del.ok());
  EXPECT_NE(del->find("Delete"), std::string::npos);
}

TEST(DmlTest, TypeNamesRemainUsableAsColumnNames) {
  // INT / TEXT / DOUBLE are not keywords: columns by those names keep
  // working in every clause.
  Session session;
  RowsAffected(session, "CREATE TABLE odd (text INT, double INT)");
  EXPECT_EQ(RowsAffected(session, "INSERT INTO odd VALUES (1, 2)"), 1);
  EXPECT_EQ(RowsAffected(session,
                         "UPDATE odd SET double = text + 10 WHERE text = 1"),
            1);
  auto r = session.Sql("SELECT double FROM odd");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(IntColumn(**r, 0), (std::vector<int64_t>{11}));
}

// ---- Plan-cache contract under writes --------------------------------------

TEST(DmlTest, DmlOnOneTableLeavesOtherTablesPlansCached) {
  Session session;
  RowsAffected(session, "CREATE TABLE t (a INT)");
  RowsAffected(session, "CREATE TABLE u (b INT)");
  RowsAffected(session, "INSERT INTO u VALUES (1), (2)");

  // Warm a plan over u, then confirm it hits.
  ASSERT_TRUE(session.Sql("SELECT b FROM u ORDER BY b").ok());
  ASSERT_TRUE(session.Sql("SELECT b FROM u ORDER BY b").ok());
  const PlanCacheStats warm = session.plan_cache_stats();
  EXPECT_GE(warm.hits, 1u);

  // A burst of DML against t must not disturb plans over u — and must not
  // evict the DML statements' own cached plans either.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (1)").ok());
    ASSERT_TRUE(session.Sql("DELETE FROM t WHERE a = 1").ok());
  }
  const PlanCacheStats after_dml = session.plan_cache_stats();
  EXPECT_EQ(after_dml.invalidations, warm.invalidations);

  auto r = session.Sql("SELECT b FROM u ORDER BY b");
  ASSERT_TRUE(r.ok());
  const PlanCacheStats reread = session.plan_cache_stats();
  EXPECT_EQ(reread.hits, after_dml.hits + 1);
  EXPECT_EQ(reread.misses, after_dml.misses);

  // DML on t leaves even plans over t cached: they re-resolve the table
  // at run time. The second INSERT above was already a hit.
  EXPECT_GE(after_dml.hits, warm.hits + 8);  // 4 insert hits + 4 delete hits

  // DDL, by contrast, does invalidate: re-registering u drops u's plans.
  ASSERT_TRUE(session
                  .RegisterTable(
                      "u", *Table::Create(
                               "u", {"b"},
                               {Column::Plain(Tensor::FromVector(
                                   std::vector<int64_t>{9}))}))
                  .ok());
  ASSERT_TRUE(session.Sql("SELECT b FROM u ORDER BY b").ok());
  const PlanCacheStats post_ddl = session.plan_cache_stats();
  EXPECT_EQ(post_ddl.invalidations, reread.invalidations + 1);
}

// ---- Vector indexes under writes -------------------------------------------

TEST(DmlTest, TopKStaysExactAcrossDmlOnIndexedTable) {
  Session session;
  Rng rng(77);
  const int64_t dim = 8;
  Tensor data = testutil::MakeClusteredUnitVectors(256, dim, 4, rng);
  ASSERT_TRUE(session
                  .RegisterTable(
                      "docs", *Table::Create(
                                  "docs", {"emb"},
                                  {Column::Plain(std::move(data))}))
                  .ok());
  index::IvfIndex::Options opt;
  opt.num_lists = 8;
  ASSERT_TRUE(session.CreateVectorIndex("docs", "emb", opt).ok());

  const std::string topk =
      "SELECT emb, dot(emb, ?) AS score FROM docs "
      "ORDER BY score DESC LIMIT 5";
  auto plan = session.Explain(topk);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexTopK"), std::string::npos);

  const Tensor query = testutil::MakeUnitQuery(dim, rng);
  const std::vector<ScalarValue> params = {ScalarValue::FromTensor(query)};

  // Brute-force oracle: the same statement with the plan cache disabled
  // on a session whose table has no index.
  auto Oracle = [&](Session& s) {
    auto r = s.Sql(topk, {}, testutil::WithParams(params));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *r;
  };

  // Mutate through every DML path: appends extend the index in place;
  // deletes keep it with bitmap filtering; the update drops it (indexed
  // column assigned) and the query must fall back to the exact plan.
  {
    auto del = session.Sql("DELETE FROM docs WHERE dot(emb, ?) < 0", {},
                           testutil::WithParams(params));
    ASSERT_TRUE(del.ok()) << del.status().ToString();
  }
  for (int i = 0; i < 3; ++i) {
    auto ins = session.Sql(
        "INSERT INTO docs VALUES (?)", {},
        testutil::WithParams(
            {ScalarValue::FromTensor(testutil::MakeUnitQuery(dim, rng))}));
    ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  }

  Session reference;
  {
    auto docs = session.catalog().GetTable("docs");
    ASSERT_TRUE(docs.ok());
    ASSERT_TRUE(reference.RegisterTable("docs", (*docs)->To(Device::kCpu)).ok());
  }
  testutil::ExpectTablesBitIdentical(*Oracle(session), *Oracle(reference),
                                     "post insert+delete");

  // Assigning the indexed column invalidates the index; results stay
  // exact through the fallback.
  {
    auto up = session.Sql(
        "UPDATE docs SET emb = ? WHERE dot(emb, ?) > 0.99", {},
        testutil::WithParams(
            {ScalarValue::FromTensor(testutil::MakeUnitQuery(dim, rng)),
             ScalarValue::FromTensor(query)}));
    ASSERT_TRUE(up.ok()) << up.status().ToString();
  }
  Session reference2;
  {
    auto docs = session.catalog().GetTable("docs");
    ASSERT_TRUE(docs.ok());
    ASSERT_TRUE(reference2.RegisterTable("docs", (*docs)->To(Device::kCpu)).ok());
  }
  testutil::ExpectTablesBitIdentical(*Oracle(session), *Oracle(reference2),
                                     "post update fallback");
}

}  // namespace
}  // namespace tdp
