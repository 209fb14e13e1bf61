// Edge-case coverage for the tensor query executor: empty inputs, empty
// results, tensor-column passthrough, PE columns in relational context,
// pathological limits.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/exec/operator_kernels.h"
#include "src/exec/run_options.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

class ExecEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto t = TableBuilder("t")
                 .AddInt64("k", {1, 2, 3})
                 .AddFloat32("v", {1.5f, -2.5f, 0.0f})
                 .AddStrings("s", {"a", "b", "a"})
                 .AddTensor("vecs", Tensor::FromVector(
                                        std::vector<float>{1, 2, 3, 4, 5, 6},
                                        {3, 2}))
                 .Build();
    ASSERT_TRUE(session_.RegisterTable("t", t.value()).ok());
  }
  Session session_;
};

TEST_F(ExecEdgeTest, FilterSelectingNothing) {
  auto r = session_.Sql("SELECT k FROM t WHERE v > 100");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 0);
}

TEST_F(ExecEdgeTest, AggregateOverEmptyInput) {
  auto r = session_.Sql("SELECT COUNT(*), SUM(v) FROM t WHERE k > 99");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 1);
  EXPECT_EQ((*r)->column(0).data().At({0}), 0.0);
  EXPECT_EQ((*r)->column(1).data().At({0}), 0.0);
}

TEST_F(ExecEdgeTest, GroupByOverEmptyInputYieldsNoGroups) {
  auto r = session_.Sql(
      "SELECT s, COUNT(*) FROM t WHERE k > 99 GROUP BY s");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 0);
}

TEST_F(ExecEdgeTest, OrderByOnEmptyResult) {
  auto r = session_.Sql("SELECT k FROM t WHERE v > 100 ORDER BY k DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 0);
}

TEST_F(ExecEdgeTest, LimitBeyondRowCount) {
  auto r = session_.Sql("SELECT k FROM t LIMIT 100");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 3);
  auto zero = session_.Sql("SELECT k FROM t LIMIT 0");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ((*zero)->num_rows(), 0);
  auto off = session_.Sql("SELECT k FROM t ORDER BY k LIMIT 5 OFFSET 10");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ((*off)->num_rows(), 0);
}

TEST_F(ExecEdgeTest, TensorColumnsPassThroughProjectionAndFilter) {
  auto r = session_.Sql("SELECT vecs, k FROM t WHERE k >= 2 ORDER BY k");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 2);
  const Column& vecs = (*r)->column(0);
  EXPECT_TRUE(vecs.IsTensorColumn());
  EXPECT_EQ(vecs.data().shape(), (std::vector<int64_t>{2, 2}));
  // Row for k=2 is the second original row [3, 4].
  EXPECT_EQ(vecs.data().At({0, 0}), 3.0);
  EXPECT_EQ(vecs.data().At({0, 1}), 4.0);
}

TEST_F(ExecEdgeTest, TensorColumnCannotBeGroupKey) {
  auto r = session_.Sql("SELECT vecs, COUNT(*) FROM t GROUP BY vecs");
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecEdgeTest, TensorColumnCannotBeCaseBranch) {
  auto r =
      session_.Sql("SELECT CASE WHEN k > 1 THEN vecs ELSE vecs END FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
}

TEST_F(ExecEdgeTest, StringAggregationLimits) {
  // MIN/MAX/SUM over strings is a type error; COUNT works.
  EXPECT_FALSE(session_.Sql("SELECT SUM(s) FROM t").ok());
  EXPECT_FALSE(session_.Sql("SELECT MAX(s) FROM t").ok());
  auto r = session_.Sql("SELECT COUNT(s) FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->column(0).data().At({0}), 3.0);
}

TEST_F(ExecEdgeTest, DivisionByZeroColumnIsAnError) {
  // A zero divisor in a column is the same error the engine's own fold of
  // two literals (`SELECT 1 / 0`) and BaselineDB return.
  auto r = session_.Sql("SELECT k / v FROM t WHERE k = 3");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(), "ExecutionError: division by zero");
  r = session_.Sql("SELECT k % v FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().ToString(), "ExecutionError: modulo by zero");
  // Rows the WHERE clause removes are never divided.
  r = session_.Sql("SELECT k / v FROM t WHERE k < 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 2);
}

TEST_F(ExecEdgeTest, ModuloOfFloatLiteralsFolds) {
  // A float operand of a folded `%` used to abort the process; it folds
  // as the column path computes it (fmod, truncated toward zero).
  auto r = session_.Sql("SELECT 5 % 2.5, -7.5 % 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->column(0).data().At({0}), 0.0);
  EXPECT_EQ((*r)->column(1).data().At({0}), -1.5);
  EXPECT_FALSE(session_.Sql("SELECT 5 % 0.0").ok());
}

TEST_F(ExecEdgeTest, SingleRowTable) {
  auto one = TableBuilder("one").AddInt64("x", {42}).Build();
  ASSERT_TRUE(session_.RegisterTable("one", one.value()).ok());
  auto r = session_.Sql(
      "SELECT x, COUNT(*) FROM one GROUP BY x HAVING COUNT(*) >= 1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 1);
}

TEST_F(ExecEdgeTest, DuplicateAggregatesComputedOnce) {
  auto r = session_.Sql(
      "SELECT COUNT(*), COUNT(*) + 1, COUNT(*) * 2 FROM t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->column(0).data().At({0}), 3.0);
  EXPECT_EQ((*r)->column(1).data().At({0}), 4.0);
  EXPECT_EQ((*r)->column(2).data().At({0}), 6.0);
}

TEST_F(ExecEdgeTest, NestedSubqueries) {
  auto r = session_.Sql(
      "SELECT m FROM (SELECT MAX(v) AS m FROM (SELECT k, v FROM t WHERE k "
      "< 3) inner1) outer1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FLOAT_EQ(static_cast<float>((*r)->column(0).data().At({0})), 1.5f);
}

TEST_F(ExecEdgeTest, OrderByExpressionNotInSelect) {
  auto r = session_.Sql("SELECT k FROM t ORDER BY v * -1");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // v*-1 ascending: v descending: 1.5, 0.0, -2.5 -> k = 1, 3, 2.
  EXPECT_EQ((*r)->column(0).data().At({0}), 1.0);
  EXPECT_EQ((*r)->column(0).data().At({1}), 3.0);
  EXPECT_EQ((*r)->column(0).data().At({2}), 2.0);
  EXPECT_EQ((*r)->num_columns(), 1) << "hidden sort column must be dropped";
}

TEST_F(ExecEdgeTest, OrderByAggregateNotInSelect) {
  auto r = session_.Sql(
      "SELECT s FROM t GROUP BY s ORDER BY COUNT(*) DESC");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->column(0).DecodeStrings()[0], "a");
  EXPECT_EQ((*r)->num_columns(), 1);
}

TEST_F(ExecEdgeTest, EmptyRegisteredTable) {
  // Regression: predicates over a 0-row relation used to produce a
  // phantom 1-row mask (BroadcastShapes stretched the empty dim against a
  // scalar's size-1 dim to 1 instead of 0), failing with "predicate mask
  // length mismatch" on genuinely empty tables.
  auto empty = TableBuilder("e")
                   .AddInt64("k", {})
                   .AddFloat32("v", {})
                   .Build();
  ASSERT_TRUE(session_.RegisterTable("e", empty.value()).ok());
  auto filtered = session_.Sql("SELECT k FROM e WHERE v > 0");
  ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
  EXPECT_EQ((*filtered)->num_rows(), 0);
  auto agg = session_.Sql("SELECT COUNT(*), SUM(v) FROM e WHERE k = 1");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  EXPECT_EQ((*agg)->column(0).data().At({0}), 0.0);
  auto sorted = session_.Sql("SELECT k FROM e ORDER BY v DESC LIMIT 2");
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  EXPECT_EQ((*sorted)->num_rows(), 0);
}

TEST_F(ExecEdgeTest, OffsetFarBeyondInputAndHugeLimits) {
  auto off = session_.Sql("SELECT k FROM t LIMIT 2 OFFSET 9000000000");
  ASSERT_TRUE(off.ok()) << off.status().ToString();
  EXPECT_EQ((*off)->num_rows(), 0);
  // offset + limit must not overflow int64 (saturating arithmetic).
  auto huge = session_.Sql(
      "SELECT k FROM t LIMIT 9223372036854775807 OFFSET 9223372036854775807");
  ASSERT_TRUE(huge.ok()) << huge.status().ToString();
  EXPECT_EQ((*huge)->num_rows(), 0);
  auto all = session_.Sql("SELECT k FROM t LIMIT 9223372036854775807");
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ((*all)->num_rows(), 3);
}

TEST_F(ExecEdgeTest, JoinWithZeroRowBuildSide) {
  auto empty = TableBuilder("eb").AddInt64("bk", {}).Build();
  ASSERT_TRUE(session_.RegisterTable("eb", empty.value()).ok());
  // Build side (right child) empty: every probe misses.
  auto r = session_.Sql("SELECT t.k FROM t JOIN eb ON t.k = eb.bk");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 0);
  // Probe side empty against a populated build.
  auto r2 = session_.Sql("SELECT eb.bk, t.k FROM eb JOIN t ON eb.bk = t.k");
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ((*r2)->num_rows(), 0);
}

TEST_F(ExecEdgeTest, JoinDuplicateBuildKeysEmitInBuildRowOrder) {
  // Regression: duplicate build-side keys used to be emitted in the
  // implementation-defined equal_range order of an unordered_multimap
  // (reverse insertion under libstdc++); the join now guarantees
  // ascending build-row order for each probe row.
  auto dup = TableBuilder("dup")
                 .AddInt64("dk", {2, 2, 2})
                 .AddFloat32("tagv", {10.0f, 20.0f, 30.0f})
                 .Build();
  ASSERT_TRUE(session_.RegisterTable("dup", dup.value()).ok());
  auto r = session_.Sql("SELECT t.k, dup.tagv FROM t JOIN dup ON t.k = dup.dk");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 3);
  EXPECT_EQ((*r)->column(1).data().At({0}), 10.0);
  EXPECT_EQ((*r)->column(1).data().At({1}), 20.0);
  EXPECT_EQ((*r)->column(1).data().At({2}), 30.0);
}

TEST_F(ExecEdgeTest, NanJoinKeysNeverMatch) {
  // Regression: NaN join keys used to match each other (their codes are
  // equal bit patterns), so this join returned 3 rows. NaN equals
  // nothing, as `WHERE k = k` already evaluates it; -0 still equals +0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto a = TableBuilder("na").AddFloat64("k", {nan, 1.0, -0.0}).Build();
  auto b = TableBuilder("nb")
               .AddFloat64("k", {nan, 1.0, 0.0})
               .AddInt64("tagv", {10, 20, 30})
               .Build();
  ASSERT_TRUE(session_.RegisterTable("na", a.value()).ok());
  ASSERT_TRUE(session_.RegisterTable("nb", b.value()).ok());
  for (int64_t budget : {int64_t{0}, int64_t{1}}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    exec::RunOptions run;
    run.memory_budget_bytes = budget;
    auto r = session_.Sql(
        "SELECT na.k, nb.tagv FROM na JOIN nb ON na.k = nb.k", {}, run);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ((*r)->num_rows(), 2);
    EXPECT_EQ((*r)->column(0).data().At({0}), 1.0);
    EXPECT_EQ((*r)->column(1).data().At({0}), 20.0);
    EXPECT_EQ((*r)->column(0).data().At({1}), 0.0);
    EXPECT_TRUE(std::signbit((*r)->column(0).data().At({1})));
    EXPECT_EQ((*r)->column(1).data().At({1}), 30.0);
  }
}

TEST_F(ExecEdgeTest, ProbabilityColumnsGroupExactlyWhenNotTrainable) {
  // A PE column used by a non-trainable query is hard-decoded.
  Tensor probs = Tensor::FromVector(
      std::vector<float>{0.9f, 0.1f, 0.2f, 0.8f, 0.6f, 0.4f}, {3, 2});
  auto table = Table::Create(
      "pe", {"cls"}, {Column::Probability(probs, {10.0, 20.0})});
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session_.RegisterTable("pe", table.value()).ok());
  auto r = session_.Sql(
      "SELECT cls, COUNT(*) FROM pe GROUP BY cls ORDER BY cls");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ((*r)->num_rows(), 2);
  EXPECT_EQ((*r)->column(0).data().At({0}), 10.0);
  EXPECT_EQ((*r)->column(1).data().At({0}), 2.0);  // rows 0 and 2
  EXPECT_EQ((*r)->column(1).data().At({1}), 1.0);
}

// A string column's payload is its dictionary codes, so using it as a
// number — arithmetic, negation, a numeric comparison or binding — is a
// type error, exactly like a string literal compared with a number.
TEST_F(ExecEdgeTest, StringColumnUsedAsNumberIsATypeError) {
  for (const char* sql :
       {"SELECT k FROM t WHERE s > 0", "SELECT s + 1 FROM t",
        "SELECT s * 2 FROM t", "SELECT -s FROM t",
        "SELECT k FROM t WHERE k > 'a'"}) {
    SCOPED_TRACE(sql);
    auto r = session_.Sql(sql);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError);
  }
  auto query = session_.Prepare("SELECT k FROM t WHERE s = ?");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto by_number = (*query)->Run({exec::ScalarValue::Int(1)});
  ASSERT_FALSE(by_number.ok());
  EXPECT_EQ(by_number.status().code(), StatusCode::kTypeError);
  auto by_string = (*query)->Run({exec::ScalarValue::String("a")});
  ASSERT_TRUE(by_string.ok()) << by_string.status().ToString();
  EXPECT_EQ((*by_string)->num_rows(), 2);
}

// MergeAggInputs concatenates a column that several aggregates (or a key
// and an aggregate) read once, and hands every reader the same buffer; a
// column shared in only some parts is merged per reader.
TEST(MergeAggInputsTest, SharedColumnsAreMergedOnce) {
  const auto part = [](std::vector<int64_t> keys, std::vector<float> x,
                       std::vector<float> y) {
    exec::AggInputs in;
    in.rows = static_cast<int64_t>(keys.size());
    const Column key = Column::Plain(Tensor::FromVector(keys));
    const Column xs = Column::Plain(Tensor::FromVector(x));
    // MIN(x), MAX(x), MIN(k), SUM(y), COUNT(*)
    in.key_columns = {key};
    in.arg_columns = {xs, xs, key, Column::Plain(Tensor::FromVector(y)),
                      Column()};
    return in;
  };
  const exec::AggInputs a = part({1, 2}, {0.5f, 1.5f}, {1, 2});
  const exec::AggInputs b = part({3, 4, 5}, {2.5f, 3.5f, 4.5f}, {3, 4, 5});
  const exec::AggInputs merged = exec::MergeAggInputs({&a, &b});

  EXPECT_EQ(merged.rows, 5);
  ASSERT_EQ(merged.arg_columns.size(), 5u);
  const auto buffer = [](const Column& c) {
    return c.data().data<float>();
  };
  EXPECT_EQ(buffer(merged.arg_columns[0]), buffer(merged.arg_columns[1]));
  EXPECT_EQ(merged.arg_columns[2].data().impl(),
            merged.key_columns[0].data().impl());
  EXPECT_NE(buffer(merged.arg_columns[3]), buffer(merged.arg_columns[0]));
  EXPECT_FALSE(merged.arg_columns[4].defined());
  EXPECT_EQ(merged.arg_columns[0].data().ToVector<float>(),
            (std::vector<float>{0.5f, 1.5f, 2.5f, 3.5f, 4.5f}));
  EXPECT_EQ(merged.key_columns[0].data().ToVector<int64_t>(),
            (std::vector<int64_t>{1, 2, 3, 4, 5}));

  // Shared in the first part only: each argument gets its own merge.
  exec::AggInputs c = b;
  c.arg_columns[1] = Column::Plain(Tensor::FromVector(
      std::vector<float>{7.5f, 8.5f, 9.5f}));
  const exec::AggInputs apart = exec::MergeAggInputs({&a, &c});
  EXPECT_NE(buffer(apart.arg_columns[0]), buffer(apart.arg_columns[1]));
  EXPECT_EQ(apart.arg_columns[0].data().ToVector<float>(),
            (std::vector<float>{0.5f, 1.5f, 2.5f, 3.5f, 4.5f}));
  EXPECT_EQ(apart.arg_columns[1].data().ToVector<float>(),
            (std::vector<float>{0.5f, 1.5f, 7.5f, 8.5f, 9.5f}));
}

}  // namespace
}  // namespace tdp
