// Differential testing: TDP's tensor query processor and BaselineDB (an
// independent row-interpreted engine sharing only the parser) must agree
// on randomized relational queries. This is the main correctness oracle
// for the compiled tensor operators.
//
// The top-k section at the bottom is a second differential axis: the
// IndexTopK plan (vector index) against the exact Sort+Limit plan over
// the same data, swept across random (n, d, k, num_lists) shapes — at
// full probe count the two must be BIT-identical, and at a quarter of the
// lists recall@k must stay high on clustered data.

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <set>
#include <sstream>

#include "src/baseline/baseline_db.h"
#include "src/common/rng.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"
#include "tests/vector_test_util.h"

namespace tdp {
namespace {

struct Engines {
  Session tdp;
  baseline::BaselineDb base;
};

// Registers the same random table in both engines.
void MakeRandomTable(Engines& engines, Rng& rng, int64_t rows) {
  std::vector<int64_t> ints;
  std::vector<double> floats;
  std::vector<std::string> strings;
  std::vector<std::string> vocab = {"red", "green", "blue", "cyan", "gold"};
  baseline::BaselineTable bt;
  bt.column_names = {"k", "v", "tag"};
  for (int64_t i = 0; i < rows; ++i) {
    ints.push_back(rng.UniformInt(0, 9));
    // One-decimal values avoid float32-vs-double aggregation divergence.
    floats.push_back(static_cast<double>(rng.UniformInt(-50, 50)) / 2.0);
    strings.push_back(vocab[static_cast<size_t>(rng.UniformInt(0, 4))]);
    bt.rows.push_back({ints.back(), floats.back(), strings.back()});
  }
  auto table = TableBuilder("t")
                   .AddInt64("k", ints)
                   .AddFloat64("v", floats)
                   .AddStrings("tag", strings)
                   .Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(engines.tdp.RegisterTable("t", table.value()).ok());
  ASSERT_TRUE(engines.base.RegisterTable("t", std::move(bt)).ok());
}

std::string NormalizeCell(double v) {
  // Round to 1e-4 so float32 vs double arithmetic agrees textually.
  std::ostringstream os;
  os.precision(10);
  os << std::round(v * 1e4) / 1e4;
  return os.str();
}

// Renders both engines' results as sorted multisets of row strings.
std::vector<std::string> TdpRows(const Table& table) {
  std::vector<std::string> rows;
  std::vector<std::vector<std::string>> decoded(
      static_cast<size_t>(table.num_columns()));
  for (int64_t c = 0; c < table.num_columns(); ++c) {
    if (table.column(c).encoding() == Encoding::kDictionary) {
      decoded[static_cast<size_t>(c)] = table.column(c).DecodeStrings();
    }
  }
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (int64_t c = 0; c < table.num_columns(); ++c) {
      const Column& col = table.column(c);
      if (col.encoding() == Encoding::kDictionary) {
        row += decoded[static_cast<size_t>(c)][static_cast<size_t>(r)];
      } else {
        row += NormalizeCell(col.data().At({r}));
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<std::string> BaselineRows(const baseline::BaselineTable& table) {
  std::vector<std::string> rows;
  for (const auto& in_row : table.rows) {
    std::string row;
    for (const auto& v : in_row) {
      if (std::holds_alternative<std::string>(v)) {
        row += std::get<std::string>(v);
      } else if (std::holds_alternative<int64_t>(v)) {
        row += NormalizeCell(static_cast<double>(std::get<int64_t>(v)));
      } else if (std::holds_alternative<bool>(v)) {
        row += NormalizeCell(std::get<bool>(v) ? 1 : 0);
      } else {
        row += NormalizeCell(std::get<double>(v));
      }
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

void ExpectAgree(Engines& engines, const std::string& sql,
                 const QueryOptions& options = {}) {
  auto tdp_result = engines.tdp.Sql(sql, options);
  auto base_result = engines.base.Sql(sql);
  ASSERT_TRUE(tdp_result.ok()) << sql << "\n" << tdp_result.status().ToString();
  ASSERT_TRUE(base_result.ok()) << sql << "\n"
                                << base_result.status().ToString();
  EXPECT_EQ(TdpRows(**tdp_result), BaselineRows(*base_result)) << sql;
}

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialTest, RandomQueriesAgree) {
  Rng rng(GetParam());
  Engines engines;
  MakeRandomTable(engines, rng, 40 + GetParam() * 7 % 60);

  const int64_t a = rng.UniformInt(0, 9);
  const int64_t b = rng.UniformInt(-20, 20);
  const std::string tag =
      std::vector<std::string>{"red", "green", "blue",
                               "missing"}[rng.UniformInt(0, 3)];

  ExpectAgree(engines, "SELECT k, v FROM t WHERE k > " + std::to_string(a));
  ExpectAgree(engines, "SELECT k + 1, v * 2 FROM t WHERE v <= " +
                           std::to_string(b));
  ExpectAgree(engines, "SELECT tag FROM t WHERE tag = '" + tag + "'");
  ExpectAgree(engines, "SELECT tag FROM t WHERE tag >= '" + tag + "'");
  ExpectAgree(engines,
              "SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k ORDER BY k");
  ExpectAgree(engines,
              "SELECT tag, AVG(v), MIN(v), MAX(v) FROM t GROUP BY tag "
              "ORDER BY tag");
  ExpectAgree(engines,
              "SELECT tag, COUNT(*) FROM t WHERE k BETWEEN 2 AND 7 GROUP BY "
              "tag HAVING COUNT(*) > 1 ORDER BY tag");
  ExpectAgree(engines, "SELECT DISTINCT tag FROM t");
  ExpectAgree(engines, "SELECT k, v FROM t ORDER BY v DESC, k ASC LIMIT 5");
  ExpectAgree(engines,
              "SELECT COUNT(DISTINCT k), COUNT(*) FROM t WHERE v > 0");
  ExpectAgree(engines,
              "SELECT x FROM (SELECT k + 1 AS x FROM t WHERE v > 0) s "
              "WHERE x < 8 ORDER BY x");
  ExpectAgree(engines,
              "SELECT CASE WHEN v > 0 THEN 1 ELSE 0 END AS pos, COUNT(*) "
              "FROM t GROUP BY CASE WHEN v > 0 THEN 1 ELSE 0 END ORDER BY "
              "pos");
  ExpectAgree(engines, "SELECT k FROM t WHERE tag IN ('red', 'blue') "
                       "ORDER BY k LIMIT 10");
}

// Bools compare as 0/1 in both engines, on the accel kernels too.
TEST_P(DifferentialTest, BoolComparisonsAgree) {
  Rng rng(GetParam());
  Engines engines;
  std::vector<int64_t> keys;
  std::vector<bool> flags;
  baseline::BaselineTable bt;
  bt.column_names = {"k", "b"};
  for (int64_t i = 0; i < 20 + static_cast<int64_t>(GetParam()); ++i) {
    keys.push_back(i);
    flags.push_back(rng.UniformInt(0, 1) == 1);
    bt.rows.push_back({keys.back(), static_cast<bool>(flags.back())});
  }
  auto table =
      TableBuilder("bt").AddInt64("k", keys).AddBool("b", flags).Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(engines.tdp.RegisterTable("bt", table.value()).ok());
  ASSERT_TRUE(engines.base.RegisterTable("bt", std::move(bt)).ok());

  ExpectAgree(engines, "SELECT k FROM bt WHERE b = TRUE");
  ExpectAgree(engines, "SELECT k FROM bt WHERE b <> FALSE");
  ExpectAgree(engines, "SELECT k FROM bt WHERE b = b");
  ExpectAgree(engines, "SELECT k FROM bt WHERE b < TRUE");
}

// Bools used as numbers are 0 and 1 (computed in doubles, so -FALSE is
// -0), a CASE may yield bools, and AND/OR refuse non-bool operands — on
// the reference and the accel backend alike.
TEST_P(DifferentialTest, BoolOperandsAgree) {
  Rng rng(GetParam());
  Engines engines;
  std::vector<int64_t> keys;
  std::vector<bool> flags;
  baseline::BaselineTable bt;
  bt.column_names = {"k", "b"};
  for (int64_t i = 0; i < 20 + static_cast<int64_t>(GetParam()); ++i) {
    keys.push_back(i);
    flags.push_back(rng.UniformInt(0, 1) == 1);
    bt.rows.push_back({keys.back(), static_cast<bool>(flags.back())});
  }
  auto table =
      TableBuilder("bt").AddInt64("k", keys).AddBool("b", flags).Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(engines.tdp.RegisterTable("bt", table.value()).ok());
  ASSERT_TRUE(engines.base.RegisterTable("bt", std::move(bt)).ok());

  for (const Device device : {Device::kCpu, Device::kAccel}) {
    QueryOptions options;
    options.device = device;
    SCOPED_TRACE(device == Device::kCpu ? "cpu" : "accel");
    ExpectAgree(engines, "SELECT k, b + b FROM bt", options);
    ExpectAgree(engines, "SELECT k, -b FROM bt", options);
    ExpectAgree(engines,
                "SELECT k, CASE WHEN k > 1 THEN TRUE ELSE FALSE END FROM bt",
                options);
    for (const char* sql : {"SELECT k FROM bt WHERE k AND b",
                            "SELECT k FROM bt WHERE b OR k",
                            "SELECT k FROM bt WHERE k AND k"}) {
      auto tdp_result = engines.tdp.Sql(sql, options);
      auto base_result = engines.base.Sql(sql);
      ASSERT_FALSE(tdp_result.ok()) << sql;
      ASSERT_FALSE(base_result.ok()) << sql;
      EXPECT_EQ(tdp_result.status().code(), StatusCode::kTypeError)
          << sql << ": " << tdp_result.status().ToString();
      EXPECT_EQ(tdp_result.status().ToString(),
                base_result.status().ToString())
          << sql;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

// ---- Index top-k vs. brute-force differential -------------------------------

namespace {

using testutil::ExpectTablesBitIdentical;
using testutil::MakeClusteredUnitVectors;

}  // namespace

class TopKDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

// Seeded generator of top-k query shapes: random n, d, k, list count, and
// probe budgets. The invariant under test is the acceptance criterion of
// the index subsystem: with num_probes == num_lists the IndexTopK plan is
// bit-identical to the brute-force Sort+Limit plan — same rows, same
// order, same bytes, ties included.
TEST_P(TopKDifferentialTest, FullProbeIndexPlanIsBitIdenticalToBrute) {
  Rng rng(GetParam() * 7919 + 101);
  const int64_t n = rng.UniformInt(30, 400);
  const int64_t dim = std::vector<int64_t>{4, 8, 16}[rng.UniformInt(0, 2)];
  const int64_t clusters = rng.UniformInt(2, 10);
  const int64_t num_lists = rng.UniformInt(2, 16);
  const int64_t k = rng.UniformInt(1, n + 5);  // may exceed the table

  Session session;
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  auto table = TableBuilder("vecs")
                   .AddInt64("id", ids)
                   .AddTensor("emb",
                              MakeClusteredUnitVectors(n, dim, clusters, rng))
                   .Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session.RegisterTable("vecs", table.value()).ok());

  const std::string sql =
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT " +
      std::to_string(k);
  // Pin the brute plan before the index exists.
  auto brute = session.Query(sql);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  ASSERT_EQ((*brute)->Explain().find("IndexTopK"), std::string::npos);

  index::IvfIndex::Options options;
  options.num_lists = num_lists;
  ASSERT_TRUE(session.CreateVectorIndex("vecs", "emb", options).ok());
  auto indexed = session.Query(sql);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  ASSERT_NE((*indexed)->Explain().find("IndexTopK"), std::string::npos);

  for (int q = 0; q < 4; ++q) {
    const Tensor query =
        L2Normalize(RandNormal({1, dim}, 0, 1, rng), 1).Squeeze(0)
            .Contiguous();
    exec::RunOptions brute_run;
    brute_run.params = {exec::ScalarValue::FromTensor(query)};
    auto expected = (*brute)->Run(brute_run);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    // Default (0 = every cell) and explicit full/over-clamped budgets.
    for (int64_t probes :
         {int64_t{0}, num_lists, num_lists + 7}) {
      exec::RunOptions run;
      run.params = {exec::ScalarValue::FromTensor(query)};
      run.vector_search.num_probes = probes;
      auto got = (*indexed)->Run(run);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectTablesBitIdentical(
          **expected, **got,
          "seed=" + std::to_string(GetParam()) + " n=" + std::to_string(n) +
              " d=" + std::to_string(dim) + " k=" + std::to_string(k) +
              " lists=" + std::to_string(num_lists) +
              " probes=" + std::to_string(probes));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKDifferentialTest,
                         ::testing::Range<uint64_t>(1, 9));

// Recall at a quarter of the lists on clustered data: the approximate
// regime the paper's probe/recall trade-off targets.
TEST(TopKDifferentialTest2, RecallAtQuarterProbesExceedsPointNine) {
  Rng rng(4242);
  const int64_t n = 600, dim = 16, num_lists = 12, k = 10;
  Session session;
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  const Tensor emb = MakeClusteredUnitVectors(n, dim, num_lists, rng);
  auto table =
      TableBuilder("vecs").AddInt64("id", ids).AddTensor("emb", emb).Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session.RegisterTable("vecs", table.value()).ok());
  index::IvfIndex::Options options;
  options.num_lists = num_lists;
  ASSERT_TRUE(session.CreateVectorIndex("vecs", "emb", options).ok());

  auto query = session.Prepare(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 10");
  ASSERT_TRUE(query.ok());
  double recall = 0;
  const int kQueries = 12;
  for (int q = 0; q < kQueries; ++q) {
    // Queries near data points, as in serving: perturb a random row.
    const int64_t anchor = rng.UniformInt(0, n - 1);
    const Tensor qvec =
        L2Normalize(
            Add(Slice(emb, 0, anchor, 1), RandNormal({1, dim}, 0, 0.02, rng)),
            1)
            .Squeeze(0)
            .Contiguous();
    exec::RunOptions exact;
    exact.params = {exec::ScalarValue::FromTensor(qvec)};
    auto truth = (*query)->Run(exact);
    ASSERT_TRUE(truth.ok());
    std::set<int64_t> exact_ids;
    for (int64_t i = 0; i < k; ++i) {
      exact_ids.insert(
          static_cast<int64_t>((*truth)->column(0).data().At({i})));
    }
    exec::RunOptions approx;
    approx.params = {exec::ScalarValue::FromTensor(qvec)};
    approx.vector_search.num_probes = num_lists / 4;
    auto got = (*query)->Run(approx);
    ASSERT_TRUE(got.ok());
    for (int64_t i = 0; i < (*got)->num_rows(); ++i) {
      if (exact_ids.contains(
              static_cast<int64_t>((*got)->column(0).data().At({i})))) {
        recall += 1;
      }
    }
  }
  recall /= static_cast<double>(kQueries * k);
  EXPECT_GE(recall, 0.9);
}

TEST(DifferentialJoinTest, JoinAgrees) {
  Rng rng(99);
  Engines engines;
  MakeRandomTable(engines, rng, 30);
  // Second table keyed by the same small int domain.
  std::vector<int64_t> keys;
  std::vector<double> weights;
  baseline::BaselineTable bt;
  bt.column_names = {"k2", "w"};
  for (int64_t i = 0; i < 12; ++i) {
    keys.push_back(rng.UniformInt(0, 9));
    weights.push_back(static_cast<double>(rng.UniformInt(0, 100)));
    bt.rows.push_back({keys.back(), weights.back()});
  }
  auto table = TableBuilder("u")
                   .AddInt64("k2", keys)
                   .AddFloat64("w", weights)
                   .Build();
  ASSERT_TRUE(engines.tdp.RegisterTable("u", table.value()).ok());
  ASSERT_TRUE(engines.base.RegisterTable("u", std::move(bt)).ok());

  ExpectAgree(engines,
              "SELECT t.k, u.w FROM t JOIN u ON t.k = u.k2 WHERE u.w > 20 "
              "ORDER BY t.k, u.w");
  ExpectAgree(engines,
              "SELECT t.tag, COUNT(*) FROM t JOIN u ON t.k = u.k2 GROUP BY "
              "t.tag ORDER BY t.tag");
}

// Float join keys with NaN and signed zeros: NaN matches nothing (NaN
// included) and -0 matches +0, in the engine as in BaselineDB.
TEST(DifferentialJoinTest, FloatKeysWithNanAndSignedZerosAgree) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Engines engines;
  const std::vector<double> left_keys = {nan, 1.0, -0.0, 2.5, nan, 0.0, 1.0};
  const std::vector<double> right_keys = {0.0, nan, 1.0, -0.0, 3.0, nan};
  for (const auto& [name, keys] :
       {std::make_pair(std::string("fl"), left_keys),
        std::make_pair(std::string("fr"), right_keys)}) {
    std::vector<int64_t> ids;
    baseline::BaselineTable bt;
    bt.column_names = {"fk", "id"};
    for (size_t i = 0; i < keys.size(); ++i) {
      ids.push_back(static_cast<int64_t>(i));
      bt.rows.push_back({keys[i], ids.back()});
    }
    auto table =
        TableBuilder(name).AddFloat64("fk", keys).AddInt64("id", ids).Build();
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(engines.tdp.RegisterTable(name, table.value()).ok());
    ASSERT_TRUE(engines.base.RegisterTable(name, std::move(bt)).ok());
  }
  ExpectAgree(engines,
              "SELECT fl.id AS lid, fr.id AS rid, fl.fk AS lk, fr.fk AS rk "
              "FROM fl JOIN fr ON fl.fk = fr.fk");
  ExpectAgree(engines,
              "SELECT fr.id, COUNT(*) FROM fl JOIN fr ON fl.fk = fr.fk "
              "GROUP BY fr.id");
}

// Registers table `t(k int, v double)` with the same rows in both engines.
void RegisterKv(Engines& engines, const std::vector<int64_t>& ks,
                const std::vector<double>& vs) {
  baseline::BaselineTable bt;
  bt.column_names = {"k", "v"};
  for (size_t i = 0; i < ks.size(); ++i) bt.rows.push_back({ks[i], vs[i]});
  auto table = TableBuilder("t").AddInt64("k", ks).AddFloat64("v", vs).Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(engines.tdp.RegisterTable("t", table.value()).ok());
  ASSERT_TRUE(engines.base.RegisterTable("t", std::move(bt)).ok());
}

// Both engines refuse `sql` with the same status.
void ExpectSameError(Engines& engines, const std::string& sql,
                     const QueryOptions& options) {
  auto tdp_result = engines.tdp.Sql(sql, options);
  auto base_result = engines.base.Sql(sql);
  ASSERT_FALSE(tdp_result.ok()) << sql;
  ASSERT_FALSE(base_result.ok()) << sql;
  EXPECT_EQ(tdp_result.status().ToString(), base_result.status().ToString())
      << sql;
}

// A CASE copies its taken branch: a NaN or inf in the branch not taken
// never reaches the result, on either backend.
TEST(DifferentialNonFiniteTest, CaseSelectsTheTakenBranch) {
  const double inf = std::numeric_limits<double>::infinity();
  Engines engines;
  RegisterKv(engines, {1, 2, 3},
             {2.0, std::numeric_limits<double>::quiet_NaN(), inf});
  for (const Device device : {Device::kCpu, Device::kAccel}) {
    QueryOptions options;
    options.device = device;
    SCOPED_TRACE(device == Device::kCpu ? "cpu" : "accel");
    ExpectAgree(engines, "SELECT k, CASE WHEN k = 1 THEN v ELSE 0.5 END FROM t",
                options);
    ExpectAgree(engines,
                "SELECT k, CASE WHEN k > 1 THEN 7 WHEN k = 1 THEN v ELSE v "
                "END FROM t",
                options);
  }
}

// Column `/` and `%` answer as the engine's fold of two literals and
// BaselineDB do: a zero divisor is an error, `%` of two integers
// truncates toward zero (-7 % 3 = -1) and is 0 for a divisor of -1, and
// any other `%` is fmod (7.25 % 2 = 1.25). A CASE branch guards the
// expressions after it, so a guarded division never sees a zero.
TEST(DifferentialArithmeticTest, DivisionAndModuloAgree) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Engines engines;
  RegisterKv(engines, {-7, 0, 3, 5, 8, -4}, {1.5, -2.0, 0.0, 4.0, -0.0, 3.0});
  Engines extremes;
  RegisterKv(extremes, {std::numeric_limits<int64_t>::min(), 7, -9},
             {nan, 7.25, -2.5});
  for (const Device device : {Device::kCpu, Device::kAccel}) {
    QueryOptions options;
    options.device = device;
    SCOPED_TRACE(device == Device::kCpu ? "cpu" : "accel");
    ExpectAgree(engines, "SELECT k, k % 3, k % -3, -k % 3 FROM t", options);
    ExpectAgree(engines, "SELECT k, k / 2, k / -4 FROM t", options);
    ExpectAgree(engines, "SELECT k, 10 % k, 12 / k FROM t WHERE k <> 0",
                options);
    ExpectAgree(engines, "SELECT k, v / k FROM t WHERE k > 0", options);
    ExpectAgree(engines,
                "SELECT k, k % 0.5, k % 2.5, v % 2, v % -1.5, k % -1 FROM t",
                options);
    ExpectAgree(engines,
                "SELECT 5 % 2.5, 7.25 % 2, -7 % 2.5, 7 % -1, "
                "(-4611686018427387904 * 2) % -1",
                options);
    ExpectAgree(extremes, "SELECT k, k % -1, k % 2, v % 2, k % v FROM t",
                options);
    ExpectAgree(engines,
                "SELECT k, CASE WHEN k <> 0 THEN 10 / k ELSE 0 END, "
                "CASE WHEN k = 0 THEN -1 ELSE 10 % k END FROM t",
                options);
    ExpectAgree(engines,
                "SELECT k, CASE WHEN k = 0 THEN -1 WHEN 12 / k > 2 THEN 1 "
                "ELSE 0 END FROM t",
                options);
    ExpectAgree(engines,
                "SELECT k, CASE WHEN v <> 0 THEN k / v WHEN k = 0 THEN 7 END "
                "FROM t",
                options);
    for (const char* sql : {"SELECT k / 0 FROM t", "SELECT k / k FROM t",
                            "SELECT k / v FROM t", "SELECT k % 0 FROM t",
                            "SELECT 5 % k FROM t", "SELECT 1 / 0",
                            "SELECT k % v FROM t", "SELECT 5 % 0.0",
                            "SELECT CASE WHEN k > 0 THEN 1 ELSE 10 / k END "
                            "FROM t"}) {
      SCOPED_TRACE(sql);
      ExpectSameError(engines, sql, options);
    }
  }
}

// A WHEN, ON, WHERE or HAVING predicate that is not boolean is a
// TypeError in both engines, never an abort.
TEST(DifferentialPredicateTest, NonBooleanPredicatesAreTypeErrors) {
  Engines engines;
  RegisterKv(engines, {-7, 0, 3, 5}, {1.5, -2.0, 0.0, 4.0});
  for (const Device device : {Device::kCpu, Device::kAccel}) {
    QueryOptions options;
    options.device = device;
    SCOPED_TRACE(device == Device::kCpu ? "cpu" : "accel");
    for (const char* sql :
         {"SELECT CASE WHEN k THEN 1 ELSE 0 END FROM t",
          "SELECT a.k FROM t a JOIN t b ON a.k",
          "SELECT k FROM t WHERE k",
          "SELECT k, COUNT(*) FROM t GROUP BY k HAVING COUNT(*)"}) {
      SCOPED_TRACE(sql);
      ExpectSameError(engines, sql, options);
    }
  }
}

}  // namespace
}  // namespace tdp
