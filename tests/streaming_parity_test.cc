// Morsel-parity test for the streaming executor behind `ExecutePlan`:
// every morsel size and thread count must produce results *bit-identical*
// to the one-morsel run (`morsel_rows = 1<<30`, which applies each kernel
// once to the whole relation) — including degenerate morsels (1 row),
// morsels that straddle the aggregate's 4096-row accumulation blocks,
// empty/single-row tables, and empty build/probe join sides. The
// pull-based ResultCursor is swept alongside: the concatenation of a
// drained cursor's chunks must equal the one-morsel Run() bit for bit at
// every (morsel, thread) combination, and abandoning/sharing cursors
// across threads must be race-free (this suite runs under TSan in CI).

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/runtime/session.h"
#include "src/tensor/ops.h"
#include "tests/vector_test_util.h"

namespace tdp {
namespace {

constexpr int64_t kWholeRelation = int64_t{1} << 30;

// The sweep: morsel sizes crossing every interesting boundary (single-row,
// prime-sized, exactly one aggregate block, whole relation) at serial and
// parallel thread counts.
const int64_t kMorselSizes[] = {1, 7, 4096, kWholeRelation};
const int kThreadCounts[] = {1, 4};

class StreamingParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4242);
    const std::vector<std::string> vocab = {"alpha", "beta", "gamma",
                                            "delta", "omega"};
    // Main table: big enough that a 4096-row morsel splits it, with
    // full-precision doubles so any reduction-order difference between
    // morsel sizes shows up as a bit difference.
    const int64_t rows = 10000;
    std::vector<int64_t> keys;
    std::vector<double> values;
    std::vector<std::string> tags;
    for (int64_t i = 0; i < rows; ++i) {
      keys.push_back(rng.UniformInt(0, 63));
      values.push_back(rng.Uniform(-100, 100));
      tags.push_back(vocab[static_cast<size_t>(rng.UniformInt(0, 4))]);
    }
    Register("big", TableBuilder("big")
                        .AddInt64("k", keys)
                        .AddFloat64("v", values)
                        .AddStrings("tag", tags));

    std::vector<int64_t> ku;
    std::vector<double> w;
    for (int64_t i = 0; i < 48; ++i) {
      ku.push_back(rng.UniformInt(0, 63));
      w.push_back(rng.Uniform(0, 50));
    }
    Register("u", TableBuilder("u").AddInt64("ku", ku).AddFloat64("w", w));

    Register("empty_t", TableBuilder("empty_t")
                            .AddInt64("k", {})
                            .AddFloat64("v", {})
                            .AddStrings("tag", {}));
    Register("one", TableBuilder("one").AddInt64("k", {7}).AddFloat64(
                        "v", {3.25}));

    // Embedding table + IVF index for the IndexTopK parity sweep: 300
    // clustered unit vectors (d=8) with an id column. The plan compiled
    // for the top-k statements below is an IndexTopK breaker; parity must
    // hold for it across every morsel size, thread count, and delivery
    // mode, exactly like any other operator.
    {
      const int64_t n = 300, d = 8, clusters = 5;
      Tensor emb = testutil::MakeClusteredUnitVectors(n, d, clusters, rng);
      std::vector<int64_t> ids(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
      Register("vecs", TableBuilder("vecs").AddInt64("id", ids).AddTensor(
                           "emb", emb));
      index::IvfIndex::Options options;
      options.num_lists = 5;
      ASSERT_TRUE(session_.CreateVectorIndex("vecs", "emb", options).ok());
      query_vec_ = testutil::MakeUnitQuery(d, rng);
    }

    // A deliberately batch-DEPENDENT scalar UDF (subtracts the batch
    // mean): its per-row output changes with the evaluation batch, so any
    // operator that evaluated it per morsel would diverge from the
    // one-morsel run. The pipeline builder must therefore treat every
    // NON-batchable UDF-bearing operator as a breaker — bnorm is the
    // negative control for the ModelEval streaming of batchable calls.
    udf::ScalarFunction fn;
    fn.name = "bnorm";
    fn.return_type = udf::DeclaredType::kFloat;
    fn.fn = [](const std::vector<udf::Argument>& args, int64_t,
               Device) -> StatusOr<Column> {
      const Tensor x = args[0].column.DecodeValues();
      return Column::Plain(Sub(x, Mean(x)));
    };
    ASSERT_TRUE(session_.functions().RegisterScalar(std::move(fn)).ok());

    // A batchable (row-local) scalar UDF with a tiny preferred batch, so
    // the ModelEval stage genuinely splits morsels at batch boundaries
    // that differ from every swept morsel size.
    ASSERT_TRUE(
        session_.functions().RegisterScalar(RowScale("rowscale", 3)).ok());

    // A batchable TVF that maps each input row to TWO output rows
    // ([v, -v] interleaved in row order): row-local including the output
    // row count, so batches of input rows concatenate to the
    // whole-relation output. Streams through ModelEval; the parity sweep
    // proves the reassembly is exact even when 1 input row != 1 output
    // row.
    udf::TableFunction expand;
    expand.name = "expand2";
    expand.output_schema = {{"val", udf::DeclaredType::kFloat}};
    expand.min_args = 0;
    expand.max_args = 0;
    expand.batchable = true;
    expand.preferred_batch_rows = 3;
    expand.fn = [](const exec::Chunk& input,
                   const std::vector<exec::ScalarValue>&,
                   Device) -> StatusOr<exec::Chunk> {
      const int64_t value_col = input.FindColumn("v");
      if (value_col < 0) {
        return Status::TypeError("expand2: no column named v in input");
      }
      const Tensor x = input.columns[static_cast<size_t>(value_col)].data();
      const int64_t n = x.size(0);
      // [n] -> [n, 2] -> [2n]: row i's pair lands at rows 2i, 2i+1.
      const Tensor pairs = Stack({x, Neg(x)}, 1);
      exec::Chunk out;
      out.names = {"val"};
      out.columns.push_back(Column::Plain(Reshape(pairs, {2 * n})));
      return out;
    };
    ASSERT_TRUE(session_.functions().RegisterTable(std::move(expand)).ok());
  }

  void Register(const std::string& name, TableBuilder builder) {
    auto table = std::move(builder).Build();
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE(session_.RegisterTable(name, table.value()).ok());
  }

  /// The batchable row-local UDF `v * 1.5 + 0.25`, registered under
  /// `name` with a preferred batch of `batch_rows`.
  static udf::ScalarFunction RowScale(const std::string& name,
                                      int64_t batch_rows) {
    udf::ScalarFunction scale;
    scale.name = name;
    scale.return_type = udf::DeclaredType::kFloat;
    scale.batchable = true;
    scale.preferred_batch_rows = batch_rows;
    scale.fn = [](const std::vector<udf::Argument>& args, int64_t,
                  Device) -> StatusOr<Column> {
      const Tensor x = args[0].column.DecodeValues();
      return Column::Plain(AddScalar(MulScalar(x, 1.5), 0.25));
    };
    return scale;
  }

  StatusOr<std::shared_ptr<Table>> RunWith(
      const std::string& sql, int64_t morsel_rows,
      const std::vector<exec::ScalarValue>& params = {}) {
    QueryOptions options;
    options.use_plan_cache = false;
    exec::RunOptions run;
    run.params = params;
    run.morsel_rows = morsel_rows;
    TDP_ASSIGN_OR_RETURN(auto query, session_.Query(sql, options));
    return query->Run(run);
  }

  /// Opens a cursor with the given run options, drains it, and returns
  /// the concatenation of the yielded chunks as a table.
  static StatusOr<std::shared_ptr<Table>> DrainCursor(
      const std::shared_ptr<exec::CompiledQuery>& query,
      exec::RunOptions run) {
    TDP_ASSIGN_OR_RETURN(std::unique_ptr<exec::ResultCursor> cursor,
                         query->Open(std::move(run)));
    std::vector<exec::Chunk> chunks;
    while (true) {
      TDP_ASSIGN_OR_RETURN(std::optional<exec::Chunk> chunk, cursor->Next());
      if (!chunk.has_value()) break;
      chunks.push_back(std::move(*chunk));
    }
    // A successful stream always yields at least one (possibly zero-row)
    // chunk — an empty stream would be a silent-truncation bug.
    if (chunks.empty()) {
      return Status::Internal("cursor yielded no chunks");
    }
    const exec::Chunk result = exec::Chunk::Concat(chunks);
    return result.ToTable("result");
  }

  StatusOr<std::shared_ptr<Table>> CursorWith(
      const std::string& sql, int64_t morsel_rows,
      const std::vector<exec::ScalarValue>& params = {}) {
    QueryOptions options;
    options.use_plan_cache = false;
    exec::RunOptions run;
    run.params = params;
    run.morsel_rows = morsel_rows;
    TDP_ASSIGN_OR_RETURN(auto query, session_.Query(sql, options));
    return DrainCursor(query, std::move(run));
  }

  void ExpectBitIdentical(const Table& a, const Table& b) {
    ASSERT_EQ(a.num_columns(), b.num_columns());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    for (int64_t c = 0; c < a.num_columns(); ++c) {
      SCOPED_TRACE("column " + std::to_string(c));
      EXPECT_EQ(a.column_names()[static_cast<size_t>(c)],
                b.column_names()[static_cast<size_t>(c)]);
      const Column& ca = a.column(c);
      const Column& cb = b.column(c);
      ASSERT_EQ(ca.encoding(), cb.encoding());
      EXPECT_TRUE(TensorEqual(ca.data().Contiguous(), cb.data().Contiguous()))
          << "column data diverged: " << ca.ToString() << " vs "
          << cb.ToString();
      EXPECT_EQ(ca.dictionary(), cb.dictionary());
      EXPECT_EQ(ca.domain(), cb.domain());
    }
  }

  /// Runs `sql` once as one whole-relation morsel, then — both the
  /// materializing Run() and a drained ResultCursor — for every (morsel
  /// size, thread count) combination, asserting bit identity.
  void ExpectParity(const std::string& sql,
                    const std::vector<exec::ScalarValue>& params = {},
                    std::span<const int64_t> morsel_sizes = kMorselSizes) {
    SCOPED_TRACE(sql);
    auto reference = RunWith(sql, kWholeRelation, params);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (int threads : kThreadCounts) {
      ScopedNumThreads guard(threads);
      for (int64_t morsel : morsel_sizes) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " morsel=" + std::to_string(morsel));
        auto streamed = RunWith(sql, morsel, params);
        ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
        ExpectBitIdentical(**reference, **streamed);
        auto drained = CursorWith(sql, morsel, params);
        ASSERT_TRUE(drained.ok()) << drained.status().ToString();
        ExpectBitIdentical(**reference, **drained);
      }
    }
  }

  Session session_;
  Tensor query_vec_;
};

TEST_F(StreamingParityTest, FilterProject) {
  ExpectParity("SELECT k, v FROM big WHERE v > 0");
  ExpectParity("SELECT k + 1, v * 2 FROM big WHERE k < 32 AND v <= 10");
  ExpectParity("SELECT tag FROM big WHERE tag >= 'beta'");
  ExpectParity("SELECT k FROM big WHERE tag IN ('alpha', 'omega')");
}

TEST_F(StreamingParityTest, GroupBy) {
  ExpectParity(
      "SELECT tag, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM big "
      "GROUP BY tag ORDER BY tag");
  ExpectParity("SELECT k, COUNT(DISTINCT tag) FROM big GROUP BY k");
  ExpectParity("SELECT COUNT(*), SUM(v) FROM big");
  ExpectParity(
      "SELECT CASE WHEN v > 0 THEN 1 ELSE 0 END AS pos, COUNT(*) FROM big "
      "GROUP BY CASE WHEN v > 0 THEN 1 ELSE 0 END ORDER BY pos");
  ExpectParity(
      "SELECT tag, COUNT(*) FROM big WHERE k BETWEEN 8 AND 40 GROUP BY tag "
      "HAVING COUNT(*) > 10 ORDER BY tag");
}

// Dense grouping over a table big enough that four threads split the
// in-memory aggregate's passes (min/max, ranks, row buckets) into
// shards, with groups on both sides of the aggregate's block fold: `lo`
// and (`tag`, `lo`) have few groups, so blocks fold; `hi` has tens of
// thousands, so each group accumulates its rows in row order.
TEST_F(StreamingParityTest, DenseGroupingAcrossBlocks) {
  Rng rng(77);
  const int64_t rows = 3 * (int64_t{1} << 15) + 17;
  const std::vector<std::string> tags = {"ash", "birch", "cedar", "elm"};
  std::vector<int64_t> lo, hi;
  std::vector<double> v;
  std::vector<std::string> tag;
  for (int64_t i = 0; i < rows; ++i) {
    lo.push_back(rng.UniformInt(-3, 3));
    hi.push_back(rng.UniformInt(0, 69999));
    v.push_back(rng.Uniform(-100, 100));
    tag.push_back(tags[static_cast<size_t>(rng.UniformInt(0, 3))]);
  }
  Register("dense", TableBuilder("dense")
                        .AddInt64("lo", lo)
                        .AddInt64("hi", hi)
                        .AddFloat64("v", v)
                        .AddStrings("tag", tag));
  // Single-row morsels are left out: at this size they only add time.
  const int64_t morsels[] = {7, 4096, kWholeRelation};
  ExpectParity(
      "SELECT lo, COUNT(*), SUM(v), MIN(v), MAX(v) FROM dense GROUP BY lo",
      {}, morsels);
  ExpectParity(
      "SELECT tag, lo, COUNT(*), SUM(v) FROM dense WHERE v > 0 "
      "GROUP BY tag, lo",
      {}, morsels);
  ExpectParity("SELECT hi, COUNT(*), SUM(v), AVG(v) FROM dense GROUP BY hi",
               {}, morsels);
  ExpectParity("SELECT hi, COUNT(DISTINCT tag) FROM dense GROUP BY hi", {},
               morsels);
}

TEST_F(StreamingParityTest, Joins) {
  ExpectParity(
      "SELECT big.k, u.w FROM big JOIN u ON big.k = u.ku WHERE u.w > 10 "
      "ORDER BY big.k, u.w");
  // Residual (cross-side) conjunct on top of the equi key.
  ExpectParity(
      "SELECT big.k, u.w FROM big JOIN u ON big.k = u.ku AND big.v < u.w");
  // Join feeding an aggregate.
  ExpectParity(
      "SELECT big.tag, COUNT(*), SUM(u.w) FROM big JOIN u ON big.k = u.ku "
      "GROUP BY big.tag ORDER BY big.tag");
  // Two-join chain: one probe pipeline streaming through two build
  // tables.
  ExpectParity(
      "SELECT big.k, u.w, one.v FROM big JOIN u ON big.k = u.ku "
      "JOIN one ON big.k = one.k WHERE u.w > 5 ORDER BY big.k, u.w");
  // Small table on the LEFT: the optimizer flips the build side
  // (JoinNode::build_left), hashing `one` and streaming `big` as probe.
  ExpectParity(
      "SELECT one.k, big.v FROM one JOIN big ON one.k = big.k "
      "ORDER BY big.v");
}

TEST_F(StreamingParityTest, SortLimitDistinct) {
  ExpectParity("SELECT k, v FROM big ORDER BY v DESC LIMIT 10");
  ExpectParity("SELECT k FROM big LIMIT 17 OFFSET 29");
  ExpectParity("SELECT k FROM big WHERE v > 0 LIMIT 100 OFFSET 4090");
  ExpectParity("SELECT k FROM big LIMIT 0");
  ExpectParity("SELECT k FROM big ORDER BY k LIMIT 5 OFFSET 20000");
  ExpectParity("SELECT DISTINCT tag FROM big");
  ExpectParity("SELECT x FROM (SELECT k + 1 AS x FROM big WHERE v > 0) s "
               "WHERE x < 8 ORDER BY x");
}

TEST_F(StreamingParityTest, IndexTopK) {
  const std::vector<exec::ScalarValue> params = {
      exec::ScalarValue::FromTensor(query_vec_)};
  // The compiled plan for each of these is an IndexTopK breaker (the
  // catalog holds an index on vecs.emb); the sweep drives it through
  // Run() and a drained cursor at every morsel/thread combination.
  ExpectParity(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 12",
      params);
  ExpectParity(
      "SELECT id, cosine_sim(emb, ?) AS sim FROM vecs "
      "ORDER BY sim DESC LIMIT 7",
      params);
  // Hidden sort column (ORDER BY key outside the select list) and OFFSET
  // above the fused top-k.
  ExpectParity("SELECT id FROM vecs ORDER BY dot(emb, ?) DESC LIMIT 9",
               params);
  ExpectParity(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC "
      "LIMIT 5 OFFSET 3",
      params);
  // LIMIT 0 and k > n degenerate shapes.
  ExpectParity(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 0",
      params);
  ExpectParity(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC "
      "LIMIT 100000",
      params);
  // The same statements with NO valid index (rewrite preconditions fail:
  // a WHERE below the sort) exercise the BoundVectorSim expression in an
  // ordinary streaming Project under the same sweep.
  ExpectParity(
      "SELECT id, dot(emb, ?) AS sim FROM vecs WHERE id < 200 "
      "ORDER BY sim DESC LIMIT 6",
      params);
}

// A cursor over an IndexTopK plan supports early close like any other:
// the breaker materializes, the (single) result chunk streams, and
// dropping the cursor mid-stream cancels cleanly.
TEST_F(StreamingParityTest, IndexTopKCursorEarlyClose) {
  QueryOptions options;
  auto query = session_.Prepare(
      "SELECT id, dot(emb, ?) AS sim FROM vecs ORDER BY sim DESC LIMIT 50",
      options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  exec::RunOptions run;
  run.params = {exec::ScalarValue::FromTensor(query_vec_)};
  run.morsel_rows = 4;
  auto cursor = (*query)->Open(std::move(run));
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  auto first = (*cursor)->Next();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first->has_value());
  EXPECT_GT((**first).num_rows(), 0);
  (*cursor)->Close();  // abandon mid-stream; destructor joins the producer
}

TEST_F(StreamingParityTest, EmptyAndSingleRowTables) {
  ExpectParity("SELECT k, v FROM empty_t WHERE v > 0");
  ExpectParity("SELECT tag, COUNT(*), SUM(v) FROM empty_t GROUP BY tag");
  ExpectParity("SELECT COUNT(*), SUM(v) FROM empty_t");
  ExpectParity("SELECT k FROM empty_t ORDER BY k DESC LIMIT 3");
  ExpectParity("SELECT DISTINCT tag FROM empty_t");
  ExpectParity("SELECT k, v FROM one WHERE v > 0");
  ExpectParity("SELECT k, COUNT(*) FROM one GROUP BY k");
  ExpectParity("SELECT k FROM one LIMIT 5 OFFSET 1");
}

TEST_F(StreamingParityTest, EmptyJoinSides) {
  // Zero-row build side: the probe stream must drain to an empty result.
  ExpectParity(
      "SELECT big.k FROM big JOIN empty_t ON big.k = empty_t.k");
  // Zero-row probe side against a populated build.
  ExpectParity(
      "SELECT empty_t.k, u.w FROM empty_t JOIN u ON empty_t.k = u.ku");
  // Empty filtered probe stream (nonempty source, nothing survives).
  ExpectParity(
      "SELECT big.k, u.w FROM big JOIN u ON big.k = u.ku WHERE big.v > 999");
}

TEST_F(StreamingParityTest, DegenerateProjections) {
  ExpectParity("SELECT 1 + 2 AS three, 10 / 4 AS frac");
  // Literal-only projection over a filter that drops every row: the
  // streaming fallback must reproduce the one-morsel empty-relation
  // behavior.
  ExpectParity("SELECT 1 FROM big WHERE k > 999");
  ExpectParity("SELECT 1 FROM big WHERE k >= 0 LIMIT 3");
}

TEST_F(StreamingParityTest, BatchDependentUdfsBreakPipelines) {
  // Projection and filter (kMaterialize breakers since PR 3's builder).
  ExpectParity("SELECT k, bnorm(v) FROM big WHERE v > 0");
  ExpectParity("SELECT k FROM big WHERE bnorm(v) > 0 ORDER BY k LIMIT 20");
  // Aggregate argument and group key: per-morsel input evaluation would
  // normalize against morsel means instead of the relation mean.
  ExpectParity(
      "SELECT tag, SUM(bnorm(v)) FROM big GROUP BY tag ORDER BY tag");
  ExpectParity(
      "SELECT CASE WHEN bnorm(v) > 0 THEN 1 ELSE 0 END AS hi, COUNT(*) "
      "FROM big GROUP BY CASE WHEN bnorm(v) > 0 THEN 1 ELSE 0 END "
      "ORDER BY hi");
  // Join residual: must be evaluated over the whole joined relation.
  ExpectParity(
      "SELECT big.k, u.w FROM big JOIN u ON big.k = u.ku "
      "AND bnorm(big.v) < u.w ORDER BY big.k, u.w");
}

// Batchable (row-local) model calls STREAM: the plan gets a ModelEval
// micro-batch stage instead of a breaker, and the full sweep (morsels
// {1,7,4096,whole} x threads {1,4} x Run() and cursor drains) must
// stay bit-identical — batch boundaries (preferred_batch_rows=3) land
// inside, across, and exactly on every swept morsel boundary.
TEST_F(StreamingParityTest, BatchableUdfsStreamThroughModelEval) {
  // Projection and filter.
  ExpectParity("SELECT k, rowscale(v) FROM big WHERE v > 0");
  ExpectParity("SELECT k FROM big WHERE rowscale(v) > 0 ORDER BY k LIMIT 20");
  // Batchable call under a Limit sink (no early-exit: ModelEval-wrapped
  // ops are not treated as row-preserving).
  ExpectParity("SELECT rowscale(v) FROM big LIMIT 13 OFFSET 7");
  // Aggregates stay conservative (breaker) even for batchable calls —
  // parity must hold regardless.
  ExpectParity(
      "SELECT tag, SUM(rowscale(v)) FROM big GROUP BY tag ORDER BY tag");
  // A batchable call nested under a NON-batchable one keeps breaker
  // semantics (bnorm sees the whole relation).
  ExpectParity("SELECT k, bnorm(rowscale(v)) FROM big WHERE v > 0");
  // Empty and single-row inputs through the ModelEval stage.
  ExpectParity("SELECT k, rowscale(v) FROM empty_t WHERE v > 0");
  ExpectParity("SELECT k, rowscale(v) FROM one");
}

// Batchable TVFs stream through ModelEval too — including one whose
// output row count differs from its input's (1 grid row -> 2 value rows),
// proving the slice-order reassembly is exact when counts change.
TEST_F(StreamingParityTest, BatchableTvfStreamsThroughModelEval) {
  ExpectParity("SELECT val FROM expand2(big)");
  ExpectParity("SELECT val FROM expand2(big) WHERE val > 0");
  ExpectParity(
      "SELECT COUNT(*), SUM(val) FROM expand2(big)");
  ExpectParity("SELECT val FROM expand2(empty_t)");
  ExpectParity("SELECT val FROM expand2(one)");
}

// EXPLAIN PIPELINES renders the synthesized ModelEval stage with its
// batch size, and the same UDF registered with any other preferred batch
// size reslices without changing a byte.
TEST_F(StreamingParityTest, ModelEvalExplainAndBatchOverride) {
  QueryOptions options;
  options.use_plan_cache = false;
  auto query = session_.Query(
      "SELECT k, rowscale(v) AS scaled FROM big WHERE v > 0", options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const std::string pipelines = (*query)->ExplainPipelines();
  EXPECT_NE(pipelines.find("ModelEval(batch=3)"), std::string::npos)
      << pipelines;
  // The batchable-bearing Project/Filter no longer appears as a breaker.
  EXPECT_EQ(pipelines.find("materialize"), std::string::npos) << pipelines;

  exec::RunOptions reference_run;
  reference_run.morsel_rows = kWholeRelation;
  auto reference = (*query)->Run(reference_run);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int64_t batch : {1, 2, 7, 4096}) {
    SCOPED_TRACE("preferred_batch_rows=" + std::to_string(batch));
    const std::string name = "rowscale" + std::to_string(batch);
    ASSERT_TRUE(
        session_.functions().RegisterScalar(RowScale(name, batch)).ok());
    auto batched = session_.Query(
        "SELECT k, " + name + "(v) AS scaled FROM big WHERE v > 0", options);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    EXPECT_NE((*batched)->ExplainPipelines().find(
                  "ModelEval(batch=" + std::to_string(batch) + ")"),
              std::string::npos);
    exec::RunOptions run;
    run.morsel_rows = 64;
    auto result = (*batched)->Run(run);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectBitIdentical(**reference, **result);
  }
  // A negative morsel size fails fast with a named error.
  exec::RunOptions bad_morsel;
  bad_morsel.morsel_rows = -1;
  auto morsel_fail = (*query)->Run(bad_morsel);
  ASSERT_FALSE(morsel_fail.ok());
  EXPECT_EQ(morsel_fail.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(morsel_fail.status().ToString().find("morsel_rows"),
            std::string::npos);
  auto morsel_cursor = (*query)->Open(bad_morsel);
  ASSERT_FALSE(morsel_cursor.ok());
  EXPECT_EQ(morsel_cursor.status().code(), StatusCode::kInvalidArgument);
}

// The non-batchable control keeps its breaker: bnorm-bearing plans must
// never grow a ModelEval stage.
TEST_F(StreamingParityTest, NonBatchableUdfKeepsBreaker) {
  QueryOptions options;
  options.use_plan_cache = false;
  auto query =
      session_.Query("SELECT k, bnorm(v) FROM big WHERE v > 0", options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const std::string pipelines = (*query)->ExplainPipelines();
  EXPECT_EQ(pipelines.find("ModelEval"), std::string::npos) << pipelines;
  EXPECT_NE(pipelines.find("materialize"), std::string::npos) << pipelines;
}

// The default path must also match when driven through the normal
// Session::Sql path (plan cache on, default run options): the one-morsel
// reference is selected per run, through the same cached plan.
TEST_F(StreamingParityTest, DefaultPathMatchesOneMorselRun) {
  const std::string sql =
      "SELECT tag, COUNT(*), SUM(v) FROM big GROUP BY tag ORDER BY tag";
  auto streamed = session_.Sql(sql);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  exec::RunOptions one_morsel;
  one_morsel.morsel_rows = kWholeRelation;
  auto reference = session_.Sql(sql, QueryOptions{}, one_morsel);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ExpectBitIdentical(**reference, **streamed);
}

// Session::Execute end to end: the cursor stream through the plan cache
// equals Sql()'s materialized table.
TEST_F(StreamingParityTest, SessionExecuteMatchesSql) {
  const std::string sql = "SELECT k, v FROM big WHERE v > 0";
  auto reference = session_.Sql(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  exec::RunOptions run;
  run.morsel_rows = 512;
  auto cursor = session_.Execute(sql, QueryOptions{}, std::move(run));
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<exec::Chunk> chunks;
  while (true) {
    auto chunk = (*cursor)->Next();
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    if (!chunk->has_value()) break;
    chunks.push_back(std::move(**chunk));
  }
  ASSERT_GT(chunks.size(), 1u);  // genuinely streamed, not one blob
  auto table = exec::Chunk::Concat(chunks).ToTable("result");
  ASSERT_TRUE(table.ok());
  ExpectBitIdentical(**reference, **table);
}

// Mid-stream abandonment under concurrency: many threads open cursors on
// tiny morsels, consume one chunk, and drop the cursor. The destructor's
// cooperative cancellation (close flag + token checked at morsel
// boundaries, producer joined) must be race-free — this suite runs under
// TSan in CI.
TEST_F(StreamingParityTest, ConcurrentCursorAbandonment) {
  QueryOptions options;
  auto query = session_.Prepare("SELECT k, v FROM big WHERE v > -200",
                                options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  constexpr int kClients = 4;
  std::vector<std::thread> clients;
  std::vector<int64_t> produced(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      exec::RunOptions run;
      run.morsel_rows = 16;  // ~625 potential chunks
      auto cursor = (*query)->Open(std::move(run));
      if (!cursor.ok()) return;
      auto first = (*cursor)->Next();
      if (first.ok()) produced[static_cast<size_t>(c)] = 1;
      // Abandon mid-stream: ~ResultCursor cancels and joins the producer.
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(produced[static_cast<size_t>(c)], 1) << "client " << c;
  }
}

// Concurrent cursors over ONE shared prepared plan, each with different
// per-run morsel sizes: the plan is immutable, so streams must neither
// race nor cross-contaminate; every drained stream equals the reference.
TEST_F(StreamingParityTest, ConcurrentCursorsShareOnePreparedPlan) {
  const std::string sql =
      "SELECT k, v FROM big WHERE k < 48 AND v > -150";
  auto reference = RunWith(sql, kWholeRelation);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto query = session_.Prepare(sql);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const int64_t kMorsels[] = {16, 127, 4096, 1 << 20};
  std::vector<std::thread> clients;
  std::vector<StatusOr<std::shared_ptr<Table>>> results(
      4, Status::Internal("unset"));
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      exec::RunOptions run;
      run.morsel_rows = kMorsels[c];
      results[static_cast<size_t>(c)] = DrainCursor(*query, std::move(run));
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < 4; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    ASSERT_TRUE(results[static_cast<size_t>(c)].ok())
        << results[static_cast<size_t>(c)].status().ToString();
    ExpectBitIdentical(**reference, *results[static_cast<size_t>(c)].value());
  }
}

}  // namespace
}  // namespace tdp
