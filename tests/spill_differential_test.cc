// The larger-than-memory differential harness (this PR's tentpole proof).
//
// A seeded driver builds tables whose columns exercise every key-code
// equivalence the spill paths must preserve — shuffled duplicate ints,
// doubles with NaN / -0 / +0 / dense duplicates, low-cardinality strings —
// then runs a fixed query battery (multi-key ORDER BY, fused-limit sort,
// hash joins, GROUP BY with every aggregate kind plus COUNT(DISTINCT),
// join+aggregate+sort compositions) under a budget sweep:
//
//     {unlimited, tight, pathological-1-byte}
//   x {streaming (morsels 7 / 4096 / default), legacy whole-relation}
//
// Every budgeted result must be BYTE-identical (NaN payloads and -0 signs
// included — stricter than value equality) to the unlimited in-memory
// reference. A 1-byte budget forces EVERY breaker through its external
// path, so sort runs, grace-join partitions, and aggregation pages all
// degenerate to their smallest shapes; tight budgets exercise the mixed
// regime where some breakers spill and others stay resident.
//
// The same suite pins the spill-file lifetime contract: after every run —
// completed, drained through a cursor, cancelled mid-flight, or abandoned
// by an early cursor close — `QueryMemory::LiveSpillFiles()` must return
// to its baseline (no leaked temp files).
//
// Registered in TDP_SANITIZER_TESTS and re-run as
// spill_differential_test_mt under TDP_NUM_THREADS=4 (see CMakeLists).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/memory_budget.h"
#include "src/exec/result_cursor.h"
#include "src/exec/run_options.h"
#include "src/exec/spill.h"
#include "src/runtime/session.h"
#include "src/storage/table.h"

namespace tdp {
namespace {

using exec::QueryMemory;
using exec::RunOptions;

// ---- Byte-identity oracle ---------------------------------------------------

// Stricter than testutil::ExpectTablesBitIdentical (whose TensorEqual
// treats NaN != NaN): compares the raw bytes of each column's contiguous
// payload, so NaN bit patterns and -0 signs must survive the spill
// round-trip exactly.
void ExpectTablesByteIdentical(const Table& a, const Table& b,
                               const std::string& what) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << what;
  for (int64_t c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    ASSERT_EQ(ca.encoding(), cb.encoding()) << what << " column " << c;
    ASSERT_EQ(ca.dictionary(), cb.dictionary()) << what << " column " << c;
    ASSERT_EQ(ca.domain(), cb.domain()) << what << " column " << c;
    const Tensor ta = ca.data().Contiguous();
    const Tensor tb = cb.data().Contiguous();
    ASSERT_EQ(ta.dtype(), tb.dtype()) << what << " column " << c;
    ASSERT_EQ(ta.shape(), tb.shape()) << what << " column " << c;
    const int64_t bytes = ta.numel() * DTypeSize(ta.dtype());
    if (bytes == 0) continue;  // empty columns may have no buffer at all
    EXPECT_EQ(std::memcmp(exec::TensorRawBytes(ta), exec::TensorRawBytes(tb),
                          static_cast<size_t>(bytes)),
              0)
        << what << " column " << c << " differs at the byte level";
  }
}

// ---- Seeded data ------------------------------------------------------------

constexpr int64_t kRows = 3000;

void RegisterTables(Session& session, uint64_t seed) {
  Rng rng(seed);
  const double nan = std::numeric_limits<double>::quiet_NaN();

  std::vector<int64_t> id(kRows), val(kRows);
  std::vector<double> score(kRows);
  std::vector<std::string> tag(kRows), grp(kRows);
  const std::vector<std::string> tags = {"red", "green", "blue", "teal", ""};
  const std::vector<std::string> grps = {"east", "west", "north", "south",
                                         "up", "down"};
  for (int64_t i = 0; i < kRows; ++i) {
    id[i] = rng.UniformInt(0, kRows / 3);  // heavy duplicates
    val[i] = rng.UniformInt(-1000, 1000);
    const int64_t shape = rng.UniformInt(0, 9);
    if (shape == 0) {
      score[i] = nan;  // NaN ties (one shared order code)
    } else if (shape == 1) {
      score[i] = rng.Bernoulli(0.5) ? -0.0 : 0.0;  // -0 / +0 ties
    } else if (shape <= 4) {
      score[i] = static_cast<double>(rng.UniformInt(-4, 4));  // dense dups
    } else {
      score[i] = rng.Uniform(-1e6, 1e6);
    }
    tag[i] = tags[rng.UniformInt(0, static_cast<int64_t>(tags.size()) - 1)];
    grp[i] = grps[rng.UniformInt(0, static_cast<int64_t>(grps.size()) - 1)];
  }
  auto rows = TableBuilder("rows")
                  .AddInt64("id", id)
                  .AddInt64("val", val)
                  .AddFloat64("score", score)
                  .AddStrings("tag", tag)
                  .AddStrings("grp", grp)
                  .Build();
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_TRUE(session.RegisterTable("rows", rows.value()).ok());

  // The join's build side: one row per group value plus a dangling group
  // (never matched) so joins drop rows too.
  auto dims = TableBuilder("dims")
                  .AddStrings("name", {"east", "west", "north", "south", "up",
                                       "down", "sideways"})
                  .AddInt64("bonus", {10, 20, 30, 40, 50, 60, 70})
                  .Build();
  ASSERT_TRUE(dims.ok()) << dims.status().ToString();
  ASSERT_TRUE(session.RegisterTable("dims", dims.value()).ok());
}

// The query battery. Join probe order, aggregate group order, and sort
// ties are all deterministic by construction, so results are compared
// positionally with no normalizing sort.
const std::vector<std::string>& Queries() {
  static const std::vector<std::string> queries = {
      // Multi-key sort: string key, float key with NaN/-0 ties, int
      // tiebreak; stability across equal full keys.
      "SELECT id, score, tag FROM rows ORDER BY tag, score DESC, id",
      // Fused-limit sort: the external merge must truncate identically.
      "SELECT id, score FROM rows ORDER BY score, id DESC LIMIT 123",
      // Ascending float sort, no tiebreak: ties resolved by stability.
      "SELECT score FROM rows ORDER BY score",
      // Hash join, no ORDER BY: emission order itself is the contract.
      "SELECT r.id, r.score, d.bonus FROM rows r JOIN dims d "
      "ON r.grp = d.name WHERE r.val > 0",
      // Grouped aggregation: every kind over ints and doubles, plus
      // COUNT(DISTINCT) over a dictionary column.
      "SELECT grp, COUNT(*) AS n, SUM(score) AS s, AVG(score) AS a, "
      "MIN(val) AS lo, MAX(val) AS hi, COUNT(DISTINCT tag) AS dt "
      "FROM rows GROUP BY grp ORDER BY grp",
      // Global (keyless) aggregate: a single group spanning every page.
      "SELECT COUNT(*), SUM(val), AVG(val), COUNT(DISTINCT grp) FROM rows",
      // Join + aggregate + sort: all three breakers spill in one plan.
      "SELECT d.bonus, COUNT(*) AS n, SUM(r.score) AS s FROM rows r "
      "JOIN dims d ON r.grp = d.name GROUP BY d.bonus ORDER BY d.bonus",
      // DISTINCT rides the same breaker infrastructure downstream of a
      // budgeted sort.
      "SELECT DISTINCT tag, grp FROM rows ORDER BY tag, grp",
  };
  return queries;
}

struct ExecConfig {
  bool streaming;
  int64_t morsel_rows;
  std::string label;
};

const std::vector<ExecConfig>& Configs() {
  static const std::vector<ExecConfig> configs = {
      {true, 0, "streaming/default"},
      {true, 7, "streaming/morsel=7"},
      {true, 4096, "streaming/morsel=4096"},
      {false, 0, "legacy"},
  };
  return configs;
}

// Budgets: 0 = unlimited reference; 32 KB spills the large breakers while
// small ones stay resident; 1 byte forces every breaker external.
const std::vector<int64_t> kBudgets = {0, 32 * 1024, 1};

class SpillDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpillDifferentialTest, BudgetedRunsAreByteIdentical) {
  Session session;
  RegisterTables(session, GetParam());
  const int64_t live_before = QueryMemory::LiveSpillFiles();

  for (const std::string& sql : Queries()) {
    // Reference: unlimited, streaming, default morsel.
    auto reference = session.Sql(sql);
    ASSERT_TRUE(reference.ok()) << sql << "\n"
                                << reference.status().ToString();

    for (const ExecConfig& config : Configs()) {
      for (int64_t budget : kBudgets) {
        RunOptions run;
        run.exec.streaming = config.streaming;
        run.exec.morsel_rows = config.morsel_rows;
        run.memory_budget_bytes = budget;
        const std::string what =
            sql + " [" + config.label + " budget=" + std::to_string(budget) +
            "]";
        auto result = session.Sql(sql, {}, run);
        ASSERT_TRUE(result.ok()) << what << "\n"
                                 << result.status().ToString();
        ExpectTablesByteIdentical(*reference.value(), *result.value(), what);
      }
    }
    EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before)
        << "leaked spill files after " << sql;
  }
}

// ---- Multi-block paged aggregation ------------------------------------------
//
// The battery's tables have fewer rows than one 4096-row accumulation
// block, so they never reach the paged aggregate's multi-block branches.
// This table spans four blocks (the last one 17 rows) and carries two
// grouping keys, one per branch:
//   * `lo` (5 float values incl. NaN and -0): 4 blocks x 5 groups <= rows,
//     so the kernels fold per-block partials in block order;
//   * `hi` (~5K distinct ints): 4 blocks x groups > rows, so the kernels
//     accumulate serially across the pages.
// `x` carries NaN and -0 (MIN/MAX keep or drop a NaN depending on where
// it falls in the reduction tree); `z` has -0 but no NaN, so its sums keep
// the rounding of every partial and expose any change of summation order.

constexpr int64_t kMultiBlockRows = 3 * 4096 + 17;

void RegisterMultiBlockTable(Session& session, uint64_t seed) {
  Rng rng(seed * 7919 + 5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> lo_values = {nan, -0.0, 0.0, 1.5, -2.0};
  std::vector<double> lo(kMultiBlockRows), x(kMultiBlockRows),
      z(kMultiBlockRows);
  std::vector<float> y(kMultiBlockRows);
  std::vector<int64_t> hi(kMultiBlockRows);
  for (int64_t i = 0; i < kMultiBlockRows; ++i) {
    lo[i] = lo_values[static_cast<size_t>(rng.UniformInt(0, 4))];
    hi[i] = rng.UniformInt(0, 6000);
    const int64_t shape = rng.UniformInt(0, 19);
    x[i] = shape == 0 ? nan : shape == 1 ? -0.0 : rng.Uniform(-1e3, 1e3);
    z[i] = shape == 2 ? -0.0 : rng.Uniform(-1e3, 1e3);
    y[i] = shape == 3 ? -0.0f : static_cast<float>(rng.Uniform(-10, 10));
  }
  auto wide = TableBuilder("wide")
                  .AddFloat64("lo", lo)
                  .AddInt64("hi", hi)
                  .AddFloat64("x", x)
                  .AddFloat64("z", z)
                  .AddFloat32("y", y)
                  .Build();
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  ASSERT_TRUE(session.RegisterTable("wide", wide.value()).ok());
}

TEST_P(SpillDifferentialTest, MultiBlockAggregationIsByteIdentical) {
  Session session;
  RegisterMultiBlockTable(session, GetParam());
  const int64_t live_before = QueryMemory::LiveSpillFiles();

  const std::vector<std::string> queries = {
      // Block-combine branch.
      "SELECT lo, COUNT(*) AS n, SUM(x) AS sx, MIN(x) AS mn, MAX(x) AS mx, "
      "SUM(z) AS sz, AVG(z) AS az, MIN(y) AS my FROM wide GROUP BY lo",
      // Serial branch, plus COUNT(DISTINCT) over a float argument.
      "SELECT hi, COUNT(*) AS n, SUM(x) AS sx, MIN(x) AS mn, MAX(x) AS mx, "
      "SUM(z) AS sz, AVG(z) AS az, MAX(y) AS my, COUNT(DISTINCT x) AS dx "
      "FROM wide GROUP BY hi",
  };
  for (const std::string& sql : queries) {
    auto reference = session.Sql(sql);
    ASSERT_TRUE(reference.ok()) << sql << "\n"
                                << reference.status().ToString();
    for (const ExecConfig& config : Configs()) {
      for (int64_t budget : kBudgets) {
        RunOptions run;
        run.exec.streaming = config.streaming;
        run.exec.morsel_rows = config.morsel_rows;
        run.memory_budget_bytes = budget;
        const std::string what =
            sql + " [" + config.label + " budget=" + std::to_string(budget) +
            "]";
        auto result = session.Sql(sql, {}, run);
        ASSERT_TRUE(result.ok()) << what << "\n"
                                 << result.status().ToString();
        ExpectTablesByteIdentical(*reference.value(), *result.value(), what);
      }
    }
  }
  EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before);
}

TEST_P(SpillDifferentialTest, PathologicalBudgetOnPathologicalShapes) {
  Session session;
  RegisterTables(session, GetParam());

  // Shapes that stress the externals' edges: single-row output, empty
  // input, one giant group, all-NaN key pages.
  const std::vector<std::string> edge_queries = {
      "SELECT id FROM rows WHERE val > 2000 ORDER BY id",      // empty input
      "SELECT COUNT(*) FROM rows WHERE val > 2000",            // empty agg
      "SELECT id, score FROM rows ORDER BY score LIMIT 1",     // limit 1
      "SELECT tag, COUNT(*) FROM rows WHERE score <> score "
      "GROUP BY tag ORDER BY tag",                             // NaN-only rows
  };
  for (const std::string& sql : edge_queries) {
    auto reference = session.Sql(sql);
    ASSERT_TRUE(reference.ok()) << sql << "\n"
                                << reference.status().ToString();
    for (const ExecConfig& config : Configs()) {
      RunOptions run;
      run.exec.streaming = config.streaming;
      run.exec.morsel_rows = config.morsel_rows;
      run.memory_budget_bytes = 1;
      auto result = session.Sql(sql, {}, run);
      ASSERT_TRUE(result.ok()) << sql << " [" << config.label << "]\n"
                               << result.status().ToString();
      ExpectTablesByteIdentical(*reference.value(), *result.value(),
                                sql + " [" + config.label + " budget=1]");
    }
  }
}

TEST_P(SpillDifferentialTest, CursorDrainMatchesRun) {
  Session session;
  RegisterTables(session, GetParam());
  const int64_t live_before = QueryMemory::LiveSpillFiles();

  const std::string sql =
      "SELECT id, score, tag FROM rows ORDER BY tag, score DESC, id";
  auto reference = session.Sql(sql);
  ASSERT_TRUE(reference.ok());

  RunOptions run;
  run.memory_budget_bytes = 1;
  auto cursor = session.Execute(sql, {}, run);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();

  std::vector<exec::Chunk> chunks;
  while (true) {
    auto next = cursor.value()->Next();
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    if (!next.value().has_value()) break;
    chunks.push_back(std::move(next.value().value()));
  }
  // The producer released its spill files when the stream ended — before
  // the cursor object itself dies.
  EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before);

  ASSERT_FALSE(chunks.empty());
  std::vector<Column> merged;
  for (size_t c = 0; c < chunks[0].columns.size(); ++c) {
    std::vector<Column> parts;
    for (const auto& chunk : chunks) parts.push_back(chunk.columns[c]);
    merged.push_back(Column::Concat(parts));
  }
  TableBuilder builder("drained");
  for (size_t c = 0; c < merged.size(); ++c) {
    builder.AddColumn(chunks[0].names[c], merged[c]);
  }
  auto drained = builder.Build();
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  ExpectTablesByteIdentical(*reference.value(), *drained.value(),
                            "cursor drain");
}

TEST_P(SpillDifferentialTest, EarlyCursorCloseReleasesSpillFiles) {
  Session session;
  RegisterTables(session, GetParam());
  const int64_t live_before = QueryMemory::LiveSpillFiles();
  const int64_t spilled_before = QueryMemory::TotalBytesSpilled();

  {
    RunOptions run;
    run.memory_budget_bytes = 1;
    run.exec.morsel_rows = 7;  // many result chunks: the drain stays early
    auto cursor = session.Execute(
        "SELECT id, score FROM rows ORDER BY score, id", {}, run);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    auto first = cursor.value()->Next();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    // Abandon the rest: the destructor closes the cursor, cancelling the
    // producer at the next morsel boundary.
  }
  EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before)
      << "early cursor close leaked spill files";
  EXPECT_GT(QueryMemory::TotalBytesSpilled(), spilled_before)
      << "the budgeted sort never actually spilled";
}

TEST_P(SpillDifferentialTest, CancellationMidSpillReleasesSpillFiles) {
  Session session;
  RegisterTables(session, GetParam());
  const int64_t live_before = QueryMemory::LiveSpillFiles();

  // Race a cancel against a budgeted three-breaker query. Whatever the
  // outcome — cancelled mid-spill, cancelled while queueing results, or
  // completed before the token flipped — no spill file may survive.
  for (int trial = 0; trial < 8; ++trial) {
    RunOptions run;
    run.memory_budget_bytes = 1;
    run.cancel = std::make_shared<exec::CancellationToken>();
    std::thread canceller([&run, trial] {
      // Sweep the cancellation point across the run's lifetime.
      std::this_thread::sleep_for(std::chrono::microseconds(50 * trial));
      run.cancel->Cancel();
    });
    auto result = session.Sql(
        "SELECT d.bonus, COUNT(*) AS n, SUM(r.score) AS s FROM rows r "
        "JOIN dims d ON r.grp = d.name GROUP BY d.bonus ORDER BY d.bonus",
        {}, run);
    canceller.join();
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
          << result.status().ToString();
    }
    EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before)
        << "trial " << trial << " leaked spill files";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace tdp
