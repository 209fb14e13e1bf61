// The larger-than-memory differential harness.
//
// A seeded driver builds tables whose columns exercise every key-code
// equivalence the budgeted breakers must preserve — shuffled duplicate
// ints, doubles with NaN / -0 / +0 / dense duplicates, low-cardinality
// strings — then runs a fixed query battery (multi-key ORDER BY,
// fused-limit sort, hash joins, GROUP BY with every aggregate kind plus
// COUNT(DISTINCT), join+aggregate+sort compositions) under a budget sweep:
//
//     {unlimited, tight, pathological-1-byte}
//   x {morsels 7 / 4096 / default}
//
// Every budgeted result must be BYTE-identical (NaN payloads and -0 signs
// included — stricter than value equality) to the unlimited in-memory
// reference. Over budget a hash join writes its build payload to disk and
// gathers matched rows back, and GROUP BY computes page by page from its
// resident inputs; ORDER BY and DISTINCT run in memory at every budget. A
// 1-byte budget puts every join build on disk and pages every aggregate;
// tight budgets exercise the mixed regime where some breakers stay
// resident.
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
#include "src/tensor/ops.h"

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
      // Fused-limit sort: the partial sort must truncate identically.
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
      // Join + aggregate + sort: all three breakers in one plan.
      "SELECT d.bonus, COUNT(*) AS n, SUM(r.score) AS s FROM rows r "
      "JOIN dims d ON r.grp = d.name GROUP BY d.bonus ORDER BY d.bonus",
      // DISTINCT downstream of a budgeted sort.
      "SELECT DISTINCT tag, grp FROM rows ORDER BY tag, grp",
  };
  return queries;
}

// Morsel sizes: 0 = the default (one morsel for these tables).
const std::vector<int64_t> kMorselSizes = {0, 7, 4096};

// Budgets: 0 = unlimited reference; 32 KB pages or spills the large
// breakers while small ones stay resident; 1 byte pages every aggregate
// and spills every join build.
const std::vector<int64_t> kBudgets = {0, 32 * 1024, 1};

class SpillDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpillDifferentialTest, BudgetedRunsAreByteIdentical) {
  Session session;
  RegisterTables(session, GetParam());
  const int64_t live_before = QueryMemory::LiveSpillFiles();

  for (const std::string& sql : Queries()) {
    // Reference: unlimited, default morsel.
    auto reference = session.Sql(sql);
    ASSERT_TRUE(reference.ok()) << sql << "\n"
                                << reference.status().ToString();

    for (int64_t morsel : kMorselSizes) {
      for (int64_t budget : kBudgets) {
        RunOptions run;
        run.morsel_rows = morsel;
        run.memory_budget_bytes = budget;
        const std::string what = sql + " [morsel=" + std::to_string(morsel) +
                                 " budget=" + std::to_string(budget) + "]";
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
    for (int64_t morsel : kMorselSizes) {
      for (int64_t budget : kBudgets) {
        RunOptions run;
        run.morsel_rows = morsel;
        run.memory_budget_bytes = budget;
        const std::string what = sql + " [morsel=" + std::to_string(morsel) +
                                 " budget=" + std::to_string(budget) + "]";
        auto result = session.Sql(sql, {}, run);
        ASSERT_TRUE(result.ok()) << what << "\n"
                                 << result.status().ToString();
        ExpectTablesByteIdentical(*reference.value(), *result.value(), what);
      }
    }
  }
  EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before);
}

// ---- Dense grouping across the budget sweep -----------------------------------
//
// Keys whose codes span no more values than there are rows group by slot
// in memory, while the paged kernel always groups through its key table:
// the two must agree byte for byte. The table spans 18 blocks and is big
// enough that four threads split the in-memory kernel's passes in two.
//   * `lo` (ints -3 .. 3) and (`tag`, `lo`): few groups, so the kernels
//     fold per-block partials;
//   * `hi` (ints 0 .. 65999, not all present): more groups than the fold
//     allows, so each group accumulates its rows in row order;
//   * (`flag`, `hi`): a domain larger than the filtered row count, which
//     falls back to the key table in memory too;
//   * `zero` (-0 and +0, one order code): a single slot, whose key shows
//     its first row's sign.

constexpr int64_t kDenseRows = (int64_t{1} << 16) + 4096 + 17;

void RegisterDenseTable(Session& session, uint64_t seed) {
  Rng rng(seed * 104729 + 3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::string> tags = {"ash", "birch", "cedar", "elm",
                                         "oak"};
  std::vector<int64_t> lo(kDenseRows), hi(kDenseRows);
  std::vector<double> x(kDenseRows), zero(kDenseRows);
  std::vector<float> y(kDenseRows);
  std::vector<bool> flag(kDenseRows);
  std::vector<std::string> tag(kDenseRows);
  for (int64_t i = 0; i < kDenseRows; ++i) {
    lo[i] = rng.UniformInt(-3, 3);
    hi[i] = rng.UniformInt(0, 65999);
    const int64_t shape = rng.UniformInt(0, 19);
    x[i] = shape == 0 ? nan : shape == 1 ? -0.0 : rng.Uniform(-1e3, 1e3);
    y[i] = shape == 2 ? -0.0f : static_cast<float>(rng.Uniform(-10, 10));
    flag[i] = rng.Bernoulli(0.5);
    tag[i] = tags[static_cast<size_t>(rng.UniformInt(0, 4))];
    zero[i] = rng.Bernoulli(0.5) ? -0.0 : 0.0;
  }
  auto dense = TableBuilder("dense")
                   .AddInt64("lo", lo)
                   .AddInt64("hi", hi)
                   .AddFloat64("x", x)
                   .AddFloat32("y", y)
                   .AddBool("flag", flag)
                   .AddStrings("tag", tag)
                   .AddFloat64("zero", zero)
                   .Build();
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();
  ASSERT_TRUE(session.RegisterTable("dense", dense.value()).ok());
}

TEST_P(SpillDifferentialTest, DenseGroupingIsByteIdentical) {
  Session session;
  RegisterDenseTable(session, GetParam());
  const int64_t live_before = QueryMemory::LiveSpillFiles();

  const std::vector<std::string> queries = {
      "SELECT lo, COUNT(*) AS n, SUM(x) AS sx, MIN(x) AS mn, MAX(x) AS mx, "
      "AVG(y) AS ay FROM dense GROUP BY lo",
      "SELECT tag, lo, COUNT(*) AS n, SUM(y) AS sy FROM dense "
      "WHERE flag GROUP BY tag, lo",
      "SELECT hi, COUNT(*) AS n, SUM(x) AS sx, MIN(y) AS my, MAX(x) AS mx, "
      "COUNT(DISTINCT lo) AS dl FROM dense GROUP BY hi",
      "SELECT flag, hi, SUM(x) AS sx FROM dense WHERE lo > 0 "
      "GROUP BY flag, hi",
      "SELECT zero, COUNT(*) AS n, SUM(y) AS sy FROM dense GROUP BY zero",
      "SELECT zero, COUNT(*) AS n FROM dense WHERE zero > 0 OR lo = 2 "
      "GROUP BY zero",
  };
  for (const std::string& sql : queries) {
    auto reference = session.Sql(sql);
    ASSERT_TRUE(reference.ok()) << sql << "\n"
                                << reference.status().ToString();
    for (int64_t morsel : kMorselSizes) {
      for (int64_t budget : kBudgets) {
        RunOptions run;
        run.morsel_rows = morsel;
        run.memory_budget_bytes = budget;
        const std::string what = sql + " [morsel=" + std::to_string(morsel) +
                                 " budget=" + std::to_string(budget) + "]";
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

  // Shapes that stress the budgeted breakers' edges: single-row output,
  // empty input, one giant group, all-NaN key pages.
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
    for (int64_t morsel : kMorselSizes) {
      RunOptions run;
      run.morsel_rows = morsel;
      run.memory_budget_bytes = 1;
      const std::string what =
          sql + " [morsel=" + std::to_string(morsel) + " budget=1]";
      auto result = session.Sql(sql, {}, run);
      ASSERT_TRUE(result.ok()) << what << "\n" << result.status().ToString();
      ExpectTablesByteIdentical(*reference.value(), *result.value(), what);
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
    run.morsel_rows = 7;  // many result chunks: the drain stays early
    auto cursor = session.Execute(
        "SELECT r.id, r.score, d.bonus FROM rows r JOIN dims d "
        "ON r.grp = d.name",
        {}, run);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    auto first = cursor.value()->Next();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    // Abandon the rest: the destructor closes the cursor, cancelling the
    // producer at the next morsel boundary.
  }
  EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before)
      << "early cursor close leaked spill files";
  EXPECT_GT(QueryMemory::TotalBytesSpilled(), spilled_before)
      << "the budgeted join never actually spilled";
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

// ---- Breakers that never spill ----------------------------------------------
//
// ORDER BY and DISTINCT hold their whole input and output in memory for
// the whole call, and a paged GROUP BY recomputes each page from its
// resident inputs, so none of them writes a file at any budget: only a
// hash join's build payload goes to disk.

TEST_P(SpillDifferentialTest, SortGroupByAndDistinctNeverSpill) {
  Session session;
  RegisterTables(session, GetParam());
  RegisterMultiBlockTable(session, GetParam());

  const std::vector<std::string> queries = {
      "SELECT id, score, tag FROM rows ORDER BY tag, score DESC, id",
      "SELECT id, score FROM rows ORDER BY score, id DESC LIMIT 123",
      "SELECT grp, COUNT(*) AS n, SUM(score) AS s, COUNT(DISTINCT tag) AS dt "
      "FROM rows GROUP BY grp ORDER BY grp",
      "SELECT hi, COUNT(*) AS n, SUM(x) AS sx, MIN(x) AS mn, "
      "COUNT(DISTINCT x) AS dx FROM wide GROUP BY hi",
      "SELECT DISTINCT tag, grp FROM rows",
  };
  for (const std::string& sql : queries) {
    auto reference = session.Sql(sql);
    ASSERT_TRUE(reference.ok()) << sql << "\n"
                                << reference.status().ToString();
    for (int64_t morsel : kMorselSizes) {
      for (int64_t budget : {int64_t{32 * 1024}, int64_t{1}}) {
        RunOptions run;
        run.morsel_rows = morsel;
        run.memory_budget_bytes = budget;
        const std::string what = sql + " [morsel=" + std::to_string(morsel) +
                                 " budget=" + std::to_string(budget) + "]";
        const int64_t live_before = QueryMemory::LiveSpillFiles();
        const int64_t spilled_before = QueryMemory::TotalBytesSpilled();
        auto result = session.Sql(sql, {}, run);
        ASSERT_TRUE(result.ok()) << what << "\n"
                                 << result.status().ToString();
        EXPECT_EQ(QueryMemory::TotalBytesSpilled(), spilled_before) << what;
        EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before) << what;
        ExpectTablesByteIdentical(*reference.value(), *result.value(), what);
      }
    }
  }
}

// ---- Multi-page join build --------------------------------------------------
//
// The battery's only build side is the 7-row `dims` table: one page. Here
// the build side is a filtered subquery of about 11K rows, three 4096-row
// pages, so the page-ordered gather of a spilled build must cross page
// boundaries, skip pages no probe row matches, and copy one build row to
// many probe rows:
//   * build keys `k`: the first page holds about 4500 table rows over 500
//     values (duplicates, +0 and -0 mixed); the second page, and the
//     start of the third, unique values no probe row holds; the rest of
//     the third page 300 values again; every 97th row's key is NaN;
//   * probe keys `pk`: a third of the probe rows hit the first page, a
//     third the last, the rest hold NaN or a value no build row has.
// The payload carries an int, a string and a 4-wide float tensor column,
// so rows of several widths are gathered.

constexpr int64_t kJoinRows = 3 * 4096 + 100;

void RegisterJoinPagesTable(Session& session, uint64_t seed) {
  Rng rng(seed * 31 + 17);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::string> names = {"ant", "bee", "cat", "dog"};
  std::vector<double> k(kJoinRows), pk(kJoinRows);
  std::vector<int64_t> keep(kJoinRows), pay(kJoinRows);
  std::vector<std::string> s(kJoinRows);
  for (int64_t i = 0; i < kJoinRows; ++i) {
    if (i % 97 == 0) {
      k[i] = nan;
    } else if (i < 4500) {
      const int64_t base = i % 500;
      k[i] = base == 0 ? (rng.Bernoulli(0.5) ? -0.0 : 0.0)
                       : static_cast<double>(base);
    } else if (i < 9400) {
      k[i] = static_cast<double>(100000 + i);
    } else {
      k[i] = static_cast<double>(1000 + i % 300);
    }
    switch (rng.UniformInt(0, 5)) {
      case 0:
      case 1:
        pk[i] = static_cast<double>(rng.UniformInt(0, 39));
        break;
      case 2:
      case 3:
        pk[i] = static_cast<double>(1000 + rng.UniformInt(0, 299));
        break;
      case 4:
        pk[i] = nan;
        break;
      default:
        pk[i] = -1.0;
    }
    keep[i] = i % 11 == 0 ? 3 : rng.UniformInt(0, 2);
    pay[i] = rng.UniformInt(-1000000, 1000000);
    s[i] = names[static_cast<size_t>(rng.UniformInt(0, 3))];
  }
  auto big = TableBuilder("big")
                 .AddFloat64("k", k)
                 .AddFloat64("pk", pk)
                 .AddInt64("keep", keep)
                 .AddInt64("pay", pay)
                 .AddStrings("s", s)
                 .AddTensor("emb", RandNormal({kJoinRows, 4}, 0, 1, rng))
                 .Build();
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  ASSERT_TRUE(session.RegisterTable("big", big.value()).ok());
}

TEST_P(SpillDifferentialTest, MultiPageJoinBuildIsByteIdentical) {
  Session session;
  RegisterJoinPagesTable(session, GetParam());
  const int64_t live_before = QueryMemory::LiveSpillFiles();

  // The unfiltered probe side is estimated larger, so the filtered
  // subquery is the build side.
  const std::string sql =
      "SELECT p.pk, p.pay, b.k, b.pay AS bpay, b.s, b.emb FROM big p JOIN "
      "(SELECT k, pay, s, emb FROM big WHERE keep <> 3) b ON p.pk = b.k";
  auto plan = session.Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan.value().find("build=left"), std::string::npos)
      << plan.value();

  auto reference = session.Sql(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_GT(reference.value()->num_rows(), 2 * kJoinRows);
  for (int64_t morsel : kMorselSizes) {
    for (int64_t budget : kBudgets) {
      RunOptions run;
      run.morsel_rows = morsel;
      run.memory_budget_bytes = budget;
      const std::string what = "multi-page join [morsel=" +
                               std::to_string(morsel) +
                               " budget=" + std::to_string(budget) + "]";
      const int64_t spilled_before = QueryMemory::TotalBytesSpilled();
      auto result = session.Sql(sql, {}, run);
      ASSERT_TRUE(result.ok()) << what << "\n"
                               << result.status().ToString();
      if (budget > 0) {
        // Over 4096 build rows of payload went to disk.
        EXPECT_GT(QueryMemory::TotalBytesSpilled() - spilled_before,
                  4096 * 32)
            << what;
      }
      ExpectTablesByteIdentical(*reference.value(), *result.value(), what);
    }
  }
  EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpillDifferentialTest,
                         ::testing::Values(1u, 2u, 3u));

// A bool sort key (here a comparison) orders false before true, at every
// budget.
TEST(SpillSortKeyTest, BoolKeySortsTheSameInMemoryAndSpilled) {
  Session session;
  auto t = TableBuilder("t").AddInt64("k", {3, 1, 4, 1, 5, 9, 2, 6}).Build();
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_TRUE(session.RegisterTable("t", t.value()).ok());
  const std::string sql = "SELECT k FROM t ORDER BY k > 2, k DESC";
  auto in_memory = session.Sql(sql);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  EXPECT_EQ((*in_memory)->column(0).data().ToVector<int64_t>(),
            (std::vector<int64_t>{2, 1, 1, 9, 6, 5, 4, 3}));
  RunOptions run;
  run.memory_budget_bytes = 1;
  auto spilled = session.Sql(sql, {}, run);
  ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
  ExpectTablesByteIdentical(*in_memory.value(), *spilled.value(), sql);
}

}  // namespace
}  // namespace tdp
