// Unit coverage for the budgeted-breaker machinery: the per-query memory
// accounting (`QueryMemory`), the exact binary spill serialization
// (`SpillWriter`/`SpillReader`) a spilled join build is written in, and
// the order-preserving key codes sorting and grouping rank rows by. The
// end-to-end bit-identity proof — budgeted runs vs unlimited references
// across morsel sizes — lives in spill_differential_test.cc; this suite
// pins the pieces in isolation so a differential failure there localizes
// quickly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/memory_budget.h"
#include "src/exec/run_options.h"
#include "src/exec/spill.h"
#include "src/runtime/session.h"
#include "src/storage/column.h"
#include "src/storage/table.h"
#include "src/tensor/ops.h"
#include "src/tensor/tensor.h"

namespace tdp {
namespace exec {
namespace {

// ---- QueryMemory accounting -------------------------------------------------

TEST(QueryMemoryTest, UnlimitedNeverSpills) {
  QueryMemory memory(0);
  EXPECT_TRUE(memory.unlimited());
  EXPECT_FALSE(memory.ShouldSpill(std::numeric_limits<int64_t>::max() / 2));
  memory.Charge(1 << 20);
  EXPECT_FALSE(memory.ShouldSpill(1 << 20));
}

TEST(QueryMemoryTest, ChargeReleaseAndPeak) {
  QueryMemory memory(1000);
  EXPECT_FALSE(memory.unlimited());
  EXPECT_FALSE(memory.ShouldSpill(1000));
  EXPECT_TRUE(memory.ShouldSpill(1001));

  memory.Charge(600);
  EXPECT_EQ(memory.reserved_bytes(), 600);
  EXPECT_FALSE(memory.ShouldSpill(400));
  EXPECT_TRUE(memory.ShouldSpill(401));

  memory.Charge(300);
  EXPECT_EQ(memory.peak_reserved_bytes(), 900);
  memory.Release(600);
  memory.Release(300);
  EXPECT_EQ(memory.reserved_bytes(), 0);
  // Peak is sticky: it records the high-water mark, not the current level.
  EXPECT_EQ(memory.peak_reserved_bytes(), 900);
}

TEST(QueryMemoryTest, ScopedReservationReleasesOnExit) {
  QueryMemory memory(1000);
  {
    ScopedReservation r(&memory, 700);
    EXPECT_EQ(memory.reserved_bytes(), 700);
  }
  EXPECT_EQ(memory.reserved_bytes(), 0);
  // Null budget: a no-op, the common unlimited-run case.
  ScopedReservation nop(nullptr, 700);
}

TEST(QueryMemoryTest, SpillFileLifetime) {
  const int64_t live_before = QueryMemory::LiveSpillFiles();
  {
    QueryMemory memory(64);
    auto f1 = memory.NewSpillFile("sort_run");
    auto f2 = memory.NewSpillFile("join_part");
    ASSERT_TRUE(f1.ok()) << f1.status().ToString();
    ASSERT_TRUE(f2.ok()) << f2.status().ToString();
    EXPECT_NE(f1.value(), f2.value());
    EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before + 2);
    EXPECT_EQ(memory.spill_files_created(), 2);

    // Touch the files so release has something real to delete.
    {
      SpillWriter w(f1.value());
      ASSERT_TRUE(w.WriteInt64(42).ok());
      ASSERT_TRUE(w.Close().ok());
    }

    memory.ReleaseSpillFiles();
    EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before);
    // Idempotent: the destructor must not double-count the release.
    memory.ReleaseSpillFiles();
    EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before);
  }
  EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before);
}

TEST(QueryMemoryTest, FootprintCountsMetadata) {
  Column plain = Column::Plain(Tensor::Arange(100));
  const int64_t plain_bytes = ColumnFootprintBytes(plain);
  EXPECT_GE(plain_bytes, 800);  // 100 int64 rows

  Column dict = Column::FromStrings({"aa", "bb", "aa", "cc"});
  // Codes plus dictionary storage.
  EXPECT_GT(ColumnFootprintBytes(dict), 4 * 8);

  Chunk chunk;
  chunk.columns = {plain, dict};
  chunk.names = {"a", "b"};
  EXPECT_EQ(ChunkFootprintBytes(chunk),
            plain_bytes + ColumnFootprintBytes(dict));
}

// ---- Spill serialization round-trips ----------------------------------------

void ExpectColumnsBitIdentical(const Column& a, const Column& b) {
  ASSERT_EQ(a.encoding(), b.encoding());
  EXPECT_TRUE(TensorEqual(a.data().Contiguous(), b.data().Contiguous()));
  EXPECT_EQ(a.dictionary(), b.dictionary());
  EXPECT_EQ(a.domain(), b.domain());
}

Column RoundTrip(const Column& c) {
  QueryMemory memory(1);
  auto path = memory.NewSpillFile("roundtrip");
  EXPECT_TRUE(path.ok());
  {
    SpillWriter w(path.value());
    EXPECT_TRUE(w.WriteColumn(c).ok());
    EXPECT_TRUE(w.Close().ok());
  }
  SpillReader r(path.value());
  auto back = r.ReadColumn();
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  return back.ok() ? back.value() : Column();
}

TEST(SpillSerializationTest, PlainColumnsAllDTypes) {
  ExpectColumnsBitIdentical(
      Column::Plain(Tensor::Arange(17)),
      RoundTrip(Column::Plain(Tensor::Arange(17))));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Column doubles = Column::Plain(
      Tensor::FromVector<double>({1.5, -0.0, 0.0, nan, inf, -inf, 1e-300}));
  Column doubles_back = RoundTrip(doubles);
  ASSERT_TRUE(doubles_back.defined());
  // Bit-exactness, not value equality: NaN payloads and -0 signs survive.
  const auto a = doubles.data().ToVector<double>();
  const auto b = doubles_back.data().ToVector<double>();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t abits, bbits;
    std::memcpy(&abits, &a[i], 8);
    std::memcpy(&bbits, &b[i], 8);
    EXPECT_EQ(abits, bbits) << "row " << i;
  }

  Column floats =
      Column::Plain(Tensor::FromVector<float>({0.5f, -0.5f, 3.25f}));
  ExpectColumnsBitIdentical(floats, RoundTrip(floats));

  Column bools = Column::Plain(Tensor::FromVector<bool>({true, false, true}));
  ExpectColumnsBitIdentical(bools, RoundTrip(bools));
}

TEST(SpillSerializationTest, TensorColumnKeepsShape) {
  Rng rng(7);
  Column images = Column::Plain(RandNormal({5, 3, 4}, 0, 1, rng));
  Column back = RoundTrip(images);
  ASSERT_TRUE(back.defined());
  EXPECT_EQ(back.data().shape(), images.data().shape());
  ExpectColumnsBitIdentical(images, back);
}

TEST(SpillSerializationTest, DictionaryAndProbabilityColumns) {
  Column dict = Column::FromStrings({"west", "east", "west", "", "north"});
  ExpectColumnsBitIdentical(dict, RoundTrip(dict));

  Rng rng(11);
  Tensor probs = Softmax(RandNormal({6, 3}, 0, 1, rng), 1);
  Column pe = Column::Probability(probs, {1.0, 2.5, 7.0});
  ExpectColumnsBitIdentical(pe, RoundTrip(pe));
}

TEST(SpillSerializationTest, SkipColumnLandsOnNext) {
  QueryMemory memory(1);
  auto path = memory.NewSpillFile("skip");
  ASSERT_TRUE(path.ok());
  Column first = Column::FromStrings({"a", "bb", "ccc"});
  Column second = Column::Plain(Tensor::Arange(3));
  {
    SpillWriter w(path.value());
    ASSERT_TRUE(w.WriteColumn(first).ok());
    ASSERT_TRUE(w.WriteColumn(second).ok());
    ASSERT_TRUE(w.Close().ok());
  }
  SpillReader r(path.value());
  ASSERT_TRUE(r.SkipColumn().ok());
  auto back = r.ReadColumn();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectColumnsBitIdentical(second, back.value());
}

TEST(SpillSerializationTest, UndefinedColumnRoundTrips) {
  // The join spill serializes chunks whose columns are all defined, but
  // the column codec itself supports the undefined sentinel.
  Column undefined;
  QueryMemory memory(1);
  auto path = memory.NewSpillFile("undef");
  ASSERT_TRUE(path.ok());
  {
    SpillWriter w(path.value());
    ASSERT_TRUE(w.WriteColumn(undefined).ok());
    ASSERT_TRUE(w.Close().ok());
  }
  SpillReader r(path.value());
  auto back = r.ReadColumn();
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_FALSE(back.value().defined());
}

// ---- Paged chunk files ------------------------------------------------------

TEST(SpillPagesTest, GatherMatchesSelectAcrossPages) {
  // Three pages (the last one 5 rows) of a plain int, a string and a
  // rank-2 float column.
  const int64_t n = 2 * kSpillPageRows + 5;
  std::vector<int64_t> ints(static_cast<size_t>(n));
  std::vector<std::string> strings(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    ints[static_cast<size_t>(i)] = i * 7 - 3;
    strings[static_cast<size_t>(i)] = i % 3 == 0 ? "x" : "yy";
  }
  Rng rng(5);
  Chunk chunk;
  chunk.names = {"i", "s", "t"};
  chunk.columns = {Column::Plain(Tensor::FromVector(ints, {})),
                   Column::FromStrings(strings),
                   Column::Plain(RandNormal({n, 3}, 0, 1, rng))};

  QueryMemory memory(1);
  auto path = memory.NewSpillFile("pages");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  auto bytes = WritePages(path.value(), chunk);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_GT(bytes.value(), n * 8);
  const Chunk prototype =
      chunk.Select(Tensor::Empty({0}, DType::kInt64, Device::kCpu));

  // Rows out of order, one row many times, the middle page skipped, and
  // the last page's last row; then no rows at all.
  const std::vector<std::vector<int64_t>> cases = {
      {n - 1, 3, 3, 3, 0, 2 * kSpillPageRows, kSpillPageRows - 1, 3},
      {}};
  for (const std::vector<int64_t>& rows : cases) {
    auto gathered = GatherPages(path.value(), prototype, rows);
    ASSERT_TRUE(gathered.ok()) << gathered.status().ToString();
    const Chunk expected = chunk.Select(Tensor::FromVector(rows, {}));
    ASSERT_EQ(gathered.value().size(), expected.columns.size());
    for (size_t c = 0; c < expected.columns.size(); ++c) {
      ExpectColumnsBitIdentical(expected.columns[c], gathered.value()[c]);
    }
  }
}

// ---- Order-preserving key codes ---------------------------------------------

TEST(OrderCodeTest, DoubleOrderCodeIsMonotone) {
  const double inf = std::numeric_limits<double>::infinity();
  // Strictly increasing doubles must map to strictly increasing codes.
  const std::vector<double> ascending = {
      -inf,  -1e300, -2.5, -1.0, -1e-300, 0.0, 1e-300, 0.5, 1.0, 1e300, inf};
  for (size_t i = 1; i < ascending.size(); ++i) {
    EXPECT_LT(DoubleOrderCode(ascending[i - 1]), DoubleOrderCode(ascending[i]))
        << ascending[i - 1] << " vs " << ascending[i];
  }
}

TEST(OrderCodeTest, NegativeZeroTiesPositiveZero) {
  // -0 and +0 are equal values: they share a code, so sorts keep their
  // rows in row order and GROUP BY puts them in one group.
  EXPECT_EQ(DoubleOrderCode(-0.0), DoubleOrderCode(0.0));
}

TEST(OrderCodeTest, AllNansShareOneCode) {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(DoubleOrderCode(qnan), kNanOrderCode);
  EXPECT_EQ(DoubleOrderCode(-qnan), kNanOrderCode);
}

TEST(OrderCodeTest, CompareKeyCodesNanLastBothDirections) {
  const int64_t one = DoubleOrderCode(1.0);
  // Ascending: 1.0 before NaN.
  EXPECT_LT(CompareKeyCodes(one, kNanOrderCode, /*descending=*/false,
                            /*is_float=*/true),
            0);
  // Descending: 1.0 STILL before NaN (NaN is last in both directions).
  EXPECT_LT(CompareKeyCodes(one, kNanOrderCode, /*descending=*/true,
                            /*is_float=*/true),
            0);
  EXPECT_EQ(CompareKeyCodes(kNanOrderCode, kNanOrderCode, true, true), 0);
  // Plain integers invert under descending.
  EXPECT_GT(CompareKeyCodes(1, 2, /*descending=*/true, /*is_float=*/false), 0);
  EXPECT_LT(CompareKeyCodes(1, 2, /*descending=*/false, /*is_float=*/false),
            0);
}

TEST(OrderCodeTest, OrderPreservingCodesMatchColumnOrder) {
  Column dict = Column::FromStrings({"b", "a", "c", "a"});
  bool is_float = true;
  auto dict_codes = OrderPreservingCodes(dict, &is_float);
  ASSERT_TRUE(dict_codes.ok());
  EXPECT_FALSE(is_float);  // dictionary codes follow integer rules
  EXPECT_EQ(dict_codes.value(), (std::vector<int64_t>{1, 0, 2, 0}));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  Column floats =
      Column::Plain(Tensor::FromVector<double>({2.0, -1.0, nan, -0.0}));
  auto float_codes = OrderPreservingCodes(floats, &is_float);
  ASSERT_TRUE(float_codes.ok());
  EXPECT_TRUE(is_float);
  const auto& codes = float_codes.value();
  EXPECT_GT(codes[0], codes[3]);            // 2.0 > -0
  EXPECT_LT(codes[1], codes[3]);            // -1 < -0
  EXPECT_EQ(codes[2], kNanOrderCode);       // NaN sentinel
  EXPECT_EQ(codes[3], 0);                   // -0 normalizes to +0's code
}

TEST(OrderCodeTest, TensorColumnsRejectedAsKeys) {
  Column images = Column::Plain(Tensor::Zeros({3, 2, 2}));
  bool is_float = false;
  auto codes = OrderPreservingCodes(images, &is_float);
  EXPECT_FALSE(codes.ok());
  EXPECT_EQ(codes.status().code(), StatusCode::kTypeError);
}

// ---- RunOptions validation + end-to-end leak oracle -------------------------

TEST(SpillRunTest, NegativeBudgetRejected) {
  Session session;
  auto table = TableBuilder("t").AddInt64("x", {3, 1, 2}).Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session.RegisterTable("t", table.value()).ok());

  RunOptions run;
  run.memory_budget_bytes = -1;
  auto result = session.Sql("SELECT x FROM t ORDER BY x", {}, run);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SpillRunTest, TightBudgetSpillsAndCleansUp) {
  Session session;
  std::vector<int64_t> vals(4000);
  for (size_t i = 0; i < vals.size(); ++i) {
    vals[i] = static_cast<int64_t>((i * 2654435761u) % 10007);
  }
  auto table = TableBuilder("t").AddInt64("x", vals).Build();
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(session.RegisterTable("t", table.value()).ok());

  const int64_t live_before = QueryMemory::LiveSpillFiles();
  const int64_t spilled_before = QueryMemory::TotalBytesSpilled();

  const std::string sql =
      "SELECT a.x, b.x AS y FROM t a JOIN t b ON a.x = b.x";
  RunOptions unlimited;
  auto reference = session.Sql(sql, {}, unlimited);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  RunOptions tight;
  tight.memory_budget_bytes = 4096;  // far under the ~32 KB build payload
  auto budgeted = session.Sql(sql, {}, tight);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();

  // The run actually spilled its build side...
  EXPECT_GT(QueryMemory::TotalBytesSpilled(), spilled_before);
  // ...left no temp files behind...
  EXPECT_EQ(QueryMemory::LiveSpillFiles(), live_before);
  // ...and produced the identical result.
  ASSERT_EQ(budgeted.value()->num_rows(), reference.value()->num_rows());
  for (int64_t c = 0; c < 2; ++c) {
    EXPECT_TRUE(
        TensorEqual(budgeted.value()->column(c).data().Contiguous(),
                    reference.value()->column(c).data().Contiguous()));
  }
}

}  // namespace
}  // namespace exec
}  // namespace tdp
