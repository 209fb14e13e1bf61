// Unit tests for the key table shared by GROUP BY, DISTINCT, COUNT(DISTINCT)
// and the hash joins (src/exec/key_table.h): id assignment, code-order
// ranks, growth, hash spread on double bit patterns, join match lists, and
// the join-code rules (NaN never matches, -0 == +0, int == float). Also
// the row order of ORDER BY and top-k (`SortRows`), checked against stable
// per-key `ArgSort`s.
//
// Registered in TDP_SANITIZER_TESTS: the concurrent-probe case is what the
// TSan job checks for the cached join build side.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/chunk.h"
#include "src/exec/key_table.h"
#include "src/storage/table.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace exec {
namespace {

int64_t DoubleBits(double d) {
  int64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

TEST(KeyTableTest, AssignsIdsInFirstOccurrenceOrder) {
  const std::vector<int64_t> codes = {42, 7, 42, -3, 7, 1000, -3};
  const KeyColumns cols = {codes.data()};
  KeyTable table(1);
  std::vector<int64_t> ids;
  std::vector<bool> inserted;
  for (int64_t r = 0; r < static_cast<int64_t>(codes.size()); ++r) {
    bool is_new = false;
    ids.push_back(table.Insert(cols, r, &is_new));
    inserted.push_back(is_new);
  }
  EXPECT_EQ(ids, (std::vector<int64_t>{0, 1, 0, 2, 1, 3, 2}));
  EXPECT_EQ(inserted, (std::vector<bool>{true, true, false, true, false, true,
                                         false}));
  EXPECT_EQ(table.size(), 4);
  EXPECT_EQ(table.code(2, 0), -3);
  for (int64_t r = 0; r < static_cast<int64_t>(codes.size()); ++r) {
    EXPECT_EQ(table.Find(cols, r), ids[static_cast<size_t>(r)]);
  }
  const std::vector<int64_t> absent = {5};
  EXPECT_EQ(table.Find({absent.data()}, 0), -1);
}

TEST(KeyTableTest, RanksTwoColumnKeysInCodeOrder) {
  // Keys (a, b) in first-occurrence order; ranks must follow signed
  // lexicographic order: (-1, 9) < (2, -5) < (2, 0) < (2, 3) < (7, -8).
  const std::vector<int64_t> a = {2, 7, 2, -1, 2, 7};
  const std::vector<int64_t> b = {3, -8, -5, 9, 0, -8};
  const KeyColumns cols = {a.data(), b.data()};
  KeyTable table(2);
  for (int64_t r = 0; r < static_cast<int64_t>(a.size()); ++r) {
    table.Insert(cols, r);
  }
  ASSERT_EQ(table.size(), 5);
  // ids: (2,3)=0, (7,-8)=1, (2,-5)=2, (-1,9)=3, (2,0)=4.
  EXPECT_EQ(table.SortedRanks(), (std::vector<int64_t>{3, 4, 1, 0, 2}));
}

TEST(KeyTableTest, GrowsAcrossRehashesKeepingIds) {
  constexpr int64_t kKeys = 100000;
  std::vector<int64_t> codes(kKeys);
  for (int64_t i = 0; i < kKeys; ++i) {
    codes[static_cast<size_t>(i)] = (i * 7919) % 1000003 - 500000;
  }
  const KeyColumns cols = {codes.data()};
  KeyTable table(1);
  for (int64_t r = 0; r < kKeys; ++r) ASSERT_EQ(table.Insert(cols, r), r);
  EXPECT_EQ(table.size(), kKeys);
  // Every key survives every doubling under its original id.
  for (int64_t r = 0; r < kKeys; ++r) ASSERT_EQ(table.Find(cols, r), r);
  std::vector<int64_t> rank = table.SortedRanks();
  for (int64_t r = 1; r < kKeys; ++r) {
    const bool less = codes[static_cast<size_t>(r - 1)] <
                      codes[static_cast<size_t>(r)];
    EXPECT_EQ(rank[static_cast<size_t>(r - 1)] < rank[static_cast<size_t>(r)],
              less);
  }
}

TEST(KeyTableTest, SpreadsKeysWhoseLowBitsAreZero) {
  // Join codes of small integers are double bit patterns: the low 32 bits
  // are all zero. The table must still tell them apart, and its hash must
  // spread them over the low bits the slot index is taken from.
  constexpr int64_t kKeys = 4096;
  std::vector<int64_t> codes(kKeys);
  for (int64_t i = 0; i < kKeys; ++i) {
    codes[static_cast<size_t>(i)] = DoubleBits(static_cast<double>(i));
    ASSERT_EQ(codes[static_cast<size_t>(i)] & 0xffffffffLL, 0);
  }
  const KeyColumns cols = {codes.data()};
  KeyTable table(1);
  for (int64_t r = 0; r < kKeys; ++r) ASSERT_EQ(table.Insert(cols, r), r);
  for (int64_t r = 0; r < kKeys; ++r) ASSERT_EQ(table.Find(cols, r), r);
  // With a uniform hash, 4096 keys fill close to 1 - 1/e of 4096 buckets;
  // hashing the raw low bits would put them all in one.
  std::vector<uint8_t> used(kKeys, 0);
  for (int64_t r = 0; r < kKeys; ++r) {
    used[KeyTable::Hash(cols, r) & (kKeys - 1)] = 1;
  }
  int64_t buckets = 0;
  for (uint8_t u : used) buckets += u;
  EXPECT_GT(buckets, kKeys / 2);
}

TEST(KeyTableTest, EmptyInputAndZeroWidthKeys) {
  KeyTable empty(3);
  EXPECT_EQ(empty.size(), 0);
  EXPECT_TRUE(empty.SortedRanks().empty());
  const std::vector<int64_t> a = {1}, b = {2}, c = {3};
  EXPECT_EQ(empty.Find({a.data(), b.data(), c.data()}, 0), -1);

  // Width 0: every row carries the same, empty, key.
  KeyTable none(0);
  bool inserted = false;
  EXPECT_EQ(none.Insert({}, 0, &inserted), 0);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(none.Insert({}, 1, &inserted), 0);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(none.size(), 1);
  EXPECT_EQ(none.SortedRanks(), (std::vector<int64_t>{0}));

  JoinIndex index(1);
  index.Finish();
  EXPECT_EQ(index.num_keys(), 0);
  EXPECT_TRUE(index.Matches({a.data()}, 0).empty());
}

TEST(KeyTableTest, JoinMatchesComeInAscendingBuildRowOrder) {
  const std::vector<int64_t> build = {5, 9, 5, 5, 7, 9};
  const KeyColumns build_cols = {build.data()};
  JoinIndex index(1);
  // Row 4 is left out (as a NaN-keyed build row is).
  for (int64_t r = 0; r < static_cast<int64_t>(build.size()); ++r) {
    if (r != 4) index.Add(build_cols, r);
  }
  index.Finish();
  EXPECT_EQ(index.num_keys(), 2);
  const std::vector<int64_t> probe = {9, 5, 7, 4};
  const KeyColumns probe_cols = {probe.data()};
  const auto rows = [&](int64_t r) {
    const std::span<const int64_t> m = index.Matches(probe_cols, r);
    return std::vector<int64_t>(m.begin(), m.end());
  };
  EXPECT_EQ(rows(0), (std::vector<int64_t>{1, 5}));
  EXPECT_EQ(rows(1), (std::vector<int64_t>{0, 2, 3}));
  EXPECT_TRUE(rows(2).empty());
  EXPECT_TRUE(rows(3).empty());
}

TEST(KeyTableTest, ConcurrentProbesOfAFinishedIndex) {
  constexpr int64_t kBuild = 20000;
  std::vector<int64_t> build(kBuild);
  for (int64_t i = 0; i < kBuild; ++i) build[static_cast<size_t>(i)] = i % 997;
  JoinIndex index(1);
  for (int64_t r = 0; r < kBuild; ++r) index.Add({build.data()}, r);
  index.Finish();
  std::vector<int64_t> totals(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < totals.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int64_t r = 0; r < kBuild; ++r) {
        const std::span<const int64_t> m = index.Matches({build.data()}, r);
        totals[t] += static_cast<int64_t>(m.size());
        if (m.empty() || m.front() != r % 997) totals[t] = -1 << 30;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // 20000 = 20 * 997 + 60: keys < 60 have 21 rows, the others 20.
  const int64_t expected = 60 * 21 * 21 + (997 - 60) * 20 * 20;
  for (int64_t total : totals) EXPECT_EQ(total, expected);
}

TEST(JoinKeyCodesTest, NanNeverMatchesAndSignedZerosAgree) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto floats = TableBuilder("f").AddFloat64("k", {nan, -0.0, 0.0, 3.0})
                    .Build();
  auto ints = TableBuilder("i").AddInt64("k", {3, 0}).Build();
  ASSERT_TRUE(floats.ok() && ints.ok());
  auto fc = ComputeJoinKeyCodes(Chunk::FromTable(*floats.value()), {0});
  auto ic = ComputeJoinKeyCodes(Chunk::FromTable(*ints.value()), {0});
  ASSERT_TRUE(fc.ok() && ic.ok());
  EXPECT_EQ(fc->never_match, (std::vector<uint8_t>{1, 0, 0, 0}));
  EXPECT_EQ(fc->columns[0][1], fc->columns[0][2]);  // -0 == +0
  EXPECT_EQ(ic->columns[0][0], fc->columns[0][3]);  // int 3 == float 3.0
  EXPECT_EQ(ic->columns[0][1], fc->columns[0][2]);
}

TEST(JoinKeyCodesTest, StringsMatchAcrossDictionaries) {
  // Each side builds its own dictionary, so codes differ; join codes hash
  // the strings and agree.
  auto left = TableBuilder("l").AddStrings("s", {"b", "a", "c"}).Build();
  auto right = TableBuilder("r").AddStrings("s", {"c", "zz"}).Build();
  ASSERT_TRUE(left.ok() && right.ok());
  auto lc = ComputeJoinKeyCodes(Chunk::FromTable(*left.value()), {0});
  auto rc = ComputeJoinKeyCodes(Chunk::FromTable(*right.value()), {0});
  ASSERT_TRUE(lc.ok() && rc.ok());
  EXPECT_EQ(lc->columns[0][2], rc->columns[0][0]);
  EXPECT_NE(lc->columns[0][0], rc->columns[0][1]);
  EXPECT_EQ(lc->never_match, (std::vector<uint8_t>{0, 0, 0}));
}

// ---- SortRows ---------------------------------------------------------------

// The reference order `SortRows` must reproduce: one stable ArgSort per
// key, last key first, over the 1-d key values (bool keys cast to int64,
// which ArgSort does not take), then the first `limit` rows.
std::vector<int64_t> StableArgSortOracle(const std::vector<Column>& columns,
                                         const std::vector<bool>& descending,
                                         int64_t n, int64_t limit) {
  Tensor perm = Tensor::Arange(n);
  for (size_t k = columns.size(); k-- > 0;) {
    Tensor values = columns[k].DecodeValues();
    if (values.dtype() == DType::kBool) values = values.To(DType::kInt64);
    const Tensor order = ArgSort(IndexSelect(values, 0, perm), descending[k]);
    perm = IndexSelect(perm, 0, order);
  }
  std::vector<int64_t> rows = perm.ToVector<int64_t>();
  if (limit >= 0 && limit < n) rows.resize(static_cast<size_t>(limit));
  return rows;
}

TEST(SortRowsTest, MatchesStablePerKeyArgSorts) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> float_pool = {nan,  -0.0f, 0.0f, 1.5f,
                                         -2.0f, 7.0f, -0.0f, 1.5f};
  const std::vector<std::string> string_pool = {"pear", "apple", "fig", ""};
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t n = rng.UniformInt(1, 300);
    std::vector<int64_t> ints(static_cast<size_t>(n));
    std::vector<float> floats(static_cast<size_t>(n));
    std::vector<std::string> strings(static_cast<size_t>(n));
    std::vector<bool> bools(static_cast<size_t>(n));
    for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
      ints[i] = rng.UniformInt(-5, 5);  // dense duplicates
      floats[i] = rng.Bernoulli(0.5)
                      ? float_pool[static_cast<size_t>(rng.UniformInt(0, 7))]
                      : static_cast<float>(rng.Uniform(-3, 3));
      strings[i] = string_pool[static_cast<size_t>(rng.UniformInt(0, 3))];
      bools[i] = rng.Bernoulli(0.5);
    }
    auto table = TableBuilder("t")
                     .AddInt64("i", ints)
                     .AddFloat32("f", floats)
                     .AddStrings("s", strings)
                     .AddBool("b", bools)
                     .Build();
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    const Chunk chunk = Chunk::FromTable(*table.value());

    // One to four keys over the four columns, in a random order and with
    // random directions; repeated columns are allowed.
    const int64_t num_keys = rng.UniformInt(1, 4);
    std::vector<Column> columns;
    std::vector<bool> descending;
    SortKeys keys;
    for (int64_t k = 0; k < num_keys; ++k) {
      const size_t column = static_cast<size_t>(rng.UniformInt(0, 3));
      columns.push_back(chunk.columns[column]);
      descending.push_back(rng.Bernoulli(0.5));
      auto key = MakeSortKey(columns.back(), descending.back());
      ASSERT_TRUE(key.ok()) << key.status().ToString();
      keys.push_back(std::move(key).value());
    }
    for (int64_t limit : {int64_t{-1}, int64_t{0}, int64_t{1}, int64_t{7}, n,
                          n + 5}) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " limit " +
                   std::to_string(limit));
      const std::vector<int64_t> expected =
          StableArgSortOracle(columns, descending, n, limit);
      EXPECT_EQ(SortRows(keys, n, limit), expected);
    }
  }
}

TEST(SortRowsTest, NoKeysKeepRowOrderAndTensorKeysAreTypeErrors) {
  EXPECT_EQ(SortRows({}, 4, -1), (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_EQ(SortRows({}, 4, 2), (std::vector<int64_t>{0, 1}));
  auto key = MakeSortKey(Column::Plain(Tensor::Zeros({3, 2})), false);
  EXPECT_FALSE(key.ok());
  EXPECT_EQ(key.status().code(), StatusCode::kTypeError);
}

}  // namespace
}  // namespace exec
}  // namespace tdp
