// Property-based (parameterized random-sweep) tests on core invariants:
//  - soft group-by on one-hot PE inputs == exact group-by counts
//  - soft counts always sum to the row count, for any distributions
//  - gradients of Sum through any op composition match finite differences
//  - encode/decode round trips (dictionary, PE)
//  - sort/unique algebraic invariants
//  - a full-budget IVF probe collects every selected row, ascending
//    (any n, d, lists, selection)

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/common/rng.h"
#include "src/exec/soft_ops.h"
#include "src/index/ivf_index.h"
#include "src/storage/column.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

class PropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng MakeRng() const { return Rng(GetParam() * 7919 + 13); }
};

TEST_P(PropertyTest, SoftGroupByOnHardInputsEqualsExactContingency) {
  Rng rng = MakeRng();
  const int64_t rows = rng.UniformInt(1, 60);
  const int64_t ka = rng.UniformInt(2, 6);
  const int64_t kb = rng.UniformInt(2, 4);
  Tensor a = RandInt({rows}, 0, ka - 1, rng);
  Tensor b = RandInt({rows}, 0, kb - 1, rng);

  std::vector<double> da, db;
  for (int64_t i = 0; i < ka; ++i) da.push_back(i);
  for (int64_t i = 0; i < kb; ++i) db.push_back(i);
  auto soft = exec::SoftGroupByCount(
      {Column::Probability(OneHot(a, ka), da),
       Column::Probability(OneHot(b, kb), db)});
  ASSERT_TRUE(soft.ok());

  // Exact contingency table.
  std::map<std::pair<int64_t, int64_t>, int64_t> exact;
  for (int64_t i = 0; i < rows; ++i) {
    exact[{static_cast<int64_t>(a.At({i})),
           static_cast<int64_t>(b.At({i}))}]++;
  }
  for (int64_t ia = 0; ia < ka; ++ia) {
    for (int64_t ib = 0; ib < kb; ++ib) {
      const int64_t flat = ia * kb + ib;
      const double expected =
          exact.count({ia, ib}) ? static_cast<double>(exact[{ia, ib}]) : 0.0;
      EXPECT_NEAR(soft->counts.At({flat}), expected, 1e-3)
          << "bucket (" << ia << ", " << ib << ")";
    }
  }
}

TEST_P(PropertyTest, SoftCountsAlwaysSumToRowCount) {
  Rng rng = MakeRng();
  const int64_t rows = rng.UniformInt(1, 100);
  const int64_t k1 = rng.UniformInt(2, 8);
  const int64_t k2 = rng.UniformInt(2, 5);
  Tensor p1 = Softmax(RandNormal({rows, k1}, 0, 2, rng), 1);
  Tensor p2 = Softmax(RandNormal({rows, k2}, 0, 2, rng), 1);
  std::vector<double> d1(static_cast<size_t>(k1)), d2(static_cast<size_t>(k2));
  for (size_t i = 0; i < d1.size(); ++i) d1[i] = static_cast<double>(i);
  for (size_t i = 0; i < d2.size(); ++i) d2[i] = static_cast<double>(i);
  auto soft = exec::SoftGroupByCount(
      {Column::Probability(p1, d1), Column::Probability(p2, d2)});
  ASSERT_TRUE(soft.ok());
  EXPECT_NEAR(Sum(soft->counts).item<float>(), static_cast<float>(rows),
              1e-2 * rows + 1e-3);
}

TEST_P(PropertyTest, RandomOpChainGradcheck) {
  Rng rng = MakeRng();
  const int64_t n = rng.UniformInt(2, 6);
  const int64_t m = rng.UniformInt(2, 5);
  Tensor x = RandUniform({n, m}, 0.2, 1.5, rng).set_requires_grad(true);
  Tensor w = RandNormal({n, m}, 0, 1, rng);

  auto forward = [&]() {
    Tensor h = Mul(Sigmoid(x), w);
    h = Add(h, Sqrt(x));
    h = Softmax(h, 1);
    return Sum(Mul(h, w));
  };

  forward().Backward();
  ASSERT_TRUE(x.grad().defined());

  // Central finite differences, spot-checked at 4 random coordinates.
  const double eps = 1e-3;
  for (int check = 0; check < 4; ++check) {
    const int64_t i = rng.UniformInt(0, n - 1);
    const int64_t j = rng.UniformInt(0, m - 1);
    const double orig = x.At({i, j});
    x.SetAt({i, j}, orig + eps);
    const double up = forward().item<double>();
    x.SetAt({i, j}, orig - eps);
    const double down = forward().item<double>();
    x.SetAt({i, j}, orig);
    const double numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(x.grad().At({i, j}), numeric,
                5e-2 * std::max(1.0, std::abs(numeric)))
        << "at (" << i << ", " << j << ")";
  }
}

TEST_P(PropertyTest, DictionaryRoundTripAndOrder) {
  Rng rng = MakeRng();
  const std::vector<std::string> vocab = {"ant", "bee", "cat", "dog", "eel",
                                          "fox"};
  std::vector<std::string> values;
  const int64_t rows = rng.UniformInt(1, 50);
  for (int64_t i = 0; i < rows; ++i) {
    values.push_back(vocab[static_cast<size_t>(rng.UniformInt(0, 5))]);
  }
  Column c = Column::FromStrings(values);
  // Round trip.
  EXPECT_EQ(c.DecodeStrings(), values);
  // Order preservation: code comparisons == string comparisons.
  const std::vector<int64_t> codes = c.data().ToVector<int64_t>();
  for (int64_t i = 1; i < rows; ++i) {
    const size_t ui = static_cast<size_t>(i);
    EXPECT_EQ(codes[ui] < codes[ui - 1], values[ui] < values[ui - 1]);
    EXPECT_EQ(codes[ui] == codes[ui - 1], values[ui] == values[ui - 1]);
  }
}

TEST_P(PropertyTest, PeHardDecodeMatchesArgmax) {
  Rng rng = MakeRng();
  const int64_t rows = rng.UniformInt(1, 40);
  const int64_t k = rng.UniformInt(2, 7);
  Tensor probs = Softmax(RandNormal({rows, k}, 0, 3, rng), 1);
  std::vector<double> domain;
  for (int64_t i = 0; i < k; ++i) domain.push_back(100.0 + 5.0 * i);
  Column c = Column::Probability(probs, domain);
  Tensor hard = c.DecodeValues();
  for (int64_t r = 0; r < rows; ++r) {
    int64_t best = 0;
    for (int64_t j = 1; j < k; ++j) {
      if (probs.At({r, j}) > probs.At({r, best})) best = j;
    }
    EXPECT_EQ(hard.At({r}), domain[static_cast<size_t>(best)]);
  }
}

TEST_P(PropertyTest, SortUniqueInvariants) {
  Rng rng = MakeRng();
  const int64_t n = rng.UniformInt(1, 200);
  Tensor t = RandInt({n}, -20, 20, rng);

  SortResult sorted = Sort(t);
  // Sortedness + permutation property.
  for (int64_t i = 1; i < n; ++i) {
    EXPECT_LE(sorted.values.At({i - 1}), sorted.values.At({i}));
  }
  EXPECT_TRUE(TensorEqual(IndexSelect(t, 0, sorted.indices), sorted.values));

  UniqueResult uniq = Unique(t);
  // counts sum to n, values strictly ascending, inverse reconstructs t.
  int64_t total = 0;
  for (int64_t i = 0; i < uniq.counts.numel(); ++i) {
    total += static_cast<int64_t>(uniq.counts.At({i}));
    if (i > 0) EXPECT_LT(uniq.values.At({i - 1}), uniq.values.At({i}));
  }
  EXPECT_EQ(total, n);
  EXPECT_TRUE(TensorEqual(IndexSelect(uniq.values, 0, uniq.inverse), t));
}

TEST_P(PropertyTest, BroadcastAddCommutesAndMatchesManual) {
  Rng rng = MakeRng();
  const int64_t r = rng.UniformInt(1, 8);
  const int64_t c = rng.UniformInt(1, 8);
  Tensor a = RandNormal({r, 1}, 0, 1, rng);
  Tensor b = RandNormal({1, c}, 0, 1, rng);
  Tensor ab = Add(a, b);
  Tensor ba = Add(b, a);
  EXPECT_TRUE(AllClose(ab, ba));
  for (int64_t i = 0; i < r; ++i) {
    for (int64_t j = 0; j < c; ++j) {
      EXPECT_NEAR(ab.At({i, j}), a.At({i, 0}) + b.At({0, j}), 1e-6);
    }
  }
}

// A full-budget IVF probe must collect exactly the selected rows in
// ascending order — every row without a selection — for arbitrary
// (n, d, lists) shapes, including duplicate rows. The IndexTopK
// operator's exactness rests on this: it ranks ascending candidates with
// the ORDER BY comparator, so candidates equal to the surviving rows make
// its result the exact plan's.
TEST_P(PropertyTest, IvfFullBudgetCandidatesAreEverySelectedRow) {
  Rng rng = MakeRng();
  const int64_t n = rng.UniformInt(5, 150);
  const int64_t dim = rng.UniformInt(2, 12);
  const int64_t lists = rng.UniformInt(1, 12);
  const int64_t floor = rng.UniformInt(0, n + 3);
  Tensor data = L2Normalize(RandNormal({n, dim}, 0, 1, rng), 1);
  if (rng.Bernoulli(0.5) && n >= 4) {
    // Inject duplicate rows: they share a cell and must both come back.
    for (int64_t d = 0; d < dim; ++d) {
      data.SetAt({1, d}, data.At({0, d}));
      data.SetAt({3, d}, data.At({2, d}));
    }
  }
  index::IvfIndex::Options options;
  options.num_lists = lists;
  auto built = index::IvfIndex::Build(data, options, rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  const Tensor query =
      L2Normalize(RandNormal({1, dim}, 0, 1, rng), 1).Squeeze(0).Contiguous();
  std::vector<uint8_t> selection(static_cast<size_t>(n));
  std::vector<int64_t> selected;
  for (int64_t i = 0; i < n; ++i) {
    selection[static_cast<size_t>(i)] = rng.Bernoulli(0.4) ? 1 : 0;
    if (selection[static_cast<size_t>(i)]) selected.push_back(i);
  }
  std::vector<int64_t> every_row(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) every_row[static_cast<size_t>(i)] = i;

  auto all = built->ProbeCandidates(query, built->num_lists(), floor);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_EQ(*all, every_row);
  auto chosen =
      built->ProbeCandidates(query, built->num_lists(), floor, &selection);
  ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
  EXPECT_EQ(*chosen, selected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace tdp
