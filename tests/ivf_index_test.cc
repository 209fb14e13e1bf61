#include "src/index/ivf_index.h"

#include <gtest/gtest.h>

#include <set>

#include "src/tensor/ops.h"
#include "tests/vector_test_util.h"

namespace tdp {
namespace index {
namespace {

// Clustered unit vectors: `clusters` directions with small perturbations
// (shared generator — see tests/vector_test_util.h).
Tensor MakeClusteredData(int64_t n, int64_t dim, int64_t clusters,
                         Rng& rng) {
  return testutil::MakeClusteredUnitVectors(n, dim, clusters, rng);
}

// Exact brute-force top-k for recall computation.
std::set<int64_t> BruteForceTopK(const Tensor& data, const Tensor& query,
                                 int64_t k) {
  const Tensor scores =
      Squeeze(MatMul(data, Reshape(query, {query.numel(), 1})), 1);
  const Tensor order = ArgSort(scores, /*descending=*/true);
  std::set<int64_t> out;
  for (int64_t i = 0; i < k; ++i) {
    out.insert(static_cast<int64_t>(order.At({i})));
  }
  return out;
}

TEST(IvfIndexTest, BuildValidatesInput) {
  Rng rng(1);
  IvfIndex::Options options;
  EXPECT_FALSE(IvfIndex::Build(Tensor(), options, rng).ok());
  EXPECT_FALSE(IvfIndex::Build(Tensor::Ones({4}), options, rng).ok());
  EXPECT_FALSE(
      IvfIndex::Build(Tensor::Ones({4, 2}, DType::kInt64), options, rng)
          .ok());
}

TEST(IvfIndexTest, FullBudgetProbesEveryRowAscending) {
  Rng rng(2);
  Tensor data = MakeClusteredData(200, 16, 8, rng);
  IvfIndex::Options options;
  options.num_lists = 8;
  auto built = IvfIndex::Build(data, options, rng);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->num_rows(), 200);

  Tensor query = L2Normalize(RandNormal({1, 16}, 0, 1, rng), 1).Squeeze(0);
  auto candidates = built->ProbeCandidates(query, /*num_probes=*/8);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 200u);
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_EQ((*candidates)[static_cast<size_t>(i)], i);
  }
}

// The candidates of a partial probe hold most of the exact top-k; since
// the IndexTopK operator ranks candidates exactly, this is its recall.
TEST(IvfIndexTest, PartialProbesHaveHighRecallOnClusteredData) {
  Rng rng(4);
  Tensor data = MakeClusteredData(600, 16, 12, rng);
  IvfIndex::Options options;
  options.num_lists = 12;
  auto built = IvfIndex::Build(data, options, rng);
  ASSERT_TRUE(built.ok());

  double recall = 0;
  const int kQueries = 10;
  Rng qrng(99);
  for (int q = 0; q < kQueries; ++q) {
    // Query near a data point so the answer is concentrated in one cell.
    const int64_t anchor = qrng.UniformInt(0, 599);
    Tensor query =
        L2Normalize(Add(Slice(data, 0, anchor, 1),
                        RandNormal({1, 16}, 0, 0.02, qrng)),
                    1)
            .Squeeze(0)
            .Contiguous();
    auto candidates = built->ProbeCandidates(query, /*num_probes=*/3, 10);
    ASSERT_TRUE(candidates.ok());
    EXPECT_LT(candidates->size(), 600u);
    const std::set<int64_t> probed(candidates->begin(), candidates->end());
    for (int64_t id : BruteForceTopK(data, query, 10)) {
      if (probed.contains(id)) recall += 1;
    }
  }
  recall /= kQueries * 10;
  EXPECT_GT(recall, 0.8) << "IVF recall@10 with 3/12 probes";
}

TEST(IvfIndexTest, FewerProbesCollectFewerRows) {
  Rng rng(5);
  Tensor data = MakeClusteredData(400, 8, 10, rng);
  IvfIndex::Options options;
  options.num_lists = 10;
  auto built = IvfIndex::Build(data, options, rng);
  ASSERT_TRUE(built.ok());
  Tensor query = L2Normalize(RandNormal({1, 8}, 0, 1, rng), 1).Squeeze(0);
  auto two = built->ProbeCandidates(query, 2);
  auto all = built->ProbeCandidates(query, 10);
  ASSERT_TRUE(two.ok() && all.ok());
  EXPECT_LT(two->size(), all->size());
  EXPECT_EQ(all->size(), 400u);
}

TEST(IvfIndexTest, FloorAboveRowCountReturnsEveryRow) {
  Rng rng(6);
  Tensor data = MakeClusteredData(20, 4, 4, rng);
  IvfIndex::Options options;
  options.num_lists = 4;
  auto built = IvfIndex::Build(data, options, rng);
  ASSERT_TRUE(built.ok());
  Tensor query = L2Normalize(RandNormal({1, 4}, 0, 1, rng), 1).Squeeze(0);
  auto candidates = built->ProbeCandidates(query, 1, /*min_candidates=*/100);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 20u);
  for (int64_t i = 0; i < 20; ++i) {
    EXPECT_EQ((*candidates)[static_cast<size_t>(i)], i);
  }
}

TEST(IvfIndexTest, AppendedRowsJoinTheProbe) {
  Rng rng(7);
  Tensor data = MakeClusteredData(50, 4, 4, rng);
  IvfIndex::Options options;
  options.num_lists = 4;
  auto built = IvfIndex::Build(data, options, rng);
  ASSERT_TRUE(built.ok());
  auto grown = built->WithAppended(MakeClusteredData(5, 4, 2, rng));
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  EXPECT_EQ(built->num_rows(), 50);
  EXPECT_EQ(grown->num_rows(), 55);
  Tensor query = L2Normalize(RandNormal({1, 4}, 0, 1, rng), 1).Squeeze(0);
  auto candidates = grown->ProbeCandidates(query, 4);
  ASSERT_TRUE(candidates.ok());
  ASSERT_EQ(candidates->size(), 55u);
  EXPECT_EQ(candidates->back(), 54);
  EXPECT_FALSE(built->WithAppended(Tensor::Ones({2, 3})).ok());
}

}  // namespace
}  // namespace index
}  // namespace tdp
