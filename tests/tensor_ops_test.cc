#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <numeric>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

// Both kernel backends must agree — this is the central correctness
// property of the device axis (same plan, different kernels).
class BackendParityTest : public ::testing::TestWithParam<Device> {};

TEST_P(BackendParityTest, BinaryOpsMatchReference) {
  Rng rng(7);
  const Device device = GetParam();
  Tensor a = RandNormal({17, 5}, 0, 1, rng).To(device);
  Tensor b = RandNormal({17, 5}, 0, 1, rng).To(device);
  // Compute on both devices; results must be identical.
  Tensor sum_dev = Add(a, b).To(Device::kCpu);
  Tensor sum_cpu = Add(a.To(Device::kCpu), b.To(Device::kCpu));
  EXPECT_TRUE(AllClose(sum_dev, sum_cpu));
  EXPECT_TRUE(AllClose(Mul(a, b).To(Device::kCpu),
                       Mul(a.To(Device::kCpu), b.To(Device::kCpu))));
  EXPECT_TRUE(AllClose(Div(a, AddScalar(Abs(b), 1.0)).To(Device::kCpu),
                       Div(a.To(Device::kCpu),
                           AddScalar(Abs(b.To(Device::kCpu)), 1.0))));
}

TEST_P(BackendParityTest, MatMulMatchesNaive) {
  Rng rng(11);
  const Device device = GetParam();
  Tensor a = RandNormal({7, 9}, 0, 1, rng);
  Tensor b = RandNormal({9, 4}, 0, 1, rng);
  Tensor c = MatMul(a.To(device), b.To(device)).To(Device::kCpu);
  // Naive check.
  for (int64_t i = 0; i < 7; ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      double acc = 0;
      for (int64_t k = 0; k < 9; ++k) acc += a.At({i, k}) * b.At({k, j});
      EXPECT_NEAR(c.At({i, j}), acc, 1e-4);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Devices, BackendParityTest,
                         ::testing::Values(Device::kCpu, Device::kAccel),
                         [](const auto& info) {
                           return std::string(DeviceName(info.param));
                         });

TEST(OpsTest, BroadcastingAdd) {
  Tensor a = Tensor::FromVector(std::vector<float>{1, 2, 3}, {3, 1});
  Tensor b = Tensor::FromVector(std::vector<float>{10, 20}, {1, 2});
  Tensor c = Add(a, b);
  EXPECT_EQ(c.shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(c.At({2, 1}), 23.0);
}

TEST(OpsTest, TypePromotion) {
  Tensor i = Tensor::FromVector(std::vector<int64_t>{1, 2});
  Tensor f = Tensor::FromVector(std::vector<float>{0.5f, 0.5f});
  EXPECT_EQ(Add(i, f).dtype(), DType::kFloat32);
  EXPECT_EQ(Add(i, i).dtype(), DType::kInt64);
}

TEST(OpsTest, ComparisonsProduceBool) {
  Tensor a = Tensor::FromVector(std::vector<float>{1, 5, 3});
  Tensor b = Tensor::FromVector(std::vector<float>{2, 2, 3});
  Tensor lt = Lt(a, b);
  EXPECT_EQ(lt.dtype(), DType::kBool);
  EXPECT_EQ(lt.ToVector<bool>(), (std::vector<bool>{true, false, false}));
  EXPECT_EQ(Ge(a, b).ToVector<bool>(),
            (std::vector<bool>{false, true, true}));
  EXPECT_EQ(Eq(a, b).ToVector<bool>(),
            (std::vector<bool>{false, false, true}));
}

TEST(OpsTest, LogicalOps) {
  Tensor t = Tensor::FromVector(std::vector<float>{1, 1, 0, 0});
  Tensor u = Tensor::FromVector(std::vector<float>{1, 0, 1, 0});
  Tensor a = Gt(t, MulScalar(t, 0.0));  // [1,1,0,0] as bool
  Tensor b = Gt(u, MulScalar(u, 0.0));
  EXPECT_EQ(LogicalAnd(a, b).ToVector<bool>(),
            (std::vector<bool>{true, false, false, false}));
  EXPECT_EQ(LogicalOr(a, b).ToVector<bool>(),
            (std::vector<bool>{true, true, true, false}));
  EXPECT_EQ(LogicalNot(a).ToVector<bool>(),
            (std::vector<bool>{false, false, true, true}));
}

TEST(OpsTest, UnaryMath) {
  Tensor t = Tensor::FromVector(std::vector<float>{-2, 0, 2});
  EXPECT_EQ(Relu(t).ToVector<float>(), (std::vector<float>{0, 0, 2}));
  EXPECT_EQ(Abs(t).ToVector<float>(), (std::vector<float>{2, 0, 2}));
  EXPECT_EQ(Sign(t).ToVector<float>(), (std::vector<float>{-1, 0, 1}));
  EXPECT_EQ(Neg(t).ToVector<float>(), (std::vector<float>{2, 0, -2}));
  Tensor e = Exp(Tensor::Zeros({2}));
  EXPECT_FLOAT_EQ(e.ToVector<float>()[0], 1.0f);
  EXPECT_NEAR(Sigmoid(Tensor::Zeros({1})).item<float>(), 0.5f, 1e-6);
}

TEST(OpsTest, ClampAndPow) {
  Tensor t = Tensor::FromVector(std::vector<float>{-5, 0.5f, 5});
  EXPECT_EQ(Clamp(t, 0, 1).ToVector<float>(),
            (std::vector<float>{0, 0.5f, 1}));
  Tensor p = PowScalar(Tensor::FromVector(std::vector<float>{2, 3}), 2.0);
  EXPECT_EQ(p.ToVector<float>(), (std::vector<float>{4, 9}));
}

TEST(OpsTest, Reductions) {
  Tensor t = Tensor::FromVector(std::vector<float>{1, 2, 3, 4, 5, 6}, {2, 3});
  EXPECT_FLOAT_EQ(Sum(t).item<float>(), 21.0f);
  EXPECT_FLOAT_EQ(Mean(t).item<float>(), 3.5f);
  EXPECT_EQ(Sum(t, 0, false).ToVector<float>(),
            (std::vector<float>{5, 7, 9}));
  EXPECT_EQ(Sum(t, 1, false).ToVector<float>(), (std::vector<float>{6, 15}));
  EXPECT_EQ(Sum(t, 1, true).shape(), (std::vector<int64_t>{2, 1}));
}

TEST(OpsTest, MinMaxWithIndices) {
  Tensor t = Tensor::FromVector(std::vector<float>{3, 1, 2, 9, 7, 8}, {2, 3});
  MinMaxResult mx = Max(t, 1, false);
  EXPECT_EQ(mx.values.ToVector<float>(), (std::vector<float>{3, 9}));
  EXPECT_EQ(mx.indices.ToVector<int64_t>(), (std::vector<int64_t>{0, 0}));
  MinMaxResult mn = Min(t, 1, false);
  EXPECT_EQ(mn.values.ToVector<float>(), (std::vector<float>{1, 7}));
  EXPECT_EQ(ArgMax(t, 1, false).ToVector<int64_t>(),
            (std::vector<int64_t>{0, 0}));
  EXPECT_FLOAT_EQ(MaxAll(t).item<float>(), 9.0f);
  EXPECT_FLOAT_EQ(MinAll(t).item<float>(), 1.0f);
}

TEST(OpsTest, CumSum) {
  Tensor t = Tensor::FromVector(std::vector<float>{1, 2, 3, 4});
  EXPECT_EQ(CumSum(t, 0).ToVector<float>(), (std::vector<float>{1, 3, 6, 10}));
}

TEST(OpsTest, WhereSelects) {
  Tensor cond = Gt(Tensor::FromVector(std::vector<float>{1, -1, 1}),
                   Tensor::Zeros({3}));
  Tensor a = Tensor::Full({3}, 10);
  Tensor b = Tensor::Full({3}, 20);
  EXPECT_EQ(Where(cond, a, b).ToVector<float>(),
            (std::vector<float>{10, 20, 10}));

  // Only the taken branch reaches the output, so a NaN or inf in the other
  // one stays out; the gradient likewise flows to the taken branch only.
  const float inf = std::numeric_limits<float>::infinity();
  for (Device device : {Device::kCpu, Device::kAccel}) {
    SCOPED_TRACE(DeviceName(device));
    Tensor v = Tensor::FromVector(
        std::vector<float>{2, std::numeric_limits<float>::quiet_NaN(), inf},
        {}, device);
    v.set_requires_grad(true);
    Tensor other = Tensor::Full({3}, 0.5, DType::kFloat32, device);
    other.set_requires_grad(true);
    const Tensor first = Tensor::FromVector(
        std::vector<bool>{true, false, false}, {}, device);
    const Tensor picked = Where(first, v, other);
    EXPECT_EQ(picked.ToVector<float>(), (std::vector<float>{2, 0.5, 0.5}));
    // d/dv and d/dother of sum(picked * [inf, 1, 1]).
    const Tensor scale =
        Tensor::FromVector(std::vector<float>{inf, 1, 1}, {}, device);
    Sum(Mul(picked, scale)).Backward();
    EXPECT_EQ(v.grad().ToVector<float>(), (std::vector<float>{inf, 0, 0}));
    EXPECT_EQ(other.grad().ToVector<float>(), (std::vector<float>{0, 1, 1}));
    const Tensor flags =
        Tensor::FromVector(std::vector<bool>{false, true, true}, {}, device);
    EXPECT_EQ(Where(first, flags, Tensor::Full({1}, 1, DType::kBool, device))
                  .ToVector<bool>(),
              (std::vector<bool>{false, true, true}));
  }
}

TEST(OpsTest, IndexSelectAndGather) {
  Tensor t = Tensor::FromVector(std::vector<float>{10, 11, 12, 13, 14});
  Tensor idx = Tensor::FromVector(std::vector<int64_t>{4, 0, 2});
  EXPECT_EQ(IndexSelect(t, 0, idx).ToVector<float>(),
            (std::vector<float>{14, 10, 12}));

  Tensor m = Tensor::FromVector(std::vector<float>{1, 2, 3, 4}, {2, 2});
  Tensor rows = Tensor::FromVector(std::vector<int64_t>{1});
  Tensor sel = IndexSelect(m, 0, rows);
  EXPECT_EQ(sel.ToVector<float>(), (std::vector<float>{3, 4}));

  Tensor gidx = Tensor::FromVector(std::vector<int64_t>{1, 0, 1, 1}, {2, 2});
  Tensor g = Gather(m, 1, gidx);
  EXPECT_EQ(g.ToVector<float>(), (std::vector<float>{2, 1, 4, 4}));
}

TEST(OpsTest, MaskedSelectAndNonZero) {
  Tensor t = Tensor::Arange(6, DType::kFloat32);
  Tensor mask = Gt(t, Tensor::Full({1}, 2.5f));
  EXPECT_EQ(NonZero(mask).ToVector<int64_t>(),
            (std::vector<int64_t>{3, 4, 5}));
  EXPECT_EQ(MaskedSelectRows(t, mask).ToVector<float>(),
            (std::vector<float>{3, 4, 5}));
}

TEST(OpsTest, ScatterAddRows) {
  Tensor base = Tensor::Zeros({3, 2});
  Tensor idx = Tensor::FromVector(std::vector<int64_t>{2, 0, 2});
  Tensor src = Tensor::FromVector(std::vector<float>{1, 1, 2, 2, 3, 3},
                                  {3, 2});
  Tensor out = ScatterAddRows(base, idx, src);
  EXPECT_EQ(out.ToVector<float>(), (std::vector<float>{2, 2, 0, 0, 4, 4}));
}

TEST(OpsTest, OneHot) {
  Tensor idx = Tensor::FromVector(std::vector<int64_t>{2, 0});
  Tensor oh = OneHot(idx, 3);
  EXPECT_EQ(oh.ToVector<float>(), (std::vector<float>{0, 0, 1, 1, 0, 0}));
}

TEST(OpsTest, SortAndArgSortStable) {
  Tensor t = Tensor::FromVector(std::vector<float>{3, 1, 2, 1});
  EXPECT_EQ(ArgSort(t).ToVector<int64_t>(),
            (std::vector<int64_t>{1, 3, 2, 0}));
  SortResult s = Sort(t, /*descending=*/true);
  EXPECT_EQ(s.values.ToVector<float>(), (std::vector<float>{3, 2, 1, 1}));
}

TEST(OpsTest, UniqueWithInverseAndCounts) {
  Tensor t = Tensor::FromVector(std::vector<int64_t>{5, 3, 5, 3, 3, 9});
  UniqueResult u = Unique(t);
  EXPECT_EQ(u.values.ToVector<int64_t>(), (std::vector<int64_t>{3, 5, 9}));
  EXPECT_EQ(u.counts.ToVector<int64_t>(), (std::vector<int64_t>{3, 2, 1}));
  EXPECT_EQ(u.inverse.ToVector<int64_t>(),
            (std::vector<int64_t>{1, 0, 1, 0, 0, 2}));
}

TEST(OpsTest, ArgSortPutsNanLastInBothDirections) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor t = Tensor::FromVector(std::vector<float>{2, nan, 1, nan, 3});
  // Ascending: reals in order, NaNs last (stable: index 1 before 3).
  EXPECT_EQ(ArgSort(t).ToVector<int64_t>(),
            (std::vector<int64_t>{2, 0, 4, 1, 3}));
  // Descending: reals in reverse order, NaNs still last (SQL NULLS LAST).
  EXPECT_EQ(ArgSort(t, /*descending=*/true).ToVector<int64_t>(),
            (std::vector<int64_t>{4, 0, 2, 1, 3}));
  const std::vector<float> asc = Sort(t).values.ToVector<float>();
  EXPECT_EQ(asc[0], 1.0f);
  EXPECT_EQ(asc[2], 3.0f);
  EXPECT_TRUE(std::isnan(asc[3]));
  EXPECT_TRUE(std::isnan(asc[4]));
}

TEST(OpsTest, ArgSortAllNanDoesNotCrash) {
  // All-NaN input exercised the old comparator's undefined behavior.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor t = Tensor::FromVector(std::vector<float>(64, nan));
  // Stable + all-equivalent: identity permutation.
  std::vector<int64_t> expect(64);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(ArgSort(t).ToVector<int64_t>(), expect);
}

TEST(OpsTest, UniqueCollapsesNansIntoOneGroup) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor t = Tensor::FromVector(std::vector<float>{1, nan, 2, nan, 1});
  UniqueResult u = Unique(t);
  const std::vector<float> values = u.values.ToVector<float>();
  ASSERT_EQ(values.size(), 3u);  // {1, 2, NaN}, not one group per NaN
  EXPECT_EQ(values[0], 1.0f);
  EXPECT_EQ(values[1], 2.0f);
  EXPECT_TRUE(std::isnan(values[2]));
  EXPECT_EQ(u.counts.ToVector<int64_t>(), (std::vector<int64_t>{2, 1, 2}));
  EXPECT_EQ(u.inverse.ToVector<int64_t>(),
            (std::vector<int64_t>{0, 2, 1, 2, 0}));
}

TEST(OpsTest, CatAndStack) {
  Tensor a = Tensor::FromVector(std::vector<float>{1, 2}, {1, 2});
  Tensor b = Tensor::FromVector(std::vector<float>{3, 4}, {1, 2});
  Tensor c = Cat({a, b}, 0);
  EXPECT_EQ(c.shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(c.ToVector<float>(), (std::vector<float>{1, 2, 3, 4}));
  Tensor d = Cat({a, b}, 1);
  EXPECT_EQ(d.shape(), (std::vector<int64_t>{1, 4}));
  Tensor s = Stack({a.Squeeze(0), b.Squeeze(0)}, 0);
  EXPECT_EQ(s.shape(), (std::vector<int64_t>{2, 2}));
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(3);
  Tensor t = RandNormal({5, 7}, 0, 3, rng);
  Tensor sm = Softmax(t, 1);
  Tensor rowsum = Sum(sm, 1, false);
  EXPECT_TRUE(AllClose(rowsum, Tensor::Ones({5}), 1e-4, 1e-5));
  // LogSoftmax == log(Softmax).
  EXPECT_TRUE(AllClose(LogSoftmax(t, 1), Log(sm), 1e-4, 1e-4));
}

TEST(OpsTest, L2NormalizeUnitNorm) {
  Rng rng(4);
  Tensor t = RandNormal({3, 8}, 0, 2, rng);
  Tensor n = L2Normalize(t, 1);
  Tensor norms = Sqrt(Sum(Mul(n, n), 1, false));
  EXPECT_TRUE(AllClose(norms, Tensor::Ones({3}), 1e-4, 1e-5));
}

TEST(OpsTest, MatMulShapesChecked) {
  Tensor a = Tensor::Ones({2, 3});
  Tensor b = Tensor::Ones({3, 4});
  EXPECT_EQ(MatMul(a, b).shape(), (std::vector<int64_t>{2, 4}));
  EXPECT_FLOAT_EQ(MatMul(a, b).At({0, 0}), 3.0f);
}

TEST(OpsTest, BMMBatches) {
  Tensor a = Tensor::Ones({2, 1, 3});
  Tensor b = Tensor::Full({2, 3, 1}, 2.0);
  Tensor c = BMM(a, b);
  EXPECT_EQ(c.shape(), (std::vector<int64_t>{2, 1, 1}));
  EXPECT_FLOAT_EQ(c.At({0, 0, 0}), 6.0f);
}

TEST(OpsTest, CountNonzero) {
  Tensor t = Tensor::FromVector(std::vector<float>{0, 1, 0, 2});
  EXPECT_EQ(CountNonzero(t).item<int64_t>(), 2);
}

// Parallel kernels must be bit-for-bit identical to the serial ones: matmul
// rows own their accumulators, and fp32 sums run through a fixed-block
// deterministic tree whose shape is independent of the thread count.
class ParallelDeterminismTest : public ::testing::Test {
 protected:
  template <typename Fn>
  void ExpectBitIdentical(Fn compute) {
    std::vector<float> expected;
    {
      ScopedNumThreads serial(1);
      const Tensor result = compute();
      expected = result.ToVector<float>();
    }
    for (int threads : {2, 4, 7}) {
      ScopedNumThreads parallel(threads);
      const Tensor result = compute();
      const std::vector<float> got = result.ToVector<float>();
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        // EXPECT_EQ, not NEAR: bit-for-bit, not approximately.
        EXPECT_EQ(got[i], expected[i])
            << "threads=" << threads << " index=" << i;
      }
    }
  }
};

TEST_F(ParallelDeterminismTest, MatMulBitIdenticalAcrossThreadCounts) {
  Rng rng(101);
  const Tensor a = RandNormal({37, 53}, 0, 1, rng);
  const Tensor b = RandNormal({53, 29}, 0, 1, rng);
  ExpectBitIdentical([&] { return MatMul(a, b); });
  ExpectBitIdentical(
      [&] { return MatMul(a.To(Device::kAccel), b.To(Device::kAccel))
                .To(Device::kCpu); });
}

TEST_F(ParallelDeterminismTest, SumBitIdenticalAcrossThreadCounts) {
  Rng rng(102);
  // Large enough to span many fixed 4096-element blocks.
  const Tensor t = RandNormal({100001}, 0, 1, rng);
  ExpectBitIdentical([&] { return Sum(t); });
  const Tensor m = RandNormal({61, 513}, 0, 1, rng);
  ExpectBitIdentical([&] { return Sum(m, 1, false); });
  ExpectBitIdentical([&] { return Sum(m, 0, false); });
}

TEST_F(ParallelDeterminismTest, ElementwiseAndReduceOpsBitIdentical) {
  Rng rng(103);
  const Tensor a = RandNormal({33, 257}, 0, 1, rng);
  const Tensor b = RandNormal({33, 1}, 0, 1, rng);  // broadcast path
  ExpectBitIdentical([&] { return Mul(a, b); });
  ExpectBitIdentical([&] { return Exp(a); });
  ExpectBitIdentical([&] { return CumSum(a, 1); });
  ExpectBitIdentical([&] { return Max(a, 1, false).values; });
}

}  // namespace
}  // namespace tdp
