// Kernel-correctness and primitive-cache regression suite:
//
//   - IEEE non-finite propagation: the accelerated matmul/conv kernels used
//     to skip zero multiplicands, silently turning `0 * inf` (NaN under
//     IEEE 754) into 0. Both backends must now classify every output
//     element (NaN / inf / finite) exactly like a naive double-precision
//     reference.
//   - Strided/transposed views: `Tensor::RowMajor()` must make kernels
//     over views bit-identical to the same kernels over eager contiguous
//     copies, per backend, across thread counts — also after the viewed
//     storage was updated in place by an optimizer step.
//   - Filter+project: every (thread count, morsel size) combination must
//     be bit-identical to the one-morsel run — over numeric and dictionary
//     predicates (absent literals, literal-on-the-left comparisons),
//     parameters, bool columns, column-vs-column compares and OR trees.
//   - Per-plan primitive cache: repeated runs of one CompiledQuery reuse
//     the join build side (hit/miss stats), invalidate on table change
//     (re-register and DML UPDATE), and never cache a parameter-bearing
//     build subtree.
//   - Scratch reuse: a warm accelerated Conv2d forward allocates exactly
//     one buffer (the output) and never grows the scratch arena.
//   - GEMM versions: every ISA version of the accelerated GEMM the host
//     supports gives the portable one's bits (NaN outputs compared as
//     NaN), directly and through MatMul, BMM and Conv2d; skipped versions
//     are printed.
//   - Row-segment broadcasts: broadcast binary ops and Where give the same
//     bits as on operands materialized to the output shape.
//   - Cat: memcpy'd slabs give an index-arithmetic reference's bytes along
//     every dim, over strided, offset and zero-row inputs, and the
//     gradient still routes each window back to its input.
//
// Runs under ASan/UBSan and TSan in CI (see TDP_SANITIZER_TESTS).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/exec/bound_expr.h"
#include "src/exec/primitive_cache.h"
#include "src/nn/optim.h"
#include "src/runtime/session.h"
#include "src/tensor/buffer.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/scratch.h"
#include "tests/vector_test_util.h"

namespace tdp {
namespace {

constexpr int64_t kWholeRelation = int64_t{1} << 30;
const int64_t kMorselSizes[] = {1, 7, 4096, kWholeRelation};
const int kThreadCounts[] = {1, 4};
const Device kDevices[] = {Device::kCpu, Device::kAccel};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

// ---- SaturatingCostProduct ------------------------------------------------

TEST(SaturatingCostProductTest, ExactWhenInRange) {
  EXPECT_EQ(SaturatingCostProduct(3, 4), 12);
  EXPECT_EQ(SaturatingCostProduct(0, kInt64Max), 0);
  EXPECT_EQ(SaturatingCostProduct(1, kInt64Max), kInt64Max);
  EXPECT_EQ(SaturatingCostProduct(2, 3, 4), 24);
  EXPECT_EQ(SaturatingCostProduct(0, kInt64Max, kInt64Max), 0);
}

TEST(SaturatingCostProductTest, ClampsInsteadOfWrapping) {
  // 2^40 * 2^40 wraps to 0 under plain int64 multiply; the cost must clamp
  // so GrainForCost never sees a tiny (or negative) "cost" for a huge loop.
  const int64_t big = int64_t{1} << 40;
  EXPECT_EQ(SaturatingCostProduct(big, big), kInt64Max);
  EXPECT_EQ(SaturatingCostProduct(kInt64Max, 2), kInt64Max);
  EXPECT_EQ(SaturatingCostProduct(big, big, big), kInt64Max);
  // A clamped partial product stays clamped through the 3-arg form.
  EXPECT_EQ(SaturatingCostProduct(big, big, 1), kInt64Max);
}

// ---- IEEE non-finite propagation ------------------------------------------

// 0 = finite, 1 = +/-inf, 2 = NaN.
int Classify(double v) {
  if (std::isnan(v)) return 2;
  if (std::isinf(v)) return 1;
  return 0;
}

// Element classification of a float tensor (any device, any dtype).
std::vector<int> ClassifyTensor(const Tensor& t) {
  const Tensor c = t.To(Device::kCpu).Contiguous();
  std::vector<int> out;
  if (c.dtype() == DType::kFloat64) {
    for (double v : c.ToVector<double>()) out.push_back(Classify(v));
  } else {
    for (float v : c.ToVector<float>()) {
      out.push_back(Classify(static_cast<double>(v)));
    }
  }
  return out;
}

// A zero in `a` meeting an inf in `b` must yield NaN in the product sum.
// Pre-fix, the accelerated kernel skipped `a == 0` multiplicands, so the
// NaN cell came out finite — this test fails on that kernel.
TEST(KernelNonFiniteTest, MatMulPropagatesZeroTimesInf) {
  // a[0] = [0, 1]: row 0 hits b's inf row with a zero -> 0*inf = NaN.
  // a[1] = [1, 1]: row 1 hits it with a one -> inf propagates as inf.
  // a[2] = [1, 0]: a zero meets the *finite* b row -> stays finite.
  const std::vector<float> a_vals = {0, 1, 1, 1, 1, 0};
  const std::vector<float> b_vals = {static_cast<float>(kInf), 2, 3, 4};
  // The expected classification comes from a naive double loop instead of
  // being hand-written — the oracle and the kernel must agree cell by
  // cell for every backend.
  const int64_t m = 3, k = 2, n = 2;
  std::vector<int> naive;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a_vals[i * k + p]) *
               static_cast<double>(b_vals[p * n + j]);
      }
      naive.push_back(Classify(acc));
    }
  }
  // Sanity: the construction really exercises all three classes.
  EXPECT_EQ(naive[0], 2);  // 0*inf + 1*3 = NaN
  EXPECT_EQ(naive[1], 0);  // 0*2 + 1*4 = 4
  EXPECT_EQ(naive[2], 1);  // 1*inf + 1*3 = inf
  EXPECT_EQ(naive[5], 0);  // 1*2 + 0*4 = 2 (a zero meeting finite data)

  for (Device device : kDevices) {
    SCOPED_TRACE(device == Device::kCpu ? "cpu" : "accel");
    const Tensor a = Tensor::FromVector(a_vals, {m, k}, device);
    const Tensor b = Tensor::FromVector(b_vals, {k, n}, device);
    EXPECT_EQ(ClassifyTensor(MatMul(a, b)), naive);
  }
}

// Same property for Conv2d: an inf input pixel under a zero weight tap
// must produce NaN wherever the window covers it with that tap. The
// accelerated path lowers to im2col + the shared GEMM, so the pre-fix
// zero-skip dropped the NaN there too.
TEST(KernelNonFiniteTest, Conv2dPropagatesZeroTimesInf) {
  const int64_t h = 4, w = 4, kk = 2;
  std::vector<float> input(static_cast<size_t>(h * w), 1.0f);
  input[static_cast<size_t>(1 * w + 1)] = static_cast<float>(kInf);
  // Weight [[0, 1], [1, 1]]: windows where the inf aligns with the zero
  // tap yield NaN; other windows covering the inf yield inf.
  const std::vector<float> weight = {0, 1, 1, 1};

  // Naive double conv (stride 1, no padding) as the oracle.
  const int64_t oh = h - kk + 1, ow = w - kk + 1;
  std::vector<int> naive;
  for (int64_t oy = 0; oy < oh; ++oy) {
    for (int64_t ox = 0; ox < ow; ++ox) {
      double acc = 0;
      for (int64_t ky = 0; ky < kk; ++ky) {
        for (int64_t kx = 0; kx < kk; ++kx) {
          acc += static_cast<double>(input[static_cast<size_t>(
                     (oy + ky) * w + (ox + kx))]) *
                 static_cast<double>(
                     weight[static_cast<size_t>(ky * kk + kx)]);
        }
      }
      naive.push_back(Classify(acc));
    }
  }
  // The inf pixel sits under the zero tap for exactly one window.
  EXPECT_NE(std::count(naive.begin(), naive.end(), 2), 0);
  EXPECT_NE(std::count(naive.begin(), naive.end(), 1), 0);
  EXPECT_NE(std::count(naive.begin(), naive.end(), 0), 0);

  for (Device device : kDevices) {
    SCOPED_TRACE(device == Device::kCpu ? "cpu" : "accel");
    const Tensor in = Tensor::FromVector(input, {1, 1, h, w}, device);
    const Tensor wt = Tensor::FromVector(weight, {1, 1, kk, kk}, device);
    const Tensor out = Conv2d(in, wt, Tensor(), /*stride=*/1, /*padding=*/0);
    EXPECT_EQ(ClassifyTensor(out), naive);
  }
}

// ---- Strided / transposed view parity -------------------------------------

// Kernels over views must be bit-identical to the same kernels over eager
// contiguous copies of those views, per backend, for serial and parallel
// thread counts.
class ViewParityTest : public ::testing::Test {
 protected:
  static void ExpectBitwise(const Tensor& a, const Tensor& b) {
    EXPECT_TRUE(TensorEqual(a.To(Device::kCpu), b.To(Device::kCpu)));
  }
};

TEST_F(ViewParityTest, MatMulOnTransposedAndSlicedViews) {
  Rng rng(11);
  const Tensor base_a = RandNormal({37, 53}, 0, 1, rng);
  const Tensor base_b = RandNormal({37, 29}, 0, 1, rng);
  const Tensor wide = RandNormal({53, 64}, 0, 1, rng);
  for (int threads : kThreadCounts) {
    ScopedNumThreads guard(threads);
    for (Device device : kDevices) {
      SCOPED_TRACE(std::string(device == Device::kCpu ? "cpu" : "accel") +
                   " threads=" + std::to_string(threads));
      // Transposed left operand: [53, 37] view with swapped strides.
      const Tensor at = Transpose(base_a.To(device), 0, 1);
      const Tensor b = base_b.To(device);
      ASSERT_FALSE(at.is_contiguous());
      ExpectBitwise(MatMul(at, b), MatMul(at.Contiguous(), b));
      // Column-sliced right operand: rows remain strided in the parent.
      const Tensor bs = Slice(wide.To(device), /*dim=*/1, 3, 17);
      ASSERT_FALSE(bs.is_contiguous());
      ExpectBitwise(MatMul(base_a.To(device), bs),
                    MatMul(base_a.To(device), bs.Contiguous()));
      // Both operands transposed.
      const Tensor bt = Transpose(base_b.To(device), 0, 1);
      ExpectBitwise(MatMul(at, base_b.To(device)),
                    MatMul(at.Contiguous(), base_b.To(device)));
      ExpectBitwise(MatMul(bt, base_a.To(device)),
                    MatMul(bt.Contiguous(), base_a.To(device).Contiguous()));
    }
  }
}

TEST_F(ViewParityTest, Conv2dOnStridedViews) {
  Rng rng(12);
  const Tensor base = RandNormal({2, 3, 9, 12}, 0, 1, rng);
  const Tensor weight = RandNormal({4, 3, 3, 3}, 0, 1, rng);
  const Tensor bias = RandNormal({4}, 0, 1, rng);
  for (int threads : kThreadCounts) {
    ScopedNumThreads guard(threads);
    for (Device device : kDevices) {
      SCOPED_TRACE(std::string(device == Device::kCpu ? "cpu" : "accel") +
                   " threads=" + std::to_string(threads));
      // Width-sliced input: every row strided within the parent buffer.
      const Tensor view = Slice(base.To(device), /*dim=*/3, 2, 8);
      ASSERT_FALSE(view.is_contiguous());
      const Tensor w = weight.To(device);
      const Tensor bi = bias.To(device);
      ExpectBitwise(Conv2d(view, w, bi, 1, 1),
                    Conv2d(view.Contiguous(), w, bi, 1, 1));
      // Transposed-then-restored layout (permuted strides, same logical
      // NCHW shape).
      const Tensor perm =
          Transpose(Transpose(base.To(device), 2, 3), 2, 3);
      ExpectBitwise(Conv2d(perm, w, bi, 1, 0),
                    Conv2d(perm.Contiguous(), w, bi, 1, 0));
    }
  }
}

TEST_F(ViewParityTest, ViewHeldAcrossAnOptimizerStepSeesTheStep) {
  // nn::SGD writes its parameter in place; a transposed view taken before
  // the step must read the stepped values, not a copy of the old ones.
  for (Device device : kDevices) {
    SCOPED_TRACE(device == Device::kCpu ? "cpu" : "accel");
    Tensor w = Tensor::Full({2, 3}, 2.0, DType::kFloat32, device);
    w.set_requires_grad(true);
    const Tensor wt = Transpose(w, 0, 1);
    const Tensor x = Tensor::Ones({1, 3}, DType::kFloat32, device);
    const Tensor before = MatMul(x, wt);
    EXPECT_EQ(before.At({0, 0}), 6.0);
    EXPECT_EQ(before.At({0, 1}), 6.0);

    Sum(w).Backward();  // d/dw = 1 everywhere
    nn::SGD sgd({w}, /*lr=*/1.0);
    sgd.Step();  // w: 2 -> 1, in place

    const Tensor after = MatMul(x, wt);
    ExpectBitwise(after, MatMul(x, wt.Contiguous()));
    EXPECT_EQ(after.At({0, 0}), 3.0);
    EXPECT_EQ(after.At({0, 1}), 3.0);
  }
}

// ---- Warm-path allocation accounting --------------------------------------

TEST(ConvScratchTest, WarmAccelForwardAllocatesOnlyTheOutput) {
  // Single-threaded so the im2col scratch lives in one deterministic
  // thread-local arena (the parallel case is covered by the benchmark's
  // steady-state assertion).
  ScopedNumThreads guard(1);
  Rng rng(13);
  const Tensor in = RandNormal({2, 3, 16, 16}, 0, 1, rng).To(Device::kAccel);
  const Tensor w = RandNormal({4, 3, 3, 3}, 0, 1, rng).To(Device::kAccel);
  const Tensor b = RandNormal({4}, 0, 1, rng).To(Device::kAccel);
  // Warm: sizes the arena slot.
  Conv2d(in, w, b, 1, 1);
  Conv2d(in, w, b, 1, 1);
  const int64_t allocs_before = Buffer::allocation_count();
  const int64_t growth_before = ScratchArena::growth_count();
  const Tensor out = Conv2d(in, w, b, 1, 1);
  EXPECT_EQ(Buffer::allocation_count() - allocs_before, 1)
      << "a warm Conv2d forward must allocate exactly the output buffer";
  EXPECT_EQ(ScratchArena::growth_count() - growth_before, 0)
      << "a warm Conv2d forward must reuse the sized im2col scratch slot";
  EXPECT_EQ(out.shape(), (std::vector<int64_t>{2, 4, 16, 16}));
}

// ---- GEMM versions ---------------------------------------------------------

// Element bits of a float tensor, for memcmp-style comparison. Every NaN
// maps to one pattern: when two NaNs meet in an add or multiply, the
// result carries the payload and sign of whichever operand the compiler
// placed first (IEEE 754 leaves the choice open, and the ISA versions'
// code differs there), so NaN outputs are compared as NaN and every other
// output bit for bit, -0 included.
std::vector<uint32_t> FloatBits(const Tensor& t) {
  const Tensor c = t.To(Device::kCpu).Contiguous();
  std::vector<uint32_t> bits(static_cast<size_t>(c.numel()));
  const float* v = c.data<float>();
  for (size_t i = 0; i < bits.size(); ++i) {
    if (std::isnan(v[i])) {
      bits[i] = 0x7FC00000u;
    } else {
      std::memcpy(&bits[i], &v[i], sizeof(float));
    }
  }
  return bits;
}

// A [rows, cols] float32 matrix of normal values salted with what the
// summation contract must carry through unchanged: zeros (which meet the
// other operand's infs as 0 * inf), -0, NaN, +-inf and magnitudes whose
// products overflow.
Tensor SaltedMatrix(int64_t rows, int64_t cols, Rng& rng) {
  std::vector<float> v(static_cast<size_t>(rows * cols));
  for (float& x : v) {
    const double u = rng.UniformDouble();
    if (u < 0.03) {
      x = 0.0f;
    } else if (u < 0.05) {
      x = -0.0f;
    } else if (u < 0.053) {
      x = std::numeric_limits<float>::quiet_NaN();
    } else if (u < 0.056) {
      x = rng.Bernoulli(0.5) ? static_cast<float>(kInf)
                             : -static_cast<float>(kInf);
    } else if (u < 0.07) {
      x = static_cast<float>(rng.Normal(0, 1) * 1e25);
    } else {
      x = static_cast<float>(rng.Normal(0, 1));
    }
  }
  return Tensor::FromVector(v, {rows, cols}, Device::kAccel);
}

// Every version the CPU supports gives the portable one's bits on ragged
// shapes, narrow and empty ones, and non-finite inputs, at one and four
// threads.
TEST(GemmVersionTest, EveryVersionMatchesPortable) {
  struct Shape {
    int64_t m, k, n;
  };
  // Ragged m and n, n below the 16- and 32-wide tiles, n = 1, k = 0,
  // m = 0, n = 0, and a long k.
  const Shape shapes[] = {{37, 129, 70}, {128, 64, 512}, {9, 33, 31},
                          {8, 16, 32},   {17, 5, 15},    {13, 40, 16},
                          {11, 7, 17},   {64, 32, 1},    {5, 9, 1},
                          {6, 0, 19},    {0, 12, 10},    {7, 12, 0},
                          {1, 774, 48}};
  std::vector<GemmVersion> checked;
  for (GemmVersion version : {GemmVersion::kAvx2, GemmVersion::kAvx512}) {
    if (GemmVersionSupported(version)) {
      checked.push_back(version);
    } else {
      std::cout << "[ SKIPPED  ] GEMM version " << GemmVersionName(version)
                << ": not supported by this CPU\n";
    }
  }
  std::cout << "[   INFO   ] Gemm dispatches to "
            << GemmVersionName(DispatchedGemmVersion()) << "\n";

  Rng rng(17);
  std::vector<int> classes(3, 0);  // finite, +-inf, NaN outputs seen
  for (const Shape& s : shapes) {
    const Tensor a = SaltedMatrix(s.m, s.k, rng);
    const Tensor b = SaltedMatrix(s.k, s.n, rng);
    Tensor expected =
        Tensor::Empty({s.m, s.n}, DType::kFloat32, Device::kAccel);
    {
      ScopedNumThreads guard(1);
      GemmWithVersion(GemmVersion::kPortable, a.data<float>(),
                      b.data<float>(), expected.data<float>(), s.m, s.k, s.n);
    }
    for (int c : ClassifyTensor(expected)) ++classes[static_cast<size_t>(c)];
    for (int threads : kThreadCounts) {
      ScopedNumThreads guard(threads);
      for (GemmVersion version : checked) {
        SCOPED_TRACE(std::string(GemmVersionName(version)) + " " +
                     std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                     std::to_string(s.n) +
                     " threads=" + std::to_string(threads));
        Tensor got =
            Tensor::Empty({s.m, s.n}, DType::kFloat32, Device::kAccel);
        GemmWithVersion(version, a.data<float>(), b.data<float>(),
                        got.data<float>(), s.m, s.k, s.n);
        EXPECT_EQ(FloatBits(got), FloatBits(expected));
      }
    }
  }
  // The salting reaches every class of output.
  EXPECT_GT(classes[0], 0);
  EXPECT_GT(classes[1], 0);
  EXPECT_GT(classes[2], 0);
}

// The public ops that run the GEMM give the portable version's bits at
// one and four threads: MatMul, BMM per batch item, and Conv2d as
// im2col followed by the GEMM.
TEST(GemmVersionTest, PublicOpsMatchPortable) {
  Rng rng(18);
  const Tensor a = SaltedMatrix(37, 129, rng);
  const Tensor b = SaltedMatrix(129, 70, rng);
  Tensor expected = Tensor::Empty({37, 70}, DType::kFloat32, Device::kAccel);
  GemmWithVersion(GemmVersion::kPortable, a.data<float>(), b.data<float>(),
                  expected.data<float>(), 37, 129, 70);

  const Tensor a3 = Reshape(SaltedMatrix(3 * 9, 20, rng), {3, 9, 20});
  const Tensor b3 = Reshape(SaltedMatrix(3 * 20, 33, rng), {3, 20, 33});
  Tensor expected3 = Tensor::Empty({3, 9, 33}, DType::kFloat32, Device::kAccel);
  for (int64_t i = 0; i < 3; ++i) {
    GemmWithVersion(GemmVersion::kPortable, a3.data<float>() + i * 9 * 20,
                    b3.data<float>() + i * 20 * 33,
                    expected3.data<float>() + i * 9 * 33, 9, 20, 33);
  }

  // A 1x1 convolution's im2col columns are the image itself, so Conv2d
  // over [1, 24, 6, 7] with 5 filters is the GEMM [5, 24] x [24, 42].
  const Tensor image = Reshape(SaltedMatrix(24, 42, rng), {1, 24, 6, 7});
  const Tensor weight = Reshape(SaltedMatrix(5, 24, rng), {5, 24, 1, 1});
  Tensor expected_conv =
      Tensor::Empty({1, 5, 6, 7}, DType::kFloat32, Device::kAccel);
  GemmWithVersion(GemmVersion::kPortable, weight.data<float>(),
                  image.data<float>(), expected_conv.data<float>(), 5, 24,
                  42);

  for (int threads : kThreadCounts) {
    ScopedNumThreads guard(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(FloatBits(MatMul(a, b)), FloatBits(expected));
    EXPECT_EQ(FloatBits(BMM(a3, b3)), FloatBits(expected3));
    EXPECT_EQ(FloatBits(Conv2d(image, weight, Tensor(), 1, 0)),
              FloatBits(expected_conv));
  }
}

// ---- Row-segment broadcasts ------------------------------------------------

// A broadcast binary op walks row segments; the same op on operands first
// materialized to the output shape takes the dense same-shape loop. Both
// must give the same bits for row, column, scalar, outer-product and
// transposed operands, at one and four threads.
TEST(RowSegmentTest, BroadcastsMatchMaterializedOperands) {
  Rng rng(19);
  auto salted = [&](std::vector<int64_t> shape) {
    int64_t n = 1;
    for (int64_t d : shape) n *= d;
    return Reshape(SaltedMatrix(1, n, rng), shape);
  };
  const Tensor wide = salted({70, 33});
  struct Case {
    const char* name;
    Tensor a, b;
  };
  const std::vector<Case> cases = {
      {"row [n,d] - [1,d]", salted({70, 33}), salted({1, 33})},
      {"bias [n,d] + [d]", salted({70, 33}), salted({33})},
      {"column [n,d] / [n,1]", salted({70, 33}), salted({70, 1})},
      {"column [n,c,l] - [n,c,1]", salted({9, 3, 40}), salted({9, 3, 1})},
      {"scalar [1,1] * [n,d]^T", salted({1, 1}), Transpose(wide, 0, 1)},
      {"outer [n,1] * [1,d]", salted({70, 1}), salted({1, 33})},
      {"transposed [d,n]^T + [1,d]", Transpose(salted({33, 70}), 0, 1),
       salted({1, 33})},
      {"middle [n,1,d] - [n,c,d]", salted({4, 1, 17}), salted({4, 5, 17})},
  };
  using BinaryOp = Tensor (*)(const Tensor&, const Tensor&);
  const std::pair<const char*, BinaryOp> ops[] = {
      {"Add", &Add},         {"Sub", &Sub},         {"Mul", &Mul},
      {"Div", &Div},         {"Maximum", &Maximum}, {"Lt", &Lt}};
  for (int threads : kThreadCounts) {
    ScopedNumThreads guard(threads);
    for (const Case& c : cases) {
      const std::vector<int64_t> shape =
          BroadcastShapes(c.a.shape(), c.b.shape());
      const Tensor a_full = Expand(c.a, shape).Contiguous();
      const Tensor b_full = Expand(c.b, shape).Contiguous();
      for (const auto& [op_name, op] : ops) {
        SCOPED_TRACE(std::string(c.name) + " " + op_name +
                     " threads=" + std::to_string(threads));
        const Tensor got = op(c.a, c.b);
        const Tensor expected = op(a_full, b_full);
        ASSERT_EQ(got.shape(), expected.shape());
        if (got.dtype() == DType::kBool) {
          EXPECT_EQ(got.ToVector<bool>(), expected.ToVector<bool>());
        } else {
          EXPECT_EQ(FloatBits(got), FloatBits(expected));
        }
      }
      SCOPED_TRACE(std::string(c.name) + " Where threads=" +
                   std::to_string(threads));
      const Tensor cond = Gt(c.a, c.b);
      EXPECT_EQ(FloatBits(Where(cond, c.a, c.b)),
                FloatBits(Where(cond.Contiguous(), a_full, b_full)));
    }
  }
}

// ---- Cat ------------------------------------------------------------------

// The logical elements of `t` as raw bytes in row-major order, read
// through `Contiguous`, the strided-copy kernel Cat does not use.
std::vector<uint8_t> LogicalBytes(const Tensor& t) {
  const Tensor c = t.Detach().Contiguous();
  const int64_t esize = DTypeSize(c.dtype());
  std::vector<uint8_t> bytes(static_cast<size_t>(c.numel() * esize));
  if (!bytes.empty()) {
    std::memcpy(bytes.data(), c.impl()->buffer->data() + c.offset() * esize,
                bytes.size());
  }
  return bytes;
}

// Cat copies each input's contiguous slabs with memcpy. Along the first,
// a middle and the last dim, over contiguous, transposed, sliced and
// zero-row inputs, its bytes must equal a reference that places every
// element by index arithmetic, and each input's gradient must be its
// window of the output's gradient, at one and four threads.
TEST(CatTest, MatchesIndexArithmeticReference) {
  const std::vector<int64_t> base_shape = {3, 4, 5};
  const DType dtypes[] = {DType::kBool, DType::kInt64, DType::kFloat32,
                          DType::kFloat64};
  // A [3, 4, 5]-shaped input, save `len` along `dim`, built four ways.
  // `salt` makes each input's values distinct.
  enum class Layout { kContiguous, kTransposed, kSliced, kOffset };
  const auto make_values = [](std::vector<int64_t> shape, DType dtype,
                              int64_t salt) {
    int64_t n = 1;
    for (int64_t s : shape) n *= s;
    std::vector<double> v(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      v[static_cast<size_t>(i)] =
          dtype == DType::kBool ? static_cast<double>((i * 7 + salt) % 3 == 0)
                                : static_cast<double>(i * 31 + salt) - 0.5;
    }
    return Tensor::FromVector(v, shape).To(dtype);
  };
  const auto make_input = [&](Layout layout, std::vector<int64_t> shape,
                              DType dtype, int64_t salt,
                              bool requires_grad) -> std::pair<Tensor, Tensor> {
    Tensor base;
    Tensor view;
    switch (layout) {
      case Layout::kContiguous:
        base = make_values(shape, dtype, salt);
        break;
      case Layout::kTransposed:
        base = make_values({shape[2], shape[1], shape[0]}, dtype, salt);
        break;
      case Layout::kSliced:
        base = make_values({shape[0], shape[1], shape[2] + 3}, dtype, salt);
        break;
      case Layout::kOffset:
        base = make_values({shape[0] + 2, shape[1], shape[2]}, dtype, salt);
        break;
    }
    if (requires_grad) base.set_requires_grad(true);
    switch (layout) {
      case Layout::kContiguous:
        view = base;
        break;
      case Layout::kTransposed:
        view = Permute(base, {2, 1, 0});
        break;
      case Layout::kSliced:
        view = Slice(base, 2, 2, shape[2]);
        break;
      case Layout::kOffset:
        view = Slice(base, 0, 1, shape[0]);
        break;
    }
    return {base, view};
  };
  const Layout layouts[] = {Layout::kContiguous, Layout::kTransposed,
                            Layout::kSliced, Layout::kOffset};
  const int64_t lengths[] = {2, 0, 3, 1};  // along the concat dim

  for (int threads : kThreadCounts) {
    ScopedNumThreads guard(threads);
    for (DType dtype : dtypes) {
      const bool floating = dtype == DType::kFloat32 || dtype == DType::kFloat64;
      for (int64_t dim = 0; dim < 3; ++dim) {
        SCOPED_TRACE(std::string(DTypeName(dtype)) + " dim=" +
                     std::to_string(dim) + " threads=" +
                     std::to_string(threads));
        std::vector<Tensor> bases, views;
        for (size_t i = 0; i < std::size(layouts); ++i) {
          std::vector<int64_t> shape = base_shape;
          shape[static_cast<size_t>(dim)] = lengths[i];
          auto [base, view] = make_input(layouts[i], shape, dtype,
                                         static_cast<int64_t>(i), floating);
          bases.push_back(base);
          views.push_back(view);
        }
        const Tensor out = Cat(views, dim);

        // Reference: output element (a, b, c) is element (a, b, c) of
        // the input whose range along `dim` holds its coordinate there,
        // shifted to that input's start.
        std::vector<int64_t> out_shape = base_shape;
        out_shape[static_cast<size_t>(dim)] = 0;
        for (int64_t len : lengths) out_shape[static_cast<size_t>(dim)] += len;
        ASSERT_EQ(out.shape(), out_shape);
        const int64_t esize = DTypeSize(dtype);
        std::vector<std::vector<uint8_t>> in_bytes;
        for (const Tensor& v : views) in_bytes.push_back(LogicalBytes(v));
        std::vector<uint8_t> expected;
        for (int64_t a = 0; a < out_shape[0]; ++a) {
          for (int64_t b = 0; b < out_shape[1]; ++b) {
            for (int64_t c = 0; c < out_shape[2]; ++c) {
              int64_t idx[3] = {a, b, c};
              size_t input = 0;
              while (idx[dim] >= lengths[input]) idx[dim] -= lengths[input++];
              const std::vector<int64_t>& s = views[input].shape();
              const int64_t flat = (idx[0] * s[1] + idx[1]) * s[2] + idx[2];
              const uint8_t* e = in_bytes[input].data() + flat * esize;
              expected.insert(expected.end(), e, e + esize);
            }
          }
        }
        EXPECT_EQ(LogicalBytes(out), expected);
        EXPECT_TRUE(out.is_contiguous());

        if (!floating) continue;
        // Each input's gradient is its window of the output's gradient:
        // the same as back-propagating each window's own product.
        const Tensor weights =
            make_values(out_shape, dtype, 11).Detach();
        Sum(Mul(out, weights)).Backward();
        int64_t start = 0;
        for (size_t i = 0; i < views.size(); ++i) {
          auto [base, view] = make_input(layouts[i], views[i].shape(), dtype,
                                         static_cast<int64_t>(i), true);
          const Tensor window =
              Slice(weights, dim, start, lengths[i]).Contiguous();
          Sum(Mul(view, window)).Backward();
          start += lengths[i];
          ASSERT_EQ(bases[i].grad().defined(), base.grad().defined());
          if (!base.grad().defined()) continue;  // a zero-size input
          EXPECT_EQ(LogicalBytes(bases[i].grad()), LogicalBytes(base.grad()))
              << "input " << i;
        }
      }
    }
  }
}

// ---- CacheableExpr unit tests ---------------------------------------------

TEST(PrimitiveCacheUnitTest, CacheableExprAcceptsPureScalarTrees) {
  using exec::BoundBinary;
  using exec::BoundColumnRef;
  using exec::BoundLiteral;
  using exec::ScalarValue;
  EXPECT_TRUE(exec::CacheableExpr(BoundColumnRef(0)));
  EXPECT_TRUE(exec::CacheableExpr(BoundLiteral(ScalarValue::Int(5))));
  const BoundBinary cmp(sql::BinaryOp::kLt,
                        std::make_unique<BoundColumnRef>(0),
                        std::make_unique<BoundLiteral>(ScalarValue::Int(5)));
  EXPECT_TRUE(exec::CacheableExpr(cmp));
}

TEST(PrimitiveCacheUnitTest, CacheableExprRejectsParameters) {
  using exec::BoundBinary;
  using exec::BoundColumnRef;
  using exec::BoundParameter;
  EXPECT_FALSE(exec::CacheableExpr(BoundParameter(0)));
  // The rejection must be recursive: a parameter anywhere in the tree
  // poisons it (its value changes run to run, so the build side must not
  // be reused across runs).
  const BoundBinary cmp(sql::BinaryOp::kGt,
                        std::make_unique<BoundColumnRef>(0),
                        std::make_unique<BoundParameter>(0));
  EXPECT_FALSE(exec::CacheableExpr(cmp));
}

// ---- Filter+project parity ------------------------------------------------

// The suite name predates the removal of the fused evaluator; it is kept so
// the test ids stay stable.
class FusedParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(4321);
    const std::vector<std::string> vocab = {"alpha", "beta", "gamma",
                                            "delta", "omega"};
    const int64_t rows = 5000;
    std::vector<int64_t> keys;
    std::vector<double> values;
    std::vector<float> floats;
    std::vector<bool> flags;
    std::vector<std::string> tags;
    for (int64_t i = 0; i < rows; ++i) {
      keys.push_back(rng.UniformInt(0, 63));
      values.push_back(rng.Uniform(-100, 100));
      floats.push_back(static_cast<float>(rng.Uniform(-8, 8)));
      flags.push_back(rng.UniformInt(0, 1) == 1);
      tags.push_back(vocab[static_cast<size_t>(rng.UniformInt(0, 4))]);
    }
    Register("big", TableBuilder("big")
                        .AddInt64("k", keys)
                        .AddFloat64("v", values)
                        .AddFloat32("f", floats)
                        .AddBool("flag", flags)
                        .AddStrings("tag", tags));

    std::vector<int64_t> kr;
    std::vector<double> w;
    for (int64_t i = 0; i < 40; ++i) {
      kr.push_back(rng.UniformInt(0, 63));
      w.push_back(rng.Uniform(0, 50));
    }
    Register("r", TableBuilder("r").AddInt64("kr", kr).AddFloat64("w", w));

    Register("empty_t", TableBuilder("empty_t")
                            .AddInt64("k", {})
                            .AddFloat64("v", {}));
  }

  void Register(const std::string& name, TableBuilder builder) {
    auto table = std::move(builder).Build();
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE(session_.RegisterTable(name, table.value()).ok());
  }

  StatusOr<std::shared_ptr<exec::CompiledQuery>> Compile(
      const std::string& sql) {
    QueryOptions options;
    options.use_plan_cache = false;
    return session_.Query(sql, options);
  }

  StatusOr<std::shared_ptr<Table>> RunWith(
      const std::string& sql, int64_t morsel_rows,
      const std::vector<exec::ScalarValue>& params = {}) {
    exec::RunOptions run;
    run.params = params;
    run.morsel_rows = morsel_rows;
    TDP_ASSIGN_OR_RETURN(auto query, Compile(sql));
    return query->Run(run);
  }

  // Strict bit-identity including encodings and dictionary identity (same
  // oracle the streaming-parity suite uses).
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
      EXPECT_TRUE(
          TensorEqual(ca.data().Contiguous(), cb.data().Contiguous()))
          << "column data diverged";
      EXPECT_EQ(ca.dictionary(), cb.dictionary());
      EXPECT_EQ(ca.domain(), cb.domain());
    }
  }

  /// The core oracle: every thread count and morsel size must be
  /// bit-identical to the one-morsel run.
  void ExpectMorselParity(const std::string& sql,
                          const std::vector<exec::ScalarValue>& params = {}) {
    SCOPED_TRACE(sql);
    auto reference = RunWith(sql, kWholeRelation, params);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (int threads : kThreadCounts) {
      ScopedNumThreads guard(threads);
      for (int64_t morsel : kMorselSizes) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " morsel=" + std::to_string(morsel));
        auto got = RunWith(sql, morsel, params);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectBitIdentical(**reference, **got);
      }
    }
  }

  Session session_;
};

TEST_F(FusedParityTest, NumericComparisonsAndProjections) {
  ExpectMorselParity("SELECT k, v FROM big WHERE v > 0");
  ExpectMorselParity("SELECT k + 1, v * 2 FROM big WHERE k < 32 AND v <= 10");
  ExpectMorselParity(
      "SELECT v - 3.5, k * 2 FROM big WHERE v >= -50 AND k > 5");
  // float32 column compared/combined with int and float literals (the
  // promoted compute dtype differs per leaf).
  ExpectMorselParity("SELECT f + 1, f * 0.5 FROM big WHERE f < 4");
  ExpectMorselParity("SELECT k FROM big WHERE f > 2.5 AND k <= 40");
}

TEST_F(FusedParityTest, LiteralOnTheLeft) {
  // Mirrored comparisons and non-commutative arithmetic with the literal
  // on the left.
  ExpectMorselParity("SELECT k FROM big WHERE 10 > k AND 3 < k");
  ExpectMorselParity("SELECT 100 - k, 2 * v FROM big WHERE 0 <= v");
  ExpectMorselParity("SELECT 1 + k FROM big WHERE 32 >= k");
}

TEST_F(FusedParityTest, DictionaryPredicates) {
  ExpectMorselParity("SELECT tag, k FROM big WHERE tag >= 'beta'");
  ExpectMorselParity("SELECT k FROM big WHERE tag = 'omega'");
  // Absent literals: constant-false / constant-true lowerings.
  ExpectMorselParity("SELECT k FROM big WHERE tag = 'zzz'");
  ExpectMorselParity("SELECT k FROM big WHERE tag <> 'zzz'");
  ExpectMorselParity("SELECT k FROM big WHERE tag < 'aardvark'");
  // Literal on the left over dictionary codes.
  ExpectMorselParity("SELECT tag FROM big WHERE 'beta' <= tag");
  // Mixed string + numeric conjunction.
  ExpectMorselParity("SELECT k, v FROM big WHERE tag > 'beta' AND v > 0");
}

TEST_F(FusedParityTest, RuntimeFallbackCases) {
  // Parameters resolve from each run's bindings.
  ExpectMorselParity(
      "SELECT k, v FROM big WHERE v > ? AND k < ?",
      {exec::ScalarValue::Float(0.0), exec::ScalarValue::Int(40)});
  // Division yields float.
  ExpectMorselParity("SELECT v / 2, k FROM big WHERE v > 0");
  // A bare bool-column predicate.
  ExpectMorselParity("SELECT k FROM big WHERE flag");
  // Column-vs-column comparison.
  ExpectMorselParity("SELECT k FROM big WHERE v > f");
  // An OR tree.
  ExpectMorselParity("SELECT k FROM big WHERE k < 5 OR v > 90");
}

TEST_F(FusedParityTest, DegenerateShapes) {
  ExpectMorselParity("SELECT k + 1 FROM empty_t WHERE v > 0");
  // Predicate selecting nothing / everything.
  ExpectMorselParity("SELECT k, v FROM big WHERE v > 1000");
  ExpectMorselParity("SELECT k, v FROM big WHERE v >= -1000");
}

// ---- Join build-side reuse ------------------------------------------------

TEST_F(FusedParityTest, JoinBuildReusedAcrossRuns) {
  // `r` is far smaller than `big`, so the planner builds on it; the build
  // subtree is a bare cacheable scan.
  auto query = Compile("SELECT big.k, r.w FROM big JOIN r ON big.k = r.kr "
                       "WHERE r.w > 10");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const exec::PrimitiveCache& pc = (*query)->primitive_cache();

  exec::RunOptions run;
  auto first = (*query)->Run(run);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(pc.join_hits(), 0);
  const int64_t misses = pc.join_misses();
  EXPECT_GE(misses, 1);

  auto second = (*query)->Run(run);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(pc.join_hits(), 1);
  EXPECT_EQ(pc.join_misses(), misses);
  ExpectBitIdentical(**first, **second);
}

TEST_F(FusedParityTest, JoinCacheInvalidatedByReRegisteredTable) {
  auto query =
      Compile("SELECT big.k, r.w FROM big JOIN r ON big.k = r.kr");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const exec::PrimitiveCache& pc = (*query)->primitive_cache();

  ASSERT_TRUE((*query)->Run().ok());
  ASSERT_TRUE((*query)->Run().ok());
  EXPECT_EQ(pc.join_hits(), 1);
  const int64_t misses = pc.join_misses();

  // Swap the build table for fresh data: the table identity changes, so
  // the next run must rebuild — and reflect the new rows.
  Register("r", TableBuilder("r")
                    .AddInt64("kr", {1, 2, 3})
                    .AddFloat64("w", {10.0, 20.0, 30.0}));
  auto rebuilt = (*query)->Run();
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(pc.join_hits(), 1);
  EXPECT_GT(pc.join_misses(), misses);

  // The rebuilt result equals a from-scratch compile over the new catalog.
  auto fresh = RunWith("SELECT big.k, r.w FROM big JOIN r ON big.k = r.kr",
                       kWholeRelation);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectBitIdentical(**fresh, **rebuilt);
}

TEST_F(FusedParityTest, JoinCacheInvalidatedByDml) {
  ASSERT_TRUE(session_.Sql("CREATE TABLE jt (kr BIGINT, w DOUBLE)").ok());
  ASSERT_TRUE(
      session_.Sql("INSERT INTO jt VALUES (1, 5.0), (2, 6.0), (3, 7.0)")
          .ok());
  auto query =
      Compile("SELECT big.k, jt.w FROM big JOIN jt ON big.k = jt.kr");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const exec::PrimitiveCache& pc = (*query)->primitive_cache();

  ASSERT_TRUE((*query)->Run().ok());
  ASSERT_TRUE((*query)->Run().ok());
  EXPECT_EQ(pc.join_hits(), 1);

  // DML installs a fresh table: the cached build side must not survive.
  ASSERT_TRUE(session_.Sql("UPDATE jt SET w = w + 100").ok());
  auto updated = (*query)->Run();
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(pc.join_hits(), 1);

  auto fresh = RunWith("SELECT big.k, jt.w FROM big JOIN jt ON big.k = jt.kr",
                       kWholeRelation);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectBitIdentical(**fresh, **updated);
}

TEST_F(FusedParityTest, ParamBearingBuildSideNeverCached) {
  // The build subtree contains a `?` filter, so its result changes with
  // the bindings: the cache must not even attempt a lookup.
  auto query = Compile(
      "SELECT big.k, s.w FROM big JOIN "
      "(SELECT kr, w FROM r WHERE w > ?) s ON big.k = s.kr");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const exec::PrimitiveCache& pc = (*query)->primitive_cache();

  auto low = (*query)->Run({exec::ScalarValue::Float(5.0)});
  ASSERT_TRUE(low.ok()) << low.status().ToString();
  auto high = (*query)->Run({exec::ScalarValue::Float(40.0)});
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  EXPECT_EQ(pc.join_hits(), 0);
  EXPECT_EQ(pc.join_misses(), 0);

  // Each binding matches a from-scratch run with the same binding.
  auto fresh_low = RunWith(
      "SELECT big.k, s.w FROM big JOIN "
      "(SELECT kr, w FROM r WHERE w > ?) s ON big.k = s.kr",
      kWholeRelation, {exec::ScalarValue::Float(5.0)});
  ASSERT_TRUE(fresh_low.ok()) << fresh_low.status().ToString();
  ExpectBitIdentical(**fresh_low, **low);
  EXPECT_NE((*low)->num_rows(), (*high)->num_rows());
}

TEST_F(FusedParityTest, ScanTransferCachedAcrossRuns) {
  // Tables register on the CPU device and the session compiles for the
  // accel device, so every scan needs a device transfer; repeated runs
  // must reuse the moved columns instead of re-copying the table.
  auto query = Compile("SELECT kr, w FROM r WHERE w > 10");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const exec::PrimitiveCache& pc = (*query)->primitive_cache();

  exec::RunOptions run;
  auto first = (*query)->Run(run);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(pc.scan_hits(), 0);
  const int64_t misses = pc.scan_misses();
  EXPECT_GE(misses, 1);

  auto second = (*query)->Run(run);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(pc.scan_hits(), 1);
  EXPECT_EQ(pc.scan_misses(), misses);
  ExpectBitIdentical(**first, **second);
}

TEST_F(FusedParityTest, ScanCacheInvalidatedByReRegisteredTable) {
  auto query = Compile("SELECT kr, w FROM r WHERE w > 10");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const exec::PrimitiveCache& pc = (*query)->primitive_cache();

  ASSERT_TRUE((*query)->Run().ok());
  ASSERT_TRUE((*query)->Run().ok());
  EXPECT_EQ(pc.scan_hits(), 1);
  const int64_t misses = pc.scan_misses();

  // Swap the table for fresh data: identity changes, so the next run must
  // re-transfer — and read the new rows, not the cached copy.
  Register("r", TableBuilder("r")
                    .AddInt64("kr", {1, 2, 3})
                    .AddFloat64("w", {15.0, 5.0, 25.0}));
  auto refreshed = (*query)->Run();
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  EXPECT_EQ(pc.scan_hits(), 1);
  EXPECT_GT(pc.scan_misses(), misses);
  EXPECT_EQ((*refreshed)->num_rows(), 2);

  auto fresh = RunWith("SELECT kr, w FROM r WHERE w > 10", kWholeRelation);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectBitIdentical(**fresh, **refreshed);
}

}  // namespace
}  // namespace tdp
