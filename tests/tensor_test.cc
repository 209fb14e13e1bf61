#include "src/tensor/tensor.h"

#include <gtest/gtest.h>

#include "src/tensor/ops.h"

namespace tdp {
namespace {

TEST(TensorTest, FactoriesAndMetadata) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.dim(), 2);
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.size(0), 2);
  EXPECT_EQ(z.size(-1), 3);
  EXPECT_EQ(z.dtype(), DType::kFloat32);
  EXPECT_TRUE(z.is_contiguous());
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 3; ++c) EXPECT_EQ(z.At({r, c}), 0.0);
  }

  Tensor ones = Tensor::Ones({4}, DType::kInt64);
  EXPECT_EQ(ones.At({2}), 1.0);
  EXPECT_EQ(Tensor::Scalar(7, DType::kInt64).item<int64_t>(), 7);
}

TEST(TensorTest, FullAndArange) {
  Tensor f = Tensor::Full({2, 2}, 3.5);
  EXPECT_FLOAT_EQ(static_cast<float>(f.At({1, 1})), 3.5f);
  Tensor a = Tensor::Arange(5);
  EXPECT_EQ(a.dtype(), DType::kInt64);
  const std::vector<int64_t> v = a.ToVector<int64_t>();
  EXPECT_EQ(v, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(TensorTest, FromVectorRoundTrip) {
  const std::vector<float> data = {1.f, 2.f, 3.f, 4.f, 5.f, 6.f};
  Tensor t = Tensor::FromVector(data, {2, 3});
  EXPECT_EQ(t.ToVector<float>(), data);
  EXPECT_EQ(t.At({1, 2}), 6.0);
}

TEST(TensorTest, CloneIsDeep) {
  Tensor a = Tensor::FromVector(std::vector<float>{1, 2, 3});
  Tensor b = a.Clone();
  b.data<float>()[0] = 99;
  EXPECT_EQ(a.At({0}), 1.0);
  EXPECT_EQ(b.At({0}), 99.0);
}

TEST(TensorTest, HandleSharesStorage) {
  Tensor a = Tensor::FromVector(std::vector<float>{1, 2, 3});
  Tensor b = a;  // handle copy
  b.data<float>()[0] = 42;
  EXPECT_EQ(a.At({0}), 42.0);
}

TEST(TensorTest, CastPreservesValues) {
  Tensor a = Tensor::FromVector(std::vector<float>{1.9f, -2.1f, 3.0f});
  Tensor i = a.To(DType::kInt64);
  EXPECT_EQ(i.ToVector<int64_t>(), (std::vector<int64_t>{1, -2, 3}));
  Tensor d = a.To(DType::kFloat64);
  EXPECT_DOUBLE_EQ(d.At({0}), static_cast<double>(1.9f));
}

TEST(TensorTest, TransposeIsViewAndContiguousCopies) {
  Tensor t = Tensor::FromVector(std::vector<float>{1, 2, 3, 4, 5, 6}, {2, 3});
  Tensor tt = t.Transpose(0, 1);
  EXPECT_EQ(tt.shape(), (std::vector<int64_t>{3, 2}));
  EXPECT_FALSE(tt.is_contiguous());
  EXPECT_EQ(tt.At({2, 1}), 6.0);
  Tensor c = tt.Contiguous();
  EXPECT_TRUE(c.is_contiguous());
  EXPECT_EQ(c.ToVector<float>(), (std::vector<float>{1, 4, 2, 5, 3, 6}));
}

TEST(TensorTest, SliceViewsShareBuffer) {
  Tensor t = Tensor::Arange(10, DType::kFloat32);
  Tensor s = t.Slice(0, 3, 4);
  EXPECT_EQ(s.numel(), 4);
  EXPECT_EQ(s.At({0}), 3.0);
  s.SetAt({0}, 100.0);
  EXPECT_EQ(t.At({3}), 100.0) << "slice must alias the parent buffer";
}

TEST(TensorTest, ReshapeInfersDim) {
  Tensor t = Tensor::Arange(12, DType::kFloat32);
  Tensor r = t.Reshape({3, -1});
  EXPECT_EQ(r.shape(), (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(r.At({2, 3}), 11.0);
}

TEST(TensorTest, ExpandBroadcastsWithZeroStride) {
  Tensor t = Tensor::FromVector(std::vector<float>{1, 2, 3}, {1, 3});
  Tensor e = t.Expand({4, 3});
  EXPECT_EQ(e.shape(), (std::vector<int64_t>{4, 3}));
  EXPECT_EQ(e.At({3, 2}), 3.0);
  EXPECT_EQ(e.Contiguous().numel(), 12);
}

TEST(TensorTest, PermuteAndSqueezeUnsqueeze) {
  Tensor t = Tensor::Arange(24, DType::kFloat32).Reshape({2, 3, 4});
  Tensor p = t.Permute({2, 0, 1});
  EXPECT_EQ(p.shape(), (std::vector<int64_t>{4, 2, 3}));
  EXPECT_EQ(p.At({3, 1, 2}), t.At({1, 2, 3}));
  Tensor u = t.Unsqueeze(1);
  EXPECT_EQ(u.shape(), (std::vector<int64_t>{2, 1, 3, 4}));
  EXPECT_EQ(u.Squeeze(1).shape(), t.shape());
}

TEST(TensorTest, BroadcastShapesRules) {
  EXPECT_EQ(BroadcastShapes({2, 3}, {3}), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(BroadcastShapes({4, 1}, {1, 5}), (std::vector<int64_t>{4, 5}));
  EXPECT_EQ(BroadcastShapes({}, {2}), (std::vector<int64_t>{2}));
}

TEST(TensorTest, DevicesCarryThroughOps) {
  Tensor a = Tensor::Ones({3}).To(Device::kAccel);
  EXPECT_EQ(a.device(), Device::kAccel);
  Tensor b = Add(a, a);
  EXPECT_EQ(b.device(), Device::kAccel);
}

TEST(TensorTest, ToDeviceRetagsTheSameView) {
  Tensor base =
      Tensor::FromVector(std::vector<float>{1, 2, 3, 4, 5, 6}, {2, 3});
  base.set_requires_grad(true);
  // A strided view at a nonzero offset, with autograd history.
  const Tensor view = base.Transpose(0, 1).Slice(0, 1, 2);
  ASSERT_FALSE(view.is_contiguous());
  ASSERT_NE(view.offset(), 0);
  ASSERT_NE(view.grad_fn(), nullptr);

  const Tensor moved = view.To(Device::kAccel);
  EXPECT_EQ(moved.device(), Device::kAccel);
  EXPECT_EQ(view.device(), Device::kCpu);
  EXPECT_EQ(moved.impl()->buffer, base.impl()->buffer);
  EXPECT_EQ(moved.shape(), view.shape());
  EXPECT_EQ(moved.strides(), view.strides());
  EXPECT_EQ(moved.offset(), view.offset());
  EXPECT_EQ(moved.grad_fn(), nullptr);
  EXPECT_FALSE(moved.requires_grad());
  EXPECT_EQ(moved.ToVector<float>(), view.ToVector<float>());
  // Already on the device: the handle itself.
  EXPECT_EQ(moved.To(Device::kAccel).impl(), moved.impl());
}

}  // namespace
}  // namespace tdp
