#include <cstring>

#include "src/autograd/node.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/ops.h"
#include "src/tensor/ops_internal.h"

namespace tdp {
namespace {

using internal_ops::NormalizeDim;

// Makes a view impl sharing the buffer of `t` with new geometry.
Tensor MakeView(const Tensor& t, std::vector<int64_t> shape,
                std::vector<int64_t> strides, int64_t offset) {
  auto impl = std::make_shared<TensorImpl>();
  impl->buffer = t.impl()->buffer;
  impl->shape = std::move(shape);
  impl->strides = std::move(strides);
  impl->offset = offset;
  impl->dtype = t.dtype();
  impl->device = t.device();
  return Tensor(std::move(impl));
}

std::vector<int64_t> ResolveReshape(const Tensor& t,
                                    std::vector<int64_t> shape) {
  int64_t known = 1;
  int64_t infer = -1;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      TDP_CHECK_EQ(infer, -1) << "at most one -1 dim in Reshape";
      infer = static_cast<int64_t>(i);
    } else {
      TDP_CHECK_GE(shape[i], 0);
      known *= shape[i];
    }
  }
  if (infer >= 0) {
    TDP_CHECK(known != 0 && t.numel() % known == 0)
        << "cannot infer reshape dim";
    shape[static_cast<size_t>(infer)] = t.numel() / known;
  }
  TDP_CHECK_EQ(ShapeNumel(shape), t.numel())
      << "reshape " << ShapeToString(t.shape()) << " -> "
      << ShapeToString(shape);
  return shape;
}

}  // namespace

Tensor Reshape(const Tensor& t, std::vector<int64_t> shape) {
  shape = ResolveReshape(t, std::move(shape));
  Tensor base = t.is_contiguous() ? t : t.Contiguous();
  Tensor out =
      MakeView(base, shape, ContiguousStrides(shape), base.offset());
  autograd::RecordOp("Reshape", {t}, out, [t](const Tensor& g) {
    return std::vector<Tensor>{Reshape(g, t.shape())};
  });
  return out;
}

Tensor Transpose(const Tensor& t, int64_t d0, int64_t d1) {
  const int64_t a = NormalizeDim(d0, t.dim());
  const int64_t b = NormalizeDim(d1, t.dim());
  std::vector<int64_t> shape = t.shape();
  std::vector<int64_t> strides = t.strides();
  std::swap(shape[static_cast<size_t>(a)], shape[static_cast<size_t>(b)]);
  std::swap(strides[static_cast<size_t>(a)], strides[static_cast<size_t>(b)]);
  Tensor out = MakeView(t, std::move(shape), std::move(strides), t.offset());
  autograd::RecordOp("Transpose", {t}, out, [a, b](const Tensor& g) {
    return std::vector<Tensor>{Transpose(g, a, b)};
  });
  return out;
}

Tensor Permute(const Tensor& t, std::vector<int64_t> dims) {
  TDP_CHECK_EQ(static_cast<int64_t>(dims.size()), t.dim());
  std::vector<int64_t> shape(dims.size());
  std::vector<int64_t> strides(dims.size());
  std::vector<bool> seen(dims.size(), false);
  for (size_t i = 0; i < dims.size(); ++i) {
    const int64_t d = NormalizeDim(dims[i], t.dim());
    TDP_CHECK(!seen[static_cast<size_t>(d)]) << "duplicate dim in Permute";
    seen[static_cast<size_t>(d)] = true;
    shape[i] = t.shape()[static_cast<size_t>(d)];
    strides[i] = t.strides()[static_cast<size_t>(d)];
    dims[i] = d;
  }
  Tensor out = MakeView(t, std::move(shape), std::move(strides), t.offset());
  autograd::RecordOp("Permute", {t}, out, [dims](const Tensor& g) {
    std::vector<int64_t> inverse(dims.size());
    for (size_t i = 0; i < dims.size(); ++i) {
      inverse[static_cast<size_t>(dims[i])] = static_cast<int64_t>(i);
    }
    return std::vector<Tensor>{Permute(g, inverse)};
  });
  return out;
}

Tensor Slice(const Tensor& t, int64_t dim, int64_t start, int64_t length) {
  const int64_t d = NormalizeDim(dim, t.dim());
  TDP_CHECK(start >= 0 && length >= 0 && start + length <= t.size(d))
      << "slice [" << start << ", " << start + length << ") out of range for "
      << "dim of size " << t.size(d);
  std::vector<int64_t> shape = t.shape();
  shape[static_cast<size_t>(d)] = length;
  const int64_t offset =
      t.offset() + start * t.strides()[static_cast<size_t>(d)];
  Tensor out = MakeView(t, std::move(shape), t.strides(), offset);
  autograd::RecordOp("Slice", {t}, out, [t, d, start](const Tensor& g) {
    // Embed the gradient back into a zero tensor of the input shape.
    Tensor grad_in = Tensor::Zeros(t.shape(), g.dtype(), g.device());
    Tensor window = Slice(grad_in, d, start, g.size(d));
    // Copy g into the (strided) window.
    const Tensor gc = g.Contiguous();
    internal_ops::OffsetIterator it(window.shape(), {window.strides()});
    const int64_t n = gc.numel();
    TDP_DISPATCH_FLOAT(g.dtype(), {
      const scalar_t* gp = gc.data<scalar_t>();
      scalar_t* wp = window.data<scalar_t>();
      for (int64_t i = 0; i < n; ++i, it.Next()) wp[it.offset(0)] = gp[i];
    });
    return std::vector<Tensor>{grad_in};
  });
  return out;
}

Tensor Squeeze(const Tensor& t, int64_t dim) {
  const int64_t d = NormalizeDim(dim, t.dim());
  TDP_CHECK_EQ(t.size(d), 1) << "Squeeze of non-unit dim";
  std::vector<int64_t> shape = t.shape();
  std::vector<int64_t> strides = t.strides();
  shape.erase(shape.begin() + d);
  strides.erase(strides.begin() + d);
  Tensor out = MakeView(t, std::move(shape), std::move(strides), t.offset());
  autograd::RecordOp("Squeeze", {t}, out, [d](const Tensor& g) {
    return std::vector<Tensor>{Unsqueeze(g, d)};
  });
  return out;
}

Tensor Unsqueeze(const Tensor& t, int64_t dim) {
  const int64_t rank = t.dim();
  int64_t d = dim < 0 ? dim + rank + 1 : dim;
  TDP_CHECK(d >= 0 && d <= rank);
  std::vector<int64_t> shape = t.shape();
  std::vector<int64_t> strides = t.strides();
  shape.insert(shape.begin() + d, 1);
  // Stride value for a unit dim is arbitrary; use the next dim's extent.
  const int64_t stride =
      d < rank ? strides[static_cast<size_t>(d)] *
                     1  // any value works; keep neighbor stride
               : 1;
  strides.insert(strides.begin() + d, stride);
  Tensor out = MakeView(t, std::move(shape), std::move(strides), t.offset());
  autograd::RecordOp("Unsqueeze", {t}, out, [d](const Tensor& g) {
    return std::vector<Tensor>{Squeeze(g, d)};
  });
  return out;
}

Tensor Expand(const Tensor& t, std::vector<int64_t> shape) {
  const std::vector<int64_t> out_shape = BroadcastShapes(t.shape(), shape);
  TDP_CHECK(out_shape == shape)
      << "Expand target " << ShapeToString(shape) << " incompatible with "
      << ShapeToString(t.shape());
  std::vector<int64_t> strides = internal_ops::BroadcastStrides(
      t.shape(), t.strides(), shape);
  Tensor out = MakeView(t, shape, std::move(strides), t.offset());
  autograd::RecordOp("Expand", {t}, out, [t](const Tensor& g) {
    return std::vector<Tensor>{ReduceGradToShape(g, t.shape())};
  });
  return out;
}

Tensor Cat(const std::vector<Tensor>& tensors, int64_t dim) {
  TDP_CHECK(!tensors.empty());
  const int64_t d = NormalizeDim(dim, tensors[0].dim());
  std::vector<int64_t> out_shape = tensors[0].shape();
  int64_t total = 0;
  for (const Tensor& t : tensors) {
    TDP_CHECK_EQ(t.dim(), tensors[0].dim());
    TDP_CHECK(t.dtype() == tensors[0].dtype());
    for (int64_t i = 0; i < t.dim(); ++i) {
      if (i != d) TDP_CHECK_EQ(t.size(i), tensors[0].size(i));
    }
    total += t.size(d);
  }
  out_shape[static_cast<size_t>(d)] = total;
  Tensor out = Tensor::Empty(out_shape, tensors[0].dtype(),
                             tensors[0].device());
  // The output is contiguous: `outer` rows (the dims before `d`), each
  // holding every input's slab of size(d) x `inner` elements back to back.
  // A contiguous input holds its slabs back to back too, so it copies as
  // `outer` memcpys — a single one when every dim before `d` has size 1.
  int64_t outer = 1, inner = 1;
  for (int64_t i = 0; i < d; ++i) outer *= out_shape[static_cast<size_t>(i)];
  for (int64_t i = d + 1; i < static_cast<int64_t>(out_shape.size()); ++i) {
    inner *= out_shape[static_cast<size_t>(i)];
  }
  const int64_t esize = DTypeSize(out.dtype());
  const int64_t row_bytes = total * inner * esize;
  int64_t cursor = 0;  // bytes into each output row
  for (const Tensor& t : tensors) {
    const int64_t slab = t.size(d) * inner * esize;
    // Zero-size copies are skipped: an empty buffer's pointer may be null.
    if (slab > 0 && outer > 0) {
      const Tensor src = t.is_contiguous() ? t : t.Detach().Contiguous();
      const uint8_t* sp = src.impl()->buffer->data() + src.offset() * esize;
      uint8_t* dp = out.impl()->buffer->data() + cursor;
      for (int64_t o = 0; o < outer; ++o) {
        std::memcpy(dp + o * row_bytes, sp + o * slab,
                    static_cast<size_t>(slab));
      }
    }
    cursor += slab;
  }
  autograd::RecordOp("Cat", tensors, out, [tensors, d](const Tensor& g) {
    std::vector<Tensor> grads;
    grads.reserve(tensors.size());
    int64_t start = 0;
    for (const Tensor& t : tensors) {
      grads.push_back(Slice(g, d, start, t.size(d)).Contiguous());
      start += t.size(d);
    }
    return grads;
  });
  return out;
}

Tensor Stack(const std::vector<Tensor>& tensors, int64_t dim) {
  TDP_CHECK(!tensors.empty());
  std::vector<Tensor> unsqueezed;
  unsqueezed.reserve(tensors.size());
  for (const Tensor& t : tensors) unsqueezed.push_back(Unsqueeze(t, dim));
  return Cat(unsqueezed, dim);
}

// ---- Tensor convenience methods (declared in tensor.h) --------------------

Tensor Tensor::Reshape(std::vector<int64_t> shape) const {
  return ::tdp::Reshape(*this, std::move(shape));
}
Tensor Tensor::Transpose(int64_t d0, int64_t d1) const {
  return ::tdp::Transpose(*this, d0, d1);
}
Tensor Tensor::Permute(std::vector<int64_t> dims) const {
  return ::tdp::Permute(*this, std::move(dims));
}
Tensor Tensor::Slice(int64_t dim, int64_t start, int64_t length) const {
  return ::tdp::Slice(*this, dim, start, length);
}
Tensor Tensor::Squeeze(int64_t dim) const {
  return ::tdp::Squeeze(*this, dim);
}
Tensor Tensor::Unsqueeze(int64_t dim) const {
  return ::tdp::Unsqueeze(*this, dim);
}
Tensor Tensor::Expand(std::vector<int64_t> shape) const {
  return ::tdp::Expand(*this, std::move(shape));
}

}  // namespace tdp
