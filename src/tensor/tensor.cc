#include "src/tensor/tensor.h"

#include <cstring>
#include <sstream>

#include "src/tensor/dispatch.h"

namespace tdp {

std::vector<int64_t> ContiguousStrides(const std::vector<int64_t>& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t stride = 1;
  for (int64_t i = static_cast<int64_t>(shape.size()) - 1; i >= 0; --i) {
    strides[static_cast<size_t>(i)] = stride;
    stride *= shape[static_cast<size_t>(i)];
  }
  return strides;
}

int64_t ShapeNumel(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

std::vector<int64_t> BroadcastShapes(const std::vector<int64_t>& a,
                                     const std::vector<int64_t>& b) {
  const size_t rank = std::max(a.size(), b.size());
  std::vector<int64_t> out(rank);
  for (size_t i = 0; i < rank; ++i) {
    const int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    const int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    TDP_CHECK(da == db || da == 1 || db == 1)
        << "cannot broadcast " << ShapeToString(a) << " with "
        << ShapeToString(b);
    // NumPy semantics: a size-1 dim stretches to the other dim — including
    // 0 (broadcasting against an empty tensor yields an empty result; a
    // predicate over an empty relation must produce an empty mask, not a
    // phantom row).
    out[i] = da == 1 ? db : da;
  }
  return out;
}

std::string ShapeToString(const std::vector<int64_t>& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

namespace {

std::shared_ptr<TensorImpl> MakeImpl(std::vector<int64_t> shape, DType dtype,
                                     Device device, bool zero) {
  auto impl = std::make_shared<TensorImpl>();
  impl->shape = std::move(shape);
  impl->strides = ContiguousStrides(impl->shape);
  impl->dtype = dtype;
  impl->device = device;
  impl->buffer =
      Buffer::Allocate(ShapeNumel(impl->shape) * DTypeSize(dtype), zero);
  return impl;
}

}  // namespace

Tensor Tensor::Empty(std::vector<int64_t> shape, DType dtype, Device device) {
  return Tensor(MakeImpl(std::move(shape), dtype, device, /*zero=*/false));
}

Tensor Tensor::Zeros(std::vector<int64_t> shape, DType dtype, Device device) {
  return Tensor(MakeImpl(std::move(shape), dtype, device, /*zero=*/true));
}

Tensor Tensor::Ones(std::vector<int64_t> shape, DType dtype, Device device) {
  return Full(std::move(shape), 1.0, dtype, device);
}

Tensor Tensor::Full(std::vector<int64_t> shape, double value, DType dtype,
                    Device device) {
  Tensor t = Empty(std::move(shape), dtype, device);
  const int64_t n = t.numel();
  TDP_DISPATCH_ALL(dtype, {
    scalar_t* p = t.data<scalar_t>();
    const scalar_t v = static_cast<scalar_t>(value);
    for (int64_t i = 0; i < n; ++i) p[i] = v;
  });
  return t;
}

Tensor Tensor::Arange(int64_t n, DType dtype, Device device) {
  Tensor t = Empty({n}, dtype, device);
  TDP_DISPATCH_NUMERIC(dtype, {
    scalar_t* p = t.data<scalar_t>();
    for (int64_t i = 0; i < n; ++i) p[i] = static_cast<scalar_t>(i);
  });
  return t;
}

Tensor Tensor::Scalar(double value, DType dtype, Device device) {
  return Full({}, value, dtype, device);
}

int64_t Tensor::size(int64_t d) const {
  const int64_t rank = dim();
  if (d < 0) d += rank;
  TDP_CHECK(d >= 0 && d < rank) << "dim " << d << " out of range for rank "
                                << rank;
  return impl_->shape[static_cast<size_t>(d)];
}

MemFormat Tensor::format() const {
  MemFormat f = impl_->format.load(std::memory_order_relaxed);
  if (f == MemFormat::kUnknown) {
    f = impl_->strides == ContiguousStrides(impl_->shape)
            ? MemFormat::kRowMajor
            : MemFormat::kStrided;
    impl_->format.store(f, std::memory_order_relaxed);
  }
  return f;
}

double Tensor::At(const std::vector<int64_t>& index) const {
  TDP_CHECK_EQ(static_cast<int64_t>(index.size()), dim());
  int64_t off = impl_->offset;
  for (size_t i = 0; i < index.size(); ++i) {
    TDP_DCHECK(index[i] >= 0 && index[i] < impl_->shape[i]);
    off += index[i] * impl_->strides[i];
  }
  double out = 0;
  TDP_DISPATCH_ALL(impl_->dtype, {
    out = static_cast<double>(
        reinterpret_cast<const scalar_t*>(impl_->buffer->data())[off]);
  });
  return out;
}

void Tensor::SetAt(const std::vector<int64_t>& index, double value) {
  TDP_CHECK_EQ(static_cast<int64_t>(index.size()), dim());
  int64_t off = impl_->offset;
  for (size_t i = 0; i < index.size(); ++i) {
    TDP_DCHECK(index[i] >= 0 && index[i] < impl_->shape[i]);
    off += index[i] * impl_->strides[i];
  }
  TDP_DISPATCH_ALL(impl_->dtype, {
    reinterpret_cast<scalar_t*>(impl_->buffer->data())[off] =
        static_cast<scalar_t>(value);
  });
}

namespace {

// Copies the logical elements of `src` (any strides) into the contiguous
// buffer of `dst`. Shapes must match; dtypes must match.
void StridedCopy(const TensorImpl& src, TensorImpl& dst) {
  const int64_t n = ShapeNumel(src.shape);
  if (n == 0) return;
  const size_t rank = src.shape.size();
  const int64_t esize = DTypeSize(src.dtype);
  const uint8_t* sbase = src.buffer->data() + src.offset * esize;
  uint8_t* dbase = dst.buffer->data() + dst.offset * esize;
  if (rank == 0) {
    std::memcpy(dbase, sbase, static_cast<size_t>(esize));
    return;
  }
  std::vector<int64_t> idx(rank, 0);
  int64_t soff = 0;
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(dbase + i * esize, sbase + soff * esize,
                static_cast<size_t>(esize));
    // Odometer increment over the logical index space.
    for (int64_t d = static_cast<int64_t>(rank) - 1; d >= 0; --d) {
      const size_t ud = static_cast<size_t>(d);
      ++idx[ud];
      soff += src.strides[ud];
      if (idx[ud] < src.shape[ud]) break;
      soff -= idx[ud] * src.strides[ud];
      idx[ud] = 0;
    }
  }
}

}  // namespace

Tensor Tensor::Contiguous() const {
  if (is_contiguous() && impl_->offset == 0 &&
      numel() * DTypeSize(dtype()) == impl_->buffer->size_bytes()) {
    return *this;
  }
  if (is_contiguous()) {
    // A contiguous window into a larger buffer: cheap memcpy. Zero-size
    // views skip it — an empty buffer's data pointer may be null, and
    // memcpy(null, null, 0) is still UB (the pointers are declared
    // nonnull).
    Tensor out = Empty(shape(), dtype(), device());
    if (numel() > 0) {
      std::memcpy(out.impl()->buffer->data(),
                  impl_->buffer->data() + impl_->offset * DTypeSize(dtype()),
                  static_cast<size_t>(numel() * DTypeSize(dtype())));
    }
    out.impl()->requires_grad = impl_->requires_grad;
    out.impl()->grad_fn = impl_->grad_fn;
    return out;
  }
  Tensor out = Empty(shape(), dtype(), device());
  StridedCopy(*impl_, *out.impl());
  out.impl()->requires_grad = impl_->requires_grad;
  out.impl()->grad_fn = impl_->grad_fn;
  return out;
}

Tensor Tensor::RowMajor() const {
  if (format() == MemFormat::kRowMajor) return *this;
  return Clone();
}

Tensor Tensor::Clone() const {
  Tensor out = Empty(shape(), dtype(), device());
  StridedCopy(*impl_, *out.impl());
  return out;
}

Tensor Tensor::To(Device device) const {
  if (device == impl_->device) return *this;
  Tensor out = Clone();
  out.impl()->device = device;
  return out;
}

Tensor Tensor::To(DType new_dtype) const {
  if (new_dtype == impl_->dtype) return *this;
  Tensor src = Contiguous();
  Tensor out = Empty(shape(), new_dtype, device());
  const int64_t n = numel();
  TDP_DISPATCH_ALL(new_dtype, {
    using dst_t = scalar_t;
    dst_t* dp = out.data<dst_t>();
    TDP_DISPATCH_ALL(src.dtype(), {
      const scalar_t* sp = src.data<scalar_t>();
      for (int64_t i = 0; i < n; ++i) dp[i] = static_cast<dst_t>(sp[i]);
    });
  });
  return out;
}

Tensor& Tensor::set_requires_grad(bool value) {
  TDP_CHECK(!value || IsFloatingPoint(impl_->dtype))
      << "only floating-point tensors can require grad";
  impl_->requires_grad = value;
  return *this;
}

Tensor Tensor::grad() const {
  return impl_->grad ? Tensor(impl_->grad) : Tensor();
}

void Tensor::set_grad(const Tensor& g) const { impl_->grad = g.impl(); }

void Tensor::AccumulateGrad(const Tensor& g) const {
  TDP_CHECK(g.defined());
  if (!impl_->grad) {
    impl_->grad = g.Clone().impl();
    return;
  }
  // grad += g, elementwise in place (shapes must match exactly).
  Tensor grad_t(impl_->grad);
  TDP_CHECK(grad_t.shape() == g.shape())
      << "grad shape mismatch: " << ShapeToString(grad_t.shape()) << " vs "
      << ShapeToString(g.shape());
  Tensor gc = g.Contiguous();
  const int64_t n = grad_t.numel();
  TDP_DISPATCH_FLOAT(grad_t.dtype(), {
    scalar_t* a = grad_t.data<scalar_t>();
    const scalar_t* b = gc.data<scalar_t>();
    for (int64_t i = 0; i < n; ++i) a[i] += b[i];
  });
}

void Tensor::ZeroGrad() const { impl_->grad = nullptr; }

void Tensor::set_grad_fn(std::shared_ptr<autograd::Node> node) {
  impl_->grad_fn = std::move(node);
}

Tensor Tensor::Detach() const {
  auto impl = std::make_shared<TensorImpl>(*impl_);
  impl->requires_grad = false;
  impl->grad_fn = nullptr;
  impl->grad = nullptr;
  return Tensor(std::move(impl));
}

std::string Tensor::ToString() const {
  if (!defined()) return "Tensor(undefined)";
  std::ostringstream os;
  os << "Tensor(" << DTypeName(dtype()) << ", " << ShapeToString(shape())
     << ", " << DeviceName(device()) << ")";
  const int64_t n = numel();
  if (n <= 64 && dim() <= 2) {
    os << " [";
    if (dim() <= 1) {
      for (int64_t i = 0; i < n; ++i) {
        if (i > 0) os << ", ";
        os << At(dim() == 0 ? std::vector<int64_t>{}
                            : std::vector<int64_t>{i});
      }
    } else {
      for (int64_t r = 0; r < size(0); ++r) {
        if (r > 0) os << "; ";
        for (int64_t c = 0; c < size(1); ++c) {
          if (c > 0) os << ", ";
          os << At({r, c});
        }
      }
    }
    os << "]";
  }
  return os.str();
}

}  // namespace tdp
