#ifndef TDP_TENSOR_TENSOR_H_
#define TDP_TENSOR_TENSOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/tensor/buffer.h"
#include "src/tensor/device.h"
#include "src/tensor/dtype.h"

namespace tdp {

namespace autograd {
class Node;
}  // namespace autograd

class Tensor;

/// Memory-format tag carried by every tensor: how the viewed elements are
/// laid out relative to the logical (row-major) element order. Ops that
/// want a dense scan request `kRowMajor` via `Tensor::RowMajor()`, which
/// copies only strided views.
enum class MemFormat : uint8_t {
  /// Dense C-order strides: linear pointer walks visit elements in
  /// logical order. (The view may still start at a nonzero offset.)
  kRowMajor = 0,
  /// Any other stride pattern: transposes, broadcasts, inner slices.
  kStrided = 1,
  /// Not classified yet; resolved lazily on first query.
  kUnknown = 2,
};

/// Shared state behind a `Tensor` handle: storage view (buffer + shape +
/// strides + offset) plus autograd metadata. Multiple `Tensor` handles and
/// views may alias one buffer.
struct TensorImpl {
  std::shared_ptr<Buffer> buffer;
  std::vector<int64_t> shape;
  std::vector<int64_t> strides;  // in elements, row-major by default
  int64_t offset = 0;            // in elements
  DType dtype = DType::kFloat32;
  Device device = Device::kCpu;

  // Autograd state. `grad` uses TensorImpl to avoid a circular definition.
  bool requires_grad = false;
  std::shared_ptr<TensorImpl> grad;
  std::shared_ptr<autograd::Node> grad_fn;

  /// Cached memory-format classification of (shape, strides). Geometry is
  /// immutable after construction, so the tag is computed at most once
  /// (lazily, by `Tensor::format()`); atomic so concurrent first queries
  /// are race-free.
  mutable std::atomic<MemFormat> format{MemFormat::kUnknown};

  TensorImpl() = default;
  TensorImpl(const TensorImpl& other)
      : buffer(other.buffer),
        shape(other.shape),
        strides(other.strides),
        offset(other.offset),
        dtype(other.dtype),
        device(other.device),
        requires_grad(other.requires_grad),
        grad(other.grad),
        grad_fn(other.grad_fn),
        format(other.format.load(std::memory_order_relaxed)) {}
};

/// Computes the row-major (C-order) strides for `shape`.
std::vector<int64_t> ContiguousStrides(const std::vector<int64_t>& shape);

/// Product of dims; 1 for rank-0.
int64_t ShapeNumel(const std::vector<int64_t>& shape);

/// NumPy-style broadcast of two shapes. Fatal if incompatible.
std::vector<int64_t> BroadcastShapes(const std::vector<int64_t>& a,
                                     const std::vector<int64_t>& b);

/// Renders e.g. "[3, 4]".
std::string ShapeToString(const std::vector<int64_t>& shape);

/// N-dimensional tensor handle with value semantics (copies share storage,
/// like PyTorch). The tensor runtime is TDP's core data abstraction: every
/// relational column, image batch, probability encoding, model weight and
/// intermediate query result is a `Tensor`.
///
/// Operations live in `src/tensor/ops.h` as free functions; differentiable
/// ones record an autograd graph when any input `requires_grad()`.
class Tensor {
 public:
  /// Null handle; `defined()` is false.
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  // ---- Factories -------------------------------------------------------

  /// Uninitialized contents.
  static Tensor Empty(std::vector<int64_t> shape,
                      DType dtype = DType::kFloat32,
                      Device device = Device::kCpu);
  static Tensor Zeros(std::vector<int64_t> shape,
                      DType dtype = DType::kFloat32,
                      Device device = Device::kCpu);
  static Tensor Ones(std::vector<int64_t> shape,
                     DType dtype = DType::kFloat32,
                     Device device = Device::kCpu);
  static Tensor Full(std::vector<int64_t> shape, double value,
                     DType dtype = DType::kFloat32,
                     Device device = Device::kCpu);
  /// 1-d tensor [0, 1, ..., n-1].
  static Tensor Arange(int64_t n, DType dtype = DType::kInt64,
                       Device device = Device::kCpu);
  /// Rank-0 scalar.
  static Tensor Scalar(double value, DType dtype = DType::kFloat32,
                       Device device = Device::kCpu);

  /// Copies `values` into a fresh tensor of `shape` (or 1-d when omitted).
  template <typename T>
  static Tensor FromVector(const std::vector<T>& values,
                           std::vector<int64_t> shape = {},
                           Device device = Device::kCpu) {
    if (shape.empty()) shape = {static_cast<int64_t>(values.size())};
    TDP_CHECK_EQ(static_cast<int64_t>(values.size()), ShapeNumel(shape));
    Tensor t = Empty(std::move(shape), DTypeOf<T>::value, device);
    T* out = t.data<T>();
    for (size_t i = 0; i < values.size(); ++i) out[i] = values[i];
    return t;
  }

  // ---- Metadata --------------------------------------------------------

  bool defined() const { return impl_ != nullptr; }
  const std::vector<int64_t>& shape() const { return impl_->shape; }
  const std::vector<int64_t>& strides() const { return impl_->strides; }
  int64_t offset() const { return impl_->offset; }
  int64_t dim() const { return static_cast<int64_t>(impl_->shape.size()); }
  /// Size of dimension `d`; negative `d` counts from the end.
  int64_t size(int64_t d) const;
  int64_t numel() const { return ShapeNumel(impl_->shape); }
  DType dtype() const { return impl_->dtype; }
  Device device() const { return impl_->device; }
  bool is_contiguous() const { return format() == MemFormat::kRowMajor; }
  /// Memory-format tag (cached; computed once per impl).
  MemFormat format() const;

  // ---- Raw data access -------------------------------------------------

  /// Pointer to the first viewed element. The view may be non-contiguous;
  /// use `strides()` or call `Contiguous()` first for linear scans.
  template <typename T>
  T* data() {
    TDP_DCHECK(DTypeOf<T>::value == impl_->dtype);
    return reinterpret_cast<T*>(impl_->buffer->data()) + impl_->offset;
  }
  template <typename T>
  const T* data() const {
    TDP_DCHECK(DTypeOf<T>::value == impl_->dtype);
    return reinterpret_cast<const T*>(impl_->buffer->data()) + impl_->offset;
  }

  /// Value of a single-element tensor, converted to T.
  template <typename T>
  T item() const;

  /// Copies out all elements in row-major logical order (strides honored).
  template <typename T>
  std::vector<T> ToVector() const;

  /// Element at multi-dim `index`, as double (any numeric dtype).
  double At(const std::vector<int64_t>& index) const;
  /// Sets element at `index` from double.
  void SetAt(const std::vector<int64_t>& index, double value);

  // ---- Layout / copies ---------------------------------------------------

  /// Same-contents tensor with contiguous layout (no-op if already).
  Tensor Contiguous() const;
  /// The tensor in `kRowMajor` format: `*this` when already row-major
  /// (a window into a larger buffer included, unlike `Contiguous()`),
  /// otherwise a fresh, detached row-major copy of the view. The copy is
  /// taken on every call, so it always reflects the storage's current
  /// contents, in-place optimizer steps included.
  Tensor RowMajor() const;
  /// Deep copy, contiguous; drops autograd history.
  Tensor Clone() const;
  /// The same view (buffer, strides, offset) tagged for `device`, so ops
  /// on it run `device`'s kernels; no bytes are copied, since both
  /// backends read host memory. Like `Detach()`, the result has no
  /// autograd history. `*this` when already on `device`.
  Tensor To(Device device) const;
  /// Casts to `dtype` (copy). Not differentiable.
  Tensor To(DType dtype) const;

  // ---- Views (implemented in ops_shape.cc; differentiable) ---------------

  Tensor Reshape(std::vector<int64_t> shape) const;
  Tensor Transpose(int64_t d0, int64_t d1) const;
  Tensor Permute(std::vector<int64_t> dims) const;
  /// Narrows dimension `dim` to [start, start+length).
  Tensor Slice(int64_t dim, int64_t start, int64_t length) const;
  Tensor Squeeze(int64_t dim) const;
  Tensor Unsqueeze(int64_t dim) const;
  /// Broadcasts to `shape` using zero strides (view, read-only semantics).
  Tensor Expand(std::vector<int64_t> shape) const;

  // ---- Autograd ----------------------------------------------------------

  bool requires_grad() const { return impl_->requires_grad; }
  /// Marks this tensor as a leaf variable whose gradient is wanted.
  Tensor& set_requires_grad(bool value);
  /// Accumulated gradient (undefined handle if none yet).
  Tensor grad() const;
  void set_grad(const Tensor& g) const;
  /// grad += g (allocating zeros first if absent). Mutates the shared impl,
  /// so usable through const handles (autograd engine).
  void AccumulateGrad(const Tensor& g) const;
  void ZeroGrad() const;
  const std::shared_ptr<autograd::Node>& grad_fn() const {
    return impl_->grad_fn;
  }
  void set_grad_fn(std::shared_ptr<autograd::Node> node);
  /// Same data, detached from the autograd graph.
  Tensor Detach() const;
  /// Runs reverse-mode autodiff from this (scalar) tensor; accumulates
  /// into `grad()` of all reachable leaves. Defined in autograd/engine.cc.
  void Backward() const;

  /// Debug rendering: dtype, shape, and (small tensors) elements.
  std::string ToString() const;

  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

 private:
  std::shared_ptr<TensorImpl> impl_;
};

// ---- Inline template definitions ----------------------------------------

template <typename T>
T Tensor::item() const {
  TDP_CHECK_EQ(numel(), 1);
  return static_cast<T>(At(std::vector<int64_t>(shape().size(), 0)));
}

template <typename T>
std::vector<T> Tensor::ToVector() const {
  Tensor c = Contiguous();
  const T* p = c.data<T>();
  return std::vector<T>(p, p + c.numel());
}

}  // namespace tdp

#endif  // TDP_TENSOR_TENSOR_H_
