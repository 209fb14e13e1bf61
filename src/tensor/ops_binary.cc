#include <cmath>
#include <functional>
#include <type_traits>

#include "src/autograd/node.h"
#include "src/common/thread_pool.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/ops.h"
#include "src/tensor/ops_internal.h"

namespace tdp {

namespace internal_ops {

Device CommonDevice(const std::vector<Tensor>& inputs) {
  Device device = Device::kCpu;
  bool first = true;
  for (const Tensor& t : inputs) {
    if (!t.defined()) continue;
    if (first) {
      device = t.device();
      first = false;
    } else {
      TDP_CHECK(t.device() == device) << "inputs on different devices";
    }
  }
  return device;
}

}  // namespace internal_ops

namespace {

using internal_ops::BroadcastStrides;
using internal_ops::ForEachRowSegment;
using internal_ops::OffsetIterator;

enum class BinKind {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kFmod,
  kMax,
  kMin,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

bool IsComparison(BinKind kind) {
  return kind == BinKind::kEq || kind == BinKind::kNe ||
         kind == BinKind::kLt || kind == BinKind::kLe ||
         kind == BinKind::kGt || kind == BinKind::kGe;
}


// Accelerated backend: templated inner loops; contiguous same-shape inputs
// take a branch-free tight loop, a single-element operand (scalar literal
// against a column — every `col <op> constant` predicate and projection)
// is hoisted out of a tight loop over the other side, and anything else
// walks row segments: an odometer over the outer dims and a tight loop
// along the innermost one, specialized where each operand's innermost
// stride is 0 or 1 (row, column and bias broadcasts). All paths apply the
// same per-element `f`, so results are bit-identical whichever fires.
template <typename T, typename OutT, typename F>
void AccelLoop(const Tensor& a, const Tensor& b, Tensor& out,
               const std::vector<int64_t>& out_shape, F f) {
  OutT* op = out.data<OutT>();
  const int64_t n = out.numel();
  const bool fast = a.is_contiguous() && b.is_contiguous() &&
                    a.shape() == out_shape && b.shape() == out_shape;
  if (fast) {
    const T* ap = a.data<T>();
    const T* bp = b.data<T>();
    ParallelFor(0, n, GrainForCost(1),
                [op, ap, bp, &f](int64_t shard_begin, int64_t shard_end) {
                  for (int64_t i = shard_begin; i < shard_end; ++i) {
                    op[i] = f(ap[i], bp[i]);
                  }
                });
    return;
  }
  if (b.numel() == 1 && a.is_contiguous() && a.shape() == out_shape) {
    const T* ap = a.data<T>();
    const T bv = *b.data<T>();
    ParallelFor(0, n, GrainForCost(1),
                [op, ap, bv, &f](int64_t shard_begin, int64_t shard_end) {
                  for (int64_t i = shard_begin; i < shard_end; ++i) {
                    op[i] = f(ap[i], bv);
                  }
                });
    return;
  }
  if (a.numel() == 1 && b.is_contiguous() && b.shape() == out_shape) {
    const T av = *a.data<T>();
    const T* bp = b.data<T>();
    ParallelFor(0, n, GrainForCost(1),
                [op, av, bp, &f](int64_t shard_begin, int64_t shard_end) {
                  for (int64_t i = shard_begin; i < shard_end; ++i) {
                    op[i] = f(av, bp[i]);
                  }
                });
    return;
  }
  const T* abase = a.data<T>();
  const T* bbase = b.data<T>();
  const std::vector<std::vector<int64_t>> strides = {
      BroadcastStrides(a.shape(), a.strides(), out_shape),
      BroadcastStrides(b.shape(), b.strides(), out_shape)};
  const int64_t len = out_shape.empty() ? 1 : out_shape.back();
  const int64_t sa = out_shape.empty() ? 0 : strides[0].back();
  const int64_t sb = out_shape.empty() ? 0 : strides[1].back();
  auto segment = [&](int64_t row, const OffsetIterator& it) {
    OutT* o = op + row * len;
    const T* ap = abase + it.offset(0);
    const T* bp = bbase + it.offset(1);
    if (sa == 1 && sb == 1) {
      for (int64_t j = 0; j < len; ++j) o[j] = f(ap[j], bp[j]);
    } else if (sa == 1 && sb == 0) {
      const T bv = *bp;
      for (int64_t j = 0; j < len; ++j) o[j] = f(ap[j], bv);
    } else if (sa == 0 && sb == 1) {
      const T av = *ap;
      for (int64_t j = 0; j < len; ++j) o[j] = f(av, bp[j]);
    } else {
      for (int64_t j = 0; j < len; ++j) o[j] = f(ap[j * sa], bp[j * sb]);
    }
  };
  ForEachRowSegment(out_shape, strides, segment);
}

// The op kind is hoisted out of the loop here: each case hands AccelLoop a
// capture-free lambda whose body is one branch-free expression, so the
// inner loops stay vectorizable (a per-element `switch (kind)` defeats
// SIMD — tools/check_vectorization.sh guards against its return).
template <typename T>
void AccelArithLoop(BinKind kind, const Tensor& a, const Tensor& b,
                    Tensor& out, const std::vector<int64_t>& out_shape) {
  switch (kind) {
    case BinKind::kAdd:
      return AccelLoop<T, T>(a, b, out, out_shape,
                             [](T x, T y) { return x + y; });
    case BinKind::kSub:
      return AccelLoop<T, T>(a, b, out, out_shape,
                             [](T x, T y) { return x - y; });
    case BinKind::kMul:
      return AccelLoop<T, T>(a, b, out, out_shape,
                             [](T x, T y) { return x * y; });
    case BinKind::kDiv:
      return AccelLoop<T, T>(a, b, out, out_shape,
                             [](T x, T y) { return x / y; });
    case BinKind::kMax:
      return AccelLoop<T, T>(a, b, out, out_shape,
                             [](T x, T y) { return x >= y ? x : y; });
    case BinKind::kMin:
      return AccelLoop<T, T>(a, b, out, out_shape,
                             [](T x, T y) { return x <= y ? x : y; });
    case BinKind::kFmod:
      if constexpr (std::is_floating_point_v<T>) {
        return AccelLoop<T, T>(a, b, out, out_shape,
                               [](T x, T y) { return std::fmod(x, y); });
      }
      [[fallthrough]];
    default:
      TDP_LOG(Fatal) << "not an arithmetic kind";
  }
}

template <typename T>
void AccelCompareLoop(BinKind kind, const Tensor& a, const Tensor& b,
                      Tensor& out, const std::vector<int64_t>& out_shape) {
  switch (kind) {
    case BinKind::kEq:
      return AccelLoop<T, bool>(a, b, out, out_shape,
                                [](T x, T y) { return x == y; });
    case BinKind::kNe:
      return AccelLoop<T, bool>(a, b, out, out_shape,
                                [](T x, T y) { return x != y; });
    case BinKind::kLt:
      return AccelLoop<T, bool>(a, b, out, out_shape,
                                [](T x, T y) { return x < y; });
    case BinKind::kLe:
      return AccelLoop<T, bool>(a, b, out, out_shape,
                                [](T x, T y) { return x <= y; });
    case BinKind::kGt:
      return AccelLoop<T, bool>(a, b, out, out_shape,
                                [](T x, T y) { return x > y; });
    case BinKind::kGe:
      return AccelLoop<T, bool>(a, b, out, out_shape,
                                [](T x, T y) { return x >= y; });
    default:
      TDP_LOG(Fatal) << "not a comparison kind";
  }
}

// Reference backend: per-element dispatch through std::function on doubles,
// deliberately modeling an un-accelerated interpretive engine.
void ReferenceLoop(const Tensor& a, const Tensor& b, Tensor& out,
                   const std::vector<int64_t>& out_shape,
                   const std::function<double(double, double)>& f) {
  const int64_t n = out.numel();
  const std::vector<std::vector<int64_t>> strides = {
      BroadcastStrides(a.shape(), a.strides(), out_shape),
      BroadcastStrides(b.shape(), b.strides(), out_shape)};
  TDP_DISPATCH_ALL(out.dtype(), {
    using out_t = scalar_t;
    out_t* op = out.data<out_t>();
    TDP_DISPATCH_ALL(a.dtype(), {
      const scalar_t* ap = a.data<scalar_t>();
      const scalar_t* bp = b.data<scalar_t>();
      ParallelFor(0, n, GrainForCost(4),
                  [op, ap, bp, &f, &out_shape, &strides](
                      int64_t shard_begin, int64_t shard_end) {
                    OffsetIterator it(out_shape, strides);
                    it.Seek(shard_begin);
                    for (int64_t i = shard_begin; i < shard_end;
                         ++i, it.Next()) {
                      op[i] = static_cast<out_t>(
                          f(static_cast<double>(ap[it.offset(0)]),
                            static_cast<double>(bp[it.offset(1)])));
                    }
                  });
    });
  });
}

std::function<double(double, double)> ReferenceFn(BinKind kind) {
  switch (kind) {
    case BinKind::kAdd:
      return [](double a, double b) { return a + b; };
    case BinKind::kSub:
      return [](double a, double b) { return a - b; };
    case BinKind::kMul:
      return [](double a, double b) { return a * b; };
    case BinKind::kDiv:
      return [](double a, double b) { return a / b; };
    case BinKind::kFmod:
      return [](double a, double b) { return std::fmod(a, b); };
    case BinKind::kMax:
      return [](double a, double b) { return a >= b ? a : b; };
    case BinKind::kMin:
      return [](double a, double b) { return a <= b ? a : b; };
    case BinKind::kEq:
      return [](double a, double b) { return a == b ? 1.0 : 0.0; };
    case BinKind::kNe:
      return [](double a, double b) { return a != b ? 1.0 : 0.0; };
    case BinKind::kLt:
      return [](double a, double b) { return a < b ? 1.0 : 0.0; };
    case BinKind::kLe:
      return [](double a, double b) { return a <= b ? 1.0 : 0.0; };
    case BinKind::kGt:
      return [](double a, double b) { return a > b ? 1.0 : 0.0; };
    case BinKind::kGe:
      return [](double a, double b) { return a >= b ? 1.0 : 0.0; };
    case BinKind::kAnd:
      return [](double a, double b) { return (a != 0 && b != 0) ? 1.0 : 0.0; };
    case BinKind::kOr:
      return [](double a, double b) { return (a != 0 || b != 0) ? 1.0 : 0.0; };
  }
  TDP_LOG(Fatal) << "unknown BinKind";
  return nullptr;
}

// Computes the raw (no autograd) result of a binary op.
Tensor BinaryEval(BinKind kind, const Tensor& a0, const Tensor& b0) {
  TDP_CHECK(a0.defined() && b0.defined());
  const Device device = internal_ops::CommonDevice({a0, b0});
  const std::vector<int64_t> out_shape =
      BroadcastShapes(a0.shape(), b0.shape());

  DType compute_dtype;
  DType out_dtype;
  if (kind == BinKind::kAnd || kind == BinKind::kOr) {
    TDP_CHECK(a0.dtype() == DType::kBool && b0.dtype() == DType::kBool)
        << "logical ops require bool operands";
    compute_dtype = DType::kBool;
    out_dtype = DType::kBool;
  } else if (IsComparison(kind)) {
    compute_dtype = PromoteTypes(a0.dtype(), b0.dtype());
    out_dtype = DType::kBool;
  } else {
    compute_dtype = PromoteTypes(a0.dtype(), b0.dtype());
    TDP_CHECK(compute_dtype != DType::kBool)
        << "arithmetic on bool tensors is not supported";
    TDP_CHECK(kind != BinKind::kFmod || IsFloatingPoint(compute_dtype))
        << "Fmod requires float tensors";
    out_dtype = compute_dtype;
  }

  const Tensor a = a0.To(compute_dtype);
  const Tensor b = b0.To(compute_dtype);
  Tensor out = Tensor::Empty(out_shape, out_dtype, device);

  if (device == Device::kCpu) {
    ReferenceLoop(a, b, out, out_shape, ReferenceFn(kind));
    return out;
  }

  if (kind == BinKind::kAnd || kind == BinKind::kOr) {
    if (kind == BinKind::kAnd) {
      AccelLoop<bool, bool>(a, b, out, out_shape,
                            [](bool x, bool y) { return x && y; });
    } else {
      AccelLoop<bool, bool>(a, b, out, out_shape,
                            [](bool x, bool y) { return x || y; });
    }
    return out;
  }

  if (IsComparison(kind)) {
    if (compute_dtype == DType::kBool) {
      // Bools compare as 0/1, as on the reference backend.
      AccelCompareLoop<bool>(kind, a, b, out, out_shape);
      return out;
    }
    TDP_DISPATCH_NUMERIC(compute_dtype, {
      AccelCompareLoop<scalar_t>(kind, a, b, out, out_shape);
    });
    return out;
  }

  TDP_DISPATCH_NUMERIC(compute_dtype, {
    AccelArithLoop<scalar_t>(kind, a, b, out, out_shape);
  });
  return out;
}

}  // namespace

Tensor ReduceGradToShape(const Tensor& grad,
                         const std::vector<int64_t>& shape) {
  if (grad.shape() == shape) return grad;
  Tensor g = grad;
  // Sum away leading broadcast dims.
  while (g.dim() > static_cast<int64_t>(shape.size())) {
    g = Sum(g, /*dim=*/0, /*keepdim=*/false);
  }
  // Sum dims that were expanded from size 1.
  for (int64_t d = 0; d < g.dim(); ++d) {
    if (shape[static_cast<size_t>(d)] == 1 && g.size(d) != 1) {
      g = Sum(g, d, /*keepdim=*/true);
    }
  }
  TDP_CHECK(g.shape() == shape);
  return g;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = BinaryEval(BinKind::kAdd, a, b);
  autograd::RecordOp("Add", {a, b}, out, [a, b](const Tensor& g) {
    return std::vector<Tensor>{ReduceGradToShape(g, a.shape()),
                               ReduceGradToShape(g, b.shape())};
  });
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = BinaryEval(BinKind::kSub, a, b);
  autograd::RecordOp("Sub", {a, b}, out, [a, b](const Tensor& g) {
    return std::vector<Tensor>{ReduceGradToShape(g, a.shape()),
                               ReduceGradToShape(Neg(g), b.shape())};
  });
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  Tensor out = BinaryEval(BinKind::kMul, a, b);
  autograd::RecordOp("Mul", {a, b}, out, [a, b](const Tensor& g) {
    return std::vector<Tensor>{
        ReduceGradToShape(Mul(g, b.Detach()), a.shape()),
        ReduceGradToShape(Mul(g, a.Detach()), b.shape())};
  });
  return out;
}

Tensor Div(const Tensor& a, const Tensor& b) {
  Tensor out = BinaryEval(BinKind::kDiv, a, b);
  autograd::RecordOp("Div", {a, b}, out, [a, b](const Tensor& g) {
    const Tensor ad = a.Detach();
    const Tensor bd = b.Detach();
    Tensor ga = Div(g, bd);
    Tensor gb = Neg(Div(Mul(g, ad), Mul(bd, bd)));
    return std::vector<Tensor>{ReduceGradToShape(ga, a.shape()),
                               ReduceGradToShape(gb, b.shape())};
  });
  return out;
}

Tensor Fmod(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kFmod, a, b);
}

Tensor Maximum(const Tensor& a, const Tensor& b) {
  Tensor out = BinaryEval(BinKind::kMax, a, b);
  autograd::RecordOp("Maximum", {a, b}, out, [a, b](const Tensor& g) {
    const Tensor mask = Ge(a.Detach(), b.Detach());  // ties -> a
    const Tensor maskf = mask.To(g.dtype());
    return std::vector<Tensor>{
        ReduceGradToShape(Mul(g, maskf), a.shape()),
        ReduceGradToShape(Mul(g, RSubScalar(1.0, maskf)), b.shape())};
  });
  return out;
}

Tensor Minimum(const Tensor& a, const Tensor& b) {
  Tensor out = BinaryEval(BinKind::kMin, a, b);
  autograd::RecordOp("Minimum", {a, b}, out, [a, b](const Tensor& g) {
    const Tensor mask = Le(a.Detach(), b.Detach());
    const Tensor maskf = mask.To(g.dtype());
    return std::vector<Tensor>{
        ReduceGradToShape(Mul(g, maskf), a.shape()),
        ReduceGradToShape(Mul(g, RSubScalar(1.0, maskf)), b.shape())};
  });
  return out;
}

namespace {
Tensor ScalarLike(const Tensor& t, double s) {
  DType dtype = t.dtype();
  if (!IsFloatingPoint(dtype) && s != static_cast<int64_t>(s)) {
    dtype = DType::kFloat32;  // int tensor op fractional scalar -> float
  }
  if (dtype == DType::kBool) dtype = DType::kFloat32;
  return Tensor::Scalar(s, dtype, t.device());
}
}  // namespace

Tensor AddScalar(const Tensor& a, double s) { return Add(a, ScalarLike(a, s)); }
Tensor SubScalar(const Tensor& a, double s) { return Sub(a, ScalarLike(a, s)); }
Tensor RSubScalar(double s, const Tensor& a) {
  return Sub(ScalarLike(a, s), a);
}
Tensor MulScalar(const Tensor& a, double s) { return Mul(a, ScalarLike(a, s)); }
Tensor DivScalar(const Tensor& a, double s) { return Div(a, ScalarLike(a, s)); }
Tensor RDivScalar(double s, const Tensor& a) {
  return Div(ScalarLike(a, s), a);
}

Tensor Eq(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kEq, a, b);
}
Tensor Ne(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kNe, a, b);
}
Tensor Lt(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kLt, a, b);
}
Tensor Le(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kLe, a, b);
}
Tensor Gt(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kGt, a, b);
}
Tensor Ge(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kGe, a, b);
}

Tensor LogicalAnd(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kAnd, a, b);
}
Tensor LogicalOr(const Tensor& a, const Tensor& b) {
  return BinaryEval(BinKind::kOr, a, b);
}

Tensor Where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  TDP_CHECK(cond.defined() && a.defined() && b.defined());
  TDP_CHECK(cond.dtype() == DType::kBool) << "Where condition must be bool";
  const Device device = internal_ops::CommonDevice({cond, a, b});
  const DType dtype = PromoteTypes(a.dtype(), b.dtype());
  const std::vector<int64_t> out_shape =
      BroadcastShapes(cond.shape(), BroadcastShapes(a.shape(), b.shape()));
  const Tensor ac = a.To(dtype);
  const Tensor bc = b.To(dtype);
  Tensor out = Tensor::Empty(out_shape, dtype, device);

  // One select kernel for every dtype and both backends: each element is
  // copied from the taken branch, so the other branch's NaN or inf never
  // reaches it.
  const std::vector<std::vector<int64_t>> strides = {
      BroadcastStrides(cond.shape(), cond.strides(), out_shape),
      BroadcastStrides(ac.shape(), ac.strides(), out_shape),
      BroadcastStrides(bc.shape(), bc.strides(), out_shape)};
  const int64_t len = out_shape.empty() ? 1 : out_shape.back();
  const int64_t sc = out_shape.empty() ? 0 : strides[0].back();
  const int64_t sa = out_shape.empty() ? 0 : strides[1].back();
  const int64_t sb = out_shape.empty() ? 0 : strides[2].back();
  TDP_DISPATCH_ALL(dtype, {
    const bool* cbase = cond.data<bool>();
    const scalar_t* abase = ac.data<scalar_t>();
    const scalar_t* bbase = bc.data<scalar_t>();
    scalar_t* op = out.data<scalar_t>();
    auto segment = [&](int64_t row, const OffsetIterator& it) {
      const bool* c = cbase + it.offset(0);
      const scalar_t* x = abase + it.offset(1);
      const scalar_t* y = bbase + it.offset(2);
      scalar_t* o = op + row * len;
      for (int64_t j = 0; j < len; ++j) {
        o[j] = c[j * sc] ? x[j * sa] : y[j * sb];
      }
    };
    ForEachRowSegment(out_shape, strides, segment);
  });

  // The gradient flows to the taken branch only.
  autograd::RecordOp("Where", {a, b}, out, [cond, a, b](const Tensor& g) {
    const Tensor zero = Tensor::Scalar(0.0, g.dtype(), g.device());
    return std::vector<Tensor>{
        ReduceGradToShape(Where(cond, g, zero), a.shape()),
        ReduceGradToShape(Where(cond, zero, g), b.shape())};
  });
  return out;
}

}  // namespace tdp
