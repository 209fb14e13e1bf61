#include <cmath>
#include <functional>

#include "src/autograd/node.h"
#include "src/common/thread_pool.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/ops.h"
#include "src/tensor/ops_internal.h"

namespace tdp {
namespace {

using internal_ops::OffsetIterator;

enum class UnKind {
  kNeg,
  kExp,
  kLog,
  kSqrt,
  kAbs,
  kSign,
  kRelu,
  kSigmoid,
  kTanh,
  kRound,
};

double ApplyUnary(UnKind kind, double x) {
  switch (kind) {
    case UnKind::kNeg:
      return -x;
    case UnKind::kExp:
      return std::exp(x);
    case UnKind::kLog:
      return std::log(x);
    case UnKind::kSqrt:
      return std::sqrt(x);
    case UnKind::kAbs:
      return std::abs(x);
    case UnKind::kSign:
      return x > 0 ? 1.0 : (x < 0 ? -1.0 : 0.0);
    case UnKind::kRelu:
      return x > 0 ? x : 0.0;
    case UnKind::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
    case UnKind::kTanh:
      return std::tanh(x);
    case UnKind::kRound:
      return std::nearbyint(x);
  }
  TDP_LOG(Fatal) << "unknown UnKind";
  return 0;
}

bool RequiresFloat(UnKind kind) {
  switch (kind) {
    case UnKind::kExp:
    case UnKind::kLog:
    case UnKind::kSqrt:
    case UnKind::kSigmoid:
    case UnKind::kTanh:
      return true;
    default:
      return false;
  }
}

Tensor UnaryEval(UnKind kind, const Tensor& t0) {
  TDP_CHECK(t0.defined());
  DType dtype = t0.dtype();
  TDP_CHECK(dtype != DType::kBool) << "unary math on bool is not supported";
  if (RequiresFloat(kind) && !IsFloatingPoint(dtype)) dtype = DType::kFloat32;
  const Tensor t = t0.To(dtype);
  Tensor out = Tensor::Empty(t.shape(), dtype, t.device());
  const int64_t n = out.numel();

  if (t.device() == Device::kCpu) {
    // Reference backend: type-erased per-element evaluation.
    const std::function<double(double)> f = [kind](double x) {
      return ApplyUnary(kind, x);
    };
    const std::vector<std::vector<int64_t>> strides = {t.strides()};
    const std::vector<int64_t>& shape = t.shape();
    TDP_DISPATCH_NUMERIC(dtype, {
      const scalar_t* sp = t.data<scalar_t>();
      scalar_t* op = out.data<scalar_t>();
      ParallelFor(0, n, GrainForCost(4),
                  [sp, op, &f, &shape, &strides](int64_t shard_begin,
                                                 int64_t shard_end) {
                    OffsetIterator it(shape, strides);
                    it.Seek(shard_begin);
                    for (int64_t i = shard_begin; i < shard_end;
                         ++i, it.Next()) {
                      op[i] = static_cast<scalar_t>(
                          f(static_cast<double>(sp[it.offset(0)])));
                    }
                  });
    });
    return out;
  }

  // Accelerated backend: contiguous tight loop with inlined math.
  const Tensor tc = t.Contiguous();
  TDP_DISPATCH_NUMERIC(dtype, {
    const scalar_t* sp = tc.data<scalar_t>();
    scalar_t* op = out.data<scalar_t>();
    ParallelFor(0, n, GrainForCost(1), [sp, op, kind](int64_t shard_begin,
                                                      int64_t shard_end) {
      const int64_t b = shard_begin, e = shard_end;
      switch (kind) {
        case UnKind::kNeg:
          for (int64_t i = b; i < e; ++i) op[i] = -sp[i];
          break;
        case UnKind::kExp:
          for (int64_t i = b; i < e; ++i)
            op[i] = static_cast<scalar_t>(std::exp(sp[i]));
          break;
        case UnKind::kLog:
          for (int64_t i = b; i < e; ++i)
            op[i] = static_cast<scalar_t>(std::log(sp[i]));
          break;
        case UnKind::kSqrt:
          for (int64_t i = b; i < e; ++i)
            op[i] = static_cast<scalar_t>(std::sqrt(sp[i]));
          break;
        case UnKind::kAbs:
          for (int64_t i = b; i < e; ++i)
            op[i] = sp[i] < 0 ? static_cast<scalar_t>(-sp[i]) : sp[i];
          break;
        case UnKind::kSign:
          for (int64_t i = b; i < e; ++i)
            op[i] = static_cast<scalar_t>(sp[i] > 0   ? 1
                                          : sp[i] < 0 ? -1
                                                      : 0);
          break;
        case UnKind::kRelu:
          for (int64_t i = b; i < e; ++i)
            op[i] = sp[i] > 0 ? sp[i] : static_cast<scalar_t>(0);
          break;
        case UnKind::kSigmoid:
          for (int64_t i = b; i < e; ++i)
            op[i] = static_cast<scalar_t>(1.0 / (1.0 + std::exp(-sp[i])));
          break;
        case UnKind::kTanh:
          for (int64_t i = b; i < e; ++i)
            op[i] = static_cast<scalar_t>(std::tanh(sp[i]));
          break;
        case UnKind::kRound:
          for (int64_t i = b; i < e; ++i)
            op[i] = static_cast<scalar_t>(
                std::nearbyint(static_cast<double>(sp[i])));
          break;
      }
    });
  });
  return out;
}

}  // namespace

Tensor Neg(const Tensor& t) {
  Tensor out = UnaryEval(UnKind::kNeg, t);
  autograd::RecordOp("Neg", {t}, out, [](const Tensor& g) {
    return std::vector<Tensor>{Neg(g)};
  });
  return out;
}

Tensor Exp(const Tensor& t) {
  Tensor out = UnaryEval(UnKind::kExp, t);
  Tensor out_detached = out.Detach();
  autograd::RecordOp("Exp", {t}, out, [out_detached](const Tensor& g) {
    return std::vector<Tensor>{Mul(g, out_detached)};
  });
  return out;
}

Tensor Log(const Tensor& t) {
  Tensor out = UnaryEval(UnKind::kLog, t);
  autograd::RecordOp("Log", {t}, out, [t](const Tensor& g) {
    return std::vector<Tensor>{Div(g, t.Detach())};
  });
  return out;
}

Tensor Sqrt(const Tensor& t) {
  Tensor out = UnaryEval(UnKind::kSqrt, t);
  Tensor out_detached = out.Detach();
  autograd::RecordOp("Sqrt", {t}, out, [out_detached](const Tensor& g) {
    return std::vector<Tensor>{Div(g, MulScalar(out_detached, 2.0))};
  });
  return out;
}

Tensor Abs(const Tensor& t) {
  Tensor out = UnaryEval(UnKind::kAbs, t);
  autograd::RecordOp("Abs", {t}, out, [t](const Tensor& g) {
    return std::vector<Tensor>{Mul(g, Sign(t.Detach()))};
  });
  return out;
}

Tensor Sign(const Tensor& t) { return UnaryEval(UnKind::kSign, t); }

Tensor Relu(const Tensor& t) {
  Tensor out = UnaryEval(UnKind::kRelu, t);
  autograd::RecordOp("Relu", {t}, out, [t](const Tensor& g) {
    const Tensor mask = Gt(t.Detach(), Tensor::Scalar(0, t.dtype(), t.device()));
    return std::vector<Tensor>{Mul(g, mask.To(g.dtype()))};
  });
  return out;
}

Tensor Sigmoid(const Tensor& t) {
  Tensor out = UnaryEval(UnKind::kSigmoid, t);
  Tensor out_detached = out.Detach();
  autograd::RecordOp("Sigmoid", {t}, out, [out_detached](const Tensor& g) {
    // d/dx sigmoid = s * (1 - s)
    return std::vector<Tensor>{
        Mul(g, Mul(out_detached, RSubScalar(1.0, out_detached)))};
  });
  return out;
}

Tensor Tanh(const Tensor& t) {
  Tensor out = UnaryEval(UnKind::kTanh, t);
  Tensor out_detached = out.Detach();
  autograd::RecordOp("Tanh", {t}, out, [out_detached](const Tensor& g) {
    return std::vector<Tensor>{
        Mul(g, RSubScalar(1.0, Mul(out_detached, out_detached)))};
  });
  return out;
}

Tensor Clamp(const Tensor& t, double min_value, double max_value) {
  TDP_CHECK_LE(min_value, max_value);
  // Composite of Maximum/Minimum keeps autograd pass-through semantics.
  return Minimum(Maximum(t, Tensor::Scalar(min_value, t.dtype(), t.device())),
                 Tensor::Scalar(max_value, t.dtype(), t.device()));
}

Tensor PowScalar(const Tensor& t, double exponent) {
  const DType dtype = IsFloatingPoint(t.dtype()) ? t.dtype() : DType::kFloat32;
  const Tensor tf = t.To(dtype);
  Tensor out = Tensor::Empty(tf.shape(), dtype, tf.device());
  const Tensor tc = tf.Contiguous();
  const int64_t n = out.numel();
  TDP_DISPATCH_FLOAT(dtype, {
    const scalar_t* sp = tc.data<scalar_t>();
    scalar_t* op = out.data<scalar_t>();
    ParallelFor(0, n, GrainForCost(2),
                [sp, op, exponent](int64_t shard_begin, int64_t shard_end) {
                  for (int64_t i = shard_begin; i < shard_end; ++i) {
                    op[i] = static_cast<scalar_t>(
                        std::pow(static_cast<double>(sp[i]), exponent));
                  }
                });
  });
  autograd::RecordOp("PowScalar", {t}, out, [t, exponent](const Tensor& g) {
    // d/dx x^p = p * x^(p-1)
    return std::vector<Tensor>{
        Mul(g, MulScalar(PowScalar(t.Detach(), exponent - 1.0), exponent))};
  });
  return out;
}

Tensor Round(const Tensor& t) { return UnaryEval(UnKind::kRound, t); }

Tensor LogicalNot(const Tensor& t) {
  TDP_CHECK(t.dtype() == DType::kBool);
  const Tensor tc = t.Contiguous();
  Tensor out = Tensor::Empty(t.shape(), DType::kBool, t.device());
  const bool* sp = tc.data<bool>();
  bool* op = out.data<bool>();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) op[i] = !sp[i];
  return out;
}

}  // namespace tdp
