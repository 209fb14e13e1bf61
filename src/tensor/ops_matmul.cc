#include "src/autograd/node.h"
#include "src/common/thread_pool.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"

namespace tdp {
namespace {

double ReferenceFma(double acc, double x, double y) { return acc + x * y; }

// Reference backend: textbook i-j-k loop over strided views with the
// multiply-accumulate routed through an opaque function pointer — the
// per-value indirection of an interpreted engine (and it keeps the
// compiler from auto-vectorizing the reference path, which would erase
// the backend contrast the device axis models).
// Rows of the output are independent, so the i loop is sharded across the
// pool. Each output element's accumulation order is unchanged, making
// results bit-for-bit identical for every TDP_NUM_THREADS. The accelerated
// backend runs `Gemm` (gemm.h), which keeps the same per-row guarantee.
template <typename T>
void MatMulReference(const T* a, int64_t ras, int64_t cas, const T* b,
                     int64_t rbs, int64_t cbs, T* c, int64_t m, int64_t k,
                     int64_t n) {
  ParallelFor(0, m, GrainForCost(SaturatingCostProduct(k, n)),
              [=](int64_t row_begin, int64_t row_end) {
                double (*volatile fma)(double, double, double) = &ReferenceFma;
                for (int64_t i = row_begin; i < row_end; ++i) {
                  for (int64_t j = 0; j < n; ++j) {
                    double acc = 0;
                    for (int64_t p = 0; p < k; ++p) {
                      acc = fma(acc, static_cast<double>(a[i * ras + p * cas]),
                                static_cast<double>(b[p * rbs + j * cbs]));
                    }
                    c[i * n + j] = static_cast<T>(acc);
                  }
                }
              });
}

Tensor MatMulEval(const Tensor& a, const Tensor& b) {
  TDP_CHECK(a.defined() && b.defined());
  TDP_CHECK_EQ(a.dim(), 2);
  TDP_CHECK_EQ(b.dim(), 2);
  TDP_CHECK_EQ(a.size(1), b.size(0))
      << "matmul inner dims: " << ShapeToString(a.shape()) << " @ "
      << ShapeToString(b.shape());
  TDP_CHECK(a.dtype() == b.dtype());
  TDP_CHECK(IsFloatingPoint(a.dtype())) << "matmul requires float tensors";
  TDP_CHECK(a.device() == b.device());

  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  Tensor out = Tensor::Empty({m, n}, a.dtype(), a.device());

  if (a.device() == Device::kCpu) {
    TDP_DISPATCH_FLOAT(a.dtype(), {
      // Strided access directly on the views (no contiguous copy): this is
      // intentionally the slow path.
      const scalar_t* ap =
          reinterpret_cast<const scalar_t*>(a.impl()->buffer->data()) +
          a.offset();
      const scalar_t* bp =
          reinterpret_cast<const scalar_t*>(b.impl()->buffer->data()) +
          b.offset();
      MatMulReference(ap, a.strides()[0], a.strides()[1], bp, b.strides()[0],
                      b.strides()[1], out.data<scalar_t>(), m, k, n);
    });
    return out;
  }

  // Request row-major operands through the format tag: already-dense views
  // pass through untouched, strided views are copied.
  const Tensor ac = a.RowMajor();
  const Tensor bc = b.RowMajor();
  TDP_DISPATCH_FLOAT(a.dtype(), {
    Gemm(ac.data<scalar_t>(), bc.data<scalar_t>(), out.data<scalar_t>(), m,
         k, n);
  });
  return out;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor out = MatMulEval(a, b);
  autograd::RecordOp("MatMul", {a, b}, out, [a, b](const Tensor& g) {
    // dA = g @ B^T ; dB = A^T @ g
    Tensor ga = MatMul(g, Transpose(b.Detach(), 0, 1));
    Tensor gb = MatMul(Transpose(a.Detach(), 0, 1), g);
    return std::vector<Tensor>{ga.Contiguous(), gb.Contiguous()};
  });
  return out;
}

Tensor BMM(const Tensor& a, const Tensor& b) {
  TDP_CHECK(a.defined() && b.defined());
  TDP_CHECK_EQ(a.dim(), 3);
  TDP_CHECK_EQ(b.dim(), 3);
  TDP_CHECK_EQ(a.size(0), b.size(0));
  TDP_CHECK_EQ(a.size(2), b.size(1));
  TDP_CHECK(IsFloatingPoint(a.dtype()) && a.dtype() == b.dtype());

  const int64_t batch = a.size(0), m = a.size(1), k = a.size(2),
                n = b.size(2);
  const Tensor ac = a.RowMajor();
  const Tensor bc = b.RowMajor();
  Tensor out = Tensor::Empty({batch, m, n}, a.dtype(), a.device());

  TDP_DISPATCH_FLOAT(a.dtype(), {
    const scalar_t* ap = ac.data<scalar_t>();
    const scalar_t* bp = bc.data<scalar_t>();
    scalar_t* op = out.data<scalar_t>();
    // Shard over the batch; the per-matrix kernels run inline inside the
    // shard (nested ParallelFor calls do not re-enter the pool).
    const bool reference = a.device() == Device::kCpu;
    ParallelFor(0, batch, GrainForCost(SaturatingCostProduct(m, k, n)),
                [=](int64_t batch_begin, int64_t batch_end) {
                  for (int64_t bi = batch_begin; bi < batch_end; ++bi) {
                    if (reference) {
                      MatMulReference(ap + bi * m * k, k, int64_t{1},
                                      bp + bi * k * n, n, int64_t{1},
                                      op + bi * m * n, m, k, n);
                    } else {
                      Gemm(ap + bi * m * k, bp + bi * k * n, op + bi * m * n,
                           m, k, n);
                    }
                  }
                });
  });

  autograd::RecordOp("BMM", {a, b}, out, [a, b](const Tensor& g) {
    Tensor ga = BMM(g, Permute(b.Detach(), {0, 2, 1}));
    Tensor gb = BMM(Permute(a.Detach(), {0, 2, 1}), g);
    return std::vector<Tensor>{ga.Contiguous(), gb.Contiguous()};
  });
  return out;
}

}  // namespace tdp
