#ifndef TDP_TENSOR_OPS_H_
#define TDP_TENSOR_OPS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/tensor.h"

namespace tdp {

// All ops return fresh contiguous tensors (views are the exception and are
// documented as such). Ops marked [diff] record the autograd graph when an
// input requires grad and grad mode is on. Inputs must share a device; the
// device picks the kernel backend (see device.h).

// ---- Binary arithmetic (broadcasting, dtype promotion) -------- [diff] ----
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
/// C `fmod`: the remainder of a / b truncated toward zero, exact. Float
/// dtypes only; no grad.
Tensor Fmod(const Tensor& a, const Tensor& b);
/// Elementwise max/min. [diff] via subgradient (ties favor `a`).
Tensor Maximum(const Tensor& a, const Tensor& b);
Tensor Minimum(const Tensor& a, const Tensor& b);

// Scalar conveniences (scalar adopts the tensor's dtype/device).
Tensor AddScalar(const Tensor& a, double s);
Tensor SubScalar(const Tensor& a, double s);
Tensor RSubScalar(double s, const Tensor& a);  // s - a
Tensor MulScalar(const Tensor& a, double s);
Tensor DivScalar(const Tensor& a, double s);
Tensor RDivScalar(double s, const Tensor& a);  // s / a

// ---- Comparisons (result dtype kBool, broadcasting, no grad) -------------
Tensor Eq(const Tensor& a, const Tensor& b);
Tensor Ne(const Tensor& a, const Tensor& b);
Tensor Lt(const Tensor& a, const Tensor& b);
Tensor Le(const Tensor& a, const Tensor& b);
Tensor Gt(const Tensor& a, const Tensor& b);
Tensor Ge(const Tensor& a, const Tensor& b);

// ---- Boolean logic (kBool inputs/outputs, broadcasting) ------------------
Tensor LogicalAnd(const Tensor& a, const Tensor& b);
Tensor LogicalOr(const Tensor& a, const Tensor& b);
Tensor LogicalNot(const Tensor& a);

/// Selects `a` where `cond` (kBool) else `b`. [diff] in a and b.
Tensor Where(const Tensor& cond, const Tensor& a, const Tensor& b);

// ---- Unary ------------------------------------------------------ [diff] --
Tensor Neg(const Tensor& t);
Tensor Exp(const Tensor& t);
Tensor Log(const Tensor& t);
Tensor Sqrt(const Tensor& t);
Tensor Abs(const Tensor& t);
Tensor Sign(const Tensor& t);  // no grad (zero a.e.)
Tensor Relu(const Tensor& t);
Tensor Sigmoid(const Tensor& t);
Tensor Tanh(const Tensor& t);
/// Clamps into [min_value, max_value]. [diff] (pass-through inside range).
Tensor Clamp(const Tensor& t, double min_value, double max_value);
Tensor PowScalar(const Tensor& t, double exponent);
Tensor Round(const Tensor& t);  // no grad

// ---- Reductions --------------------------------------------------- [diff] -
/// Sum of all elements (rank-0 result).
Tensor Sum(const Tensor& t);
/// Sum over `dim`.
Tensor Sum(const Tensor& t, int64_t dim, bool keepdim);
Tensor Mean(const Tensor& t);
Tensor Mean(const Tensor& t, int64_t dim, bool keepdim);

struct MinMaxResult {
  Tensor values;   // [diff]
  Tensor indices;  // kInt64, no grad
};
/// Max/min over `dim` with argmax/argmin indices.
MinMaxResult Max(const Tensor& t, int64_t dim, bool keepdim);
MinMaxResult Min(const Tensor& t, int64_t dim, bool keepdim);
/// Max/min of all elements (rank-0). No indices.
Tensor MaxAll(const Tensor& t);
Tensor MinAll(const Tensor& t);
Tensor ArgMax(const Tensor& t, int64_t dim, bool keepdim);
/// Inclusive cumulative sum along `dim`. [diff]
Tensor CumSum(const Tensor& t, int64_t dim);
/// Number of true elements of a kBool tensor (rank-0 kInt64).
Tensor CountNonzero(const Tensor& t);

// ---- Linear algebra ------------------------------------------------ [diff] -
/// [m,k] @ [k,n] -> [m,n].
Tensor MatMul(const Tensor& a, const Tensor& b);
/// Batched: [b,m,k] @ [b,k,n] -> [b,m,n].
Tensor BMM(const Tensor& a, const Tensor& b);

// ---- Shape ops (views where noted) ---------------------------------------
/// One dim may be -1 (inferred). View when contiguous, copy otherwise. [diff]
Tensor Reshape(const Tensor& t, std::vector<int64_t> shape);
Tensor Transpose(const Tensor& t, int64_t d0, int64_t d1);  // view [diff]
Tensor Permute(const Tensor& t, std::vector<int64_t> dims);  // view [diff]
Tensor Slice(const Tensor& t, int64_t dim, int64_t start,
             int64_t length);                                // view [diff]
Tensor Squeeze(const Tensor& t, int64_t dim);                // view [diff]
Tensor Unsqueeze(const Tensor& t, int64_t dim);              // view [diff]
Tensor Expand(const Tensor& t, std::vector<int64_t> shape);  // view [diff]
/// Concatenates along `dim`. [diff]
Tensor Cat(const std::vector<Tensor>& tensors, int64_t dim);
/// Stacks along a new leading `dim`. [diff]
Tensor Stack(const std::vector<Tensor>& tensors, int64_t dim);

// ---- Indexing -------------------------------------------------------------
/// Rows of `t` along `dim` at `indices` (kInt64 1-d). [diff] in t.
Tensor IndexSelect(const Tensor& t, int64_t dim, const Tensor& indices);
/// Rows of `t` (dim 0) where 1-d kBool `mask` is true. [diff] in t.
Tensor MaskedSelectRows(const Tensor& t, const Tensor& mask);
/// PyTorch gather along `dim`: out[i][j] = t[index[i][j]][j] (dim=0 case).
Tensor Gather(const Tensor& t, int64_t dim, const Tensor& index);  // [diff]
/// base[index[i]][...] += src[i][...] along dim 0; returns a new tensor.
/// [diff] in base and src.
Tensor ScatterAddRows(const Tensor& base, const Tensor& index,
                      const Tensor& src);
/// Indices (kInt64, 1-d) of true elements of a 1-d kBool mask.
Tensor NonZero(const Tensor& mask);
/// One-hot encodes 1-d integer `indices` -> [n, num_classes] float32.
Tensor OneHot(const Tensor& indices, int64_t num_classes);

// ---- Sorting / uniquing (1-d) ---------------------------------------------
/// Stable argsort of a 1-d numeric tensor (kInt64 permutation).
Tensor ArgSort(const Tensor& t, bool descending = false);
struct SortResult {
  Tensor values;
  Tensor indices;
};
SortResult Sort(const Tensor& t, bool descending = false);
struct UniqueResult {
  Tensor values;   // ascending unique values
  Tensor inverse;  // kInt64: values[inverse[i]] == t[i]
  Tensor counts;   // kInt64 per unique value
};
/// Unique of a 1-d numeric tensor (sorted ascending).
UniqueResult Unique(const Tensor& t);

// ---- Convolution / pooling (NCHW, float) ---------------------- [diff] ----
Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t stride, int64_t padding);
Tensor MaxPool2d(const Tensor& input, int64_t kernel, int64_t stride);
Tensor AvgPool2d(const Tensor& input, int64_t kernel, int64_t stride);

// ---- Composite / NN helpers ------------------------------------ [diff] ----
/// Numerically-stabilized softmax along `dim`.
Tensor Softmax(const Tensor& t, int64_t dim);
Tensor LogSoftmax(const Tensor& t, int64_t dim);
/// x / max(||x||_2, eps) along `dim`.
Tensor L2Normalize(const Tensor& t, int64_t dim, double eps = 1e-12);

// ---- Random fills ----------------------------------------------------------
Tensor RandUniform(std::vector<int64_t> shape, double lo, double hi, Rng& rng,
                   DType dtype = DType::kFloat32,
                   Device device = Device::kCpu);
Tensor RandNormal(std::vector<int64_t> shape, double mean, double stddev,
                  Rng& rng, DType dtype = DType::kFloat32,
                  Device device = Device::kCpu);
Tensor RandInt(std::vector<int64_t> shape, int64_t lo, int64_t hi, Rng& rng,
               Device device = Device::kCpu);  // [lo, hi] inclusive, kInt64

// ---- Testing utilities ------------------------------------------------------
/// True if same shape and elementwise |a-b| <= atol + rtol*|b|.
bool AllClose(const Tensor& a, const Tensor& b, double rtol = 1e-5,
              double atol = 1e-6);
/// Exact equality of shape, dtype and elements.
bool TensorEqual(const Tensor& a, const Tensor& b);

// Internal: sums `grad` down to `shape` (undoing broadcasting).
Tensor ReduceGradToShape(const Tensor& grad, const std::vector<int64_t>& shape);

// ---- Operator sugar ---------------------------------------------------------
inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return Div(a, b); }
inline Tensor operator-(const Tensor& a) { return Neg(a); }
inline Tensor operator+(const Tensor& a, double s) { return AddScalar(a, s); }
inline Tensor operator-(const Tensor& a, double s) { return SubScalar(a, s); }
inline Tensor operator*(const Tensor& a, double s) { return MulScalar(a, s); }
inline Tensor operator/(const Tensor& a, double s) { return DivScalar(a, s); }
inline Tensor operator+(double s, const Tensor& a) { return AddScalar(a, s); }
inline Tensor operator-(double s, const Tensor& a) { return RSubScalar(s, a); }
inline Tensor operator*(double s, const Tensor& a) { return MulScalar(a, s); }
inline Tensor operator/(double s, const Tensor& a) { return RDivScalar(s, a); }

}  // namespace tdp

#endif  // TDP_TENSOR_OPS_H_
