#ifndef TDP_TENSOR_GEMM_H_
#define TDP_TENSOR_GEMM_H_

#include <cstdint>

namespace tdp {

/// Dense row-major GEMM of the accelerated backend: c[m, n] = a[m, k] ·
/// b[k, n]. `c` is overwritten and must not overlap `a` or `b`. Rows of
/// `c` are sharded across the global thread pool (inline when called from
/// inside a ParallelFor shard).
///
/// Summation-order contract, shared by every version below: each output
/// starts at +0 and adds a[i, p] * b[p, j] for p = 0..k-1 in order, each
/// product rounded before its add (no fused multiply-add, no
/// reassociation). Every a-element participates, so 0 * inf yields NaN.
/// Results are therefore bit-identical across versions, hosts and thread
/// counts for every finite or infinite output. A NaN output is NaN in all
/// of them, but its sign may differ where two different NaNs met in its
/// sum (x86 keeps the first operand's, and operand order is the
/// compiler's choice).
void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n);
void Gemm(const double* a, const double* b, double* c, int64_t m, int64_t k,
          int64_t n);

/// The float32 versions of `Gemm`. `kPortable` is the row-saxpy body
/// compiled for the build's baseline ISA (SSE2 on x86-64) and also serves
/// float64; `kAvx2` is the same body compiled for AVX2; `kAvx512` is an
/// 8x32 register tile. `Gemm` runs the widest one the CPU supports,
/// chosen once per process.
enum class GemmVersion { kPortable, kAvx2, kAvx512 };

/// Internal, for tests: whether the CPU can run `version`, the version
/// `Gemm` dispatches to, a name for messages, and a call that runs one
/// given version (which must be supported).
bool GemmVersionSupported(GemmVersion version);
GemmVersion DispatchedGemmVersion();
const char* GemmVersionName(GemmVersion version);
void GemmWithVersion(GemmVersion version, const float* a, const float* b,
                     float* c, int64_t m, int64_t k, int64_t n);

}  // namespace tdp

#endif  // TDP_TENSOR_GEMM_H_
