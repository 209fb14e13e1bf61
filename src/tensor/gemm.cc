#include "src/tensor/gemm.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TDP_GEMM_X86 1
#endif

// The summation-order contract (gemm.h) forbids fusing a product into its
// add. GCC's C++ default is -ffp-contract=fast, and AVX-512F carries FMA
// encodings of its own, so contraction is switched off for every function
// in this file here rather than by a build flag, which would not reach
// builds of src/ made by other CMake files.
#if defined(__clang__)
#pragma clang fp contract(off)
#elif defined(__GNUC__)
#pragma GCC optimize("fp-contract=off")
#endif

namespace tdp {
namespace {

// Rows per register tile; rows are also sharded across threads in blocks
// of this size so each shard starts on a tile boundary.
constexpr int64_t kTileRows = 8;

// Rows [row_begin, row_end) of c: i-k-j order, so the inner loop is a
// saxpy over one row of b that the compiler vectorizes at whatever width
// the enclosing function targets.
template <typename T>
inline __attribute__((always_inline)) void SaxpyRows(
    const T* __restrict a, const T* __restrict b, T* __restrict c,
    int64_t row_begin, int64_t row_end, int64_t k, int64_t n) {
  std::fill(c + row_begin * n, c + row_end * n, T{0});
  for (int64_t i = row_begin; i < row_end; ++i) {
    const T* __restrict arow = a + i * k;
    T* __restrict crow = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const T av = arow[p];
      const T* __restrict brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

template <typename T>
void PortableRows(const T* a, const T* b, T* c, int64_t row_begin,
                  int64_t row_end, int64_t k, int64_t n) {
  SaxpyRows(a, b, c, row_begin, row_end, k, n);
}

using RowsFn = void (*)(const float*, const float*, float*, int64_t, int64_t,
                        int64_t, int64_t);

#ifdef TDP_GEMM_X86

__attribute__((target("avx2"))) void Avx2Rows(const float* a, const float* b,
                                              float* c, int64_t row_begin,
                                              int64_t row_end, int64_t k,
                                              int64_t n) {
  SaxpyRows(a, b, c, row_begin, row_end, k, n);
}

// Lanes [0, cols) of one 16-float vector.
__mmask16 LaneMask(int64_t cols) {
  if (cols <= 0) return 0;
  if (cols >= 16) return 0xFFFF;
  return static_cast<__mmask16>((1u << cols) - 1);
}

// One tile of kRows rows by 16 (or, when kWide, 32) columns: a points at
// the tile's first row of a, b at its first column of b, c at its corner.
// Masked loads and stores cover a ragged right edge; masked-off lanes
// compute on zeros and are never stored.
template <int kRows, bool kWide>
__attribute__((target("avx512f"))) void TileAvx512(const float* a,
                                                   const float* b, float* c,
                                                   int64_t k, int64_t n,
                                                   __mmask16 lo,
                                                   __mmask16 hi) {
  __m512 acc_lo[kRows];
  __m512 acc_hi[kWide ? kRows : 1];
  for (int r = 0; r < kRows; ++r) {
    acc_lo[r] = _mm512_setzero_ps();
    if constexpr (kWide) acc_hi[r] = _mm512_setzero_ps();
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* brow = b + p * n;
    const __m512 b_lo = _mm512_maskz_loadu_ps(lo, brow);
    __m512 b_hi = b_lo;
    if constexpr (kWide) b_hi = _mm512_maskz_loadu_ps(hi, brow + 16);
    for (int r = 0; r < kRows; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * k + p]);
      acc_lo[r] = _mm512_add_ps(acc_lo[r], _mm512_mul_ps(av, b_lo));
      if constexpr (kWide) {
        acc_hi[r] = _mm512_add_ps(acc_hi[r], _mm512_mul_ps(av, b_hi));
      }
    }
  }
  for (int r = 0; r < kRows; ++r) {
    _mm512_mask_storeu_ps(c + r * n, lo, acc_lo[r]);
    if constexpr (kWide) _mm512_mask_storeu_ps(c + r * n + 16, hi, acc_hi[r]);
  }
}

using TileFn = void (*)(const float*, const float*, float*, int64_t, int64_t,
                        __mmask16, __mmask16);

template <bool kWide>
constexpr TileFn kTiles[kTileRows] = {
    &TileAvx512<1, kWide>, &TileAvx512<2, kWide>, &TileAvx512<3, kWide>,
    &TileAvx512<4, kWide>, &TileAvx512<5, kWide>, &TileAvx512<6, kWide>,
    &TileAvx512<7, kWide>, &TileAvx512<8, kWide>};

// Column panels of 32 outer, row tiles inner, so one [k, 32] panel of b
// stays in cache across the shard's rows.
__attribute__((target("avx512f"))) void Avx512Rows(const float* a,
                                                   const float* b, float* c,
                                                   int64_t row_begin,
                                                   int64_t row_end, int64_t k,
                                                   int64_t n) {
  for (int64_t j = 0; j < n; j += 32) {
    const int64_t cols = std::min<int64_t>(32, n - j);
    const __mmask16 lo = LaneMask(cols);
    const __mmask16 hi = LaneMask(cols - 16);
    const TileFn* tiles = cols > 16 ? kTiles<true> : kTiles<false>;
    for (int64_t i = row_begin; i < row_end; i += kTileRows) {
      const int64_t rows = std::min(kTileRows, row_end - i);
      tiles[rows - 1](a + i * k, b + j, c + i * n + j, k, n, lo, hi);
    }
  }
}

#endif  // TDP_GEMM_X86

RowsFn RowsFor(GemmVersion version) {
  switch (version) {
#ifdef TDP_GEMM_X86
    case GemmVersion::kAvx2:
      return &Avx2Rows;
    case GemmVersion::kAvx512:
      return &Avx512Rows;
#endif
    default:
      return &PortableRows<float>;
  }
}

// Shards whole tile-row blocks; each output row is computed by exactly one
// shard, so the partition never changes a result.
template <typename T, typename Rows>
void ShardRows(const T* a, const T* b, T* c, int64_t m, int64_t k, int64_t n,
               Rows rows) {
  const int64_t blocks = (m + kTileRows - 1) / kTileRows;
  ParallelFor(0, blocks,
              GrainForCost(SaturatingCostProduct(kTileRows, k, n)),
              [=](int64_t block_begin, int64_t block_end) {
                rows(a, b, c, block_begin * kTileRows,
                     std::min(m, block_end * kTileRows), k, n);
              });
}

}  // namespace

bool GemmVersionSupported(GemmVersion version) {
  switch (version) {
    case GemmVersion::kPortable:
      return true;
#ifdef TDP_GEMM_X86
    case GemmVersion::kAvx2:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx2");
    case GemmVersion::kAvx512:
      __builtin_cpu_init();
      return __builtin_cpu_supports("avx512f");
#endif
    default:
      return false;
  }
}

GemmVersion DispatchedGemmVersion() {
  static const GemmVersion version = [] {
    for (GemmVersion v : {GemmVersion::kAvx512, GemmVersion::kAvx2}) {
      if (GemmVersionSupported(v)) return v;
    }
    return GemmVersion::kPortable;
  }();
  return version;
}

const char* GemmVersionName(GemmVersion version) {
  switch (version) {
    case GemmVersion::kPortable:
      return "portable";
    case GemmVersion::kAvx2:
      return "avx2";
    case GemmVersion::kAvx512:
      return "avx512f";
  }
  return "unknown";
}

void GemmWithVersion(GemmVersion version, const float* a, const float* b,
                     float* c, int64_t m, int64_t k, int64_t n) {
  TDP_CHECK(GemmVersionSupported(version))
      << GemmVersionName(version) << " GEMM is not supported by this CPU";
  ShardRows(a, b, c, m, k, n, RowsFor(version));
}

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n) {
  static const RowsFn rows = RowsFor(DispatchedGemmVersion());
  ShardRows(a, b, c, m, k, n, rows);
}

void Gemm(const double* a, const double* b, double* c, int64_t m, int64_t k,
          int64_t n) {
  ShardRows(a, b, c, m, k, n, &PortableRows<double>);
}

}  // namespace tdp
