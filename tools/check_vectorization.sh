#!/usr/bin/env bash
# Guards the SIMD contract of the accelerated kernels: compiles each hot-loop
# translation unit with GCC's vectorization report and fails if a file whose
# inner loops are supposed to vectorize stops reporting any "loop vectorized"
# line attributed to it. This catches the silent de-vectorization class of
# regression — e.g. reintroducing a data-dependent `if (av == 0) continue;`
# skip, a per-element `switch (kind)` dispatch, or an opaque function call in
# an inner loop — which no correctness test can see, only the timings.
#
# Usage: tools/check_vectorization.sh   (from the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

CXX=${CXX:-g++}
FLAGS=(-std=c++20 -O3 -Wall -I. -c -o /dev/null -fopt-info-vec-optimized)

# Translation units whose inner loops the accelerated backend relies on.
# Requirement: at least one "loop vectorized" report attributed to the file
# itself (not an STL header it pulls in).
HOT_TUS=(
  src/tensor/ops_matmul.cc # MatMulAccel saxpy inner loop
  src/tensor/ops_conv.cc   # GemmRowMajor inner loop (im2col GEMM)
  src/tensor/ops_binary.cc # AccelLoop fast/scalar-broadcast paths
)

status=0
for tu in "${HOT_TUS[@]}"; do
  report=$("$CXX" "${FLAGS[@]}" "$tu" 2>&1 || true)
  vectorized=$(printf '%s\n' "$report" \
    | grep -F "$tu" | grep -c "loop vectorized" || true)
  if [[ "$vectorized" -eq 0 ]]; then
    echo "FAIL: no vectorized loop reported in $tu" >&2
    printf '%s\n' "$report" | grep -F "$tu" | grep "missed" | sort -u \
      | head -20 >&2 || true
    status=1
  else
    echo "ok: $tu ($vectorized vectorized-loop reports)"
  fi
done

exit $status
