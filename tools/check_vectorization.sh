#!/usr/bin/env bash
# Guards the SIMD contract of the accelerated kernels: compiles each hot-loop
# translation unit with GCC's vectorization report and fails if a file whose
# inner loops are supposed to vectorize stops reporting any "loop vectorized"
# line attributed to it. This catches the silent de-vectorization class of
# regression — e.g. reintroducing a data-dependent `if (av == 0) continue;`
# skip, a per-element `switch (kind)` dispatch, or an opaque function call in
# an inner loop — which no correctness test can see, only the timings.
#
# It also disassembles the GEMM object and fails on any fused multiply-add:
# the GEMM's summation-order contract (src/tensor/gemm.h) needs each
# product rounded before its add, and the memcmp test that guards it can
# only run the AVX-512 version on a host that has AVX-512.
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
  src/tensor/gemm.cc       # Gemm's row-saxpy inner loop (portable, AVX2)
  src/tensor/ops_conv.cc   # Conv2d backward's column-gradient saxpy
  src/tensor/ops_binary.cc # AccelLoop dense, scalar and row-segment loops
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

GEMM_TU=src/tensor/gemm.cc
obj=$(mktemp --suffix=.o)
trap 'rm -f "$obj"' EXIT
"$CXX" -std=c++20 -O3 -Wall -I. -c -o "$obj" "$GEMM_TU"
fused=$(objdump -d "$obj" | grep -cE '\svfn?m(add|sub)' || true)
if [[ "$fused" -ne 0 ]]; then
  echo "FAIL: $fused fused multiply-add instructions in $GEMM_TU" >&2
  objdump -d "$obj" | grep -E '\svfn?m(add|sub)' | head -5 >&2 || true
  status=1
else
  echo "ok: $GEMM_TU (no fused multiply-add)"
fi

exit $status
