// Kernel-backend ablation (google-benchmark): per-op timing of the
// reference backend (Device::kCpu) vs the accelerated backend
// (Device::kAccel). This quantifies the mechanism behind the Fig. 2
// device gap at the operator level.

#include <benchmark/benchmark.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/tensor/buffer.h"
#include "src/tensor/ops.h"
#include "src/tensor/scratch.h"

namespace tdp {
namespace {

Device ArgDevice(const benchmark::State& state) {
  return state.range(0) == 0 ? Device::kCpu : Device::kAccel;
}

void BM_ElementwiseAdd(benchmark::State& state) {
  Rng rng(1);
  const Device device = ArgDevice(state);
  Tensor a = RandNormal({1 << 16}, 0, 1, rng).To(device);
  Tensor b = RandNormal({1 << 16}, 0, 1, rng).To(device);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Add(a, b).impl().get());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_ElementwiseAdd)->Arg(0)->Arg(1);

void BM_ElementwiseMulBroadcast(benchmark::State& state) {
  Rng rng(2);
  const Device device = ArgDevice(state);
  Tensor a = RandNormal({256, 256}, 0, 1, rng).To(device);
  Tensor b = RandNormal({256, 1}, 0, 1, rng).To(device);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Mul(a, b).impl().get());
  }
  state.SetItemsProcessed(state.iterations() * 256 * 256);
}
BENCHMARK(BM_ElementwiseMulBroadcast)->Arg(0)->Arg(1);

void BM_MatMul(benchmark::State& state) {
  Rng rng(3);
  const Device device = ArgDevice(state);
  const int64_t n = state.range(1);
  Tensor a = RandNormal({n, n}, 0, 1, rng).To(device);
  Tensor b = RandNormal({n, n}, 0, 1, rng).To(device);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).impl().get());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Args({0, 64})->Args({1, 64})->Args({0, 128})
    ->Args({1, 128});

void BM_Conv2d(benchmark::State& state) {
  Rng rng(4);
  const Device device = ArgDevice(state);
  Tensor input = RandNormal({4, 8, 16, 16}, 0, 1, rng).To(device);
  Tensor weight = RandNormal({16, 8, 3, 3}, 0, 0.1, rng).To(device);
  Tensor bias = RandNormal({16}, 0, 0.1, rng).To(device);
  // Warm the per-thread im2col scratch, then hold
  // the steady state to an allocation budget: each iteration may allocate
  // only the output buffer (the bias staging copy and per-sample unfold
  // buffers used to be re-malloc'ed every forward).
  Conv2d(input, weight, bias, 1, 1);
  Conv2d(input, weight, bias, 1, 1);
  const int64_t allocs_before = Buffer::allocation_count();
  const int64_t growth_before = ScratchArena::growth_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Conv2d(input, weight, bias, 1, 1).impl().get());
  }
  const int64_t allocs = Buffer::allocation_count() - allocs_before;
  const int64_t growth = ScratchArena::growth_count() - growth_before;
  state.counters["allocs_per_iter"] =
      static_cast<double>(allocs) / static_cast<double>(state.iterations());
  if (allocs > static_cast<int64_t>(state.iterations())) {
    state.SkipWithError("steady-state Conv2d allocated more than its output");
  }
  // Multi-threaded shards may each warm a fresh thread-local arena once;
  // growth beyond the pool width means per-iteration churn came back.
  if (growth > ThreadPool::Global().num_threads()) {
    state.SkipWithError("steady-state Conv2d kept growing scratch arenas");
  }
}
BENCHMARK(BM_Conv2d)->Arg(0)->Arg(1);

void BM_Exp(benchmark::State& state) {
  Rng rng(5);
  const Device device = ArgDevice(state);
  Tensor a = RandNormal({1 << 15}, 0, 1, rng).To(device);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Exp(a).impl().get());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 15));
}
BENCHMARK(BM_Exp)->Arg(0)->Arg(1);

void BM_SortAndUnique(benchmark::State& state) {
  Rng rng(6);
  Tensor keys = RandInt({1 << 14}, 0, 999, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Unique(keys).values.impl().get());
  }
}
BENCHMARK(BM_SortAndUnique);

void BM_AutogradMatMulBackward(benchmark::State& state) {
  Rng rng(7);
  Tensor a = RandNormal({64, 64}, 0, 1, rng).To(Device::kAccel);
  a.set_requires_grad(true);
  Tensor b = RandNormal({64, 64}, 0, 1, rng).To(Device::kAccel);
  for (auto _ : state) {
    a.ZeroGrad();
    Sum(MatMul(a, b)).Backward();
    benchmark::DoNotOptimize(a.grad().impl().get());
  }
}
BENCHMARK(BM_AutogradMatMulBackward);

// ---- Thread scaling ---------------------------------------------------------
//
// The morsel-parallel kernels at 1 vs N threads (same accelerated backend,
// same inputs — results are bit-identical, only wall clock changes). On a
// 4-core runner BM_MatMulThreads/4 should be ≥2x the items/s of /1.

void BM_MatMulThreads(benchmark::State& state) {
  ScopedNumThreads guard(static_cast<int>(state.range(0)));
  Rng rng(11);
  const int64_t n = 256;
  Tensor a = RandNormal({n, n}, 0, 1, rng).To(Device::kAccel);
  Tensor b = RandNormal({n, n}, 0, 1, rng).To(Device::kAccel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b).impl().get());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMulThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_ElementwiseAddThreads(benchmark::State& state) {
  ScopedNumThreads guard(static_cast<int>(state.range(0)));
  Rng rng(12);
  Tensor a = RandNormal({1 << 20}, 0, 1, rng).To(Device::kAccel);
  Tensor b = RandNormal({1 << 20}, 0, 1, rng).To(Device::kAccel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Add(a, b).impl().get());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_ElementwiseAddThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_SumThreads(benchmark::State& state) {
  ScopedNumThreads guard(static_cast<int>(state.range(0)));
  Rng rng(13);
  Tensor a = RandNormal({1 << 21}, 0, 1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sum(a).impl().get());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 21));
}
BENCHMARK(BM_SumThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_Conv2dThreads(benchmark::State& state) {
  ScopedNumThreads guard(static_cast<int>(state.range(0)));
  Rng rng(14);
  Tensor input = RandNormal({16, 8, 28, 28}, 0, 1, rng).To(Device::kAccel);
  Tensor weight = RandNormal({16, 8, 3, 3}, 0, 0.1, rng).To(Device::kAccel);
  Tensor bias = RandNormal({16}, 0, 0.1, rng).To(Device::kAccel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Conv2d(input, weight, bias, 1, 1).impl().get());
  }
  // Output elements per iteration: N=16, outC=16, 28x28 (stride 1, pad 1).
  state.SetItemsProcessed(state.iterations() * 16 * 16 * 28 * 28);
}
BENCHMARK(BM_Conv2dThreads)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
}  // namespace tdp

BENCHMARK_MAIN();
