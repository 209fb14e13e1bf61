#ifndef TDP_TENSOR_DEVICE_H_
#define TDP_TENSOR_DEVICE_H_

#include <string_view>

namespace tdp {

/// Execution device for tensor kernels.
///
/// The paper runs TDP on CPU and on an NVIDIA V100 through PyTorch. This
/// reproduction has no GPU, so the device axis selects between two kernel
/// *backends* with very different efficiency, mirroring the mechanism that
/// produces the paper's CPU/GPU gap (same physical plan, different kernel
/// quality):
///   - `kCpu`   — reference backend: strided per-element loops with
///                type-erased inner dispatch (an un-accelerated engine).
///   - `kAccel` — accelerated backend: contiguous tight loops, blocked
///                matmul, im2col convolution, fused similarity kernels.
///
/// Both backends read and write one host memory. The device tag picks
/// kernels, not storage: moving a tensor to the other device
/// (`Tensor::To(Device)`) retags a view of the same buffer, copying
/// nothing.
enum class Device : uint8_t {
  kCpu = 0,
  kAccel,
};

/// "cpu" or "accel".
std::string_view DeviceName(Device device);

/// Parses "cpu"/"accel" (also accepts the paper's spelling "cuda" as an
/// alias for the accelerated backend). Fatal on unknown names.
Device ParseDevice(std::string_view name);

}  // namespace tdp

#endif  // TDP_TENSOR_DEVICE_H_
