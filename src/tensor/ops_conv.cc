#include <cstring>
#include <limits>
#include <vector>

#include "src/autograd/node.h"
#include "src/common/thread_pool.h"
#include "src/tensor/dispatch.h"
#include "src/tensor/gemm.h"
#include "src/tensor/ops.h"
#include "src/tensor/scratch.h"

namespace tdp {
namespace {

struct ConvGeometry {
  int64_t batch, in_channels, height, width;
  int64_t out_channels, kernel, stride, padding;
  int64_t out_h, out_w;
};

ConvGeometry MakeConvGeometry(const Tensor& input, const Tensor& weight,
                              int64_t stride, int64_t padding) {
  TDP_CHECK_EQ(input.dim(), 4) << "Conv2d input must be [N, C, H, W]";
  TDP_CHECK_EQ(weight.dim(), 4) << "Conv2d weight must be [O, C, kh, kw]";
  TDP_CHECK_EQ(weight.size(2), weight.size(3))
      << "only square kernels are supported";
  TDP_CHECK_EQ(input.size(1), weight.size(1)) << "channel mismatch";
  TDP_CHECK_GE(stride, 1);
  TDP_CHECK_GE(padding, 0);
  ConvGeometry geo;
  geo.batch = input.size(0);
  geo.in_channels = input.size(1);
  geo.height = input.size(2);
  geo.width = input.size(3);
  geo.out_channels = weight.size(0);
  geo.kernel = weight.size(2);
  geo.stride = stride;
  geo.padding = padding;
  geo.out_h = (geo.height + 2 * padding - geo.kernel) / stride + 1;
  geo.out_w = (geo.width + 2 * padding - geo.kernel) / stride + 1;
  TDP_CHECK(geo.out_h > 0 && geo.out_w > 0) << "conv output would be empty";
  return geo;
}

// Unfolds one sample [C, H, W] into columns [C*k*k, out_h*out_w].
template <typename T>
void Im2Col(const T* img, const ConvGeometry& g, T* cols) {
  const int64_t patch = g.kernel * g.kernel;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    for (int64_t ky = 0; ky < g.kernel; ++ky) {
      for (int64_t kx = 0; kx < g.kernel; ++kx) {
        T* row = cols + (c * patch + ky * g.kernel + kx) * (g.out_h * g.out_w);
        for (int64_t oy = 0; oy < g.out_h; ++oy) {
          const int64_t iy = oy * g.stride + ky - g.padding;
          for (int64_t ox = 0; ox < g.out_w; ++ox) {
            const int64_t ix = ox * g.stride + kx - g.padding;
            row[oy * g.out_w + ox] =
                (iy >= 0 && iy < g.height && ix >= 0 && ix < g.width)
                    ? img[(c * g.height + iy) * g.width + ix]
                    : static_cast<T>(0);
          }
        }
      }
    }
  }
}

// Folds columns back into an image, accumulating overlaps (im2col adjoint).
template <typename T>
void Col2Im(const T* cols, const ConvGeometry& g, T* img) {
  const int64_t patch = g.kernel * g.kernel;
  std::memset(img, 0,
              static_cast<size_t>(g.in_channels * g.height * g.width) *
                  sizeof(T));
  for (int64_t c = 0; c < g.in_channels; ++c) {
    for (int64_t ky = 0; ky < g.kernel; ++ky) {
      for (int64_t kx = 0; kx < g.kernel; ++kx) {
        const T* row =
            cols + (c * patch + ky * g.kernel + kx) * (g.out_h * g.out_w);
        for (int64_t oy = 0; oy < g.out_h; ++oy) {
          const int64_t iy = oy * g.stride + ky - g.padding;
          if (iy < 0 || iy >= g.height) continue;
          for (int64_t ox = 0; ox < g.out_w; ++ox) {
            const int64_t ix = ox * g.stride + kx - g.padding;
            if (ix < 0 || ix >= g.width) continue;
            img[(c * g.height + iy) * g.width + ix] += row[oy * g.out_w + ox];
          }
        }
      }
    }
  }
}

}  // namespace

Tensor Conv2d(const Tensor& input, const Tensor& weight, const Tensor& bias,
              int64_t stride, int64_t padding) {
  TDP_CHECK(input.defined() && weight.defined());
  TDP_CHECK(IsFloatingPoint(input.dtype()) && input.dtype() == weight.dtype());
  const ConvGeometry g = MakeConvGeometry(input, weight, stride, padding);
  if (bias.defined()) {
    TDP_CHECK_EQ(bias.dim(), 1);
    TDP_CHECK_EQ(bias.numel(), g.out_channels);
  }

  // Row-major operands via the format tag: dense inputs pass through,
  // strided views are copied. The bias is read in place (no
  // per-call ToVector copy — it used to be re-materialized every forward).
  const Tensor ic = input.RowMajor();
  const Tensor wc = weight.RowMajor();
  const Tensor bc = bias.defined() ? bias.RowMajor() : Tensor();
  Tensor out = Tensor::Empty({g.batch, g.out_channels, g.out_h, g.out_w},
                             input.dtype(), input.device());
  const int64_t cols_rows = g.in_channels * g.kernel * g.kernel;
  const int64_t cols_cols = g.out_h * g.out_w;
  const bool accel = input.device() == Device::kAccel;

  TDP_DISPATCH_FLOAT(input.dtype(), {
    const scalar_t* ip = ic.data<scalar_t>();
    const scalar_t* wp = wc.data<scalar_t>();
    scalar_t* op = out.data<scalar_t>();
    const scalar_t* bp = bc.defined() ? bc.data<scalar_t>() : nullptr;
    // Samples are independent; shard the batch. Each shard unfolds into
    // its thread's scratch arena, so steady-state forwards allocate
    // nothing but the output.
    const int64_t sample_cost =
        SaturatingCostProduct(g.out_channels, cols_rows, cols_cols);
    ParallelFor(0, g.batch, GrainForCost(sample_cost), [&, ip, wp, op, bp](
                    int64_t batch_begin, int64_t batch_end) {
      scalar_t* cols =
          accel ? ScratchArena::ForThread().Get<scalar_t>(
                      /*slot=*/0, cols_rows * cols_cols)
                : nullptr;
      for (int64_t n = batch_begin; n < batch_end; ++n) {
        const scalar_t* img = ip + n * g.in_channels * g.height * g.width;
        scalar_t* dst = op + n * g.out_channels * cols_cols;
        if (accel) {
          // im2col + GEMM: the accelerated path.
          Im2Col(img, g, cols);
          Gemm(wp, cols, dst, g.out_channels, cols_rows, cols_cols);
        } else {
          // Direct convolution with nested bounds checks: the reference path.
          for (int64_t o = 0; o < g.out_channels; ++o) {
            for (int64_t oy = 0; oy < g.out_h; ++oy) {
              for (int64_t ox = 0; ox < g.out_w; ++ox) {
                double acc = 0;
                for (int64_t c = 0; c < g.in_channels; ++c) {
                  for (int64_t ky = 0; ky < g.kernel; ++ky) {
                    const int64_t iy = oy * g.stride + ky - g.padding;
                    if (iy < 0 || iy >= g.height) continue;
                    for (int64_t kx = 0; kx < g.kernel; ++kx) {
                      const int64_t ix = ox * g.stride + kx - g.padding;
                      if (ix < 0 || ix >= g.width) continue;
                      acc += static_cast<double>(
                                 img[(c * g.height + iy) * g.width + ix]) *
                             static_cast<double>(
                                 wp[((o * g.in_channels + c) * g.kernel +
                                     ky) *
                                        g.kernel +
                                    kx]);
                    }
                  }
                }
                dst[(o * g.out_h + oy) * g.out_w + ox] =
                    static_cast<scalar_t>(acc);
              }
            }
          }
        }
        if (bp != nullptr) {
          for (int64_t o = 0; o < g.out_channels; ++o) {
            scalar_t* row = dst + o * cols_cols;
            for (int64_t i = 0; i < cols_cols; ++i) row[i] += bp[o];
          }
        }
      }
    });
  });

  autograd::RecordOp(
      "Conv2d", {input, weight, bias}, out,
      [input, weight, bias, g, cols_rows, cols_cols](const Tensor& grad) {
        const Tensor gc = grad.RowMajor();
        const Tensor ic = input.RowMajor();
        const Tensor wc = weight.RowMajor();
        Tensor grad_input =
            Tensor::Zeros(input.shape(), grad.dtype(), grad.device());
        Tensor grad_weight =
            Tensor::Zeros(weight.shape(), grad.dtype(), grad.device());
        Tensor grad_bias =
            bias.defined()
                ? Tensor::Zeros(bias.shape(), grad.dtype(), grad.device())
                : Tensor();
        TDP_DISPATCH_FLOAT(grad.dtype(), {
          const scalar_t* gp = gc.data<scalar_t>();
          const scalar_t* ip = ic.data<scalar_t>();
          const scalar_t* wp = wc.data<scalar_t>();
          scalar_t* gip = grad_input.data<scalar_t>();
          scalar_t* gwp = grad_weight.data<scalar_t>();
          const int64_t cols_n = cols_rows * cols_cols;
          const int64_t img_n = g.in_channels * g.height * g.width;
          // Three simultaneously-live scratch buffers from this thread's
          // arena (training loops re-enter here every step; the arena
          // makes the steady state allocation-free).
          ScratchArena& arena = ScratchArena::ForThread();
          scalar_t* cols = arena.Get<scalar_t>(/*slot=*/0, cols_n);
          scalar_t* cols_grad = arena.Get<scalar_t>(/*slot=*/1, cols_n);
          scalar_t* img_grad = arena.Get<scalar_t>(/*slot=*/2, img_n);
          for (int64_t n = 0; n < g.batch; ++n) {
            const scalar_t* img = ip + n * img_n;
            const scalar_t* gout = gp + n * g.out_channels * cols_cols;
            Im2Col(img, g, cols);
            // dW[o, r] += sum_j gout[o, j] * cols[r, j]
            for (int64_t o = 0; o < g.out_channels; ++o) {
              const scalar_t* grow = gout + o * cols_cols;
              for (int64_t r = 0; r < cols_rows; ++r) {
                const scalar_t* crow = cols + r * cols_cols;
                double acc = 0;
                for (int64_t j = 0; j < cols_cols; ++j) {
                  acc += static_cast<double>(grow[j]) *
                         static_cast<double>(crow[j]);
                }
                gwp[o * cols_rows + r] += static_cast<scalar_t>(acc);
              }
            }
            // dcols = W^T @ gout, then fold back into the input gradient.
            // As in the forward GEMM, zero weights participate: skipping
            // them would drop non-finite gradient propagation.
            std::memset(cols_grad, 0,
                        static_cast<size_t>(cols_n) * sizeof(scalar_t));
            for (int64_t o = 0; o < g.out_channels; ++o) {
              const scalar_t* __restrict grow = gout + o * cols_cols;
              const scalar_t* wrow = wp + o * cols_rows;
              for (int64_t r = 0; r < cols_rows; ++r) {
                const scalar_t wv = wrow[r];
                scalar_t* __restrict crow = cols_grad + r * cols_cols;
                for (int64_t j = 0; j < cols_cols; ++j) {
                  crow[j] += wv * grow[j];
                }
              }
            }
            Col2Im(cols_grad, g, img_grad);
            scalar_t* gin = gip + n * img_n;
            for (int64_t i = 0; i < img_n; ++i) gin[i] += img_grad[i];
          }
          if (grad_bias.defined()) {
            scalar_t* gbp = grad_bias.data<scalar_t>();
            for (int64_t n = 0; n < g.batch; ++n) {
              for (int64_t o = 0; o < g.out_channels; ++o) {
                const scalar_t* grow =
                    gp + (n * g.out_channels + o) * cols_cols;
                double acc = 0;
                for (int64_t j = 0; j < cols_cols; ++j) {
                  acc += static_cast<double>(grow[j]);
                }
                gbp[o] += static_cast<scalar_t>(acc);
              }
            }
          }
        });
        return std::vector<Tensor>{grad_input, grad_weight, grad_bias};
      });
  return out;
}

namespace {

Tensor Pool2dImpl(const Tensor& input, int64_t kernel, int64_t stride,
                  bool is_max) {
  TDP_CHECK(input.defined());
  TDP_CHECK_EQ(input.dim(), 4) << "pool input must be [N, C, H, W]";
  TDP_CHECK(IsFloatingPoint(input.dtype()));
  TDP_CHECK_GE(kernel, 1);
  TDP_CHECK_GE(stride, 1);
  const int64_t batch = input.size(0), channels = input.size(1),
                height = input.size(2), width = input.size(3);
  const int64_t out_h = (height - kernel) / stride + 1;
  const int64_t out_w = (width - kernel) / stride + 1;
  TDP_CHECK(out_h > 0 && out_w > 0);

  const Tensor ic = input.RowMajor();
  Tensor out = Tensor::Empty({batch, channels, out_h, out_w}, input.dtype(),
                             input.device());
  Tensor argmax;
  if (is_max) {
    argmax = Tensor::Empty({batch, channels, out_h, out_w}, DType::kInt64,
                           input.device());
  }

  TDP_DISPATCH_FLOAT(input.dtype(), {
    const scalar_t* ip = ic.data<scalar_t>();
    scalar_t* op = out.data<scalar_t>();
    int64_t* amp = is_max ? argmax.data<int64_t>() : nullptr;
    // Planes ([N*C] slices) write disjoint output windows; shard them.
    ParallelFor(
        0, batch * channels, GrainForCost(out_h * out_w * kernel * kernel),
        [&, ip, op, amp](int64_t plane_begin, int64_t plane_end) {
          for (int64_t nc = plane_begin; nc < plane_end; ++nc) {
            const scalar_t* plane = ip + nc * height * width;
            for (int64_t oy = 0; oy < out_h; ++oy) {
              for (int64_t ox = 0; ox < out_w; ++ox) {
                const int64_t iy0 = oy * stride, ix0 = ox * stride;
                if (is_max) {
                  scalar_t best = plane[iy0 * width + ix0];
                  int64_t best_idx = iy0 * width + ix0;
                  for (int64_t ky = 0; ky < kernel; ++ky) {
                    for (int64_t kx = 0; kx < kernel; ++kx) {
                      const int64_t idx = (iy0 + ky) * width + (ix0 + kx);
                      if (plane[idx] > best) {
                        best = plane[idx];
                        best_idx = idx;
                      }
                    }
                  }
                  op[(nc * out_h + oy) * out_w + ox] = best;
                  amp[(nc * out_h + oy) * out_w + ox] = best_idx;
                } else {
                  double acc = 0;
                  for (int64_t ky = 0; ky < kernel; ++ky) {
                    for (int64_t kx = 0; kx < kernel; ++kx) {
                      acc += static_cast<double>(
                          plane[(iy0 + ky) * width + (ix0 + kx)]);
                    }
                  }
                  op[(nc * out_h + oy) * out_w + ox] =
                      static_cast<scalar_t>(acc / (kernel * kernel));
                }
              }
            }
          }
        });
  });

  const int64_t hw = height * width;
  const int64_t ohw = out_h * out_w;
  if (is_max) {
    Tensor argmax_saved = argmax;
    autograd::RecordOp(
        "MaxPool2d", {input}, out,
        [input, argmax_saved, batch, channels, hw, ohw](const Tensor& g) {
          Tensor grad_in =
              Tensor::Zeros(input.shape(), g.dtype(), g.device());
          const Tensor gc = g.Contiguous();
          const int64_t* amp = argmax_saved.data<int64_t>();
          TDP_DISPATCH_FLOAT(g.dtype(), {
            const scalar_t* gp = gc.data<scalar_t>();
            scalar_t* rp = grad_in.data<scalar_t>();
            for (int64_t nc = 0; nc < batch * channels; ++nc) {
              for (int64_t i = 0; i < ohw; ++i) {
                rp[nc * hw + amp[nc * ohw + i]] += gp[nc * ohw + i];
              }
            }
          });
          return std::vector<Tensor>{grad_in};
        });
  } else {
    autograd::RecordOp(
        "AvgPool2d", {input}, out,
        [input, batch, channels, hw, ohw, out_h, out_w, width, kernel,
         stride](const Tensor& g) {
          Tensor grad_in =
              Tensor::Zeros(input.shape(), g.dtype(), g.device());
          const Tensor gc = g.Contiguous();
          const double scale = 1.0 / (kernel * kernel);
          TDP_DISPATCH_FLOAT(g.dtype(), {
            const scalar_t* gp = gc.data<scalar_t>();
            scalar_t* rp = grad_in.data<scalar_t>();
            for (int64_t nc = 0; nc < batch * channels; ++nc) {
              for (int64_t oy = 0; oy < out_h; ++oy) {
                for (int64_t ox = 0; ox < out_w; ++ox) {
                  const scalar_t gv = static_cast<scalar_t>(
                      gp[(nc * out_h + oy) * out_w + ox] * scale);
                  for (int64_t ky = 0; ky < kernel; ++ky) {
                    for (int64_t kx = 0; kx < kernel; ++kx) {
                      rp[nc * hw + (oy * stride + ky) * width +
                         (ox * stride + kx)] += gv;
                    }
                  }
                }
              }
            }
          });
          return std::vector<Tensor>{grad_in};
        });
  }
  return out;
}

}  // namespace

Tensor MaxPool2d(const Tensor& input, int64_t kernel, int64_t stride) {
  return Pool2dImpl(input, kernel, stride, /*is_max=*/true);
}

Tensor AvgPool2d(const Tensor& input, int64_t kernel, int64_t stride) {
  return Pool2dImpl(input, kernel, stride, /*is_max=*/false);
}

}  // namespace tdp
