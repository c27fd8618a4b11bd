// im2col / col2im lowering for convolutions.
//
// Convolutions are computed as GEMM over patch matrices: for one sample,
// im2col produces a [C*kh*kw, out_h*out_w] matrix; the conv forward is then
// W[Cout, C*kh*kw] · cols. col2im scatters patch gradients back to the
// input-gradient image (accumulating overlaps).
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace ripple {

/// Output spatial size for one dimension.
int64_t conv_out_size(int64_t in, int64_t kernel, int64_t stride, int64_t pad);

/// 2-d: image [C,H,W] -> cols [C*kh*kw, oh*ow].
void im2col_2d(const float* image, int64_t c, int64_t h, int64_t w, int64_t kh,
               int64_t kw, int64_t stride, int64_t pad, float* cols);

/// 2-d inverse: cols [C*kh*kw, oh*ow] accumulated into image grad [C,H,W]
/// (caller zeroes the image first).
void col2im_2d(const float* cols, int64_t c, int64_t h, int64_t w, int64_t kh,
               int64_t kw, int64_t stride, int64_t pad, float* image);

/// 1-d: signal [C,L] -> cols [C*k, ol].
void im2col_1d(const float* signal, int64_t c, int64_t l, int64_t k,
               int64_t stride, int64_t pad, float* cols);

/// 1-d inverse (accumulating).
void col2im_1d(const float* cols, int64_t c, int64_t l, int64_t k,
               int64_t stride, int64_t pad, float* signal);

}  // namespace ripple
