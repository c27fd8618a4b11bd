#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

namespace ripple {
namespace {

/// First output index whose input index ox·stride + offset is >= 0.
inline int64_t first_valid(int64_t offset, int64_t stride) {
  if (offset >= 0) return 0;
  return (-offset + stride - 1) / stride;
}

/// One past the last output index whose input index stays < extent.
inline int64_t last_valid(int64_t extent, int64_t offset, int64_t stride) {
  if (offset >= extent) return 0;
  return (extent - 1 - offset) / stride + 1;
}

}  // namespace

int64_t conv_out_size(int64_t in, int64_t kernel, int64_t stride,
                      int64_t pad) {
  RIPPLE_CHECK(stride >= 1) << "stride must be >= 1";
  const int64_t padded = in + 2 * pad;
  RIPPLE_CHECK(padded >= kernel)
      << "kernel " << kernel << " larger than padded input " << padded;
  return (padded - kernel) / stride + 1;
}

void im2col_2d(const float* image, int64_t c, int64_t h, int64_t w, int64_t kh,
               int64_t kw, int64_t stride, int64_t pad, float* cols) {
  const int64_t oh = conv_out_size(h, kh, stride, pad);
  const int64_t ow = conv_out_size(w, kw, stride, pad);
  const int64_t ld = oh * ow;
  int64_t row = 0;
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* plane = image + ch * h * w;
    for (int64_t dy = 0; dy < kh; ++dy) {
      for (int64_t dx = 0; dx < kw; ++dx, ++row) {
        float* out_row = cols + row * ld;
        // Valid-x window for this kernel column: padding contributes only
        // at the edges, so the interior copies without per-pixel checks
        // (contiguous memcpy when stride == 1).
        const int64_t ox_lo = std::min(ow, first_valid(dx - pad, stride));
        const int64_t ox_hi =
            std::max(ox_lo, std::min(ow, last_valid(w, dx - pad, stride)));
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * stride + dy - pad;
          float* dst = out_row + oy * ow;
          if (iy < 0 || iy >= h) {
            std::memset(dst, 0, sizeof(float) * ow);
            continue;
          }
          const float* src = plane + iy * w + dx - pad;
          if (ox_lo > 0) std::memset(dst, 0, sizeof(float) * ox_lo);
          if (stride == 1) {
            std::memcpy(dst + ox_lo, src + ox_lo,
                        sizeof(float) * (ox_hi - ox_lo));
          } else {
            for (int64_t ox = ox_lo; ox < ox_hi; ++ox)
              dst[ox] = src[ox * stride];
          }
          if (ox_hi < ow)
            std::memset(dst + ox_hi, 0, sizeof(float) * (ow - ox_hi));
        }
      }
    }
  }
}

void col2im_2d(const float* cols, int64_t c, int64_t h, int64_t w, int64_t kh,
               int64_t kw, int64_t stride, int64_t pad, float* image) {
  const int64_t oh = conv_out_size(h, kh, stride, pad);
  const int64_t ow = conv_out_size(w, kw, stride, pad);
  const int64_t out_area = oh * ow;
  int64_t row = 0;
  for (int64_t ch = 0; ch < c; ++ch) {
    float* plane = image + ch * h * w;
    for (int64_t dy = 0; dy < kh; ++dy) {
      for (int64_t dx = 0; dx < kw; ++dx, ++row) {
        const float* in_row = cols + row * out_area;
        for (int64_t oy = 0; oy < oh; ++oy) {
          const int64_t iy = oy * stride + dy - pad;
          if (iy < 0 || iy >= h) continue;
          float* dst = plane + iy * w;
          for (int64_t ox = 0; ox < ow; ++ox) {
            const int64_t ix = ox * stride + dx - pad;
            if (ix >= 0 && ix < w) dst[ix] += in_row[oy * ow + ox];
          }
        }
      }
    }
  }
}

void im2col_1d(const float* signal, int64_t c, int64_t l, int64_t k,
               int64_t stride, int64_t pad, float* cols) {
  const int64_t ol = conv_out_size(l, k, stride, pad);
  int64_t row = 0;
  for (int64_t ch = 0; ch < c; ++ch) {
    const float* line = signal + ch * l;
    for (int64_t dx = 0; dx < k; ++dx, ++row) {
      float* out_row = cols + row * ol;
      const int64_t ox_lo = std::min(ol, first_valid(dx - pad, stride));
      const int64_t ox_hi =
          std::max(ox_lo, std::min(ol, last_valid(l, dx - pad, stride)));
      if (ox_lo > 0) std::memset(out_row, 0, sizeof(float) * ox_lo);
      const float* src = line + dx - pad;
      if (stride == 1) {
        std::memcpy(out_row + ox_lo, src + ox_lo,
                    sizeof(float) * (ox_hi - ox_lo));
      } else {
        for (int64_t ox = ox_lo; ox < ox_hi; ++ox)
          out_row[ox] = src[ox * stride];
      }
      if (ox_hi < ol)
        std::memset(out_row + ox_hi, 0, sizeof(float) * (ol - ox_hi));
    }
  }
}

void col2im_1d(const float* cols, int64_t c, int64_t l, int64_t k,
               int64_t stride, int64_t pad, float* signal) {
  const int64_t ol = conv_out_size(l, k, stride, pad);
  int64_t row = 0;
  for (int64_t ch = 0; ch < c; ++ch) {
    float* line = signal + ch * l;
    for (int64_t dx = 0; dx < k; ++dx, ++row) {
      const float* in_row = cols + row * ol;
      for (int64_t ox = 0; ox < ol; ++ox) {
        const int64_t ix = ox * stride + dx - pad;
        if (ix >= 0 && ix < l) line[ix] += in_row[ox];
      }
    }
  }
}

}  // namespace ripple
