#include "tensor/transform.hpp"

namespace xconv::tensor {

void nchw_to_blocked(const float* src, ActTensor& dst) {
  const int N = dst.n(), C = dst.channels(), H = dst.h(), W = dst.w();
  dst.zero();  // clears halo and channel-padding lanes
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c) {
      const float* s = src + (static_cast<std::size_t>(n) * C + c) * H * W;
      for (int y = 0; y < H; ++y)
        for (int x = 0; x < W; ++x) dst.el(n, c, y, x) = s[y * W + x];
    }
}

void blocked_to_nchw(const ActTensor& src, float* dst) {
  const int N = src.n(), C = src.channels(), H = src.h(), W = src.w();
  for (int n = 0; n < N; ++n)
    for (int c = 0; c < C; ++c) {
      float* d = dst + (static_cast<std::size_t>(n) * C + c) * H * W;
      for (int y = 0; y < H; ++y)
        for (int x = 0; x < W; ++x) d[y * W + x] = src.el(n, c, y, x);
    }
}

void kcrs_to_blocked_fwd(const float* src, int K, int C, WtTensor& dst) {
  const int R = dst.r(), S = dst.s(), v = dst.vlen();
  dst.zero();
  for (int k = 0; k < K; ++k)
    for (int c = 0; c < C; ++c)
      for (int r = 0; r < R; ++r)
        for (int s = 0; s < S; ++s) {
          const float w =
              src[((static_cast<std::size_t>(k) * C + c) * R + r) * S + s];
          dst.el(k / v, c / v, r, s, c % v, k % v) = w;
        }
}

void blocked_fwd_to_kcrs(const WtTensor& src, int K, int C, float* dst) {
  const int R = src.r(), S = src.s(), v = src.vlen();
  for (int k = 0; k < K; ++k)
    for (int c = 0; c < C; ++c)
      for (int r = 0; r < R; ++r)
        for (int s = 0; s < S; ++s)
          dst[((static_cast<std::size_t>(k) * C + c) * R + r) * S + s] =
              src.el(k / v, c / v, r, s, c % v, k % v);
}

void kcrs_to_blocked_bwd(const float* src, int K, int C, WtTensor& dst) {
  const int R = dst.r(), S = dst.s(), v = dst.vlen();
  dst.zero();
  for (int k = 0; k < K; ++k)
    for (int c = 0; c < C; ++c)
      for (int r = 0; r < R; ++r)
        for (int s = 0; s < S; ++s) {
          const float w =
              src[((static_cast<std::size_t>(k) * C + c) * R + r) * S + s];
          // Outer block = Cb, inner = Kb, taps flipped, channel roles swapped:
          // in the dual convolution the "input" is dO (k channels) and the
          // "output" is dI (c channels), so rows index k and lanes index c.
          dst.el(c / v, k / v, R - 1 - r, S - 1 - s, k % v, c % v) = w;
        }
}

void blocked_fwd_to_bwd(const WtTensor& fwd, WtTensor& bwd,
                        std::int64_t block_begin, std::int64_t block_end) {
  const int Kb = fwd.outer();
  const int R = fwd.r(), S = fwd.s(), v = fwd.vlen();
  for (std::int64_t blk = block_begin; blk < block_end; ++blk) {
    const int cb = static_cast<int>(blk / Kb);
    const int kb = static_cast<int>(blk % Kb);
    for (int r = 0; r < R; ++r)
      for (int s = 0; s < S; ++s) {
        // Destination rows index k, lanes index c: a plain v x v transpose.
        const float* src = fwd.at(kb, cb, R - 1 - r, S - 1 - s);
        float* dst = bwd.at(cb, kb, r, s);
        for (int k = 0; k < v; ++k)
          for (int c = 0; c < v; ++c) dst[k * v + c] = src[c * v + k];
      }
  }
}

}  // namespace xconv::tensor
