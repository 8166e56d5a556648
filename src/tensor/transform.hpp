// Layout transforms between the framework-facing logical layouts (NCHW
// activations, KCRS weights, both dense row-major) and the blocked SIMD
// layouts of layout.hpp, plus the backward-duality weight transform of paper
// Section II-I.
#pragma once

#include <cstdint>

#include "core/conv_params.hpp"
#include "tensor/layout.hpp"

namespace xconv::tensor {

// ---- Activations ----------------------------------------------------------

/// Copy a dense NCHW array (n*c*h*w floats) into a blocked ActTensor,
/// zero-filling channel-padding lanes and the spatial halo.
void nchw_to_blocked(const float* src, ActTensor& dst);

/// Copy the logical interior of a blocked ActTensor back to dense NCHW.
void blocked_to_nchw(const ActTensor& src, float* dst);

// ---- Weights --------------------------------------------------------------

/// KCRS (dense, k-major) -> forward blocked form W[Kb][Cb][R][S][vc][vk].
void kcrs_to_blocked_fwd(const float* src, int K, int C, WtTensor& dst);

/// Forward blocked form back to dense KCRS (drops padding lanes).
void blocked_fwd_to_kcrs(const WtTensor& src, int K, int C, float* dst);

/// KCRS -> backward-dual blocked form W'[Cb][Kb][R][S][vk][vc] with flipped
/// spatial taps: W'[c][k][R-1-r][S-1-s] = W[k][c][r][s] (Section II-I).
void kcrs_to_blocked_bwd(const float* src, int K, int C, WtTensor& dst);

/// Forward blocked form -> backward-dual blocked form directly (used when the
/// master copy of the weights lives in blocked layout). Writes the destination
/// blocks [block_begin, block_end) of the flattened Cb x Kb index
/// (cb * Kb + kb); each v x v block is the transposed copy of its flipped
/// source tap. Every element of a written block is stored exactly once, so
/// `bwd` needs no clearing and disjoint ranges may run concurrently.
void blocked_fwd_to_bwd(const WtTensor& fwd, WtTensor& bwd,
                        std::int64_t block_begin, std::int64_t block_end);

// ---- Gradient-weight form -------------------------------------------------

/// The weight-update pass produces dW in the forward blocked layout; this
/// exports it to dense KCRS like blocked_fwd_to_kcrs (alias for clarity).
inline void blocked_dw_to_kcrs(const WtTensor& src, int K, int C, float* dst) {
  blocked_fwd_to_kcrs(src, K, C, dst);
}

}  // namespace xconv::tensor
