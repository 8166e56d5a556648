// The microkernel ABI shared by every backend (JIT, scalar): six pointer
// arguments, as introduced when the paper extends the kernel API for
// two-level prefetching (Section II-E):
//   (in, wt, out)          — sub-tensors of the current invocation
//   (pf_in, pf_wt, pf_out) — sub-tensors of a *future* invocation, prefetched
//                            to L2 while this one computes.
// Passing the next call's base pointers (offsets) as prefetch arguments is
// exactly the property the kernel-streams replay exploits (Section II-H).
#pragma once

#include <cstdint>

namespace xconv::jit {

using conv_fn = void (*)(const float* in, const float* wt, float* out,
                         const float* pf_in, const float* pf_wt,
                         const float* pf_out);

/// dW-privatization reduce epilogue: sums `copies` private dW copies (a
/// desc-constant element stride apart, starting at src) into dst. `iters`
/// counts unroll*vlen-element chunks; src/dst advance together. The driver
/// handles the sub-chunk tail with the scalar reference loop.
using reduce_fn = void (*)(const float* src, float* dst, std::int64_t iters);

/// Codec kernels (int16 / bf16 / top-k encode+decode): three operand
/// pointers whose meaning is per-op (documented in codec_kernel_gen.hpp),
/// `iters` full 16-lane vectors, and a pointer to a small caller-built array
/// of scalar parameters (scale, threshold, iota table) broadcast from memory.
/// The return value is the compress-store element count (0 for other ops).
using codec_fn = std::int64_t (*)(const void* a, void* b, void* c,
                                  std::int64_t iters, const void* params);

}  // namespace xconv::jit
