// Backend-neutral microkernel handles. The convolution drivers in src/core
// call microkernels through this interface so the same driver runs:
//   * the runtime-JIT'ed kernels (the paper's contribution), and
//   * scalar kernels (correctness oracle, any vlen).
#pragma once

#include <memory>
#include <string>

#include "jit/codec_kernel_gen.hpp"
#include "jit/conv_kernel_gen.hpp"
#include "jit/upd_kernel_gen.hpp"

namespace xconv::kernels {

/// Which implementation family backs a microkernel.
enum class Backend { jit, scalar };

const char* backend_name(Backend b);

/// Forward-convolution microkernel handle (see jit/conv_kernel_gen.hpp for
/// the computation one invocation performs).
class ConvMicrokernel {
 public:
  virtual ~ConvMicrokernel() = default;
  virtual void run(const float* in, const float* wt, float* out,
                   const float* pf_in, const float* pf_wt,
                   const float* pf_out) const = 0;
  virtual Backend backend() const = 0;
  const jit::ConvKernelDesc& desc() const { return desc_; }

 protected:
  explicit ConvMicrokernel(const jit::ConvKernelDesc& d) : desc_(d) {}
  jit::ConvKernelDesc desc_;
};

/// Weight-update microkernel handle (see jit/upd_kernel_gen.hpp).
class UpdMicrokernel {
 public:
  virtual ~UpdMicrokernel() = default;
  virtual void run(const float* in, const float* dout, float* dw,
                   const float* pf_in, const float* pf_dout,
                   const float* pf_dw) const = 0;
  virtual Backend backend() const = 0;
  const jit::UpdKernelDesc& desc() const { return desc_; }

 protected:
  explicit UpdMicrokernel(const jit::UpdKernelDesc& d) : desc_(d) {}
  jit::UpdKernelDesc desc_;
};

/// dW-privatization reduce-epilogue handle: sums desc().copies private dW
/// copies into dst over `n` elements, linear per-element copy order (bitwise
/// equal across backends). `src`/`dst` point at the first element of the
/// range; copies sit desc().copy_stride elements apart from `src`. The JIT
/// backend runs full unroll*vlen chunks through generated code and finishes
/// the tail with the scalar loop.
class ReduceMicrokernel {
 public:
  virtual ~ReduceMicrokernel() = default;
  virtual void run(const float* src, float* dst, std::int64_t n) const = 0;
  virtual Backend backend() const = 0;
  const jit::ReduceKernelDesc& desc() const { return desc_; }

 protected:
  explicit ReduceMicrokernel(const jit::ReduceKernelDesc& d) : desc_(d) {}
  jit::ReduceKernelDesc desc_;
};

/// One codec kernel invocation: operand pointers for the op in desc().op
/// (see jit/codec_kernel_gen.hpp for the per-op mapping), plus the scalar
/// parameters the op consumes. Unused fields stay at their defaults.
struct CodecCall {
  const float* f_in = nullptr;         ///< float input (src)
  float* f_io = nullptr;               ///< float in/out (residual or dst)
  const std::uint8_t* w_in = nullptr;  ///< wire input (i16/u16 stream)
  std::uint8_t* w_out = nullptr;       ///< wire output
  const std::uint32_t* u_in = nullptr; ///< u32 input (mag for compress)
  std::uint32_t* u_out = nullptr;      ///< u32 output (mag / indices)
  float scale = 1.0f;                  ///< int16 quantization scale
  std::uint32_t threshold = 0;         ///< top-k compress magnitude pivot
  std::int64_t n = 0;                  ///< element count
};

/// Gradient-codec hot-loop handle. run() returns the compress-store element
/// count for topk_compress and 0 for every other op. Backends are
/// bitwise-identical by construction (the JIT tail reuses the scalar span).
class CodecMicrokernel {
 public:
  virtual ~CodecMicrokernel() = default;
  virtual std::int64_t run(const CodecCall& call) const = 0;
  virtual Backend backend() const = 0;
  const jit::CodecKernelDesc& desc() const { return desc_; }

 protected:
  explicit CodecMicrokernel(const jit::CodecKernelDesc& d) : desc_(d) {}
  jit::CodecKernelDesc desc_;
};

/// Scalar reference span for a codec op over elements [i0, i1): the bitwise
/// ground truth every backend matches. `out_pos` is the compress-output
/// write position on entry; returns the updated position (0 for other ops).
/// The scalar backend runs the whole range through this; the JIT backend
/// uses it for sub-vector tails.
std::int64_t codec_scalar_span(const jit::CodecKernelDesc& desc,
                               const CodecCall& call, std::int64_t i0,
                               std::int64_t i1, std::int64_t out_pos);

}  // namespace xconv::kernels
