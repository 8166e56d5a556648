#include "kernels/kernel_registry.hpp"

#include <cstring>
#include <stdexcept>

#include "jit/verify/verifier.hpp"
#include "platform/envparse.hpp"
#include "quant/quantize.hpp"

namespace xconv::kernels {

namespace {

// Registry-insert-time static verification (XCONV_VERIFY_JIT): each wrapper
// verifies its freshly generated kernel exactly once, before it can be
// dispatched — zero steady-state cost, and a corrupt kernel throws here with
// a disassembly diagnostic instead of faulting at runtime.
template <class Kernel, class Desc>
const std::unique_ptr<Kernel>& verified(const std::unique_ptr<Kernel>& k,
                                        const Desc& d) {
  jit::verify::maybe_verify(jit::verify::contract_for(d), k->code(),
                            k->code_size(), d.key());
  return k;
}

class JitConvKernel final : public ConvMicrokernel {
 public:
  explicit JitConvKernel(const jit::ConvKernelDesc& d)
      : ConvMicrokernel(d), k_(jit::generate_conv_kernel(d)) {
    verified(k_, d);
  }

  void run(const float* in, const float* wt, float* out, const float* pf_in,
           const float* pf_wt, const float* pf_out) const override {
    (*k_)(in, wt, out, pf_in, pf_wt, pf_out);
  }
  Backend backend() const override { return Backend::jit; }

 private:
  std::unique_ptr<jit::ConvKernel> k_;
};

class JitUpdKernel final : public UpdMicrokernel {
 public:
  explicit JitUpdKernel(const jit::UpdKernelDesc& d)
      : UpdMicrokernel(d), k_(jit::generate_upd_kernel(d)) {
    verified(k_, d);
  }

  void run(const float* in, const float* dout, float* dw, const float* pf_in,
           const float* pf_dout, const float* pf_dw) const override {
    (*k_)(in, dout, dw, pf_in, pf_dout, pf_dw);
  }
  Backend backend() const override { return Backend::jit; }

 private:
  std::unique_ptr<jit::UpdKernel> k_;
};

class JitReduceKernel final : public ReduceMicrokernel {
 public:
  explicit JitReduceKernel(const jit::ReduceKernelDesc& d)
      : ReduceMicrokernel(d), k_(jit::generate_reduce_kernel(d)) {
    verified(k_, d);
  }

  void run(const float* src, float* dst, std::int64_t n) const override {
    const auto& d = desc_;
    const std::int64_t chunk = static_cast<std::int64_t>(d.unroll) * d.vlen;
    const std::int64_t nv = n / chunk;
    if (nv > 0) (*k_)(src, dst, nv);
    // Sub-chunk tail: the scalar loop, same copy order — fp addition is
    // associativity-sensitive but the order here is identical.
    for (std::int64_t e = nv * chunk; e < n; ++e) {
      float acc = src[e];
      for (int c = 1; c < d.copies; ++c) acc += src[d.copy_stride * c + e];
      dst[e] = acc;
    }
  }
  Backend backend() const override { return Backend::jit; }

 private:
  std::unique_ptr<jit::ReduceKernel> k_;
};

class JitCodecKernel final : public CodecMicrokernel {
 public:
  explicit JitCodecKernel(const jit::CodecKernelDesc& d)
      : CodecMicrokernel(d), k_(jit::generate_codec_kernel(d)) {
    verified(k_, d);
  }

  std::int64_t run(const CodecCall& call) const override {
    const std::int64_t nv = call.n / desc_.vlen;
    const std::int64_t head = nv * desc_.vlen;
    const std::int64_t pos = nv > 0 ? dispatch(call, nv) : 0;
    return codec_scalar_span(desc_, call, head, call.n, pos);
  }
  Backend backend() const override { return Backend::jit; }

 private:
  // Build the op's params block (see codec_kernel_gen.hpp table) and route
  // the CodecCall pointers into the (a, b, c) ABI slots.
  std::int64_t dispatch(const CodecCall& call, std::int64_t nv) const {
    switch (desc_.op) {
      case jit::CodecOp::fold_add:
        return (*k_)(call.f_in, call.f_io, nullptr, nv, nullptr);
      case jit::CodecOp::int16_quant: {
        const float params[3] = {call.scale,
                                 static_cast<float>(quant::kQMax),
                                 -static_cast<float>(quant::kQMax)};
        return (*k_)(call.f_io, call.w_out, nullptr, nv, params);
      }
      case jit::CodecOp::int16_dequant:
      case jit::CodecOp::int16_dequant_acc: {
        const float params[1] = {call.scale};
        return (*k_)(call.w_in, call.f_io, nullptr, nv, params);
      }
      case jit::CodecOp::bf16_pack: {
        static constexpr std::uint32_t params[6] = {
            0x7fffffffu, 0x7f800000u, 1u, 0x7fffu, 0x400000u, 0xffff0000u};
        return (*k_)(call.f_in, call.f_io, call.w_out, nv, params);
      }
      case jit::CodecOp::bf16_unpack:
      case jit::CodecOp::bf16_unpack_acc:
        return (*k_)(call.w_in, call.f_io, nullptr, nv, nullptr);
      case jit::CodecOp::topk_mag: {
        static constexpr std::uint32_t params[2] = {0x7fffffffu, 0x7f800000u};
        return (*k_)(call.f_in, call.u_out, nullptr, nv, params);
      }
      case jit::CodecOp::topk_compress: {
        std::uint32_t params[18];
        params[0] = call.threshold;
        for (std::uint32_t i = 0; i < 16; ++i) params[1 + i] = i;
        params[17] = 16;
        return (*k_)(call.u_in, call.u_out, nullptr, nv, params);
      }
    }
    return 0;
  }

  std::unique_ptr<jit::CodecKernel> k_;
};

bool host_supports(platform::Isa isa) {
  return static_cast<int>(platform::max_isa()) >= static_cast<int>(isa);
}

// Conv/upd/reduce kernels are generated for avx2 and up; codec kernels only
// for avx512 and up (codec validate() rejects avx2).
bool simd_ok(platform::Isa isa, platform::Isa min_isa = platform::Isa::avx2) {
  return static_cast<int>(isa) >= static_cast<int>(min_isa) &&
         host_supports(isa);
}

// JIT when forced, or under auto_pick when the ISA allows it; scalar
// otherwise. Forcing JIT on an ISA it cannot target throws.
bool use_jit(BackendPref pref, bool simd) {
  if (pref == BackendPref::jit && !simd)
    throw std::invalid_argument(
        "JIT backend needs a SIMD ISA the host supports");
  return pref == BackendPref::jit || (pref == BackendPref::auto_pick && simd);
}

std::unique_ptr<ConvMicrokernel> build_conv(const jit::ConvKernelDesc& d,
                                            BackendPref pref) {
  return use_jit(pref, simd_ok(d.isa)) ? make_conv_jit(d) : make_conv_scalar(d);
}

std::unique_ptr<UpdMicrokernel> build_upd(const jit::UpdKernelDesc& d,
                                          BackendPref pref) {
  return use_jit(pref, simd_ok(d.isa)) ? make_upd_jit(d) : make_upd_scalar(d);
}

std::unique_ptr<ReduceMicrokernel> build_reduce(const jit::ReduceKernelDesc& d,
                                                BackendPref pref) {
  return use_jit(pref, simd_ok(d.isa)) ? make_reduce_jit(d)
                                       : make_reduce_scalar(d);
}

std::unique_ptr<CodecMicrokernel> build_codec(const jit::CodecKernelDesc& d,
                                              BackendPref pref) {
  return use_jit(pref, simd_ok(d.isa, platform::Isa::avx512))
             ? make_codec_jit(d)
             : make_codec_scalar(d);
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::jit: return "jit";
    case Backend::scalar: return "scalar";
  }
  return "unknown";
}

// Lenient by contract (pinned in test_kernel_registry): an unrecognized
// XCONV_BACKEND value means auto_pick, not an error.
BackendPref backend_pref_from_env() {
  if (const char* v = platform::env::get("XCONV_BACKEND")) {
    if (std::strcmp(v, "jit") == 0) return BackendPref::jit;
    if (std::strcmp(v, "scalar") == 0) return BackendPref::scalar;
  }
  return BackendPref::auto_pick;
}

KernelRegistry& KernelRegistry::instance() {
  static KernelRegistry r;
  return r;
}

// Lookup and insertion both happen under mu_, but the (potentially slow) JIT
// compile runs unlocked so concurrent first-use resolution of *different*
// descriptors is not serialized. Two threads racing on the *same* key may both
// build; emplace keeps the first and the loser's kernel is discarded — kernels
// are immutable and returned pointers stay valid for the process lifetime
// because entries are never erased. The two-phase locking is written out
// inline (rather than through a helper taking the guarded map by reference)
// so thread-safety analysis can see both critical sections.
const ConvMicrokernel* KernelRegistry::conv(const jit::ConvKernelDesc& desc,
                                            BackendPref pref) {
  const std::string key =
      desc.key() + "#" + std::to_string(static_cast<int>(pref));
  {
    const platform::MutexLock lock(mu_);
    auto it = conv_.find(key);
    if (it != conv_.end()) {
      ++stats_.hits;
      return it->second.get();
    }
    ++stats_.misses;
  }
  auto built = build_conv(desc, pref);  // may throw; cache stays untouched
  const platform::MutexLock lock(mu_);
  return conv_.emplace(key, std::move(built)).first->second.get();
}

const UpdMicrokernel* KernelRegistry::upd(const jit::UpdKernelDesc& desc,
                                          BackendPref pref) {
  const std::string key =
      desc.key() + "#" + std::to_string(static_cast<int>(pref));
  {
    const platform::MutexLock lock(mu_);
    auto it = upd_.find(key);
    if (it != upd_.end()) {
      ++stats_.hits;
      return it->second.get();
    }
    ++stats_.misses;
  }
  auto built = build_upd(desc, pref);  // may throw; cache stays untouched
  const platform::MutexLock lock(mu_);
  return upd_.emplace(key, std::move(built)).first->second.get();
}

const ReduceMicrokernel* KernelRegistry::reduce(
    const jit::ReduceKernelDesc& desc, BackendPref pref) {
  const std::string key =
      desc.key() + "#" + std::to_string(static_cast<int>(pref));
  {
    const platform::MutexLock lock(mu_);
    auto it = reduce_.find(key);
    if (it != reduce_.end()) {
      ++stats_.hits;
      return it->second.get();
    }
    ++stats_.misses;
  }
  auto built = build_reduce(desc, pref);  // may throw; cache stays untouched
  const platform::MutexLock lock(mu_);
  return reduce_.emplace(key, std::move(built)).first->second.get();
}

const CodecMicrokernel* KernelRegistry::codec(const jit::CodecKernelDesc& desc,
                                              BackendPref pref) {
  const std::string key =
      desc.key() + "#" + std::to_string(static_cast<int>(pref));
  {
    const platform::MutexLock lock(mu_);
    auto it = codec_.find(key);
    if (it != codec_.end()) {
      ++stats_.hits;
      return it->second.get();
    }
    ++stats_.misses;
  }
  auto built = build_codec(desc, pref);  // may throw; cache stays untouched
  const platform::MutexLock lock(mu_);
  return codec_.emplace(key, std::move(built)).first->second.get();
}

std::size_t KernelRegistry::size() const {
  const platform::MutexLock lock(mu_);
  return conv_.size() + upd_.size() + reduce_.size() + codec_.size();
}

KernelRegistry::Stats KernelRegistry::stats() const {
  const platform::MutexLock lock(mu_);
  return stats_;
}

void KernelRegistry::reset_stats() {
  const platform::MutexLock lock(mu_);
  stats_ = Stats{};
}

std::unique_ptr<ConvMicrokernel> make_conv_jit(const jit::ConvKernelDesc& d) {
  return std::make_unique<JitConvKernel>(d);
}

std::unique_ptr<UpdMicrokernel> make_upd_jit(const jit::UpdKernelDesc& d) {
  return std::make_unique<JitUpdKernel>(d);
}

std::unique_ptr<ReduceMicrokernel> make_reduce_jit(
    const jit::ReduceKernelDesc& d) {
  return std::make_unique<JitReduceKernel>(d);
}

std::unique_ptr<CodecMicrokernel> make_codec_jit(
    const jit::CodecKernelDesc& d) {
  return std::make_unique<JitCodecKernel>(d);
}

}  // namespace xconv::kernels
