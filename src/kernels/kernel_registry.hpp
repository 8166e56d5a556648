// Microkernel factory + cache.
//
// `KernelRegistry` resolves a kernel descriptor to an executable microkernel,
// JIT-compiling on first use and caching by descriptor key — the paper's
// "runtime and on-demand driven compiling infrastructure" that tames the
// combinatorial explosion of (layer shape x blocking x variant x fusion)
// kernels (Sections I, II-H). The cache is shared process-wide and guarded by
// a mutex; kernels are immutable after creation so lookups race-free after
// insertion.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "kernels/microkernel.hpp"
#include "platform/cpu.hpp"
#include "platform/sync.hpp"
#include "platform/thread_annotations.hpp"

namespace xconv::kernels {

/// Preferred backend resolution: `auto_pick` = JIT when the ISA supports it,
/// otherwise scalar. Explicit values force a family (used by tests and the
/// scalar-reference runs).
enum class BackendPref { auto_pick, jit, scalar };

BackendPref backend_pref_from_env();  ///< honors XCONV_BACKEND

class KernelRegistry {
 public:
  /// Process-wide instance.
  static KernelRegistry& instance();

  /// Resolve a forward microkernel. For Backend::scalar any vlen is accepted;
  /// JIT requires the desc's ISA/vlen pairing to be valid.
  const ConvMicrokernel* conv(const jit::ConvKernelDesc& desc,
                              BackendPref pref = BackendPref::auto_pick);

  /// Resolve a weight-update microkernel.
  const UpdMicrokernel* upd(const jit::UpdKernelDesc& desc,
                            BackendPref pref = BackendPref::auto_pick);

  /// Resolve a dW reduce-epilogue microkernel.
  const ReduceMicrokernel* reduce(const jit::ReduceKernelDesc& desc,
                                  BackendPref pref = BackendPref::auto_pick);

  /// Resolve a gradient-codec microkernel.
  const CodecMicrokernel* codec(const jit::CodecKernelDesc& desc,
                                BackendPref pref = BackendPref::auto_pick);

  /// Number of distinct kernels JIT'ed/instantiated so far (for tests and
  /// the "kernels generated" statistics the benches print).
  std::size_t size() const;

  /// Cache traffic counters: `hits` served an existing kernel, `misses`
  /// triggered a build (both racing builders of one key count as misses —
  /// the counter tracks compilations requested, not map growth). Together
  /// with PlanCache::stats() this substantiates the "zero planning work in
  /// steady state" claim: a warm process re-constructing a layer must add
  /// only hits.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const;
  void reset_stats();

 private:
  KernelRegistry() = default;
  // Guards the cache maps only. Kernel *construction* (JIT compile) runs
  // outside the lock — see conv()/upd() — so the returned pointers are the
  // unguarded, immutable payloads; the maps holding them are the shared state.
  mutable platform::Mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<ConvMicrokernel>> conv_
      XCONV_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::unique_ptr<UpdMicrokernel>> upd_
      XCONV_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::unique_ptr<ReduceMicrokernel>> reduce_
      XCONV_GUARDED_BY(mu_);
  std::unordered_map<std::string, std::unique_ptr<CodecMicrokernel>> codec_
      XCONV_GUARDED_BY(mu_);
  Stats stats_ XCONV_GUARDED_BY(mu_);
};

// Backend constructors (exposed for direct use in tests).
std::unique_ptr<ConvMicrokernel> make_conv_scalar(const jit::ConvKernelDesc&);
std::unique_ptr<UpdMicrokernel> make_upd_scalar(const jit::UpdKernelDesc&);
std::unique_ptr<ConvMicrokernel> make_conv_jit(const jit::ConvKernelDesc&);
std::unique_ptr<UpdMicrokernel> make_upd_jit(const jit::UpdKernelDesc&);
std::unique_ptr<ReduceMicrokernel> make_reduce_scalar(
    const jit::ReduceKernelDesc&);
std::unique_ptr<ReduceMicrokernel> make_reduce_jit(
    const jit::ReduceKernelDesc&);
std::unique_ptr<CodecMicrokernel> make_codec_scalar(
    const jit::CodecKernelDesc&);
std::unique_ptr<CodecMicrokernel> make_codec_jit(const jit::CodecKernelDesc&);

}  // namespace xconv::kernels
