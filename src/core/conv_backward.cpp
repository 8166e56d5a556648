// Backward propagation (paper Section II-I).
//
// Three paths, selected at setup:
//   1. stride == 1      — duality: transform the weights (transpose channel
//      blocks, flip taps) and run the *forward* machinery of a dual layer
//      whose input is dO (with the R-1-pad halo make_output() provides) and
//      whose output is dI. This literally reuses the forward code generator,
//      streams, fusion and parallelization ("duality for backward propagation
//      to reduce number of code generators").
//   2. R == S == 1, stride > 1, pad == 0 — duality with a fractional stride:
//      a dense 1x1 forward convolution over dO scattered into dI with
//      out_col_stride = stride*VLEN (Section II-I scenario 2).
//   3. everything else  — Algorithm 7: small GEMMs
//      GEMM(W'[cb][kb][R-1-r][S-1-s], dO[n][kb][oj][:], dI[n][cb][ij+r][ii+s])
//      with M = K = VLEN and N = Q, accumulating into a zeroed dI.
#include <omp.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "core/conv_layer.hpp"
#include "gemm/gemm.hpp"
#include "jit/gemm_kernel_gen.hpp"
#include "jit/verify/verifier.hpp"
#include "tensor/transform.hpp"

namespace xconv::core {

namespace {
// Mirror of forward's check_geometry (conv_forward.cpp): a wrong-shape
// tensor must fail loudly instead of silently corrupting memory.
void check_bwd_geometry(const core::ConvLayer& l,
                        const tensor::ActTensor& grad_out,
                        const tensor::WtTensor& wt,
                        const tensor::ActTensor& grad_in) {
  const core::ConvParams& p = l.params();
  if (grad_out.n() != p.N || grad_out.channels() != p.K ||
      grad_out.h() != p.P() || grad_out.w() != p.Q() ||
      grad_out.pad_h() != l.out_halo_h() ||
      grad_out.pad_w() != l.out_halo_w() || grad_out.vlen() != l.vlen())
    throw std::invalid_argument(
        "ConvLayer::backward: grad_out geometry mismatch (use make_output)");
  if (grad_in.n() != p.N || grad_in.channels() != p.C || grad_in.h() != p.H ||
      grad_in.w() != p.W || grad_in.pad_h() != l.in_halo_h() ||
      grad_in.pad_w() != l.in_halo_w() || grad_in.vlen() != l.vlen())
    throw std::invalid_argument(
        "ConvLayer::backward: grad_in geometry mismatch (use make_input)");
  if (wt.outer() != l.kb() || wt.inner() != l.cb() || wt.r() != p.R ||
      wt.s() != p.S || wt.vlen() != l.vlen())
    throw std::invalid_argument(
        "ConvLayer::backward: weight geometry mismatch");
}
}  // namespace

struct ConvLayer::BwdGemmPlan {
  int qc = 0;      ///< main chunk of Q pixels per GEMM call
  int q_rem = 0;   ///< remainder chunk
  // JIT kernels (null when the backend is not JIT-capable; the C++
  // gemm_blocked path is used instead).
  std::unique_ptr<jit::GemmKernel> main, rem;
  int ldc = 0;
};

// Out-of-line: BwdGemmPlan must be complete where the destructor is emitted.
ConvLayer::~ConvLayer() = default;

void ConvLayer::setup_backward() {
  const ConvParams& p = params_;
  bwd_wt_ = tensor::WtTensor(cb_, kb_, p.R, p.S, vlen_);

  const bool jit_capable = opt_.isa != platform::Isa::scalar &&
                           opt_.backend != kernels::BackendPref::scalar;

  // The algorithm choice (shape-forced, Section II-I) and its blocking
  // extents come from the resolved plan.
  bwd_algo_ = plan_.bwd_algo;

  if (bwd_algo_ == BwdAlgo::duality_stride1) {
    ConvParams dual;
    dual.N = p.N;
    dual.C = p.K;
    dual.K = p.C;
    dual.H = p.P();
    dual.W = p.Q();
    dual.R = p.R;
    dual.S = p.S;
    dual.stride_h = dual.stride_w = 1;
    dual.pad_h = p.R - 1 - p.pad_h;
    dual.pad_w = p.S - 1 - p.pad_w;
    if (dual.pad_h < 0 || dual.pad_w < 0)
      throw std::invalid_argument(
          "ConvLayer: pad > R-1 unsupported by the duality transform");
    ConvOptions dopt = opt_;
    dopt.fuse = FusedOp::none;
    // Re-plan for the dual shape: the parent's explicit plan / ablation
    // overrides describe *this* layer's geometry, not the dual's.
    dopt.plan.reset();
    dopt.rbp = dopt.rbq = 0;
    dopt.upd_bp = dopt.upd_bq = 0;
    dopt.upd_strategy = UpdStrategy::auto_pick;
    dopt.threads = threads_;
    dopt.fwd_only = true;
    // The dual layer's input is this layer's output tensor and its output is
    // this layer's input tensor: inherit their physical halos.
    dopt.in_halo_h = out_pad_h_;
    dopt.in_halo_w = out_pad_w_;
    dopt.out_halo_h = in_halo_h_;
    dopt.out_halo_w = in_halo_w_;
    bwd_layer_ = std::make_unique<ConvLayer>(dual, dopt);
    return;
  }

  if (bwd_algo_ == BwdAlgo::duality_1x1_strided) {
    auto& reg = kernels::KernelRegistry::instance();
    bwd1x1_rbq_ = plan_.bwd1x1_rbq;
    bwd1x1_qfull_ = p.Q() / bwd1x1_rbq_;
    bwd1x1_qrem_ = p.Q() % bwd1x1_rbq_;
    bwd1x1_variants_.clear();
    for (int qe = 0; qe < 2; ++qe) {
      if (qe == 1 && bwd1x1_qrem_ == 0) continue;
      jit::ConvKernelDesc d;
      d.isa = opt_.isa == platform::Isa::scalar ? platform::Isa::avx512
                                                : opt_.isa;
      d.vlen = vlen_;
      d.rbp = 1;
      d.rbq = qe ? bwd1x1_qrem_ : bwd1x1_rbq_;
      d.r = d.s = 1;
      d.stride_h = d.stride_w = 1;       // dense read over dO
      d.in_row_stride = out_row_stride_;  // dO geometry
      d.out_row_stride = params_.stride_h * in_row_stride_;  // scatter rows
      d.out_col_stride = params_.stride_w * vlen_;           // scatter cols
      d.c_iters = vlen_;
      if (kb_ > 1) {
        d.c_blocks = kb_;
        d.in_cb_stride = static_cast<int>(out_kb_stride_);
        d.wt_cb_stride = vlen_ * vlen_;
      }
      d.beta0 = true;
      d.prefetch = opt_.prefetch;
      bwd1x1_variants_.push_back(reg.conv(d, opt_.backend));
    }
    return;
  }

  bwd_gemm_ = std::make_shared<BwdGemmPlan>();
  bwd_gemm_->qc = plan_.bwd_gemm_qc;
  bwd_gemm_->q_rem = p.Q() % bwd_gemm_->qc;
  bwd_gemm_->ldc = p.stride_w * vlen_;
  if (jit_capable && vlen_ == platform::vlen_fp32(opt_.isa)) {
    jit::GemmKernelDesc g;
    g.isa = opt_.isa;
    g.vlen = vlen_;
    g.k = vlen_;
    g.lda = vlen_;
    g.ldb = vlen_;
    g.ldc = bwd_gemm_->ldc;
    g.beta0 = false;
    g.n = bwd_gemm_->qc;
    bwd_gemm_->main = jit::generate_gemm_kernel(g);
    jit::verify::maybe_verify(jit::verify::contract_for(g),
                              bwd_gemm_->main->code(),
                              bwd_gemm_->main->code_size(), g.key());
    if (bwd_gemm_->q_rem > 0) {
      g.n = bwd_gemm_->q_rem;
      bwd_gemm_->rem = jit::generate_gemm_kernel(g);
      jit::verify::maybe_verify(jit::verify::contract_for(g),
                                bwd_gemm_->rem->code(),
                                bwd_gemm_->rem->code_size(), g.key());
    }
  }
}

void ConvLayer::backward(const tensor::ActTensor& grad_out,
                         const tensor::WtTensor& wt,
                         tensor::ActTensor& grad_in) {
  check_bwd_geometry(*this, grad_out, wt, grad_in);

  // Weights change every training iteration: re-run the duality transform,
  // one contiguous run of destination blocks per thread.
  parallel_exact("ConvLayer::backward", [&](int tid) {
    const Range rg =
        thread_chunk(static_cast<std::int64_t>(cb_) * kb_, tid, threads_);
    tensor::blocked_fwd_to_bwd(wt, bwd_wt_, rg.begin, rg.end);
  });

  switch (bwd_algo_) {
    case BwdAlgo::duality_stride1:
      bwd_layer_->forward(grad_out, bwd_wt_, grad_in);
      return;
    case BwdAlgo::duality_1x1_strided:
      backward_1x1_strided(grad_out, grad_in);
      return;
    case BwdAlgo::gemm_fallback:
      backward_gemm(grad_out, grad_in);
      return;
  }
}

void ConvLayer::backward_1x1_strided(const tensor::ActTensor& grad_out,
                                     tensor::ActTensor& grad_in) {
  // Covered pixels (multiples of the stride) are overwritten by beta0
  // kernels; every other dI pixel is zero. The team clears dI in contiguous
  // chunks before any kernel scatters into it.
  parallel_exact("ConvLayer::backward", [&](int tid) {
    const Range rg = thread_chunk(
        static_cast<std::int64_t>(grad_in.size()), tid, threads_);
    if (!rg.empty())
      std::memset(grad_in.data() + rg.begin, 0, rg.size() * sizeof(float));
  });
  if (opt_.use_streams && !bwd1x1_streams_.empty()) {
    parallel_exact("ConvLayer::backward", [&](int tid) {
      bwd1x1_streams_[tid].replay(bwd1x1_variants_, grad_out.data(),
                                  bwd_wt_.data(), grad_in.data(), {});
    });
    return;
  }
  backward_1x1_branchy(grad_out.data(), bwd_wt_.data(), grad_in.data(),
                       /*record_streams=*/false);
}

void ConvLayer::backward_1x1_branchy(const float* dout, const float* wtb,
                                     float* din, bool record_streams) {
  const ConvParams& p = params_;
  const int n_qb = bwd1x1_qfull_ + (bwd1x1_qrem_ > 0 ? 1 : 0);
  // One work item per (n, cb, oj, q-block); every item writes disjoint dI
  // pixels (rbp = 1, distinct rows/columns), so the thread partition never
  // affects the result.
  const std::int64_t total =
      static_cast<std::int64_t>(p.N) * cb_ * p.P() * n_qb;

  parallel_exact("ConvLayer::backward", [&](int tid) {
    KernelStream* stream = record_streams ? &bwd1x1_streams_[tid] : nullptr;
    const Range rg = thread_chunk(total, tid, threads_);
    for (std::int64_t it = rg.begin; it < rg.end; ++it) {
      std::int64_t rest = it;
      const int qb = static_cast<int>(rest % n_qb);
      rest /= n_qb;
      const int oj = static_cast<int>(rest % p.P());
      rest /= p.P();
      const int cbi = static_cast<int>(rest % cb_);
      const int n = static_cast<int>(rest / cb_);

      const bool q_edge = (bwd1x1_qrem_ > 0 && qb == bwd1x1_qfull_);
      const int oi0 = std::min(qb, bwd1x1_qfull_) * bwd1x1_rbq_;
      const std::int64_t dout_off =
          n * out_n_stride_ +
          static_cast<std::int64_t>(oj + out_pad_h_) * out_row_stride_ +
          static_cast<std::int64_t>(oi0 + out_pad_w_) * vlen_;
      // bwd_wt_ layout is [Cb][Kb][1][1][k][c]: outer stride spans Kb blocks.
      const std::int64_t wt_off =
          static_cast<std::int64_t>(cbi) * bwd_wt_.stride_outer();
      // 1x1 layers have pad == 0; the physical halo (if any consumer raised
      // it) shifts the scatter frame — same formula ActTensor::offset() uses.
      const std::int64_t din_off =
          n * in_n_stride_ + cbi * in_cb_stride_ +
          static_cast<std::int64_t>(oj * p.stride_h + in_halo_h_) *
              in_row_stride_ +
          static_cast<std::int64_t>(oi0 * p.stride_w + in_halo_w_) * vlen_;

      const int v = q_edge ? 1 : 0;
      if (stream != nullptr) {
        stream->record_conv(static_cast<std::uint16_t>(v), dout_off, wt_off,
                            din_off);
      } else {
        bwd1x1_variants_[v]->run(dout + dout_off, wtb + wt_off, din + din_off,
                                 dout + dout_off, wtb + wt_off,
                                 din + din_off);
      }
    }
  });
}

void ConvLayer::dryrun_backward() {
  // The stride-1 duality path needs no recording here: its dual layer owns
  // forward streams of its own. The GEMM fallback has no stream form (its
  // kernels take no prefetch operands) and always runs branchy.
  if (bwd_algo_ != BwdAlgo::duality_1x1_strided) return;
  bwd1x1_streams_.assign(threads_, KernelStream{});
  backward_1x1_branchy(nullptr, nullptr, nullptr, /*record_streams=*/true);
  for (auto& s : bwd1x1_streams_) s.finish();
}

void ConvLayer::backward_gemm(const tensor::ActTensor& grad_out,
                              tensor::ActTensor& grad_in) {
  const ConvParams& p = params_;
  const BwdGemmPlan& plan = *bwd_gemm_;
  const int n_chunks =
      p.Q() / plan.qc + (plan.q_rem > 0 ? 1 : 0);

  // dI rows overlap across oj when stride < R, so parallelism stays at
  // (n, cb) granularity: each item owns a full dI feature-map plane, clears
  // it, accumulates into it and finally discards what fell into its halo.
  const std::int64_t total = static_cast<std::int64_t>(p.N) * cb_;
#pragma omp parallel for num_threads(threads_) schedule(static)
  for (std::int64_t it = 0; it < total; ++it) {
    const int cbi = static_cast<int>(it % cb_);
    const int n = static_cast<int>(it / cb_);
    grad_in.zero_plane(n, cbi);
    for (int kbi = 0; kbi < kb_; ++kbi) {
      for (int oj = 0; oj < p.P(); ++oj) {
        const int ij = oj * p.stride_h;
        for (int r = 0; r < p.R; ++r) {
          for (int s = 0; s < p.S; ++s) {
            const float* a =
                bwd_wt_.at(cbi, kbi, p.R - 1 - r, p.S - 1 - s);
            for (int ch = 0; ch < n_chunks; ++ch) {
              const int oi0 = ch * plan.qc;
              const bool is_rem =
                  (plan.q_rem > 0 && ch == n_chunks - 1);
              const int rows = is_rem ? plan.q_rem : plan.qc;
              const float* b = grad_out.at(n, kbi, oj, oi0);
              float* c = grad_in.at_padded(
                  n, cbi, ij + r + in_shift_h_,
                  oi0 * p.stride_w + s + in_shift_w_);
              if (plan.main != nullptr) {
                const auto& k = is_rem ? *plan.rem : *plan.main;
                k(b, a, c);
              } else {
                gemm::gemm_blocked(vlen_, rows, vlen_, a, vlen_, b, vlen_, c,
                                   plan.ldc);
              }
            }
          }
        }
      }
    }
    grad_in.zero_halo(n, cbi);
  }
}

}  // namespace xconv::core
