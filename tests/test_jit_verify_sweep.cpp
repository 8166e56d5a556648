// Descriptor-sweep driver for the static JIT verifier: every kernel the
// generators produce for the ResNet-50 Table I and Inception-v3 shape sets
// (via the real planner blockings), plus fuzzed descriptors, must pass
// verification — under both the AVX2 and AVX-512 ISA clamps. The scalar
// clamp generates no JIT kernels by construction (generators reject it),
// which the last test documents.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "jit/codec_kernel_gen.hpp"
#include "jit/conv_kernel_gen.hpp"
#include "jit/gemm_kernel_gen.hpp"
#include "jit/qconv_kernel_gen.hpp"
#include "jit/upd_kernel_gen.hpp"
#include "jit/verify/verifier.hpp"
#include "platform/cpu.hpp"
#include "quant/qconv_kernels.hpp"
#include "topo/inception_v3.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;
namespace jv = xconv::jit::verify;

namespace {

constexpr platform::Isa kIsaClamps[] = {platform::Isa::avx2,
                                        platform::Isa::avx512};

int ceil_div(int a, int b) { return (a + b - 1) / b; }

/// Verify one generated kernel against its descriptor contract; a rejection
/// is a test failure carrying the full diagnostic.
template <class Desc, class KernelPtr>
int expect_verified(const Desc& d, const KernelPtr& k,
                    const std::string& what) {
  try {
    jv::verify(jv::contract_for(d), k->code(), k->code_size(), what);
  } catch (const jv::VerifyError& e) {
    ADD_FAILURE() << e.what();
    return 0;
  }
  return 1;
}

int verify_conv(const jit::ConvKernelDesc& d) {
  try {
    return expect_verified(d, jit::generate_conv_kernel(d), d.key());
  } catch (const std::invalid_argument&) {
    return 0;  // descriptor outside the generator's envelope: nothing emitted
  }
}

int verify_upd(const jit::UpdKernelDesc& d) {
  try {
    return expect_verified(d, jit::generate_upd_kernel(d), d.key());
  } catch (const std::invalid_argument&) {
    return 0;
  }
}

int verify_gemm(const jit::GemmKernelDesc& d) {
  try {
    return expect_verified(d, jit::generate_gemm_kernel(d), d.key());
  } catch (const std::invalid_argument&) {
    return 0;
  }
}

/// Forward-conv descriptors for one layer shape under one ISA clamp, using
/// the real planner's register blocking (main + edge variants, beta0/ReLU,
/// in-kernel Cb loop, scattered-output stride).
int sweep_conv_shape(const core::ConvParams& p, platform::Isa isa) {
  core::PlanRequest req;
  req.isa = isa;
  req.threads = 4;
  const core::ConvPlan plan = core::plan_default(p, req);
  const int vlen = platform::vlen_fp32(isa);
  const int P = p.P(), Q = p.Q();

  std::vector<int> rbps = {plan.rbp};
  if (plan.rbp > 0 && P % plan.rbp != 0) rbps.push_back(P % plan.rbp);
  std::vector<int> rbqs = {plan.rbq};
  if (plan.rbq > 0 && Q % plan.rbq != 0) rbqs.push_back(Q % plan.rbq);

  int verified = 0;
  for (int rbp : rbps) {
    for (int rbq : rbqs) {
      for (int variant = 0; variant < 3; ++variant) {
        jit::ConvKernelDesc d;
        d.isa = isa;
        d.vlen = vlen;
        d.rbp = rbp;
        d.rbq = rbq;
        d.r = p.R;
        d.s = p.S;
        d.stride_h = p.stride_h;
        d.stride_w = p.stride_w;
        d.in_row_stride = (p.W + 2 * p.pad_w) * vlen;
        d.out_row_stride = Q * vlen;
        d.c_iters = vlen;
        if (plan.cb_in_kernel) {
          d.c_blocks = ceil_div(p.C, vlen);
          d.in_cb_stride =
              (p.H + 2 * p.pad_h) * (p.W + 2 * p.pad_w) * vlen;
          d.wt_cb_stride = p.R * p.S * vlen * vlen;
        }
        d.beta0 = variant != 1;
        d.fuse_relu = variant == 2;
        verified += verify_conv(d);
      }
      // Scattered-output variant (strided 1x1 backward duality).
      if (p.R == 1 && p.S == 1 && p.stride_w > 1) {
        jit::ConvKernelDesc d;
        d.isa = isa;
        d.vlen = vlen;
        d.rbp = rbp;
        d.rbq = rbq;
        d.in_row_stride = (p.W + 2 * p.pad_w) * vlen;
        d.out_row_stride = p.stride_h * Q * p.stride_w * vlen;
        d.out_col_stride = p.stride_w * vlen;
        d.c_iters = vlen;
        d.beta0 = true;
        verified += verify_conv(d);
      }
    }
  }
  return verified;
}

/// Weight-update descriptors for one layer shape (planner pixel blocking,
/// edge and channel-remainder variants).
int sweep_upd_shape(const core::ConvParams& p, platform::Isa isa) {
  core::PlanRequest req;
  req.isa = isa;
  req.threads = 4;
  const core::ConvPlan plan = core::plan_default(p, req);
  if (plan.upd_bp <= 0 || plan.upd_bq <= 0) return 0;
  const int vlen = platform::vlen_fp32(isa);
  const int P = p.P(), Q = p.Q();

  std::vector<int> bps = {plan.upd_bp};
  if (P % plan.upd_bp != 0) bps.push_back(P % plan.upd_bp);
  std::vector<int> bqs = {plan.upd_bq};
  if (Q % plan.upd_bq != 0) bqs.push_back(Q % plan.upd_bq);
  std::vector<int> cmins = {0};
  if (p.C % vlen != 0) cmins.push_back(p.C % vlen);

  int verified = 0;
  for (int bp : bps)
    for (int bq : bqs)
      for (int cmin : cmins)
        for (int b0 = 0; b0 < 2; ++b0) {
          jit::UpdKernelDesc d;
          d.isa = isa;
          d.vlen = vlen;
          d.bp = bp;
          d.bq = bq;
          d.stride_h = p.stride_h;
          d.stride_w = p.stride_w;
          d.in_row_stride = (p.W + 2 * p.pad_w) * vlen;
          d.out_row_stride = Q * vlen;
          d.cmin = cmin;
          d.beta0 = (b0 == 1);
          verified += verify_upd(d);
        }
  return verified;
}

}  // namespace

TEST(JitVerifySweep, ResNet50Table1ForwardKernels) {
  int verified = 0;
  for (platform::Isa isa : kIsaClamps)
    for (const topo::LayerSpec& l : topo::resnet50_table1())
      verified += sweep_conv_shape(topo::table1_params(l, 4), isa);
  EXPECT_GE(verified, 2 * 20 * 3) << "sweep unexpectedly thin";
}

TEST(JitVerifySweep, InceptionV3ForwardKernels) {
  int verified = 0;
  for (platform::Isa isa : kIsaClamps)
    for (const topo::InceptionConv& l : topo::inception_v3_convs())
      verified += sweep_conv_shape(topo::inception_params(l, 4), isa);
  EXPECT_GE(verified, 2 * 20 * 3);
}

TEST(JitVerifySweep, ResNet50UpdateKernels) {
  int verified = 0;
  for (platform::Isa isa : kIsaClamps)
    for (const topo::LayerSpec& l : topo::resnet50_table1())
      verified += sweep_upd_shape(topo::table1_params(l, 4), isa);
  EXPECT_GE(verified, 2 * 20 * 2);
}

TEST(JitVerifySweep, ReduceKernels) {
  int verified = 0;
  for (platform::Isa isa : kIsaClamps)
    for (int copies : {2, 3, 8})
      for (int unroll : {1, 2, 4, 8}) {
        jit::ReduceKernelDesc d;
        d.isa = isa;
        d.vlen = platform::vlen_fp32(isa);
        d.copies = copies;
        d.copy_stride = 1 << 20;
        d.unroll = unroll;
        try {
          verified +=
              expect_verified(d, jit::generate_reduce_kernel(d), d.key());
        } catch (const std::invalid_argument&) {
        }
      }
  EXPECT_GE(verified, 12);
}

TEST(JitVerifySweep, GemmKernels) {
  int verified = 0;
  for (platform::Isa isa : kIsaClamps) {
    const int vlen = platform::vlen_fp32(isa);
    for (int n : {1, 4, 8})
      for (int k : {1, 16, 64})
        for (int b0 = 0; b0 < 2; ++b0) {
          jit::GemmKernelDesc d;
          d.isa = isa;
          d.vlen = vlen;
          d.n = n;
          d.k = k;
          d.lda = vlen;
          d.ldb = k + 3;  // padded rows exercise the extent formula
          d.ldc = vlen + 8;
          d.beta0 = (b0 == 1);
          verified += verify_gemm(d);
        }
  }
  EXPECT_GE(verified, 24);
}

TEST(JitVerifySweep, CodecKernelsAllOps) {
  int verified = 0;
  for (jit::CodecOp op :
       {jit::CodecOp::fold_add, jit::CodecOp::int16_quant,
        jit::CodecOp::int16_dequant, jit::CodecOp::int16_dequant_acc,
        jit::CodecOp::bf16_pack, jit::CodecOp::bf16_unpack,
        jit::CodecOp::bf16_unpack_acc, jit::CodecOp::topk_mag,
        jit::CodecOp::topk_compress}) {
    jit::CodecKernelDesc d;
    d.op = op;
    d.isa = platform::Isa::avx512;
    d.vlen = 16;
    verified += expect_verified(d, jit::generate_codec_kernel(d), d.key());
  }
  EXPECT_EQ(verified, 9);
}

TEST(JitVerifySweep, QConvKernels) {
  int verified = 0;
  for (const topo::LayerSpec& l : topo::resnet50_table1()) {
    const core::ConvParams p = topo::table1_params(l, 4);
    if (p.C % 2 != 0) continue;  // int16 path pairs channels
    for (int rbq : {1, 7, 13}) {
      if (rbq > p.Q()) continue;
      for (int flush : {1, 64}) {
        quant::QKernelDesc d;
        d.vlen = 16;
        d.rbq = rbq;
        d.r = p.R;
        d.s = p.S;
        d.stride_w = p.stride_w;
        d.stride_h = p.stride_h;
        d.in_row_stride = (p.W + 2 * p.pad_w) * 16;
        d.c2_iters = 8;
        d.flush_interval = flush;
        try {
          verified += expect_verified(d, jit::generate_qconv_kernel(d),
                                      jit::qconv_desc_key(d));
        } catch (const std::invalid_argument&) {
        }
      }
    }
  }
  // In-kernel Cb loop variant (1x1 path).
  {
    quant::QKernelDesc d;
    d.vlen = 16;
    d.rbq = 8;
    d.in_row_stride = 64 * 16;
    d.c2_iters = 8;
    d.c_blocks = 4;
    d.in_cb_stride = 64 * 64 * 16;
    d.wt_cb_stride = 16 * 16;
    verified += expect_verified(d, jit::generate_qconv_kernel(d),
                                jit::qconv_desc_key(d));
  }
  EXPECT_GE(verified, 20);
}

TEST(JitVerifySweep, FuzzedConvDescriptors) {
  std::mt19937 rng(0xC0FFEE);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
  };
  int verified = 0;
  for (int i = 0; i < 150; ++i) {
    const platform::Isa isa = (rng() & 1) ? platform::Isa::avx512
                                          : platform::Isa::avx2;
    const int vlen = platform::vlen_fp32(isa);
    jit::ConvKernelDesc d;
    d.isa = isa;
    d.vlen = vlen;
    d.rbp = pick(1, 4);
    d.rbq = pick(1, 6);
    d.r = (rng() & 1) ? 1 : pick(2, 7);
    d.s = (rng() & 1) ? 1 : pick(2, 7);
    d.stride_h = d.stride_w = pick(1, 2);
    d.in_row_stride = (d.rbq * d.stride_w + d.s + pick(0, 8)) * vlen;
    d.out_row_stride = (d.rbq + pick(0, 4)) * vlen;
    if ((rng() & 3) == 0) d.out_col_stride = 2 * vlen;
    d.c_iters = vlen;
    if (d.r == 1 && d.s == 1 && (rng() & 1)) {
      d.c_blocks = pick(2, 4);
      d.in_cb_stride = (d.rbp * d.stride_h + 2) * d.in_row_stride;
      d.wt_cb_stride = vlen * vlen;
    }
    d.beta0 = rng() & 1;
    d.fuse_relu = rng() & 1;
    d.prefetch = rng() & 1;
    verified += verify_conv(d);
  }
  EXPECT_GE(verified, 50) << "fuzz rejected too many descriptors pre-codegen";
}

TEST(JitVerifySweep, FuzzedUpdAndGemmDescriptors) {
  std::mt19937 rng(0xBEEF);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
  };
  int verified = 0;
  for (int i = 0; i < 60; ++i) {
    const platform::Isa isa = (rng() & 1) ? platform::Isa::avx512
                                          : platform::Isa::avx2;
    const int vlen = platform::vlen_fp32(isa);
    jit::UpdKernelDesc d;
    d.isa = isa;
    d.vlen = vlen;
    d.bp = pick(1, 4);
    d.bq = pick(1, 14);
    d.stride_h = d.stride_w = pick(1, 2);
    d.in_row_stride = (d.bq * d.stride_w + pick(1, 8)) * vlen;
    d.out_row_stride = (d.bq + pick(0, 4)) * vlen;
    d.cmin = (rng() & 1) ? pick(1, vlen - 1) : 0;
    d.beta0 = rng() & 1;
    d.prefetch = rng() & 1;
    verified += verify_upd(d);
  }
  for (int i = 0; i < 40; ++i) {
    const platform::Isa isa = (rng() & 1) ? platform::Isa::avx512
                                          : platform::Isa::avx2;
    const int vlen = platform::vlen_fp32(isa);
    jit::GemmKernelDesc d;
    d.isa = isa;
    d.vlen = vlen;
    d.n = pick(1, 8);
    d.k = pick(1, 32);
    d.lda = vlen + pick(0, 8);
    d.ldb = d.k + pick(0, 8);
    d.ldc = vlen + pick(0, 8);
    d.beta0 = rng() & 1;
    verified += verify_gemm(d);
  }
  EXPECT_GE(verified, 40);
}

TEST(JitVerifySweep, ScalarClampGeneratesNoJitKernels) {
  // The scalar ISA clamp runs the scalar C++ kernels only; the generators
  // refuse to emit for it, so there is nothing for the verifier to accept.
  jit::ConvKernelDesc d;
  d.isa = platform::Isa::scalar;
  d.vlen = 1;
  d.in_row_stride = 16;
  d.out_row_stride = 16;
  d.c_iters = 1;
  EXPECT_THROW(jit::generate_conv_kernel(d), std::invalid_argument);
}
