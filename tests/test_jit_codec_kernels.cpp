// Bitwise scalar-vs-JIT equivalence for every generated gradient-codec
// kernel (jit/codec_kernel_gen.hpp). The contract under test is the one the
// codec integration relies on: flipping XCONV_JIT_CODEC can never change a
// wire byte, because each generated op is bit-identical to the scalar
// reference loop (kernels::codec_scalar_span == the loops in
// src/mlsl/codec.cpp) for every input it is defined on — including NaN/Inf
// payloads (bf16/top-k), signed zeros, denormals, and magnitude ties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "jit/codec_kernel_gen.hpp"
#include "kernels/kernel_registry.hpp"
#include "kernels/microkernel.hpp"
#include "mlsl/codec.hpp"
#include "platform/cpu.hpp"
#include "quant/bfloat16.hpp"
#include "quant/quantize.hpp"
#include "test_helpers.hpp"

using namespace xconv;

namespace {

bool host_avx512() { return platform::max_isa() >= platform::Isa::avx512; }

jit::CodecKernelDesc desc_for(jit::CodecOp op) {
  jit::CodecKernelDesc d;
  d.op = op;
  return d;
}

/// Random payload with deterministic special values parked in the first
/// vector (so every n >= 16 exercises them inside a full JIT iteration) and
/// a magnitude tie pair spanning the head/tail boundary.
std::vector<float> payload(std::size_t n, unsigned seed, bool with_nan) {
  auto v = xconv::testing::random_vec(n, seed, -8.0f, 8.0f);
  if (n >= 16) {
    v[1] = 0.0f;
    v[2] = -0.0f;
    v[3] = std::numeric_limits<float>::infinity();
    v[4] = -std::numeric_limits<float>::infinity();
    v[5] = std::numeric_limits<float>::denorm_min();
    v[6] = -1e-38f;  // denormal after bf16 truncation
    v[7] = -v[8];    // exact magnitude tie, opposite signs
    if (with_nan) {
      v[9] = std::numeric_limits<float>::quiet_NaN();
      v[10] = -std::numeric_limits<float>::quiet_NaN();
    }
    v[n - 1] = v[0];  // tie across the vectorized head / scalar tail split
  }
  return v;
}

/// Finite-only variant: the int16 quantize domain. An Inf (or NaN) payload
/// lane drives compute_scale to a non-finite value, which turns every
/// quotient NaN and sends the scalar reference's float->int16 cast into UB —
/// excluded by the int16 codec contract since before the JIT existed, so
/// excluded here too. Zeros, denormals and magnitude ties stay in.
std::vector<float> finite_payload(std::size_t n, unsigned seed) {
  auto v = payload(n, seed, /*with_nan=*/false);
  if (n >= 16) {
    v[3] = 8.5f;
    v[4] = -8.5f;
  }
  return v;
}

void expect_same_bytes(const void* a, const void* b, std::size_t bytes,
                       const char* what) {
  // Zero-length cases hand in the null data() of empty vectors, which
  // memcmp may not receive even for zero bytes.
  if (bytes > 0) EXPECT_EQ(0, std::memcmp(a, b, bytes)) << what;
}

/// Run one op through the scalar and JIT backends on identical inputs and
/// require bit-identical float outputs, wire outputs, and return values.
struct OpBuffers {
  std::vector<float> f_in, f_io_s, f_io_j;
  std::vector<std::uint8_t> w_in, w_out_s, w_out_j;
  std::vector<std::uint32_t> u_in, u_out_s, u_out_j;
  float scale = 1.0f;
  std::uint32_t threshold = 0;
};

std::int64_t run_op(jit::CodecOp op, std::size_t n, OpBuffers& b) {
  const auto sk = kernels::make_codec_scalar(desc_for(op));
  const auto jk = kernels::make_codec_jit(desc_for(op));
  EXPECT_EQ(sk->backend(), kernels::Backend::scalar);
  EXPECT_EQ(jk->backend(), kernels::Backend::jit);
  auto call = [&](std::vector<float>& f_io, std::vector<std::uint8_t>& w_out,
                  std::vector<std::uint32_t>& u_out,
                  const kernels::CodecMicrokernel& k) {
    kernels::CodecCall c;
    c.f_in = b.f_in.empty() ? nullptr : b.f_in.data();
    c.f_io = f_io.empty() ? nullptr : f_io.data();
    c.w_in = b.w_in.empty() ? nullptr : b.w_in.data();
    c.w_out = w_out.empty() ? nullptr : w_out.data();
    c.u_in = b.u_in.empty() ? nullptr : b.u_in.data();
    c.u_out = u_out.empty() ? nullptr : u_out.data();
    c.scale = b.scale;
    c.threshold = b.threshold;
    c.n = static_cast<std::int64_t>(n);
    return k.run(c);
  };
  const std::int64_t rs = call(b.f_io_s, b.w_out_s, b.u_out_s, *sk);
  const std::int64_t rj = call(b.f_io_j, b.w_out_j, b.u_out_j, *jk);
  EXPECT_EQ(rs, rj) << codec_op_name(op) << " n=" << n;
  expect_same_bytes(b.f_io_s.data(), b.f_io_j.data(),
                    b.f_io_s.size() * sizeof(float), "f_io");
  expect_same_bytes(b.w_out_s.data(), b.w_out_j.data(), b.w_out_s.size(),
                    "w_out");
  // For topk_compress only the first `rs` entries are defined output.
  const std::size_t u_defined =
      op == jit::CodecOp::topk_compress ? static_cast<std::size_t>(rs)
                                        : b.u_out_s.size();
  expect_same_bytes(b.u_out_s.data(), b.u_out_j.data(),
                    u_defined * sizeof(std::uint32_t), "u_out");
  return rs;
}

class CodecOpBitwise : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (!host_avx512()) GTEST_SKIP() << "host lacks AVX-512";
  }
};

TEST_P(CodecOpBitwise, FoldAdd) {
  const std::size_t n = GetParam();
  OpBuffers b;
  b.f_in = payload(n, 11, /*with_nan=*/true);
  b.f_io_s = payload(n, 12, /*with_nan=*/false);
  b.f_io_j = b.f_io_s;
  run_op(jit::CodecOp::fold_add, n, b);
}

TEST_P(CodecOpBitwise, Int16Quant) {
  const std::size_t n = GetParam();
  // Round 2 forces a deliberately tiny scale so most lanes overflow +/-1024:
  // the clamp-then-round (JIT) vs round-then-clamp (scalar) orders must
  // still agree bit for bit.
  for (const bool tight : {false, true}) {
    OpBuffers b;
    b.f_io_s = finite_payload(n, 21);
    b.f_io_j = b.f_io_s;
    b.scale = tight ? 0.001953125f  // 1/512, exact
                    : quant::compute_scale(b.f_io_s.data(), n);
    b.w_out_s.assign(n * sizeof(std::int16_t), 0xAA);
    b.w_out_j = b.w_out_s;
    run_op(jit::CodecOp::int16_quant, n, b);
  }
}

TEST_P(CodecOpBitwise, Int16DequantAndAccumulate) {
  const std::size_t n = GetParam();
  std::mt19937 rng(31);
  std::uniform_int_distribution<int> d(-1024, 1024);
  for (const auto op :
       {jit::CodecOp::int16_dequant, jit::CodecOp::int16_dequant_acc}) {
    OpBuffers b;
    b.w_in.resize(n * sizeof(std::int16_t));
    for (std::size_t i = 0; i < n; ++i) {
      const auto q = static_cast<std::int16_t>(d(rng));
      std::memcpy(b.w_in.data() + i * sizeof(q), &q, sizeof(q));
    }
    b.scale = 0.03125f;
    b.f_io_s = finite_payload(n, 32);
    b.f_io_j = b.f_io_s;
    run_op(op, n, b);
  }
}

TEST_P(CodecOpBitwise, Bf16Pack) {
  const std::size_t n = GetParam();
  OpBuffers b;
  b.f_in = payload(n, 41, /*with_nan=*/true);  // NaN must quiet identically
  b.f_io_s = payload(n, 42, /*with_nan=*/false);
  b.f_io_j = b.f_io_s;
  b.w_out_s.assign(n * sizeof(std::uint16_t), 0x55);
  b.w_out_j = b.w_out_s;
  run_op(jit::CodecOp::bf16_pack, n, b);
}

TEST_P(CodecOpBitwise, Bf16UnpackAndAccumulate) {
  const std::size_t n = GetParam();
  std::mt19937 rng(51);
  std::uniform_int_distribution<std::uint32_t> d(0, 0xFFFF);
  for (const auto op :
       {jit::CodecOp::bf16_unpack, jit::CodecOp::bf16_unpack_acc}) {
    OpBuffers b;
    b.w_in.resize(n * sizeof(std::uint16_t));
    for (std::size_t i = 0; i < n; ++i) {
      auto u = static_cast<std::uint16_t>(d(rng));
      if (i == 3) u = 0x7F80;  // +inf
      if (i == 4) u = 0xFFC0;  // -NaN
      std::memcpy(b.w_in.data() + i * sizeof(u), &u, sizeof(u));
    }
    b.f_io_s = payload(n, 52, /*with_nan=*/false);
    b.f_io_j = b.f_io_s;
    run_op(op, n, b);
  }
}

TEST_P(CodecOpBitwise, TopkMag) {
  const std::size_t n = GetParam();
  OpBuffers b;
  b.f_in = payload(n, 61, /*with_nan=*/true);
  b.u_out_s.assign(n, 0xDEADBEEF);
  b.u_out_j = b.u_out_s;
  run_op(jit::CodecOp::topk_mag, n, b);
  // The key map itself: NaN and +/-inf collapse onto the +inf key.
  if (n >= 16) {
    EXPECT_EQ(b.u_out_s[3], 0x7F800000u);
    EXPECT_EQ(b.u_out_s[4], 0x7F800000u);
    EXPECT_EQ(b.u_out_s[9], 0x7F800000u);
    EXPECT_EQ(b.u_out_s[1], 0u);  // +0
    EXPECT_EQ(b.u_out_s[2], 0u);  // -0: sign bit masked
    EXPECT_EQ(b.u_out_s[7], b.u_out_s[8]);  // tie keys are equal
  }
}

TEST_P(CodecOpBitwise, TopkCompress) {
  const std::size_t n = GetParam();
  // Keys with heavy ties so threshold-equality lanes appear in head and tail.
  std::mt19937 rng(71);
  std::uniform_int_distribution<std::uint32_t> d(0, 7);
  std::vector<std::uint32_t> keys(n);
  for (auto& k : keys) k = d(rng) << 20;
  for (const std::uint32_t thr : {0u, 3u << 20, 7u << 20, 0xFFFFFFFFu}) {
    OpBuffers b;
    b.u_in = keys;
    b.threshold = thr;
    b.u_out_s.assign(n, 0xDEADBEEF);
    b.u_out_j = b.u_out_s;
    const std::int64_t count = run_op(jit::CodecOp::topk_compress, n, b);
    // Cross-check against a plain scan: strictly-greater, ascending.
    std::vector<std::uint32_t> want;
    for (std::size_t i = 0; i < n; ++i)
      if (keys[i] > thr) want.push_back(static_cast<std::uint32_t>(i));
    ASSERT_EQ(static_cast<std::size_t>(count), want.size()) << "thr=" << thr;
    for (std::size_t j = 0; j < want.size(); ++j)
      EXPECT_EQ(want[j], b.u_out_s[j]) << "thr=" << thr << " j=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CodecOpBitwise,
                         ::testing::Values(1, 7, 15, 16, 17, 31, 48, 100, 257,
                                           1000, 4103));

// Registry resolution: auto_pick serves the JIT backend on AVX-512 hosts and
// the scalar reference under an explicit scalar preference; both land in the
// cache.
TEST(CodecKernelRegistry, ResolvesBothBackends) {
  if (!host_avx512()) GTEST_SKIP() << "host lacks AVX-512";
  auto& reg = kernels::KernelRegistry::instance();
  const auto d = desc_for(jit::CodecOp::fold_add);
  const auto* a = reg.codec(d);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->backend(), kernels::Backend::jit);
  EXPECT_EQ(a, reg.codec(d));  // cached: same instance
  const auto* s = reg.codec(d, kernels::BackendPref::scalar);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->backend(), kernels::Backend::scalar);
}

// --- codec-level wire equivalence ------------------------------------------
//
// The mlsl codecs dispatch to the kernels above when enabled; these tests
// pin the end-to-end wire bytes and residuals against in-test copies of the
// scalar reference loops, so they hold on any host and under any
// XCONV_JIT_CODEC / backend setting — the "JIT cannot change a wire byte"
// property at the PayloadCodec level.

TEST(CodecWireEquivalence, Int16MatchesScalarReference) {
  for (const std::size_t n : {1ul, 16ul, 257ul, 5000ul}) {
    const auto src = finite_payload(n, 81);
    auto res = xconv::testing::random_vec(n, 82, -0.01f, 0.01f);
    auto res_ref = res;
    // Reference: the pre-JIT scalar encode, statement for statement.
    for (std::size_t i = 0; i < n; ++i) res_ref[i] += src[i];
    const float s = quant::compute_scale(res_ref.data(), n);
    std::vector<std::uint8_t> want(sizeof(float) +
                                   n * sizeof(std::int16_t));
    std::memcpy(want.data(), &s, sizeof(s));
    for (std::size_t i = 0; i < n; ++i) {
      const float t = res_ref[i];
      const std::int16_t q = quant::quantize_one(t, s);
      res_ref[i] = t - static_cast<float>(q) * s;
      std::memcpy(want.data() + sizeof(float) + i * sizeof(q), &q, sizeof(q));
    }
    const auto& codec = mlsl::get_codec(mlsl::Codec::kInt16);
    std::vector<std::uint8_t> wire(codec.max_encoded_bytes(n));
    const std::size_t wb = codec.encode(src.data(), res.data(), n,
                                        wire.data());
    ASSERT_EQ(wb, want.size());
    expect_same_bytes(wire.data(), want.data(), wb, "int16 wire");
    xconv::testing::expect_bitwise(res_ref, res, "int16 residual");
    // Decode both ways against the scalar reconstruction.
    std::vector<float> dst(n, 0.0f), acc = xconv::testing::random_vec(n, 83);
    auto acc_ref = acc;
    codec.decode(wire.data(), wb, dst.data(), n);
    codec.decode_accumulate(wire.data(), wb, acc.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      std::int16_t q;
      std::memcpy(&q, want.data() + sizeof(float) + i * sizeof(q), sizeof(q));
      const float lane = static_cast<float>(q) * s;
      ASSERT_EQ(dst[i], lane) << i;
      acc_ref[i] += lane;
    }
    xconv::testing::expect_bitwise(acc_ref, acc, "int16 accumulate");
  }
}

TEST(CodecWireEquivalence, Bf16MatchesScalarReference) {
  for (const std::size_t n : {1ul, 16ul, 257ul, 5000ul}) {
    const auto src = payload(n, 91, /*with_nan=*/true);
    auto res = xconv::testing::random_vec(n, 92, -0.01f, 0.01f);
    auto res_ref = res;
    std::vector<std::uint8_t> want(n * sizeof(std::uint16_t));
    for (std::size_t i = 0; i < n; ++i) {
      const float t = src[i] + res_ref[i];
      const float d = quant::bf16_round(t);
      res_ref[i] = t - d;
      std::uint32_t u;
      std::memcpy(&u, &d, sizeof(u));
      const auto h = static_cast<std::uint16_t>(u >> 16);
      std::memcpy(want.data() + i * sizeof(h), &h, sizeof(h));
    }
    const auto& codec = mlsl::get_codec(mlsl::Codec::kBf16);
    std::vector<std::uint8_t> wire(codec.max_encoded_bytes(n));
    const std::size_t wb = codec.encode(src.data(), res.data(), n,
                                        wire.data());
    ASSERT_EQ(wb, want.size());
    expect_same_bytes(wire.data(), want.data(), wb, "bf16 wire");
    // Residuals contain NaN (NaN payload => NaN residual): compare bits.
    expect_same_bytes(res.data(), res_ref.data(), n * sizeof(float),
                      "bf16 residual");
  }
}

TEST(CodecWireEquivalence, TopkMatchesReferenceSelection) {
  for (const std::size_t n : {1ul, 5ul, 16ul, 257ul, 5000ul}) {
    for (const double frac : {0.05, 0.25, 1.0}) {
      auto src = payload(n, 101, /*with_nan=*/true);
      if (n >= 64) {
        // Dense magnitude ties straddling the pivot: the tie-break (lowest
        // index) is exactly what distinguishes the pivot path from a naive
        // compress.
        for (std::size_t i = 0; i < n; i += 3) src[i] = (i % 6) ? 2.5f : -2.5f;
      }
      auto res = xconv::testing::random_vec(n, 102, -0.01f, 0.01f);
      auto res_ref = res;
      // Reference: fold, nth_element on indices (magnitude desc, index asc),
      // sort, emit — the pre-JIT scalar path, statement for statement.
      for (std::size_t i = 0; i < n; ++i) res_ref[i] += src[i];
      const auto codec = mlsl::make_codec(mlsl::Codec::kTopK, frac);
      const auto k = std::clamp<std::size_t>(
          static_cast<std::size_t>(
              std::llround(frac * static_cast<double>(n))),
          1, n);
      std::vector<std::uint32_t> idx(n);
      std::iota(idx.begin(), idx.end(), 0u);
      const auto mag = [&](std::uint32_t i) {
        const float m = std::abs(res_ref[i]);
        return std::isnan(m) ? std::numeric_limits<float>::infinity() : m;
      };
      if (k < n) {
        std::nth_element(idx.begin(), idx.begin() + static_cast<long>(k) - 1,
                         idx.end(), [&](std::uint32_t a, std::uint32_t b) {
                           const float ma = mag(a), mb = mag(b);
                           return ma > mb || (ma == mb && a < b);
                         });
        std::sort(idx.begin(), idx.begin() + static_cast<long>(k));
      }
      std::vector<std::uint8_t> want(sizeof(std::uint32_t) +
                                     k * (sizeof(std::uint32_t) +
                                          sizeof(float)));
      const auto k32 = static_cast<std::uint32_t>(k);
      std::memcpy(want.data(), &k32, sizeof(k32));
      for (std::size_t j = 0; j < k; ++j) {
        const std::uint32_t i = idx[j];
        std::memcpy(want.data() + sizeof(k32) + j * sizeof(i), &i, sizeof(i));
        std::memcpy(want.data() + sizeof(k32) + k * sizeof(i) +
                        j * sizeof(float),
                    &res_ref[i], sizeof(float));
        res_ref[i] = 0.0f;
      }
      std::vector<std::uint8_t> wire(codec->max_encoded_bytes(n));
      const std::size_t wb = codec->encode(src.data(), res.data(), n,
                                           wire.data());
      ASSERT_EQ(wb, want.size()) << "n=" << n << " frac=" << frac;
      expect_same_bytes(wire.data(), want.data(), wb, "topk wire");
      expect_same_bytes(res.data(), res_ref.data(), n * sizeof(float),
                        "topk residual");
      // encode_scratch with a reused workspace: same bytes again.
      mlsl::CodecWorkspace ws;
      for (int round = 0; round < 2; ++round) {
        auto res2 = xconv::testing::random_vec(n, 102, -0.01f, 0.01f);
        std::vector<std::uint8_t> wire2(codec->max_encoded_bytes(n));
        const std::size_t wb2 = codec->encode_scratch(
            src.data(), res2.data(), n, wire2.data(), ws);
        ASSERT_EQ(wb2, wb);
        expect_same_bytes(wire2.data(), wire.data(), wb, "topk ws wire");
      }
    }
  }
}

}  // namespace
