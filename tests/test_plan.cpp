// ConvPlan / PlanCache coverage (the PR's tentpole guarantees):
//
//   * LegacyDiff      — plan_default() reproduces the historical inline
//                       heuristics bit-identically. The old pick_rb /
//                       pick_block / setup_backward / setup_update logic is
//                       re-implemented verbatim here as the specification and
//                       diffed across both topo layer sets and the fuzz
//                       shape generator.
//   * Crossover pins  — the named constants in core/plan.hpp induce exact
//                       decision boundaries (worked arithmetic in comments).
//   * Key stability   — PlanKey::to_string / FNV-1a hash are pinned to
//                       literals so a disk cache survives rebuilds.
//   * Serialization   — to_json / plan_from_json round-trip every field;
//                       corrupt / truncated / version-mismatched / foreign
//                       entries are rejected with the right status and the
//                       cache falls back to default planning (loudly, but
//                       correctly).
//   * Concurrency     — racing get_or_create callers agree on one plan per
//                       key (runs under the TSan lane like test_sync).
//   * Steady state    — a second identical ConvLayer construction is pure
//                       cache hits: no planning, no kernel compilation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/plan.hpp"
#include "test_helpers.hpp"
#include "topo/inception_v3.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;
using xconv::testing::ConvProblem;
using xconv::testing::expect_bitwise;
using xconv::testing::expect_close;
using xconv::testing::layer_forward;
using xconv::testing::layer_update;
using core::BwdAlgo;
using core::ConvPlan;
using core::PlanKey;
using core::PlanLoadStatus;
using core::PlanPass;
using core::PlanRequest;
using core::UpdStrategy;

// ===========================================================================
// The legacy heuristics, re-implemented verbatim from the pre-ConvPlan
// inline code (conv_layer.cpp pick_rb / choose_blocking, conv_backward.cpp
// pick_rb_bwd / setup_backward, conv_update.cpp pick_block / setup_update).
// This is the specification plan_default() must match bit-identically.
// ===========================================================================
namespace legacy_ref {

constexpr int kMaxAcc = 28;  // avx512 accumulator budget
constexpr int kVlen = 16;

int ceil_div(int a, int b) { return (a + b - 1) / b; }

int pick_rb(int dim, int cap) {  // forward + backward: floor 4
  if (dim <= cap) return dim;
  int best = std::min(dim, cap), best_score = -1;
  for (int rb = std::min(dim, cap); rb >= 4; --rb) {
    const int score = (dim % rb == 0 ? 1000 : 0) + rb;
    if (score > best_score) {
      best_score = score;
      best = rb;
    }
  }
  return best;
}

int pick_block(int dim, int cap) {  // update: floor 2
  if (dim <= cap) return dim;
  int best = std::min(dim, cap), best_score = -1;
  for (int b = std::min(dim, cap); b >= 2; --b) {
    const int score = (dim % b == 0 ? 1000 : 0) + b;
    if (score > best_score) {
      best_score = score;
      best = b;
    }
  }
  return best;
}

UpdStrategy pick_upd_strategy(int n, int kb, int cb, int r, int s,
                              std::int64_t act_traffic_elems,
                              std::int64_t wt_elems, int nthreads) {
  if (nthreads <= 1) return UpdStrategy::task;
  const std::int64_t tasks = static_cast<std::int64_t>(kb) * cb * r * s;
  if (tasks < nthreads)
    return (n >= nthreads) ? UpdStrategy::minibatch : UpdStrategy::task;
  if (n < 2) return UpdStrategy::task;
  const double kc_split = static_cast<double>(nthreads);
  const double task_traffic =
      static_cast<double>(act_traffic_elems) /
          (kc_split > 1.0 ? std::min<double>(kc_split, kb * 1.0 * cb) : 1.0) *
          nthreads +
      static_cast<double>(wt_elems);
  const double mb_traffic = static_cast<double>(act_traffic_elems) +
                            2.0 * nthreads * static_cast<double>(wt_elems);
  if (mb_traffic < task_traffic) {
    if (tasks >= nthreads / 2 && n >= 2 && nthreads >= 4)
      return UpdStrategy::hybrid;
    return UpdStrategy::minibatch;
  }
  return UpdStrategy::task;
}

struct Decisions {
  int rbp = 1, rbq = 1;
  bool cb_in_kernel = false;
  BwdAlgo bwd_algo = BwdAlgo::duality_stride1;
  int bwd1x1_rbq = 0, bwd_gemm_qc = 0;
  UpdStrategy upd_strategy = UpdStrategy::task;
  int upd_bp = 0, upd_bq = 0;
};

Decisions decide(const core::ConvParams& p, int threads, bool fwd_only) {
  Decisions d;
  const int P = p.P(), Q = p.Q();
  const int cb = ceil_div(p.C, kVlen), kb = ceil_div(p.K, kVlen);

  // choose_blocking (conv_layer.cpp)
  d.rbq = pick_rb(Q, std::min(kMaxAcc, 14));
  if (Q <= kMaxAcc / 2 && d.rbq == Q) {
    d.rbp = std::min(P, kMaxAcc / d.rbq);
  } else {
    d.rbp = 1;
  }
  d.cb_in_kernel = (p.R == 1 && p.S == 1 && cb > 1);
  if (fwd_only) return d;

  // setup_backward (conv_backward.cpp)
  if (p.stride_h == 1 && p.stride_w == 1) {
    d.bwd_algo = BwdAlgo::duality_stride1;
  } else if (p.R == 1 && p.S == 1 && p.pad_h == 0 && p.pad_w == 0) {
    d.bwd_algo = BwdAlgo::duality_1x1_strided;
    d.bwd1x1_rbq = pick_rb(Q, kMaxAcc);
  } else {
    d.bwd_algo = BwdAlgo::gemm_fallback;
    d.bwd_gemm_qc = pick_rb(Q, std::min(kMaxAcc, 28));
  }

  // setup_update (conv_update.cpp)
  d.upd_bq = pick_block(Q, 32);
  d.upd_bp = pick_block(P, 8);
  const std::int64_t act_traffic =
      static_cast<std::int64_t>(p.input_elems()) +
      static_cast<std::int64_t>(p.output_elems());
  d.upd_strategy = pick_upd_strategy(
      p.N, kb, cb, p.R, p.S, act_traffic,
      static_cast<std::int64_t>(kb) * cb * p.R * p.S * kVlen * kVlen,
      threads);
  return d;
}

}  // namespace legacy_ref

namespace {

// Copy of test_conv_fuzz.cpp's shape generator (same seeds => same shapes),
// so the decision diff runs over exactly the fuzzed parameter sample.
core::ConvParams fuzz_params(unsigned seed) {
  std::mt19937 rng(seed);
  auto pick = [&](std::initializer_list<int> opts) {
    std::uniform_int_distribution<int> d(0, static_cast<int>(opts.size()) - 1);
    return *(opts.begin() + d(rng));
  };
  core::ConvParams p;
  for (int attempt = 0; attempt < 100; ++attempt) {
    p.N = pick({1, 2, 3});
    p.C = pick({3, 8, 16, 24, 32, 48});
    p.K = pick({8, 16, 20, 32, 64});
    p.H = pick({5, 7, 9, 12, 14, 17});
    p.W = pick({5, 7, 9, 12, 14, 17});
    p.R = pick({1, 3, 5, 7});
    p.S = pick({1, 3, 5, 7});
    p.stride_h = p.stride_w = pick({1, 1, 1, 2, 3});
    if (p.R == 1 && p.S != 1) p.S = 1;
    p.pad_h = p.R == 1 ? 0 : (p.R - 1) / 2;
    p.pad_w = p.S == 1 ? 0 : (p.S - 1) / 2;
    if (p.H + 2 * p.pad_h < p.R || p.W + 2 * p.pad_w < p.S) continue;
    if (p.P() < 1 || p.Q() < 1) continue;
    p.validate();
    return p;
  }
  return core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
}

void expect_matches_legacy(const core::ConvParams& p, int threads,
                           bool fwd_only) {
  SCOPED_TRACE(p.to_string() + " threads=" + std::to_string(threads) +
               (fwd_only ? " fwd" : " train"));
  PlanRequest req;
  req.threads = threads;
  req.fwd_only = fwd_only;
  const ConvPlan plan = core::plan_default(p, req);
  const legacy_ref::Decisions d = legacy_ref::decide(p, threads, fwd_only);
  EXPECT_EQ(plan.rbp, d.rbp);
  EXPECT_EQ(plan.rbq, d.rbq);
  EXPECT_EQ(plan.cb_in_kernel, d.cb_in_kernel);
  if (!fwd_only) {
    EXPECT_EQ(plan.bwd_algo, d.bwd_algo);
    EXPECT_EQ(plan.bwd1x1_rbq, d.bwd1x1_rbq);
    EXPECT_EQ(plan.bwd_gemm_qc, d.bwd_gemm_qc);
    EXPECT_EQ(plan.upd_strategy, d.upd_strategy);
    EXPECT_EQ(plan.upd_bp, d.upd_bp);
    EXPECT_EQ(plan.upd_bq, d.upd_bq);
  } else {
    EXPECT_EQ(plan.upd_bp, 0);
    EXPECT_EQ(plan.upd_bq, 0);
  }
  EXPECT_FALSE(plan.tuned);
  EXPECT_NO_THROW(
      plan.validate(p, fwd_only ? PlanPass::fwd : PlanPass::train));
}

std::string make_temp_dir() {
  std::string tmpl =
      (std::filesystem::temp_directory_path() / "xconv_plan_test_XXXXXX")
          .string();
  char* d = ::mkdtemp(tmpl.data());
  EXPECT_NE(d, nullptr);
  return tmpl;
}

struct TempDir {
  std::string path = make_temp_dir();
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
}

}  // namespace

// ===========================================================================
// LegacyDiff: old decisions == new decisions, bit-identical
// ===========================================================================

TEST(PlanLegacyDiff, PickBlockExtentMatchesLegacyPickers) {
  for (int dim = 1; dim <= 200; ++dim) {
    for (const int cap : {8, 14, 28, 32}) {
      SCOPED_TRACE("dim=" + std::to_string(dim) + " cap=" +
                   std::to_string(cap));
      EXPECT_EQ(core::pick_block_extent(dim, cap, 4),
                legacy_ref::pick_rb(dim, cap));
      EXPECT_EQ(core::pick_block_extent(dim, cap, 2),
                legacy_ref::pick_block(dim, cap));
    }
  }
}

TEST(PlanLegacyDiff, ResNet50Table1) {
  for (const int mb : {1, 4}) {
    for (const auto& l : topo::resnet50_table1()) {
      const auto p = topo::table1_params(l, mb);
      for (const int threads : {1, 4}) {
        expect_matches_legacy(p, threads, /*fwd_only=*/false);
        expect_matches_legacy(p, threads, /*fwd_only=*/true);
      }
    }
  }
}

TEST(PlanLegacyDiff, InceptionV3) {
  for (const auto& l : topo::inception_v3_convs()) {
    const auto p = topo::inception_params(l, 1);
    for (const int threads : {1, 4}) {
      expect_matches_legacy(p, threads, /*fwd_only=*/false);
    }
  }
}

TEST(PlanLegacyDiff, FuzzShapes) {
  for (unsigned seed = 0; seed < 24; ++seed) {
    const auto p = fuzz_params(seed);
    for (const int threads : {1, 4}) {
      expect_matches_legacy(p, threads, /*fwd_only=*/false);
      expect_matches_legacy(p, threads, /*fwd_only=*/true);
    }
  }
}

TEST(PlanLegacyDiff, LayerExecutesItsPlan) {
  // The decisions ConvLayer reports through its introspection accessors are
  // exactly the resolved plan's fields — setup only executes the plan.
  const auto& table = topo::resnet50_table1();
  for (std::size_t i = 0; i < std::min<std::size_t>(table.size(), 4); ++i) {
    const auto p = topo::table1_params(table[i], 2);
    core::ConvOptions o;
    o.threads = 2;
    core::ConvLayer layer(p, o);
    const ConvPlan& plan = layer.plan();
    SCOPED_TRACE(p.to_string());
    EXPECT_EQ(layer.fwd_rbp(), plan.rbp);
    EXPECT_EQ(layer.fwd_rbq(), plan.rbq);
    EXPECT_EQ(layer.bwd_algo(), plan.bwd_algo);
    EXPECT_EQ(layer.upd_strategy_used(), plan.upd_strategy);
    EXPECT_EQ(layer.upd_bp(), plan.upd_bp);
    EXPECT_EQ(layer.upd_bq(), plan.upd_bq);
    EXPECT_EQ(layer.vlen(), plan.vlen);
    EXPECT_EQ(layer.threads(), plan.threads);
    EXPECT_FALSE(plan.tuned);
  }
}

// ===========================================================================
// Crossover pins: the named constants induce these exact boundaries
// ===========================================================================

TEST(PlanCrossover, ForwardRegisterBlocking) {
  PlanRequest req;
  // Q=56: RBQ capped at kFwdRbqCap=14 (a divisor of 56), RBP stays 1.
  ConvPlan plan =
      core::plan_default(core::make_conv(1, 64, 64, 56, 56, 3, 3, 1), req);
  EXPECT_EQ(plan.rbq, 14);
  EXPECT_EQ(plan.rbp, 1);
  // Q=17 (prime): no divisor in [kRbMinExtent, 14] => fall back to the cap
  // itself, leaving a remainder block.
  plan = core::plan_default(core::make_conv(1, 16, 16, 17, 17, 3, 3, 1), req);
  EXPECT_EQ(plan.rbq, 14);
  EXPECT_EQ(plan.rbp, 1);
  // Q=7 <= max_acc/2 and RBQ==Q: stack rows, RBP = 28/7 = 4 (full budget).
  plan = core::plan_default(core::make_conv(1, 64, 64, 7, 7, 3, 3, 1), req);
  EXPECT_EQ(plan.rbq, 7);
  EXPECT_EQ(plan.rbp, 4);
  // Overrides exceeding the 28-accumulator budget throw (legacy contract).
  req.rbp = 3;
  req.rbq = 10;
  EXPECT_THROW(
      core::plan_default(core::make_conv(1, 16, 16, 12, 12, 3, 3, 1), req),
      std::invalid_argument);
}

TEST(PlanCrossover, CbInKernelOnlyForMultiBlock1x1) {
  PlanRequest req;
  EXPECT_TRUE(core::plan_default(core::make_conv(1, 64, 64, 14, 14, 1, 1, 1),
                                 req)
                  .cb_in_kernel);  // cb=4
  EXPECT_FALSE(core::plan_default(core::make_conv(1, 16, 64, 14, 14, 1, 1, 1),
                                  req)
                   .cb_in_kernel);  // cb=1
  EXPECT_FALSE(core::plan_default(core::make_conv(1, 64, 64, 14, 14, 3, 3, 1),
                                  req)
                   .cb_in_kernel);  // not 1x1
}

TEST(PlanCrossover, BackwardAlgorithmShapeForced) {
  PlanRequest req;
  EXPECT_EQ(core::plan_default(core::make_conv(2, 16, 16, 14, 14, 3, 3, 1),
                               req)
                .bwd_algo,
            BwdAlgo::duality_stride1);
  const ConvPlan p1x1 = core::plan_default(
      core::make_conv(2, 64, 64, 14, 14, 1, 1, 2, 0), req);
  EXPECT_EQ(p1x1.bwd_algo, BwdAlgo::duality_1x1_strided);
  EXPECT_EQ(p1x1.bwd1x1_rbq, 7);  // pick(Q=7, 28) = 7
  const ConvPlan pg = core::plan_default(
      core::make_conv(2, 16, 16, 14, 14, 3, 3, 2), req);
  EXPECT_EQ(pg.bwd_algo, BwdAlgo::gemm_fallback);
  EXPECT_EQ(pg.bwd_gemm_qc, 7);  // pick(Q=7, kBwdGemmMaxCols=28) = 7
}

TEST(PlanCrossover, BackwardGemmChunkFitsIsaRegisterBudget) {
  // Q = 28: AVX-512 takes the whole row (budget 28); AVX2 has 12
  // accumulators, so the chunk is capped there (pick(28, 12) = 7, a divisor).
  const auto p = core::make_conv(1, 16, 16, 56, 56, 3, 3, 2);
  PlanRequest req;
  EXPECT_EQ(core::plan_default(p, req).bwd_gemm_qc, 28);
  req.isa = platform::Isa::avx2;
  const ConvPlan avx2 = core::plan_default(p, req);
  EXPECT_EQ(avx2.bwd_algo, BwdAlgo::gemm_fallback);
  EXPECT_EQ(avx2.bwd_gemm_qc, 7);
  EXPECT_NO_THROW(avx2.validate(p, PlanPass::train));
  // A plan carrying the AVX-512 chunk for AVX2 (e.g. a stale cache entry)
  // is rejected instead of failing later in the GEMM generator.
  ConvPlan stale = avx2;
  stale.bwd_gemm_qc = 28;
  EXPECT_THROW(stale.validate(p, PlanPass::train), std::invalid_argument);
}

TEST(PlanCrossover, UpdatePixelBlocking) {
  PlanRequest req;
  // P=Q=56: BP capped at kUpdBpCap=8 (divisor), BQ at the largest divisor
  // below kUpdBqCap=32, i.e. 28.
  const ConvPlan plan =
      core::plan_default(core::make_conv(1, 16, 16, 56, 56, 3, 3, 1), req);
  EXPECT_EQ(plan.upd_bp, 8);
  EXPECT_EQ(plan.upd_bq, 28);
  // P=Q=17 (prime): no divisor => the caps themselves, remainder blocks.
  const ConvPlan p17 =
      core::plan_default(core::make_conv(1, 16, 16, 17, 17, 3, 3, 1), req);
  EXPECT_EQ(p17.upd_bp, 8);
  EXPECT_EQ(p17.upd_bq, 17);  // Q=17 <= kUpdBqCap: whole row
}

TEST(PlanCrossover, UpdStrategyTrafficModelBoundaries) {
  using legacy_ref::pick_upd_strategy;
  // Single thread: always task, no model evaluated.
  EXPECT_EQ(core::pick_upd_strategy(4, 2, 2, 3, 3, 1 << 20, 1 << 10, 1),
            UpdStrategy::task);
  // tasks < nthreads forces minibatch iff the minibatch offers N >= T.
  EXPECT_EQ(core::pick_upd_strategy(8, 1, 1, 1, 1, 1 << 20, 1 << 10, 4),
            UpdStrategy::minibatch);
  EXPECT_EQ(core::pick_upd_strategy(2, 1, 1, 1, 1, 1 << 20, 1 << 10, 4),
            UpdStrategy::task);
  // N < kUpdMinMinibatch=2: nothing to split, task.
  EXPECT_EQ(core::pick_upd_strategy(1, 2, 2, 3, 3, 1 << 20, 1 << 10, 4),
            UpdStrategy::task);

  // Worked boundary, T=8, kb=cb=2, r=s=2 (tasks=16 >= 8):
  //   kc_split   = min(T, kb*cb) = 4
  //   task_traffic = act/4 * 8 + wt = 2*act + wt
  //   mb_traffic   = act + kUpdCopyTrafficFactor*8*wt = act + 16*wt
  //   mb < task  <=>  act > 15*wt. With wt=1000:
  //     act = 15000  => equal, model keeps task
  //     act = 15001  => minibatch wins; tasks=16 >= T/kHybridTaskDivisor=4
  //                     and T >= kHybridMinThreads=4  => hybrid
  EXPECT_EQ(core::pick_upd_strategy(4, 2, 2, 2, 2, 15000, 1000, 8),
            UpdStrategy::task);
  EXPECT_EQ(core::pick_upd_strategy(4, 2, 2, 2, 2, 15001, 1000, 8),
            UpdStrategy::hybrid);

  // T=2 < kHybridMinThreads: the same crossover lands on pure minibatch.
  //   kb=cb=1, r=2, s=1 (tasks=2 >= 2), kc_split = min(2,1) = 1
  //   task_traffic = 2*act + wt;  mb_traffic = act + 4*wt
  //   mb < task <=> act > 3*wt
  EXPECT_EQ(core::pick_upd_strategy(4, 1, 1, 2, 1, 3000, 1000, 2),
            UpdStrategy::task);
  EXPECT_EQ(core::pick_upd_strategy(4, 1, 1, 2, 1, 3001, 1000, 2),
            UpdStrategy::minibatch);

  // The legacy reference agrees on every boundary above.
  for (const auto& c :
       std::vector<std::array<std::int64_t, 8>>{{4, 2, 2, 3, 3, 1 << 20, 1 << 10, 1},
                                                {8, 1, 1, 1, 1, 1 << 20, 1 << 10, 4},
                                                {2, 1, 1, 1, 1, 1 << 20, 1 << 10, 4},
                                                {1, 2, 2, 3, 3, 1 << 20, 1 << 10, 4},
                                                {4, 2, 2, 2, 2, 15000, 1000, 8},
                                                {4, 2, 2, 2, 2, 15001, 1000, 8},
                                                {4, 1, 1, 2, 1, 3000, 1000, 2},
                                                {4, 1, 1, 2, 1, 3001, 1000, 2}}) {
    EXPECT_EQ(core::pick_upd_strategy(static_cast<int>(c[0]),
                                      static_cast<int>(c[1]),
                                      static_cast<int>(c[2]),
                                      static_cast<int>(c[3]),
                                      static_cast<int>(c[4]), c[5], c[6],
                                      static_cast<int>(c[7])),
              pick_upd_strategy(static_cast<int>(c[0]), static_cast<int>(c[1]),
                                static_cast<int>(c[2]), static_cast<int>(c[3]),
                                static_cast<int>(c[4]), c[5], c[6],
                                static_cast<int>(c[7])));
  }
}

// ===========================================================================
// Key stability
// ===========================================================================

TEST(PlanKeyTest, TextFormAndHashPinned) {
  PlanKey key;
  key.params = core::make_conv(2, 64, 128, 56, 56, 3, 3, 1);
  key.pass = PlanPass::train;
  key.isa = platform::Isa::avx512;
  key.vlen = 16;
  key.threads = 4;
  // Pinned literals: changing either breaks every persisted cache on disk,
  // which is exactly what kPlanSchemaVersion (embedded in the text) is for.
  EXPECT_EQ(key.to_string(),
            "conv(N=2,C=64,K=128,H=56,W=56,R=3,S=3,stride=1x1,pad=1x1)"
            "|pass=train|isa=avx512|vlen=16|threads=4|v2");
  EXPECT_EQ(key.hash(), 0x9ac43fd6cac21316ull);
  EXPECT_EQ(key.hash_hex(), "9ac43fd6cac21316");
}

TEST(PlanKeyTest, HashIsFnv1a64) {
  // Independent 5-line FNV-1a so the production hash cannot silently drift.
  auto fnv = [](const std::string& s) {
    std::uint64_t h = 14695981039346656037ull;
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    return h;
  };
  for (const char* s : {"", "a", "xconv", "conv(N=1,...)|pass=fwd"})
    EXPECT_EQ(core::fnv1a64(s), fnv(s)) << s;
  PlanKey key;
  key.params = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  EXPECT_EQ(key.hash(), fnv(key.to_string()));
}

TEST(PlanKeyTest, DistinctContextsDistinctKeys) {
  const auto p = core::make_conv(1, 16, 16, 8, 8, 3, 3, 1);
  PlanRequest a, b;
  b.threads = 2;
  EXPECT_NE(a.key(p).to_string(), b.key(p).to_string());
  PlanRequest c;
  c.fwd_only = true;
  EXPECT_NE(a.key(p).to_string(), c.key(p).to_string());
  PlanRequest d;
  d.isa = platform::Isa::avx2;
  EXPECT_NE(a.key(p).to_string(), d.key(p).to_string());
  // Backend / streams / prefetch are execution context, not identity.
  PlanRequest e;
  e.use_streams = false;
  e.prefetch = false;
  e.backend = kernels::BackendPref::scalar;
  EXPECT_EQ(a.key(p).to_string(), e.key(p).to_string());
}

// ===========================================================================
// Serialization
// ===========================================================================

TEST(PlanSerialization, RoundTripEveryField) {
  // Vary every serialized field across the sample: isa/vlen (avx2=8),
  // threads, backend, streams/prefetch, all three bwd algos, strategies,
  // blocking overrides and the tuned flag.
  struct Case {
    core::ConvParams p;
    PlanRequest req;
    bool tuned;
  };
  std::vector<Case> cases;
  {
    Case c{core::make_conv(2, 64, 64, 14, 14, 3, 3, 1), {}, false};
    cases.push_back(c);  // duality_stride1, task (1 thread)
  }
  {
    Case c{core::make_conv(2, 64, 64, 14, 14, 1, 1, 2, 0), {}, true};
    c.req.threads = 4;
    c.req.use_streams = false;
    cases.push_back(c);  // duality_1x1_strided, cb_in_kernel
  }
  {
    Case c{core::make_conv(2, 16, 16, 14, 14, 3, 3, 2), {}, false};
    c.req.threads = 8;
    c.req.prefetch = false;
    c.req.backend = kernels::BackendPref::scalar;
    cases.push_back(c);  // gemm_fallback
  }
  {
    Case c{core::make_conv(4, 32, 32, 28, 28, 3, 3, 1), {}, true};
    c.req.isa = platform::Isa::avx2;  // vlen 8
    c.req.threads = 2;
    cases.push_back(c);
  }
  {
    Case c{core::make_conv(1, 16, 16, 8, 8, 3, 3, 1), {}, false};
    c.req.fwd_only = true;  // pass=fwd plan: upd/bwd fields at defaults
    cases.push_back(c);
  }
  {
    Case c{core::make_conv(4, 64, 64, 28, 28, 3, 3, 1), {}, true};
    c.req.threads = 16;
    c.req.rbp = 2;
    c.req.rbq = 14;
    c.req.upd_bp = 4;
    c.req.upd_bq = 14;
    c.req.upd_strategy = UpdStrategy::hybrid;
    cases.push_back(c);  // every override exercised
  }
  {
    Case c{core::make_conv(4, 64, 64, 28, 28, 3, 3, 1), {}, false};
    c.req.threads = 4;
    c.req.upd_strategy = UpdStrategy::minibatch;
    c.req.backend = kernels::BackendPref::jit;
    cases.push_back(c);
  }

  for (const auto& c : cases) {
    SCOPED_TRACE(c.p.to_string());
    ConvPlan plan = core::plan_default(c.p, c.req);
    plan.tuned = c.tuned;
    const PlanKey key = c.req.key(c.p);
    const std::string json = plan.to_json(key);
    ConvPlan back;
    ASSERT_EQ(core::plan_from_json(json, key, &back),
              PlanLoadStatus::ok)
        << json;
    EXPECT_EQ(back, plan) << json;  // defaulted == covers every field
  }
}

TEST(PlanSerialization, RejectsCorruptTruncatedVersionAndForeign) {
  const auto p = core::make_conv(2, 16, 32, 8, 8, 3, 3, 1);
  PlanRequest req;
  req.threads = 2;
  const PlanKey key = req.key(p);
  const ConvPlan plan = core::plan_default(p, req);
  const std::string good = plan.to_json(key);
  ConvPlan out;

  // Sanity: the untouched text parses.
  ASSERT_EQ(core::plan_from_json(good, key, &out), PlanLoadStatus::ok);

  // Truncation at any prefix must be corrupt, never a partial plan.
  for (const std::size_t len : {std::size_t{0}, good.size() / 4,
                                good.size() / 2, good.size() - 2})
    EXPECT_EQ(core::plan_from_json(good.substr(0, len), key, &out),
              PlanLoadStatus::corrupt)
        << "len=" << len;
  // Garbage and non-JSON.
  EXPECT_EQ(core::plan_from_json("not json at all", key, &out),
            PlanLoadStatus::corrupt);
  EXPECT_EQ(core::plan_from_json(good + "trailing", key, &out),
            PlanLoadStatus::corrupt);
  // A missing field is corrupt.
  {
    std::string s = good;
    const std::string needle = "  \"rbq\": " + std::to_string(plan.rbq) + ",\n";
    const auto pos = s.find(needle);
    ASSERT_NE(pos, std::string::npos);
    s.erase(pos, needle.size());
    EXPECT_EQ(core::plan_from_json(s, key, &out), PlanLoadStatus::corrupt);
  }
  // An out-of-range field fails plan validation => corrupt.
  {
    std::string s = good;
    const std::string needle = "\"rbq\": " + std::to_string(plan.rbq);
    const auto pos = s.find(needle);
    ASSERT_NE(pos, std::string::npos);
    s.replace(pos, needle.size(), "\"rbq\": 999");
    EXPECT_EQ(core::plan_from_json(s, key, &out), PlanLoadStatus::corrupt);
  }
  // A bumped schema version is version_mismatch (the upgrade path).
  {
    std::string s = good;
    const std::string needle = "\"plan_schema_version\": 2";
    const auto pos = s.find(needle);
    ASSERT_NE(pos, std::string::npos);
    s.replace(pos, needle.size(), "\"plan_schema_version\": 999");
    EXPECT_EQ(core::plan_from_json(s, key, &out),
              PlanLoadStatus::version_mismatch);
  }
  // An entry serialized for a different key (here: thread count) is foreign.
  {
    PlanRequest other = req;
    other.threads = 8;
    EXPECT_EQ(core::plan_from_json(good, other.key(p), &out),
              PlanLoadStatus::key_mismatch);
  }
  // A cache file naming the retired "compiled" intrinsics backend is corrupt
  // (the loader then falls back to plan_default), not silently remapped.
  {
    std::string s = good;
    const std::string needle = "\"backend\": \"auto\"";
    const auto pos = s.find(needle);
    ASSERT_NE(pos, std::string::npos);
    s.replace(pos, needle.size(), "\"backend\": \"compiled\"");
    EXPECT_EQ(core::plan_from_json(s, key, &out), PlanLoadStatus::corrupt);
  }
}

// ===========================================================================
// PlanCache: memory + disk + fallback + stats
// ===========================================================================

TEST(PlanCacheTest, MemoryGetOrCreateAndStats) {
  core::PlanCache cache;  // memory-only
  const auto p = core::make_conv(2, 16, 32, 8, 8, 3, 3, 1);
  PlanRequest req;
  const PlanKey key = req.key(p);
  int makes = 0;
  auto make = [&] {
    ++makes;
    return core::plan_default(p, req);
  };
  const ConvPlan a = cache.get_or_create(key, make);
  const ConvPlan b = cache.get_or_create(key, make);
  EXPECT_EQ(a, b);
  EXPECT_EQ(makes, 1);
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.disk_hits, 0u);
  EXPECT_EQ(st.stores, 0u);  // no directory => nothing persisted
  EXPECT_EQ(cache.size(), 1u);
  ConvPlan peeked;
  EXPECT_TRUE(cache.peek(key, &peeked));
  EXPECT_EQ(peeked, a);
  PlanRequest other;
  other.threads = 3;
  EXPECT_FALSE(cache.peek(other.key(p), &peeked));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCacheTest, DiskRoundTrip) {
  TempDir dir;
  const auto p = core::make_conv(2, 64, 64, 14, 14, 3, 3, 1);
  PlanRequest req;
  req.threads = 2;
  const PlanKey key = req.key(p);

  ConvPlan tuned = core::plan_default(p, req);
  tuned.tuned = true;
  tuned.rbq = 7;  // a non-default (but valid) decision must survive the trip
  {
    core::PlanCache writer(dir.path);
    writer.put(key, tuned);
    EXPECT_EQ(writer.stats().stores, 1u);
    EXPECT_TRUE(std::filesystem::exists(writer.file_path(key)));
  }
  // A fresh cache (fresh process, same directory) serves the tuned plan.
  core::PlanCache reader(dir.path);
  int makes = 0;
  const ConvPlan got = reader.get_or_create(key, [&] {
    ++makes;
    return core::plan_default(p, req);
  });
  EXPECT_EQ(makes, 0);
  EXPECT_EQ(got, tuned);
  const auto st = reader.stats();
  EXPECT_EQ(st.disk_hits, 1u);
  EXPECT_EQ(st.misses, 0u);
  // Second lookup is a pure memory hit.
  reader.get_or_create(key, [&] { return core::plan_default(p, req); });
  EXPECT_EQ(reader.stats().hits, 1u);
}

TEST(PlanCacheTest, CorruptDiskEntryFallsBackToDefault) {
  TempDir dir;
  const auto p = core::make_conv(2, 16, 16, 8, 8, 3, 3, 1);
  PlanRequest req;
  const PlanKey key = req.key(p);
  core::PlanCache cache(dir.path);
  write_file(cache.file_path(key), "{ \"plan_schema_version\": ");  // truncated
  int makes = 0;
  const ConvPlan got = cache.get_or_create(key, [&] {
    ++makes;
    return core::plan_default(p, req);
  });
  EXPECT_EQ(makes, 1);
  EXPECT_EQ(got, core::plan_default(p, req));
  const auto st = cache.stats();
  EXPECT_EQ(st.disk_stale, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.stores, 1u);  // the fresh plan replaced the corrupt file
  // The replacement is valid: a fresh cache now loads it from disk.
  core::PlanCache fresh(dir.path);
  ConvPlan reread;
  EXPECT_TRUE(fresh.peek(key, &reread));
  EXPECT_EQ(reread, got);
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
}

TEST(PlanCacheTest, VersionMismatchedDiskEntryFallsBack) {
  TempDir dir;
  const auto p = core::make_conv(2, 16, 16, 8, 8, 3, 3, 1);
  PlanRequest req;
  const PlanKey key = req.key(p);
  core::PlanCache cache(dir.path);
  cache.put(key, core::plan_default(p, req));
  // Simulate an old-version file in place.
  std::string text = read_file(cache.file_path(key));
  const std::string needle = "\"plan_schema_version\": 2";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"plan_schema_version\": 0");
  write_file(cache.file_path(key), text);

  core::PlanCache fresh(dir.path);
  int makes = 0;
  fresh.get_or_create(key, [&] {
    ++makes;
    return core::plan_default(p, req);
  });
  EXPECT_EQ(makes, 1);
  EXPECT_EQ(fresh.stats().disk_stale, 1u);
  EXPECT_EQ(fresh.stats().disk_hits, 0u);
}

TEST(PlanCacheTest, ConcurrentGetOrCreateAgrees) {
  // Racing creators must agree on one plan per key and count one miss per
  // key (both racers may build; only the winning insert counts). Runs under
  // the TSan lane like the other sync tests.
  core::PlanCache cache;
  PlanRequest req;
  req.threads = 2;
  // Distinct shapes => distinct keys (seeds may repeat shapes; dedupe).
  std::vector<core::ConvParams> shapes;
  std::set<std::string> keys;
  for (unsigned seed = 100; shapes.size() < 6; ++seed) {
    const auto p = fuzz_params(seed);
    if (keys.insert(req.key(p).to_string()).second) shapes.push_back(p);
  }

  constexpr int kThreads = 8, kIters = 50;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const auto& p = shapes[(t + i) % shapes.size()];
        const ConvPlan plan = cache.get_or_create(
            req.key(p), [&] { return core::plan_default(p, req); });
        (void)plan;
      }
    });
  }
  for (auto& w : workers) w.join();

  for (std::size_t s = 0; s < shapes.size(); ++s) {
    ConvPlan expect;
    ASSERT_TRUE(cache.peek(req.key(shapes[s]), &expect));
    EXPECT_EQ(expect, core::plan_default(shapes[s], req));
  }
  EXPECT_EQ(cache.size(), shapes.size());
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, shapes.size());
  EXPECT_GE(st.hits, static_cast<std::uint64_t>(kThreads * kIters) -
                         kThreads * shapes.size());
}

// ===========================================================================
// Explicit plans + steady-state construction
// ===========================================================================

TEST(PlanExplicit, LayerHonorsExplicitPlanBitwise) {
  const auto p = core::make_conv(2, 16, 32, 14, 14, 3, 3, 1);
  ConvProblem pr(p, 7);
  core::ConvOptions o;
  o.threads = 1;
  core::ConvLayer def(p, o);
  // Q = 14 fits the AVX-512 accumulator budget (28 / 2); AVX2's 12 give 7.
  ASSERT_EQ(def.fwd_rbq(), def.plan().isa == platform::Isa::avx2 ? 7 : 14);

  // Same decisions, different blocking: half the default rbq (7 instead of
  // 14 on AVX-512). Forward register blocking partitions the output pixels
  // without changing any accumulation order, so results are bit-identical
  // across plans.
  ConvPlan alt = def.plan();
  alt.rbq = def.fwd_rbq() / 2;
  alt.rbp = 1;
  core::ConvOptions oe = o;
  oe.plan = alt;
  core::ConvLayer exp(p, oe);
  EXPECT_EQ(exp.fwd_rbq(), alt.rbq);
  EXPECT_EQ(exp.plan(), alt);
  expect_bitwise(layer_forward(def, pr),
                          layer_forward(exp, pr),
                          "explicit-plan fwd");

  // Update pixel blocking reorders dW accumulation: near-equal, not bitwise.
  ConvPlan ualt = def.plan();
  ualt.upd_bp = 2;
  ualt.upd_bq = 7;
  core::ConvOptions ou = o;
  ou.plan = ualt;
  core::ConvLayer uexp(p, ou);
  EXPECT_EQ(uexp.upd_bp(), 2);
  EXPECT_EQ(uexp.upd_bq(), 7);
  expect_close(layer_update(def, pr),
                        layer_update(uexp, pr), 2e-3,
                        "explicit-plan upd");
}

TEST(PlanExplicit, RejectsWrongContextAndInvalidPlans) {
  const auto p = core::make_conv(2, 16, 32, 14, 14, 3, 3, 1);
  core::ConvOptions o;
  o.threads = 1;
  const ConvPlan good = core::ConvLayer(p, o).plan();

  // Context mismatch: the plan was built for a different thread count.
  ConvPlan wrong_threads = good;
  wrong_threads.threads = 2;
  core::ConvOptions ot = o;
  ot.plan = wrong_threads;
  EXPECT_THROW(core::ConvLayer(p, ot), std::invalid_argument);

  // Shape mismatch: a stride-1 layer cannot run the GEMM fallback.
  ConvPlan wrong_algo = good;
  wrong_algo.bwd_algo = BwdAlgo::gemm_fallback;
  wrong_algo.bwd_gemm_qc = 7;
  core::ConvOptions oa = o;
  oa.plan = wrong_algo;
  EXPECT_THROW(core::ConvLayer(p, oa), std::invalid_argument);

  // Unresolved strategy never executes.
  ConvPlan unresolved = good;
  unresolved.upd_strategy = UpdStrategy::auto_pick;
  core::ConvOptions os = o;
  os.plan = unresolved;
  EXPECT_THROW(core::ConvLayer(p, os), std::invalid_argument);
}

TEST(PlanSteadyState, SecondConstructionIsPureCacheHits) {
  // The "zero planning work in steady state" acceptance: once a layer has
  // been constructed, an identical construction does no planning (PlanCache
  // misses stay flat) and compiles no kernels (KernelRegistry misses == 0).
  const auto p = core::make_conv(2, 48, 48, 12, 12, 3, 3, 1);
  core::ConvOptions o;
  o.threads = 2;
  { core::ConvLayer warmup(p, o); }

  auto& plans = core::PlanCache::instance();
  auto& kernels = kernels::KernelRegistry::instance();
  plans.reset_stats();
  kernels.reset_stats();
  { core::ConvLayer steady(p, o); }
  const auto pst = plans.stats();
  const auto kst = kernels.stats();
  EXPECT_EQ(pst.misses, 0u);
  EXPECT_GE(pst.hits, 1u);  // the layer itself (+ its dual layer's plan)
  EXPECT_EQ(kst.misses, 0u);
  EXPECT_GE(kst.hits, 1u);
}
