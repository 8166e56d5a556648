// dp3_rn50_int16: mlsl::MultiNodeTrainer, 3 in-process ranks of ResNet-50
// (1000 classes) at 56x56, minibatch 2 per rank, 1 thread per rank graph and
// 1 comm thread (4 threads), overlap mode, int16 codec, flat ring, a
// simulated 0.2 GB/s wire. Closed loop of training steps interleaved with
// forward-only batches on all three replicas at once. This is the workload
// whose step waits on the overlapped allreduce of the 25.5M-parameter
// gradient.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "gxm/graph.hpp"
#include "gxm/parser.hpp"
#include "mlsl/codec.hpp"
#include "mlsl/scaling.hpp"
#include "topo/resnet50.hpp"

namespace perfbench {

namespace {

constexpr int kRanks = 3;
constexpr int kMb = 2;
constexpr int kImg = 56;
constexpr int kClasses = 1000;
constexpr double kWireGbs = 0.2;
constexpr int kInferPerStep = 4;  ///< inference batches per training step
constexpr int kMinSamples = 3;
constexpr int kCodecCalls = 5;

void check_losses(xconv::mlsl::MultiNodeTrainer& mt, Result& r) {
  for (int k = 0; k < kRanks; ++k)
    if (!std::isfinite(mt.rank_graph(k).loss()))
      r.fail_check("dp3_rn50_int16: non-finite loss on rank " +
                   std::to_string(k));
}

/// The replica-sync contract: every rank holds bitwise-identical weights.
void check_replicas(xconv::mlsl::MultiNodeTrainer& mt, Result& r) {
  const std::size_t n = mt.rank_graph(0).grad_elems();
  std::vector<float> p0(n), pk(n);
  mt.rank_graph(0).export_params(p0.data());
  for (int k = 1; k < kRanks; ++k) {
    mt.rank_graph(k).export_params(pk.data());
    if (std::memcmp(p0.data(), pk.data(), n * sizeof(float)) != 0)
      r.fail_check("dp3_rn50_int16: rank " + std::to_string(k) +
                   " parameters differ from rank 0");
  }
}

/// One forward-only batch on every rank's graph concurrently, one thread
/// per rank (rank 0 on the caller's); rethrows the first rank's failure.
void infer_all_ranks(xconv::mlsl::MultiNodeTrainer& mt) {
  std::exception_ptr err[kRanks];
  auto run = [&](int k) {
    try {
      mt.rank_graph(k).forward(false);
    } catch (...) {
      err[k] = std::current_exception();
    }
  };
  {
    std::vector<std::jthread> others;
    for (int k = 1; k < kRanks; ++k) others.emplace_back(run, k);
    run(0);
  }
  for (const auto& e : err)
    if (e) std::rethrow_exception(e);
}

/// Times int16 encode and decode_accumulate on a gradient-sized buffer;
/// GB/s are fp32 payload bytes per second.
void codec_metrics(std::size_t n, unsigned seed, Result& r, TraceContext& tc) {
  const auto codec = xconv::mlsl::make_codec(xconv::mlsl::Codec::kInt16);
  std::vector<float> src(n), residual(n, 0.0f), acc(n, 0.0f);
  std::uint32_t x = seed * 2654435761u + 1;
  for (auto& f : src) {
    x = x * 1664525u + 1013904223u;
    f = static_cast<float>(x >> 8) * (2e-3f / 16777216.0f) - 1e-3f;
  }
  std::vector<std::uint8_t> wire(codec->max_encoded_bytes(n));
  std::vector<double> enc, dec;
  std::size_t bytes = 0;
  TimedRegionGuard guard(&tc.timed_misses);
  for (int i = 0; i < kCodecCalls; ++i) {
    const long id = tc.log.open("mlsl.codec.encode", -1, i);
    if (!r.op("int16 encode", [&] {
          bytes = codec->encode(src.data(), residual.data(), n, wire.data());
        }))
      return;
    tc.log.close(id);
    enc.push_back(tc.log.span(id).seconds());
    const long jd = tc.log.open("mlsl.codec.decode_accumulate", -1, i);
    if (!r.op("int16 decode_accumulate", [&] {
          codec->decode_accumulate(wire.data(), bytes, acc.data(), n);
        }))
      return;
    tc.log.close(jd);
    dec.push_back(tc.log.span(jd).seconds());
  }
  r.metric("mlsl.codec.encode_gbs", n * 4.0 / median(enc) * 1e-9, "GB/s");
  r.metric("mlsl.codec.decode_acc_gbs", n * 4.0 / median(dec) * 1e-9, "GB/s");
}

}  // namespace

void run_dp3(const Args& a, Result& r, TraceContext* tc) {
  const auto t_setup = Clock::now();
  const CacheCounts c0 = cache_counts();
  const auto nl = xconv::gxm::parse_topology(
      xconv::topo::resnet50_topology(kMb, kImg, kClasses));
  xconv::gxm::GraphOptions gopt;
  gopt.threads = 1;
  gopt.seed = a.seed;
  xconv::mlsl::MultiNodeOptions mn;
  mn.mode = xconv::mlsl::SyncMode::kOverlap;
  mn.comm.codec = xconv::mlsl::Codec::kInt16;
  mn.comm.comm_threads = 1;
  mn.comm.wire_gbs = kWireGbs;
  mn.comm.algorithm = xconv::mlsl::ReduceAlgorithm::kFlatRing;
  xconv::gxm::Solver solver;
  solver.lr = 0.001f;

  std::vector<double> rank_step;
  {
    xconv::mlsl::MultiNodeTrainer mt(nl, kRanks, gopt, mn);
    xconv::mlsl::MultiNodeStats st;
    if (!r.op("dp3 first step", [&] { st = mt.train(1, solver); })) return;
    r.metric("setup_s", seconds_since(t_setup), "s");
    r.first_loss_bits = float_bits(st.last_loss);
    check_losses(mt, r);
    note_setup_misses(tc, c0);
    if (a.setup_only) return;

    // Untraced runs interleave inference batches with the training steps
    // so both sample the whole run window.
    std::vector<double> step, exposed, wait_max, infer;
    {
      TimedRegionGuard guard(tc ? &tc->timed_misses : nullptr);
      const auto t0 = Clock::now();
      for (long s = 0;
           step.size() < kMinSamples || seconds_since(t0) < a.seconds; ++s) {
        const long id = tc ? tc->log.open("dp3.train", -1, s) : -1;
        auto s0 = Clock::now();
        if (!r.op("dp3 train step", [&] { st = mt.train(1, solver); })) return;
        step.push_back(seconds_since(s0));
        if (tc) tc->log.close(id);
        exposed.push_back(st.exposed_comm_seconds);
        const auto& waits = st.bucket_wait_seconds;
        wait_max.push_back(waits.empty() ? 0.0
                                         : *std::max_element(waits.begin(),
                                                             waits.end()));
        check_losses(mt, r);
        for (int i = 0; tc == nullptr && i < kInferPerStep; ++i) {
          s0 = Clock::now();
          if (!r.op("dp3 inference batch", [&] { infer_all_ranks(mt); }))
            return;
          infer.push_back(seconds_since(s0));
          check_losses(mt, r);
        }
      }
    }
    check_replicas(mt, r);
    print_timing("dp3_rn50_int16 train step", step);
    print_timing("dp3_rn50_int16 rank-0 exposed comm", exposed);
    if (tc == nullptr) {
      print_timing("dp3_rn50_int16 inference batch", infer);
      r.metric("train_img_s", kRanks * kMb / median(step), "img/s");
      r.metric("infer_img_s", kRanks * kMb / median(infer), "img/s");
      r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
      return;
    }
    r.metric("mlsl.exposed_comm_ms", 1e3 * median(exposed), "ms");
    r.metric("mlsl.bucket_wait_ms.max", 1e3 * median(wait_max), "ms");
    r.metric("mlsl.wire_bytes_per_rank",
             static_cast<double>(st.wire_bytes_per_rank), "bytes");
    codec_metrics(mt.rank_graph(0).grad_elems(), a.seed, r, *tc);
  }

  // One rank's step alone: the compute the overlap has to hide comm behind.
  xconv::gxm::Graph g(nl, gopt);
  if (!r.op("dp3 single-rank step", [&] { g.train_step(solver); })) return;
  TimedRegionGuard guard(&tc->timed_misses);
  for (long s = 0; s < kMinSamples; ++s) {
    const long id = tc->log.open("dp3.rank_step", -1, s);
    if (!r.op("dp3 single-rank step", [&] { g.train_step(solver); })) return;
    tc->log.close(id);
    rank_step.push_back(tc->log.span(id).seconds());
  }
  r.metric("mlsl.rank_compute_ms", 1e3 * median(rank_step), "ms");
}

}  // namespace perfbench
