// conv_sweep: isolated core::ConvLayer forward / backward / update over the
// 20 ResNet-50 Table I shapes and the 46 Inception-v3 shapes, minibatch 4,
// 4 threads, default backend and stream setting. Closed loop: one sweep runs
// every layer's forward, then every backward, then every update; the next
// sweep starts when it ends. All of its time is in core/jit/kernels.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baselines/naive_conv.hpp"
#include "common.hpp"
#include "core/conv_layer.hpp"
#include "tensor/norms.hpp"
#include "tensor/transform.hpp"
#include "topo/inception_v3.hpp"
#include "topo/resnet50.hpp"

namespace perfbench {

namespace {

using xconv::core::ConvParams;
using xconv::tensor::ActTensor;
using xconv::tensor::WtTensor;

constexpr int kMb = 4;
constexpr int kMinSweeps = 3;
/// Relative L2 error allowed against the naive reference (the test suite's
/// fp32-reassociation tolerance).
constexpr double kCheckTol = 2e-3;
const char* const kPass[3] = {"fwd", "bwd", "upd"};

struct SweepLayer {
  std::string name;
  bool rn50 = false;
  ConvParams p;
  std::unique_ptr<xconv::core::ConvLayer> layer;
  ActTensor in, out, dout, din;
  WtTensor wt, dw;
  std::vector<double> secs[3];  ///< per pass call times
};

/// Deterministic uniform [-1, 1) values from (seed, stream, index).
std::vector<float> random_values(std::size_t n, unsigned seed,
                                 std::uint64_t stream) {
  std::vector<float> v(n);
  std::uint64_t x =
      (std::uint64_t{seed} << 32) ^ (stream * 0x9E3779B97F4A7C15u);
  for (auto& f : v) {
    x += 0x9E3779B97F4A7C15u;  // splitmix64
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9u;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBu;
    z ^= z >> 31;
    f = static_cast<float>(z >> 40) * (2.0f / 16777216.0f) - 1.0f;
  }
  return v;
}

std::vector<SweepLayer> make_layers(unsigned seed) {
  std::vector<SweepLayer> ls;
  auto add = [&](const char* fmt, int id, bool rn50, const ConvParams& p) {
    char name[32];
    std::snprintf(name, sizeof name, fmt, id);
    ls.emplace_back();
    ls.back().name = name;
    ls.back().rn50 = rn50;
    ls.back().p = p;
  };
  for (const auto& s : xconv::topo::resnet50_table1())
    add("rn50_L%02d", s.id, true, xconv::topo::table1_params(s, kMb));
  int i = 0;
  for (const auto& s : xconv::topo::inception_v3_convs())
    add("incv3_L%02d", ++i, false, xconv::topo::inception_params(s, kMb));
  xconv::core::ConvOptions opt;
  opt.threads = kThreads;
  std::uint64_t stream = 0;
  for (auto& l : ls) {
    l.layer = std::make_unique<xconv::core::ConvLayer>(l.p, opt);
    l.in = l.layer->make_input();
    l.din = l.layer->make_input();
    l.out = l.layer->make_output();
    l.dout = l.layer->make_output();
    l.wt = l.layer->make_weights();
    l.dw = l.layer->make_weights();
    xconv::tensor::nchw_to_blocked(
        random_values(l.p.input_elems(), seed, ++stream).data(), l.in);
    xconv::tensor::nchw_to_blocked(
        random_values(l.p.output_elems(), seed, ++stream).data(), l.dout);
    xconv::tensor::kcrs_to_blocked_fwd(
        random_values(l.p.weight_elems(), seed, ++stream).data(), l.p.K,
        l.p.C, l.wt);
  }
  return ls;
}

void call_pass(SweepLayer& l, int pass) {
  switch (pass) {
    case 0: l.layer->forward(l.in, l.wt, l.out); break;
    case 1: l.layer->backward(l.dout, l.wt, l.din); break;
    default: l.layer->update(l.in, l.dout, l.dw); break;
  }
}

/// One sweep; returns false if a call failed. `record` keeps call times.
bool sweep(std::vector<SweepLayer>& ls, Result& r, TraceContext* tc,
           long step, bool record) {
  const long root = tc ? tc->log.open("conv_sweep.sweep", -1, step) : -1;
  for (int pass = 0; pass < 3; ++pass)
    for (auto& l : ls) {
      const long id =
          tc ? tc->log.open(l.name + "." + kPass[pass], root, step) : -1;
      const auto t0 = Clock::now();
      if (!r.op("conv_sweep layer call", [&] { call_pass(l, pass); }))
        return false;
      const auto t1 = Clock::now();
      if (tc) tc->log.close(id);
      if (record) l.secs[pass].push_back(seconds_between(t0, t1));
    }
  if (tc) tc->log.close(root);
  return true;
}

/// Image 0 of a blocked activation tensor, in NCHW order.
std::vector<float> image0(const ActTensor& t, std::size_t per_image) {
  std::vector<float> all(per_image * static_cast<std::size_t>(t.n()));
  xconv::tensor::blocked_to_nchw(t, all.data());
  all.resize(per_image);
  return all;
}

/// Width of the channel block each check compares.
constexpr int kCheckBlock = 16;

/// Compares every layer x pass of the first sweep against the naive
/// reference on image 0 and one block of kCheckBlock channels (forward and
/// update: output channels; backward: input channels), the block rotating
/// with the seed and the layer index. The update check re-runs the layer's
/// update with images 1..3 of dout zeroed, so its dW is image 0's
/// contribution alone.
void check(std::vector<SweepLayer>& ls, unsigned seed, Result& r) {
  const int n = static_cast<int>(ls.size());
  std::vector<WtTensor> dw0(ls.size());
  for (int i = 0; i < n; ++i) {
    auto& l = ls[i];
    ActTensor dout0 = l.layer->make_output();
    {
      std::vector<float> d(l.p.output_elems(), 0.0f);
      const auto img = image0(l.dout, l.p.output_elems() / kMb);
      std::copy(img.begin(), img.end(), d.begin());
      xconv::tensor::nchw_to_blocked(d.data(), dout0);
    }
    dw0[i] = l.layer->make_weights();
    r.op("conv_sweep check update",
         [&] { l.layer->update(l.in, dout0, dw0[i]); });
  }
  std::vector<std::string> errs(ls.size());
#pragma omp parallel for schedule(dynamic) num_threads(kThreads)
  for (int i = 0; i < n; ++i) {
    const auto& l = ls[i];
    const ConvParams& p = l.p;
    const std::size_t hw = 1ull * p.H * p.W, pq = 1ull * p.P() * p.Q(),
                      rs = 1ull * p.R * p.S;
    auto block = [&](int channels, int& start) {
      const int blocks = (channels + kCheckBlock - 1) / kCheckBlock;
      start = static_cast<int>((seed + static_cast<unsigned>(i)) % blocks) *
              kCheckBlock;
      return std::min(kCheckBlock, channels - start);
    };
    int k0 = 0, c0 = 0;
    const int kw = block(p.K, k0), cw = block(p.C, c0);

    const auto in0 = image0(l.in, p.C * hw);
    const auto dout0 = image0(l.dout, p.K * pq);
    const auto out0 = image0(l.out, p.K * pq);
    const auto din0 = image0(l.din, p.C * hw);
    std::vector<float> wt(p.weight_elems()), dw(p.weight_elems());
    xconv::tensor::blocked_fwd_to_kcrs(l.wt, p.K, p.C, wt.data());
    xconv::tensor::blocked_fwd_to_kcrs(dw0[i], p.K, p.C, dw.data());

    ConvParams pf = p;  // forward / update: output-channel block
    pf.N = 1;
    pf.K = kw;
    ConvParams pb = p;  // backward: input-channel block
    pb.N = 1;
    pb.C = cw;
    std::vector<float> wt_c(pb.weight_elems());
    for (int k = 0; k < p.K; ++k)
      std::copy_n(wt.data() + (1ull * k * p.C + c0) * rs, cw * rs,
                  wt_c.data() + 1ull * k * cw * rs);

    std::vector<float> ref_out(pf.output_elems()), ref_din(pb.input_elems()),
        ref_dw(pf.weight_elems());
    xconv::baselines::naive_forward(pf, in0.data(), wt.data() + k0 * p.C * rs,
                                    ref_out.data());
    xconv::baselines::naive_backward(pb, dout0.data(), wt_c.data(),
                                     ref_din.data());
    xconv::baselines::naive_update(pf, in0.data(), dout0.data() + k0 * pq,
                                   ref_dw.data());
    const float* got[3] = {out0.data() + k0 * pq, din0.data() + c0 * hw,
                           dw.data() + k0 * p.C * rs};
    const std::vector<float>* ref[3] = {&ref_out, &ref_din, &ref_dw};
    for (int pass = 0; pass < 3; ++pass) {
      const auto e = xconv::tensor::compare(ref[pass]->data(), got[pass],
                                            ref[pass]->size());
      if (!(e.l2_rel < kCheckTol))
        errs[i] += l.name + "." + kPass[pass] + " vs naive: " + e.to_string() +
                   "; ";
    }
  }
  for (const auto& e : errs)
    if (!e.empty()) r.fail_check("conv_sweep: " + e);
}

}  // namespace

void run_conv_sweep(const Args& a, Result& r, TraceContext* tc) {
  const auto t_setup = Clock::now();
  const CacheCounts c0 = cache_counts();
  auto ls = make_layers(a.seed);
  if (!sweep(ls, r, nullptr, -1, false)) return;
  r.metric("setup_s", seconds_since(t_setup), "s");
  note_setup_misses(tc, c0);
  if (a.setup_only) return;

  check(ls, a.seed, r);

  {
    TimedRegionGuard guard(tc ? &tc->timed_misses : nullptr);
    const auto t0 = Clock::now();
    for (long s = 0; s < kMinSweeps || seconds_since(t0) < a.seconds; ++s)
      if (!sweep(ls, r, tc, s, true)) return;
  }

  // Per pass: total FLOPs over the sum of median call times, overall and
  // per network; per layer: FLOPs over the median call time.
  double flops[3][2] = {}, secs[3][2] = {};
  for (const auto& l : ls)
    for (int pass = 0; pass < 3; ++pass) {
      const double f = static_cast<double>(l.p.flops());
      const double s = median(l.secs[pass]);
      flops[pass][l.rn50] += f;
      secs[pass][l.rn50] += s;
      const double gflops = f / s * 1e-9;
      if (l.rn50)
        r.metric("core." + l.name + "." + kPass[pass] + ".gflops", gflops,
                 "GFLOPS");
      if (tc && tc->peak_gflops_core &&
          gflops / kThreads > *tc->peak_gflops_core) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "conv_sweep: %s.%s runs at %.1f GFLOPS/core, above the "
                      "probed peak %.1f",
                      l.name.c_str(), kPass[pass], gflops / kThreads,
                      *tc->peak_gflops_core);
        r.fail_check(buf);
      }
    }
  double all_secs = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const double f = flops[pass][0] + flops[pass][1];
    const double s = secs[pass][0] + secs[pass][1];
    all_secs += s;
    std::printf("conv_sweep %s: %.1f GFLOPS (ResNet-50 %.1f, Inception-v3 "
                "%.1f) over %zu sweeps\n",
                kPass[pass], f / s * 1e-9,
                flops[pass][1] / secs[pass][1] * 1e-9,
                flops[pass][0] / secs[pass][0] * 1e-9, ls[0].secs[pass].size());
    r.metric(std::string("core.rn50.") + kPass[pass] + ".gflops",
             flops[pass][1] / secs[pass][1] * 1e-9, "GFLOPS");
    r.metric(std::string("core.incv3.") + kPass[pass] + ".gflops",
             flops[pass][0] / secs[pass][0] * 1e-9, "GFLOPS");
    if (tc && tc->peak_gflops_core)
      r.metric(std::string("core.") + kPass[pass] + ".pct_peak",
               100 * f / s * 1e-9 / kThreads / *tc->peak_gflops_core, "%");
  }
  r.metric("train_img_s", kMb / all_secs, "img/s");
  r.metric("infer_img_s", kMb / (secs[0][0] + secs[0][1]), "img/s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace perfbench
