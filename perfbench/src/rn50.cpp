// rn50_224: GxM ResNet-50 (1000 classes) at 224x224, minibatch 4, 4 threads
// — one image per core, the paper's Fig 9 set-up. Closed loop: training
// steps interleaved with forward-only inference batches on the same graph.
//
// The traced run replays Graph::train_step in the graph's own order through
// the public Node pass functions, one span per call, alternating with
// untraced train_step calls so the tracing overhead can be read off.
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "common.hpp"
#include "gxm/graph.hpp"
#include "gxm/nodes.hpp"
#include "gxm/parser.hpp"
#include "topo/resnet50.hpp"

namespace perfbench {

namespace {

constexpr int kMb = 4;
constexpr int kImg = 224;
constexpr int kClasses = 1000;
constexpr int kInferPerStep = 2;  ///< inference batches per training step
constexpr int kMinSamples = 3;
/// Traced step: per-node spans must cover the step span to within this
/// share (the rest is the replay loop and the clock reads themselves).
constexpr double kSpanTolerance = 0.01;

struct TracedStep {
  double step_s = 0;
  double conv_s = 0;                  ///< Convolution fwd+bwd+upd self time
  std::map<std::string, double> self;  ///< "<NodeType>.<pass>" -> seconds
};

double conv_flops(xconv::gxm::Graph& g) {
  double f = 0;
  for (const auto& t : g.fwd_schedule())
    if (auto* c = dynamic_cast<xconv::gxm::ConvNode*>(t.node))
      f += static_cast<double>(c->layer()->params().flops());
  return f;
}

TracedStep traced_step(xconv::gxm::Graph& g, const xconv::gxm::Solver& solver,
                       TraceLog& log, long step) {
  TracedStep ts;
  std::vector<std::pair<long, std::string>> calls;
  const long root = log.open("rn50.step", -1, step);
  auto call = [&](xconv::gxm::Node* n, const char* pass, auto&& fn) {
    const long id = log.open(n->name() + "." + pass, root, step);
    fn();
    log.close(id);
    calls.emplace_back(id, n->type() + "." + pass);
  };
  for (const auto& t : g.fwd_schedule())
    call(t.node, "fwd", [&] { t.node->forward(true); });
  for (const auto& t : g.bwd_schedule()) {
    call(t.node, "bwd", [&] { t.node->backward(); });
    if (t.node->param_count() > 0)
      call(t.node, "upd", [&] { t.node->compute_grads(); });
  }
  for (const auto& t : g.upd_schedule())
    call(t.node, "apply", [&] { t.node->apply_update(solver); });
  log.close(root);

  ts.step_s = log.span(root).seconds();
  for (const auto& [id, key] : calls) {
    const double s = log.span(id).seconds();
    ts.self[key] += s;
    if (key == "Convolution.fwd" || key == "Convolution.bwd" ||
        key == "Convolution.upd")
      ts.conv_s += s;
  }
  return ts;
}

void check_loss(Result& r, float loss, const char* what) {
  if (!std::isfinite(loss))
    r.fail_check(std::string("rn50_224: non-finite loss after ") + what);
}

}  // namespace

void run_rn50(const Args& a, Result& r, TraceContext* tc) {
  const auto t_setup = Clock::now();
  const CacheCounts c0 = cache_counts();
  const auto nl = xconv::gxm::parse_topology(
      xconv::topo::resnet50_topology(kMb, kImg, kClasses));
  xconv::gxm::GraphOptions gopt;
  gopt.threads = kThreads;
  gopt.seed = a.seed;
  xconv::gxm::Graph g(nl, gopt);
  xconv::gxm::Solver solver;
  solver.lr = 0.001f;
  if (!r.op("rn50_224 first step", [&] { g.train_step(solver); })) return;
  const double setup_s = seconds_since(t_setup);
  r.first_loss_bits = float_bits(g.loss());
  check_loss(r, g.loss(), "the first step");
  r.metric("setup_s", setup_s, "s");
  note_setup_misses(tc, c0);
  if (a.setup_only) return;

  const double flops = conv_flops(g);

  if (tc == nullptr) {
    // Training steps and inference batches interleave so both sample the
    // whole run window (the host's background load drifts over seconds).
    std::vector<double> train, infer;
    const auto t0 = Clock::now();
    while (train.size() < kMinSamples || seconds_since(t0) < a.seconds) {
      auto s0 = Clock::now();
      if (!r.op("rn50_224 train step", [&] { g.train_step(solver); })) return;
      train.push_back(seconds_since(s0));
      check_loss(r, g.loss(), "a training step");
      for (int i = 0; i < kInferPerStep; ++i) {
        s0 = Clock::now();
        if (!r.op("rn50_224 inference batch", [&] { g.forward(false); }))
          return;
        infer.push_back(seconds_since(s0));
        check_loss(r, g.loss(), "an inference batch");
      }
    }
    print_timing("rn50_224 train step", train);
    print_timing("rn50_224 inference batch", infer);
    std::printf("rn50_224 conv FLOPs per pass per step: %.4g\n", flops);
    r.metric("train_img_s", kMb / median(train), "img/s");
    r.metric("infer_img_s", kMb / median(infer), "img/s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Traced: alternate one untraced train_step with one replayed step.
  std::vector<double> untraced;
  std::vector<TracedStep> traced;
  {
    TimedRegionGuard guard(&tc->timed_misses);
    const auto t0 = Clock::now();
    long step = 0;
    while (traced.size() < kMinSamples || seconds_since(t0) < a.seconds) {
      const auto s0 = Clock::now();
      if (!r.op("rn50_224 train step", [&] { g.train_step(solver); })) return;
      untraced.push_back(seconds_since(s0));
      check_loss(r, g.loss(), "a training step");
      TracedStep ts;
      if (!r.op("rn50_224 traced step",
                [&] { ts = traced_step(g, solver, tc->log, step++); }))
        return;
      traced.push_back(std::move(ts));
      check_loss(r, g.loss(), "a traced step");
    }
  }

  std::map<std::string, std::vector<double>> self;
  std::vector<double> step_s, share;
  for (const auto& ts : traced) {
    double covered = 0;
    for (const auto& [key, s] : ts.self) {
      self[key].push_back(s);
      covered += s;
    }
    step_s.push_back(ts.step_s);
    share.push_back(ts.conv_s / ts.step_s);
    const double gap = (ts.step_s - covered) / ts.step_s;
    if (gap < 0 || gap > kSpanTolerance) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "rn50_224: node spans cover %.4f%% of the traced step "
                    "(tolerance %.2f%%)",
                    100 * (1 - gap), 100 * kSpanTolerance);
      r.fail_check(buf);
    }
  }
  print_timing("rn50_224 untraced train step", untraced);
  print_timing("rn50_224 traced train step", step_s);
  for (const auto& [key, v] : self)
    r.metric("gxm." + key + ".ms", 1e3 * median(v), "ms");
  for (const char* pass : {"fwd", "bwd", "upd"}) {
    const double s = median(self[std::string("Convolution.") + pass]);
    r.metric(std::string("gxm.conv.") + pass + ".gflops", flops / s * 1e-9,
             "GFLOPS");
  }
  r.metric("gxm.conv_share", median(share), "ratio");
  r.metric("gxm.trace_overhead", median(step_s) / median(untraced) - 1,
           "ratio");
}

}  // namespace perfbench
