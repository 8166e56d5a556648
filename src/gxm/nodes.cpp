#include "gxm/nodes.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <stdexcept>

#include "gxm/data.hpp"
#include "tensor/transform.hpp"

namespace xconv::gxm {

namespace {
[[noreturn]] void node_fail(const Node& n, const std::string& what) {
  throw std::runtime_error("gxm node '" + n.name() + "' (" + n.type() +
                           "): " + what);
}

/// Widest blocked vector (AVX-512 fp32); sizes per-lane scratch arrays.
constexpr int kMaxLanes = 16;
}  // namespace

std::unique_ptr<Node> make_node(const NodeSpec& spec) {
  if (spec.type == "Input") return std::make_unique<InputNode>(spec);
  if (spec.type == "Convolution") return std::make_unique<ConvNode>(spec);
  if (spec.type == "BatchNorm") return std::make_unique<BatchNormNode>(spec);
  if (spec.type == "MaxPool") return std::make_unique<MaxPoolNode>(spec);
  if (spec.type == "AvgPool") return std::make_unique<AvgPoolNode>(spec);
  if (spec.type == "InnerProduct")
    return std::make_unique<InnerProductNode>(spec);
  if (spec.type == "SoftmaxLoss")
    return std::make_unique<SoftmaxLossNode>(spec);
  if (spec.type == "Eltwise") return std::make_unique<EltwiseNode>(spec);
  if (spec.type == "Split") return std::make_unique<SplitNode>(spec);
  throw std::runtime_error("gxm: unknown layer type '" + spec.type + "'");
}

InputNode* as_input(Node* n) { return dynamic_cast<InputNode*>(n); }
SoftmaxLossNode* as_loss(Node* n) { return dynamic_cast<SoftmaxLossNode*>(n); }

// ---- Input -----------------------------------------------------------------

void InputNode::infer_shapes() {
  PortShape s;
  s.n = spec_.geti("minibatch", 1);
  s.c = spec_.geti("channels", 3);
  s.h = spec_.geti("height", 32);
  s.w = spec_.geti("width", 32);
  tops[0]->shape = s;
}

void InputNode::setup(int vlen, int threads) {
  Node::setup(vlen, threads);
  labels_.assign(tops[0]->shape.n, 0);
}

void InputNode::forward(bool) {
  synth_batch(tops[0]->act, labels_, classes(),
              seed_ + static_cast<unsigned>(batch_counter_));
  ++batch_counter_;
}

// ---- Convolution -----------------------------------------------------------

void ConvNode::infer_shapes() {
  const PortShape& b = bottoms[0]->shape;
  core::ConvParams p;
  p.N = b.n;
  p.C = b.c;
  p.K = spec_.geti("K", b.c);
  p.H = b.h;
  p.W = b.w;
  p.R = spec_.geti("R", 1);
  p.S = spec_.geti("S", p.R);
  p.stride_h = p.stride_w = spec_.geti("stride", 1);
  p.pad_h = spec_.geti("pad", (p.R - 1) / 2);
  p.pad_w = spec_.geti("pad", (p.S - 1) / 2);
  p.validate();
  PortShape o;
  o.n = p.N;
  o.c = p.K;
  o.h = p.P();
  o.w = p.Q();
  tops[0]->shape = o;
  // Halo requirements (the Graph maxes these across producer/consumer):
  // bottom needs at least this conv's padding; top needs the backward halo.
  bottoms[0]->shape.pad_h = std::max(bottoms[0]->shape.pad_h, p.pad_h);
  bottoms[0]->shape.pad_w = std::max(bottoms[0]->shape.pad_w, p.pad_w);
  tops[0]->shape.pad_h = std::max(0, p.R - 1 - p.pad_h);
  tops[0]->shape.pad_w = std::max(0, p.S - 1 - p.pad_w);
}

void ConvNode::setup(int vlen, int threads) {
  Node::setup(vlen, threads);
  const PortShape& b = bottoms[0]->shape;
  core::ConvParams p;
  p.N = b.n;
  p.C = b.c;
  p.K = spec_.geti("K", b.c);
  p.H = b.h;
  p.W = b.w;
  p.R = spec_.geti("R", 1);
  p.S = spec_.geti("S", p.R);
  p.stride_h = p.stride_w = spec_.geti("stride", 1);
  p.pad_h = spec_.geti("pad", (p.R - 1) / 2);
  p.pad_w = spec_.geti("pad", (p.S - 1) / 2);

  core::ConvOptions opt;
  opt.threads = threads;
  opt.in_halo_h = bottoms[0]->shape.pad_h;
  opt.in_halo_w = bottoms[0]->shape.pad_w;
  opt.out_halo_h = tops[0]->shape.pad_h;
  opt.out_halo_w = tops[0]->shape.pad_w;
  if (spec_.geti("relu", 0) != 0) opt.fuse = core::FusedOp::relu;
  layer_ = std::make_unique<core::ConvLayer>(p, opt);
  // The layer blocks at its ISA's width; a graph at another width would only
  // fail at the first forward, as an input geometry mismatch.
  if (layer_->vlen() != vlen)
    node_fail(*this, "graph vlen " + std::to_string(vlen) +
                         " differs from the conv layer's vlen " +
                         std::to_string(layer_->vlen()));

  wt_ = layer_->make_weights();
  dwt_ = layer_->make_weights();
  vel_ = layer_->make_weights();
  // MSRA-style init: N(0, sqrt(2 / (C*R*S))) on the real lanes only.
  std::mt19937 rng(std::hash<std::string>{}(spec_.name) & 0x7fffffff);
  std::normal_distribution<float> dist(
      0.0f, std::sqrt(2.0f / (static_cast<float>(p.C) * p.R * p.S)));
  for (int kb = 0; kb < layer_->kb(); ++kb)
    for (int cb = 0; cb < layer_->cb(); ++cb)
      for (int r = 0; r < p.R; ++r)
        for (int s = 0; s < p.S; ++s)
          for (int c = 0; c < vlen; ++c)
            for (int k = 0; k < vlen; ++k) {
              const bool real =
                  (cb * vlen + c) < p.C && (kb * vlen + k) < p.K;
              wt_.el(kb, cb, r, s, c, k) = real ? dist(rng) : 0.0f;
            }
}

void ConvNode::forward(bool) {
  layer_->forward(bottoms[0]->act, wt_, tops[0]->act);
}

void ConvNode::backward() {
  // Dead bwd-data (e.g. a conv fed by Input): nothing upstream reads dI.
  if (!bottoms[0]->grad_live) return;
  layer_->backward(tops[0]->grad, wt_, bottoms[0]->grad);
}

void ConvNode::compute_grads() {
  layer_->update(bottoms[0]->act, tops[0]->grad, dwt_);
}

void ConvNode::apply_update(const Solver& s) {
  float* w = wt_.data();
  float* g = dwt_.data();
  float* v = vel_.data();
  const std::size_t n = wt_.size();
#pragma omp parallel for num_threads(threads_) schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    const float grad = g[i] + s.weight_decay * w[i];
    v[i] = s.momentum * v[i] - s.lr * grad;
    w[i] += v[i];
  }
}

void ConvNode::export_grads(float* buf) const {
  std::memcpy(buf, dwt_.data(), dwt_.size() * sizeof(float));
}
void ConvNode::import_grads(const float* buf) {
  std::memcpy(dwt_.data(), buf, dwt_.size() * sizeof(float));
}
void ConvNode::export_params(float* buf) const {
  std::memcpy(buf, wt_.data(), wt_.size() * sizeof(float));
}

// ---- BatchNorm -------------------------------------------------------------

void BatchNormNode::infer_shapes() {
  tops[0]->shape = bottoms[0]->shape;
  // Keep the producer-side halo on our top as well so downstream consumers
  // see the same geometry budget (we copy interior only).
}

void BatchNormNode::setup(int vlen, int threads) {
  Node::setup(vlen, threads);
  relu_ = spec_.geti("relu", 0) != 0;
  if (vlen > kMaxLanes) node_fail(*this, "vector length above 16 lanes");
  const int cpad = tensor::ceil_div(bottoms[0]->shape.c, vlen) * vlen;
  gamma_.assign(cpad, 1.0f);
  beta_.assign(cpad, 0.0f);
  dgamma_.assign(cpad, 0.0f);
  dbeta_.assign(cpad, 0.0f);
  vg_.assign(cpad, 0.0f);
  vb_.assign(cpad, 0.0f);
  mean_.assign(cpad, 0.0f);
  invstd_.assign(cpad, 0.0f);
  run_mean_.assign(cpad, 0.0f);
  run_var_.assign(cpad, 1.0f);
}

// The BatchNorm loops walk whole lane-contiguous W*v rows and keep one
// double accumulator per lane. Within a lane the summation order stays
// n -> h -> w, so the statistics are bitwise those of a lane-by-lane walk
// while every cache line is read once instead of v times.

void BatchNormNode::forward(bool training) {
  const tensor::ActTensor& x = bottoms[0]->act;
  tensor::ActTensor& y = tops[0]->act;
  const int N = x.n(), CB = x.blocks(), H = x.h(), W = x.w(), v = x.vlen();
  const double count = static_cast<double>(N) * H * W;
  const bool relu = relu_;
  constexpr float eps = 1e-5f;

#pragma omp parallel for num_threads(threads_) schedule(static)
  for (int cb = 0; cb < CB; ++cb) {
    double sum[kMaxLanes] = {}, sum2[kMaxLanes] = {};
    if (training) {
      for (int n = 0; n < N; ++n)
        for (int h = 0; h < H; ++h) {
          const float* row = x.at(n, cb, h, 0);
          for (int w = 0; w < W; ++w, row += v)
            for (int l = 0; l < v; ++l) {
              const double val = row[l];
              sum[l] += val;
              sum2[l] += val * val;
            }
        }
    }
    float mu[kMaxLanes], is[kMaxLanes], g[kMaxLanes], b[kMaxLanes];
    for (int l = 0; l < v; ++l) {
      const int c = cb * v + l;
      float m, var;
      if (training) {
        m = static_cast<float>(sum[l] / count);
        var = static_cast<float>(sum2[l] / count - m * static_cast<double>(m));
        if (var < 0) var = 0;
        run_mean_[c] = 0.9f * run_mean_[c] + 0.1f * m;
        run_var_[c] = 0.9f * run_var_[c] + 0.1f * var;
      } else {
        m = run_mean_[c];
        var = run_var_[c];
      }
      mean_[c] = m;
      invstd_[c] = 1.0f / std::sqrt(var + eps);
      mu[l] = m;
      is[l] = invstd_[c];
      g[l] = gamma_[c];
      b[l] = beta_[c];
    }
    for (int n = 0; n < N; ++n)
      for (int h = 0; h < H; ++h) {
        const float* row = x.at(n, cb, h, 0);
        float* orow = y.at(n, cb, h, 0);
        for (int w = 0; w < W; ++w, row += v, orow += v)
          for (int l = 0; l < v; ++l) {
            float val = g[l] * (row[l] - mu[l]) * is[l] + b[l];
            if (relu && val < 0) val = 0;
            orow[l] = val;
          }
      }
  }
}

void BatchNormNode::backward() {
  const tensor::ActTensor& x = bottoms[0]->act;
  const tensor::ActTensor& y = tops[0]->act;
  const tensor::ActTensor& dy = tops[0]->grad;
  tensor::ActTensor& dx = bottoms[0]->grad;
  const int N = x.n(), CB = x.blocks(), H = x.h(), W = x.w(), v = x.vlen();
  const double count = static_cast<double>(N) * H * W;
  const bool relu = relu_;

#pragma omp parallel for num_threads(threads_) schedule(static)
  for (int cb = 0; cb < CB; ++cb) {
    float mu[kMaxLanes], is[kMaxLanes];
    for (int l = 0; l < v; ++l) {
      mu[l] = mean_[cb * v + l];
      is[l] = invstd_[cb * v + l];
    }
    // First pass: dgamma, dbeta (with the ReLU mask folded into dy).
    double sdg[kMaxLanes] = {}, sdb[kMaxLanes] = {};
    for (int n = 0; n < N; ++n)
      for (int h = 0; h < H; ++h) {
        const float* xr = x.at(n, cb, h, 0);
        const float* yr = y.at(n, cb, h, 0);
        const float* gr = dy.at(n, cb, h, 0);
        for (int w = 0; w < W; ++w, xr += v, yr += v, gr += v)
          for (int l = 0; l < v; ++l) {
            float gy = gr[l];
            if (relu && yr[l] <= 0.0f) gy = 0.0f;
            sdg[l] += gy * (xr[l] - mu[l]) * is[l];
            sdb[l] += gy;
          }
      }
    // Second pass: dx = (g*is) * (gy - sdb/count - xhat * sdg/count).
    float k1[kMaxLanes], m_db[kMaxLanes], m_dg[kMaxLanes];
    for (int l = 0; l < v; ++l) {
      const int c = cb * v + l;
      dgamma_[c] = static_cast<float>(sdg[l]);
      dbeta_[c] = static_cast<float>(sdb[l]);
      k1[l] = gamma_[c] * is[l];
      m_db[l] = static_cast<float>(sdb[l] / count);
      m_dg[l] = static_cast<float>(sdg[l] / count);
    }
    for (int n = 0; n < N; ++n)
      for (int h = 0; h < H; ++h) {
        const float* xr = x.at(n, cb, h, 0);
        const float* yr = y.at(n, cb, h, 0);
        const float* gr = dy.at(n, cb, h, 0);
        float* dr = dx.at(n, cb, h, 0);
        for (int w = 0; w < W; ++w, xr += v, yr += v, gr += v, dr += v)
          for (int l = 0; l < v; ++l) {
            float gy = gr[l];
            if (relu && yr[l] <= 0.0f) gy = 0.0f;
            const float xhat = (xr[l] - mu[l]) * is[l];
            dr[l] = k1[l] * (gy - m_db[l] - xhat * m_dg[l]);
          }
      }
  }
}

void BatchNormNode::apply_update(const Solver& s) {
  for (std::size_t c = 0; c < gamma_.size(); ++c) {
    vg_[c] = s.momentum * vg_[c] - s.lr * dgamma_[c];
    gamma_[c] += vg_[c];
    vb_[c] = s.momentum * vb_[c] - s.lr * dbeta_[c];
    beta_[c] += vb_[c];
  }
}

void BatchNormNode::export_grads(float* buf) const {
  std::memcpy(buf, dgamma_.data(), dgamma_.size() * sizeof(float));
  std::memcpy(buf + dgamma_.size(), dbeta_.data(),
              dbeta_.size() * sizeof(float));
}
void BatchNormNode::import_grads(const float* buf) {
  std::memcpy(dgamma_.data(), buf, dgamma_.size() * sizeof(float));
  std::memcpy(dbeta_.data(), buf + dgamma_.size(),
              dbeta_.size() * sizeof(float));
}
void BatchNormNode::export_params(float* buf) const {
  std::memcpy(buf, gamma_.data(), gamma_.size() * sizeof(float));
  std::memcpy(buf + gamma_.size(), beta_.data(),
              beta_.size() * sizeof(float));
}

// ---- MaxPool ---------------------------------------------------------------

void MaxPoolNode::infer_shapes() {
  window_ = spec_.geti("window", 2);
  stride_ = spec_.geti("stride", 2);
  pad_ = spec_.geti("pad", 0);
  const PortShape& b = bottoms[0]->shape;
  PortShape o;
  o.n = b.n;
  o.c = b.c;
  o.h = (b.h + 2 * pad_ - window_) / stride_ + 1;
  o.w = (b.w + 2 * pad_ - window_) / stride_ + 1;
  if (o.h < 1 || o.w < 1) node_fail(*this, "pool output underflow");
  tops[0]->shape = o;
}

void MaxPoolNode::setup(int vlen, int threads) {
  Node::setup(vlen, threads);
  const PortShape& o = tops[0]->shape;
  argmax_.assign(static_cast<std::size_t>(o.n) *
                     tensor::ceil_div(o.c, vlen) * vlen * o.h * o.w,
                 -1);
}

void MaxPoolNode::forward(bool) {
  const tensor::ActTensor& x = bottoms[0]->act;
  tensor::ActTensor& y = tops[0]->act;
  const int N = x.n(), CB = x.blocks(), v = x.vlen();
  const int H = x.h(), W = x.w(), P = y.h(), Q = y.w();

  // Per-lane running maxima; the lane loop runs innermost over each tap's
  // contiguous pixel vector. Taps are visited in the same (r, s) order with
  // the same strict '>' as a lane-at-a-time walk, so ties and the argmax are
  // unchanged.
#pragma omp parallel for num_threads(threads_) schedule(static) collapse(2)
  for (int n = 0; n < N; ++n) {
    for (int cb = 0; cb < CB; ++cb) {
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          float best[kMaxLanes];
          std::int32_t besti[kMaxLanes];
          for (int lane = 0; lane < v; ++lane) {
            best[lane] = -3.4e38f;
            besti[lane] = -1;
          }
          for (int r = 0; r < window_; ++r) {
            const int ij = oj * stride_ + r - pad_;
            if (ij < 0 || ij >= H) continue;
            for (int s = 0; s < window_; ++s) {
              const int ii = oi * stride_ + s - pad_;
              if (ii < 0 || ii >= W) continue;
              const float* px = x.at(n, cb, ij, ii);
              const std::int32_t idx = ij * W + ii;
              // Branch-free select (all-ones mask where px wins), so the
              // compiler vectorizes the lane loop for a runtime v.
              for (int lane = 0; lane < v; ++lane) {
                const float val = px[lane], b = best[lane];
                const std::int32_t m = -static_cast<std::int32_t>(val > b);
                best[lane] = val > b ? val : b;
                besti[lane] = (idx & m) | (besti[lane] & ~m);
              }
            }
          }
          float* out = y.at(n, cb, oj, oi);
          std::int32_t* am =
              argmax_.data() +
              (((static_cast<std::size_t>(n) * CB + cb) * P + oj) * Q + oi) *
                  v;
          for (int lane = 0; lane < v; ++lane) {
            out[lane] = besti[lane] >= 0 ? best[lane] : 0.0f;
            am[lane] = besti[lane];
          }
        }
    }
  }
}

void MaxPoolNode::backward() {
  const tensor::ActTensor& dy = tops[0]->grad;
  tensor::ActTensor& dx = bottoms[0]->grad;
  const int N = dy.n(), CB = dy.blocks(), v = dy.vlen();
  const int P = dy.h(), Q = dy.w(), W = dx.w();

  // Every argmax of item (n, cb) lies in dx plane (n, cb): each item clears
  // and scatters into its own plane.
#pragma omp parallel for num_threads(threads_) schedule(static) collapse(2)
  for (int n = 0; n < N; ++n) {
    for (int cb = 0; cb < CB; ++cb) {
      dx.zero_plane(n, cb);
      for (int oj = 0; oj < P; ++oj)
        for (int oi = 0; oi < Q; ++oi) {
          const float* g = dy.at(n, cb, oj, oi);
          const std::int32_t* am =
              argmax_.data() +
              (((static_cast<std::size_t>(n) * CB + cb) * P + oj) * Q + oi) *
                  v;
          for (int lane = 0; lane < v; ++lane) {
            if (am[lane] < 0) continue;
            const int ij = am[lane] / W, ii = am[lane] % W;
            *(dx.at(n, cb, ij, ii) + lane) += g[lane];
          }
        }
    }
  }
}

// ---- AvgPool (global) -------------------------------------------------------

void AvgPoolNode::infer_shapes() {
  if (spec_.geti("global", 0) == 0)
    node_fail(*this, "only global average pooling is implemented");
  const PortShape& b = bottoms[0]->shape;
  tops[0]->shape = {b.n, b.c, 1, 1, 0, 0};
}

void AvgPoolNode::forward(bool) {
  const tensor::ActTensor& x = bottoms[0]->act;
  tensor::ActTensor& y = tops[0]->act;
  const int N = x.n(), CB = x.blocks(), v = x.vlen(), H = x.h(), W = x.w();
  const float inv = 1.0f / (static_cast<float>(H) * W);
  for (int n = 0; n < N; ++n)
    for (int cb = 0; cb < CB; ++cb) {
      float* out = y.at(n, cb, 0, 0);
      for (int lane = 0; lane < v; ++lane) out[lane] = 0.0f;
      for (int h = 0; h < H; ++h) {
        const float* row = x.at(n, cb, h, 0);
        for (int w = 0; w < W; ++w)
          for (int lane = 0; lane < v; ++lane)
            out[lane] += row[static_cast<std::size_t>(w) * v + lane];
      }
      for (int lane = 0; lane < v; ++lane) out[lane] *= inv;
    }
}

void AvgPoolNode::backward() {
  const tensor::ActTensor& dy = tops[0]->grad;
  tensor::ActTensor& dx = bottoms[0]->grad;
  const int N = dx.n(), CB = dx.blocks(), v = dx.vlen(), H = dx.h(),
            W = dx.w();
  const float inv = 1.0f / (static_cast<float>(H) * W);
  for (int n = 0; n < N; ++n)
    for (int cb = 0; cb < CB; ++cb) {
      const float* g = dy.at(n, cb, 0, 0);
      for (int h = 0; h < H; ++h) {
        float* row = dx.at(n, cb, h, 0);
        for (int w = 0; w < W; ++w)
          for (int lane = 0; lane < v; ++lane)
            row[static_cast<std::size_t>(w) * v + lane] = g[lane] * inv;
      }
    }
}

// ---- InnerProduct -----------------------------------------------------------

void InnerProductNode::infer_shapes() {
  const PortShape& b = bottoms[0]->shape;
  if (b.h != 1 || b.w != 1)
    node_fail(*this, "expects 1x1 spatial input (use global pooling first)");
  tops[0]->shape = {b.n, spec_.geti("K", 1), 1, 1, 0, 0};
}

void InnerProductNode::setup(int vlen, int threads) {
  Node::setup(vlen, threads);
  in_c_ = bottoms[0]->shape.c;
  out_k_ = tops[0]->shape.c;
  wt_.assign(static_cast<std::size_t>(out_k_) * in_c_, 0.0f);
  dwt_.assign(wt_.size(), 0.0f);
  vwt_.assign(wt_.size(), 0.0f);
  bias_.assign(out_k_, 0.0f);
  dbias_.assign(out_k_, 0.0f);
  vbias_.assign(out_k_, 0.0f);
  const std::size_t n = static_cast<std::size_t>(tops[0]->shape.n);
  x_rows_.assign(n * in_c_, 0.0f);
  dx_rows_.assign(n * in_c_, 0.0f);
  y_rows_.assign(n * out_k_, 0.0f);
  std::mt19937 rng(std::hash<std::string>{}(spec_.name) & 0x7fffffff);
  std::normal_distribution<float> dist(
      0.0f, std::sqrt(1.0f / static_cast<float>(in_c_)));
  for (auto& w : wt_) w = dist(rng);
}

// The InnerProduct loops run on dense [N][C] / [N][K] copies of the 1x1
// pixel rows, so the inner loops are unit-stride. Each output element keeps
// its accumulation order: y and dW ascend in c and n as before, and dx, now
// accumulated k-outer into a per-n row, still adds in ascending k.

void InnerProductNode::forward(bool) {
  const int N = bottoms[0]->act.n();
  tensor::blocked_to_nchw(bottoms[0]->act, x_rows_.data());
#pragma omp parallel for num_threads(threads_) schedule(static)
  for (int n = 0; n < N; ++n) {
    const float* x = x_rows_.data() + static_cast<std::size_t>(n) * in_c_;
    float* y = y_rows_.data() + static_cast<std::size_t>(n) * out_k_;
    for (int k = 0; k < out_k_; ++k) {
      float acc = bias_[k];
      const float* w = wt_.data() + static_cast<std::size_t>(k) * in_c_;
      for (int c = 0; c < in_c_; ++c) acc += w[c] * x[c];
      y[k] = acc;
    }
  }
  tensor::nchw_to_blocked(y_rows_.data(), tops[0]->act);
}

void InnerProductNode::backward() {
  const int N = bottoms[0]->act.n();
  tensor::blocked_to_nchw(bottoms[0]->act, x_rows_.data());
  tensor::blocked_to_nchw(tops[0]->grad, y_rows_.data());  // dy
  const float* dy = y_rows_.data();
  // Each thread owns whole dW rows; every element still accumulates over n
  // in ascending order.
#pragma omp parallel for num_threads(threads_) schedule(static)
  for (int k = 0; k < out_k_; ++k) {
    float* dw = dwt_.data() + static_cast<std::size_t>(k) * in_c_;
    std::fill(dw, dw + in_c_, 0.0f);
    float db = 0.0f;
    for (int n = 0; n < N; ++n) {
      const float g = dy[static_cast<std::size_t>(n) * out_k_ + k];
      const float* x = x_rows_.data() + static_cast<std::size_t>(n) * in_c_;
      db += g;
      for (int c = 0; c < in_c_; ++c) dw[c] += g * x[c];
    }
    dbias_[k] = db;
  }
#pragma omp parallel for num_threads(threads_) schedule(static)
  for (int n = 0; n < N; ++n) {
    float* dx = dx_rows_.data() + static_cast<std::size_t>(n) * in_c_;
    std::fill(dx, dx + in_c_, 0.0f);
    for (int k = 0; k < out_k_; ++k) {
      const float g = dy[static_cast<std::size_t>(n) * out_k_ + k];
      const float* w = wt_.data() + static_cast<std::size_t>(k) * in_c_;
      for (int c = 0; c < in_c_; ++c) dx[c] += g * w[c];
    }
  }
  tensor::nchw_to_blocked(dx_rows_.data(), bottoms[0]->grad);
}

void InnerProductNode::apply_update(const Solver& s) {
#pragma omp parallel for num_threads(threads_) schedule(static)
  for (std::size_t i = 0; i < wt_.size(); ++i) {
    const float g = dwt_[i] + s.weight_decay * wt_[i];
    vwt_[i] = s.momentum * vwt_[i] - s.lr * g;
    wt_[i] += vwt_[i];
  }
  for (int k = 0; k < out_k_; ++k) {
    vbias_[k] = s.momentum * vbias_[k] - s.lr * dbias_[k];
    bias_[k] += vbias_[k];
  }
}

void InnerProductNode::export_grads(float* buf) const {
  std::memcpy(buf, dwt_.data(), dwt_.size() * sizeof(float));
  std::memcpy(buf + dwt_.size(), dbias_.data(),
              dbias_.size() * sizeof(float));
}
void InnerProductNode::import_grads(const float* buf) {
  std::memcpy(dwt_.data(), buf, dwt_.size() * sizeof(float));
  std::memcpy(dbias_.data(), buf + dwt_.size(),
              dbias_.size() * sizeof(float));
}
void InnerProductNode::export_params(float* buf) const {
  std::memcpy(buf, wt_.data(), wt_.size() * sizeof(float));
  std::memcpy(buf + wt_.size(), bias_.data(), bias_.size() * sizeof(float));
}

// ---- SoftmaxLoss ------------------------------------------------------------

void SoftmaxLossNode::infer_shapes() {
  tops[0]->shape = {bottoms[0]->shape.n, 1, 1, 1, 0, 0};
}

void SoftmaxLossNode::forward(bool) {
  const tensor::ActTensor& x = bottoms[0]->act;
  const int N = x.n(), K = x.channels();
  if (labels_ == nullptr || static_cast<int>(labels_->size()) != N)
    node_fail(*this, "labels not wired (Input node missing?)");
  probs_.assign(static_cast<std::size_t>(N) * K, 0.0f);
  double total = 0.0;
  int correct = 0;
  for (int n = 0; n < N; ++n) {
    float mx = -3.4e38f;
    int arg = 0;
    for (int k = 0; k < K; ++k) {
      const float v = x.el(n, k, 0, 0);
      if (v > mx) {
        mx = v;
        arg = k;
      }
    }
    double denom = 0;
    for (int k = 0; k < K; ++k)
      denom += std::exp(static_cast<double>(x.el(n, k, 0, 0)) - mx);
    const int label = (*labels_)[n];
    for (int k = 0; k < K; ++k)
      probs_[static_cast<std::size_t>(n) * K + k] = static_cast<float>(
          std::exp(static_cast<double>(x.el(n, k, 0, 0)) - mx) / denom);
    total -= std::log(
        std::max(1e-12, static_cast<double>(
                            probs_[static_cast<std::size_t>(n) * K + label])));
    if (arg == label) ++correct;
  }
  loss_ = static_cast<float>(total / N);
  top1_ = static_cast<float>(correct) / N;
  tops[0]->act.el(0, 0, 0, 0) = loss_;
}

void SoftmaxLossNode::backward() {
  tensor::ActTensor& dx = bottoms[0]->grad;
  const int N = dx.n(), K = dx.channels();
  const float inv = 1.0f / N;
  for (int n = 0; n < N; ++n) {
    const int label = (*labels_)[n];
    for (int k = 0; k < K; ++k) {
      float g = probs_[static_cast<std::size_t>(n) * K + k];
      if (k == label) g -= 1.0f;
      dx.el(n, k, 0, 0) = g * inv;
    }
  }
}

// ---- Eltwise ----------------------------------------------------------------

void EltwiseNode::infer_shapes() {
  if (bottoms.size() != 2) node_fail(*this, "needs exactly two bottoms");
  const PortShape& a = bottoms[0]->shape;
  const PortShape& b = bottoms[1]->shape;
  if (a.n != b.n || a.c != b.c || a.h != b.h || a.w != b.w)
    node_fail(*this, "bottom shape mismatch");
  relu_ = spec_.geti("relu", 0) != 0;
  tops[0]->shape = {a.n, a.c, a.h, a.w, 0, 0};
}

void EltwiseNode::forward(bool) {
  const tensor::ActTensor& a = bottoms[0]->act;
  const tensor::ActTensor& b = bottoms[1]->act;
  tensor::ActTensor& y = tops[0]->act;
  const int N = a.n(), CB = a.blocks(), v = a.vlen(), H = a.h(), W = a.w();
#pragma omp parallel for num_threads(threads_) schedule(static) collapse(2)
  for (int n = 0; n < N; ++n)
    for (int cb = 0; cb < CB; ++cb)
      for (int h = 0; h < H; ++h) {
        const float* ra = a.at(n, cb, h, 0);
        const float* rb = b.at(n, cb, h, 0);
        float* ry = y.at(n, cb, h, 0);
        for (int i = 0; i < W * v; ++i) {
          float s = ra[i] + rb[i];
          if (relu_ && s < 0) s = 0;
          ry[i] = s;
        }
      }
}

void EltwiseNode::backward() {
  const tensor::ActTensor& y = tops[0]->act;
  const tensor::ActTensor& g = tops[0]->grad;
  tensor::ActTensor& da = bottoms[0]->grad;
  tensor::ActTensor& db = bottoms[1]->grad;
  const int N = y.n(), CB = y.blocks(), v = y.vlen(), H = y.h(), W = y.w();
#pragma omp parallel for num_threads(threads_) schedule(static) collapse(2)
  for (int n = 0; n < N; ++n)
    for (int cb = 0; cb < CB; ++cb)
      for (int h = 0; h < H; ++h) {
        const float* ry = y.at(n, cb, h, 0);
        const float* rg = g.at(n, cb, h, 0);
        float* rda = da.at(n, cb, h, 0);
        float* rdb = db.at(n, cb, h, 0);
        for (int i = 0; i < W * v; ++i) {
          const float gv = (relu_ && ry[i] <= 0.0f) ? 0.0f : rg[i];
          rda[i] = gv;
          rdb[i] = gv;
        }
      }
}

// ---- Split ------------------------------------------------------------------

void SplitNode::infer_shapes() {
  for (Port* t : tops) t->shape = bottoms[0]->shape;
}

void SplitNode::forward(bool) {
  const tensor::ActTensor& x = bottoms[0]->act;
  // Tensor distribution: interior copy into each branch's buffer (halos may
  // differ per consumer).
  const int N = x.n(), CB = x.blocks(), v = x.vlen(), H = x.h(), W = x.w();
#pragma omp parallel for num_threads(threads_) schedule(static) collapse(2)
  for (int n = 0; n < N; ++n)
    for (int cb = 0; cb < CB; ++cb)
      for (Port* t : tops)
        for (int h = 0; h < H; ++h)
          std::memcpy(t->act.at(n, cb, h, 0), x.at(n, cb, h, 0),
                      sizeof(float) * W * v);
}

void SplitNode::backward() {
  // Gradient reduction: dI = sum of branch gradients.
  tensor::ActTensor& dx = bottoms[0]->grad;
  const int N = dx.n(), CB = dx.blocks(), v = dx.vlen(), H = dx.h(),
            W = dx.w();
#pragma omp parallel for num_threads(threads_) schedule(static) collapse(2)
  for (int n = 0; n < N; ++n)
    for (int cb = 0; cb < CB; ++cb)
      for (int h = 0; h < H; ++h) {
        float* acc = dx.at(n, cb, h, 0);
        for (std::size_t ti = 0; ti < tops.size(); ++ti) {
          const float* g = tops[ti]->grad.at(n, cb, h, 0);
          if (ti == 0) {
            std::memcpy(acc, g, sizeof(float) * W * v);
          } else {
            for (int i = 0; i < W * v; ++i) acc[i] += g[i];
          }
        }
      }
}

}  // namespace xconv::gxm
