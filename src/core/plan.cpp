// ConvPlan implementation: default heuristics (moved verbatim from the
// ConvLayer setup helpers), stable key hashing, versioned JSON
// serialization, and the thread-safe memory+disk PlanCache.
//
// Serialization note: the emitted field set is locked by the `plan-schema`
// lint rule against tools/lint/plan_schema.json — adding/removing a field
// requires bumping kPlanSchemaVersion and refreshing the lockfile
// (`tools/lint/xconv_lint.py --update-plan-lock`). Old-version cache files
// are rejected loudly and re-planned, never half-parsed.
#include "core/plan.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "jit/conv_kernel_gen.hpp"
#include "platform/envparse.hpp"
#include "tensor/layout.hpp"

namespace xconv::core {

namespace {

int resolved_vlen(platform::Isa isa) {
  const int v = platform::vlen_fp32(isa);
  return v == 1 ? 16 : v;  // scalar backend keeps the blocked layout
}

// The register budget is always quoted in terms of the ISA the kernels are
// generated for; the scalar backend emulates avx512-shaped kernels.
platform::Isa kernel_isa(platform::Isa isa) {
  return isa == platform::Isa::scalar ? platform::Isa::avx512 : isa;
}

bool isa_from_name(const std::string& s, platform::Isa* out) {
  using platform::Isa;
  for (Isa isa : {Isa::scalar, Isa::avx2, Isa::avx512, Isa::avx512_vnni}) {
    if (s == platform::isa_name(isa)) {
      *out = isa;
      return true;
    }
  }
  return false;
}

const char* backend_pref_name(kernels::BackendPref b) {
  switch (b) {
    case kernels::BackendPref::auto_pick: return "auto";
    case kernels::BackendPref::jit: return "jit";
    case kernels::BackendPref::scalar: return "scalar";
  }
  return "unknown";
}

bool backend_pref_from_name(const std::string& s, kernels::BackendPref* out) {
  using kernels::BackendPref;
  for (BackendPref b :
       {BackendPref::auto_pick, BackendPref::jit, BackendPref::scalar}) {
    if (s == backend_pref_name(b)) {
      *out = b;
      return true;
    }
  }
  return false;
}

bool bwd_algo_from_name(const std::string& s, BwdAlgo* out) {
  for (BwdAlgo a : {BwdAlgo::duality_stride1, BwdAlgo::duality_1x1_strided,
                    BwdAlgo::gemm_fallback}) {
    if (s == bwd_algo_name(a)) {
      *out = a;
      return true;
    }
  }
  return false;
}

bool upd_strategy_from_name(const std::string& s, UpdStrategy* out) {
  // auto_pick is deliberately absent: a materialized plan is always resolved.
  for (UpdStrategy u :
       {UpdStrategy::task, UpdStrategy::minibatch, UpdStrategy::hybrid}) {
    if (s == upd_strategy_name(u)) {
      *out = u;
      return true;
    }
  }
  return false;
}

bool upd_loop_order_from_name(const std::string& s, UpdLoopOrder* out) {
  for (UpdLoopOrder o : {UpdLoopOrder::task_outer, UpdLoopOrder::pixel_outer}) {
    if (s == upd_loop_order_name(o)) {
      *out = o;
      return true;
    }
  }
  return false;
}

thread_local bool g_autotune_in_progress = false;

}  // namespace

const char* bwd_algo_name(BwdAlgo a) {
  switch (a) {
    case BwdAlgo::duality_stride1: return "duality-s1";
    case BwdAlgo::duality_1x1_strided: return "duality-1x1-strided";
    case BwdAlgo::gemm_fallback: return "gemm-fallback";
  }
  return "unknown";
}

const char* upd_loop_order_name(UpdLoopOrder o) {
  switch (o) {
    case UpdLoopOrder::task_outer: return "task-outer";
    case UpdLoopOrder::pixel_outer: return "pixel-outer";
  }
  return "unknown";
}

const char* plan_pass_name(PlanPass pass) {
  switch (pass) {
    case PlanPass::fwd: return "fwd";
    case PlanPass::train: return "train";
  }
  return "unknown";
}

const char* plan_load_status_name(PlanLoadStatus s) {
  switch (s) {
    case PlanLoadStatus::ok: return "ok";
    case PlanLoadStatus::version_mismatch: return "version-mismatch";
    case PlanLoadStatus::key_mismatch: return "key-mismatch";
    case PlanLoadStatus::corrupt: return "corrupt";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Identity
// ---------------------------------------------------------------------------

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;  // FNV offset basis
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

std::string PlanKey::to_string() const {
  std::ostringstream os;
  os << params.to_string() << "|pass=" << plan_pass_name(pass)
     << "|isa=" << platform::isa_name(isa) << "|vlen=" << vlen
     << "|threads=" << threads << "|v" << kPlanSchemaVersion;
  return os.str();
}

std::uint64_t PlanKey::hash() const { return fnv1a64(to_string()); }

std::string PlanKey::hash_hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash()));
  return std::string(buf);
}

PlanKey PlanRequest::key(const ConvParams& p) const {
  PlanKey k;
  k.params = p;
  k.pass = fwd_only ? PlanPass::fwd : PlanPass::train;
  k.isa = isa;
  k.vlen = resolved_vlen(isa);
  k.threads = threads < 1 ? 1 : threads;
  return k;
}

// ---------------------------------------------------------------------------
// Default heuristics
// ---------------------------------------------------------------------------

int pick_block_extent(int dim, int cap, int floor) {
  if (dim <= cap) return dim;
  int best = std::min(dim, cap), best_score = -1;
  for (int b = std::min(dim, cap); b >= floor; --b) {
    const int score = (dim % b == 0 ? 1000 : 0) + b;
    if (score > best_score) {
      best_score = score;
      best = b;
    }
  }
  return best;
}

ConvPlan plan_default(const ConvParams& p, const PlanRequest& req) {
  p.validate();
  ConvPlan plan;
  plan.isa = req.isa;
  plan.vlen = resolved_vlen(req.isa);
  plan.threads = req.threads < 1 ? 1 : req.threads;
  plan.backend = req.backend;
  plan.use_streams = req.use_streams;
  plan.prefetch = req.prefetch;

  const int P = p.P(), Q = p.Q();
  const int cb = tensor::ceil_div(p.C, plan.vlen);
  const int kb = tensor::ceil_div(p.K, plan.vlen);
  const int max_acc =
      jit::ConvKernelDesc::max_accumulators(kernel_isa(req.isa));

  // Register blocking (Section II-B): RBQ along the fast output dimension;
  // RBP > 1 only when Q alone cannot fill enough independent FMA chains.
  plan.rbq = req.rbq > 0
                 ? req.rbq
                 : pick_block_extent(Q, std::min(max_acc, kFwdRbqCap),
                                     kRbMinExtent);
  if (req.rbp > 0) {
    plan.rbp = req.rbp;
  } else if (Q <= max_acc / 2 && plan.rbq == Q) {
    plan.rbp = std::min(P, max_acc / plan.rbq);
  } else {
    plan.rbp = 1;
  }
  if (plan.rbp * plan.rbq > max_acc)
    throw std::invalid_argument("ConvLayer: register blocking override " +
                                std::to_string(plan.rbp) + "x" +
                                std::to_string(plan.rbq) + " exceeds budget");

  // 1x1 layers: pull the Cb loop into the kernel (Section II-C) so output
  // registers are reused Cb times. Only profitable with more than one block.
  plan.cb_in_kernel = (p.R == 1 && p.S == 1 && cb > 1);

  if (!req.fwd_only) {
    // Backward algorithm (Section II-I), forced by layer shape.
    if (p.stride_h == 1 && p.stride_w == 1) {
      plan.bwd_algo = BwdAlgo::duality_stride1;
    } else if (p.R == 1 && p.S == 1 && p.pad_h == 0 && p.pad_w == 0) {
      plan.bwd_algo = BwdAlgo::duality_1x1_strided;
      plan.bwd1x1_rbq = pick_block_extent(Q, max_acc, kRbMinExtent);
    } else {
      plan.bwd_algo = BwdAlgo::gemm_fallback;
      plan.bwd_gemm_qc = pick_block_extent(
          Q, std::min(max_acc, kBwdGemmMaxCols), kRbMinExtent);
    }

    // Update pixel blocking + strategy (Section II-J).
    plan.upd_bq = req.upd_bq > 0
                      ? req.upd_bq
                      : pick_block_extent(Q, kUpdBqCap, kUpdBlockMin);
    plan.upd_bp = req.upd_bp > 0
                      ? req.upd_bp
                      : pick_block_extent(P, kUpdBpCap, kUpdBlockMin);
    plan.upd_strategy = req.upd_strategy;
    if (plan.upd_strategy == UpdStrategy::auto_pick) {
      const std::int64_t act_traffic =
          static_cast<std::int64_t>(p.input_elems()) +
          static_cast<std::int64_t>(p.output_elems());
      plan.upd_strategy = pick_upd_strategy(
          p.N, kb, cb, p.R, p.S, act_traffic,
          static_cast<std::int64_t>(kb) * cb * p.R * p.S * plan.vlen *
              plan.vlen,
          plan.threads);
    }

    // Loop-order traffic model: task_outer re-streams each input Cb slice
    // once per (kb, r, s) task touching it (and each dO Kb slice per
    // (cb, r, s) task); pixel_outer streams the activations once but
    // re-touches the whole dW working set (read + write) per pixel block
    // unless it stays cache-resident. Pick the cheaper order.
    {
      const std::int64_t in_bytes =
          static_cast<std::int64_t>(p.input_elems()) * 4;
      const std::int64_t do_bytes =
          static_cast<std::int64_t>(p.output_elems()) * 4;
      const std::int64_t dw_bytes = static_cast<std::int64_t>(kb) * cb * p.R *
                                    p.S * plan.vlen * plan.vlen * 4;
      const std::int64_t n_pixel_blocks =
          static_cast<std::int64_t>(p.N) *
          tensor::ceil_div(P, plan.upd_bp) * tensor::ceil_div(Q, plan.upd_bq);
      const std::int64_t task_traffic =
          static_cast<std::int64_t>(kb) * p.R * p.S * in_bytes +
          static_cast<std::int64_t>(cb) * p.R * p.S * do_bytes;
      const std::int64_t dw_sweeps =
          dw_bytes <= kUpdLoopOrderL2Budget ? 1 : n_pixel_blocks;
      const std::int64_t pixel_traffic =
          in_bytes + do_bytes + 2 * dw_bytes * dw_sweeps;
      plan.upd_loop_order = pixel_traffic < task_traffic
                                ? UpdLoopOrder::pixel_outer
                                : UpdLoopOrder::task_outer;
    }
  }
  return plan;
}

void ConvPlan::validate(const ConvParams& p, PlanPass pass) const {
  auto fail = [&](const std::string& what) {
    throw std::invalid_argument("ConvPlan: " + what + " for " +
                                p.to_string());
  };
  if (vlen != resolved_vlen(isa)) fail("vlen does not match isa");
  if (threads < 1) fail("non-positive thread count");
  const int P = p.P(), Q = p.Q();
  const int max_acc = jit::ConvKernelDesc::max_accumulators(kernel_isa(isa));
  if (rbp < 1 || rbq < 1) fail("non-positive register blocking");
  if (rbp * rbq > max_acc)
    throw std::invalid_argument("ConvLayer: register blocking override " +
                                std::to_string(rbp) + "x" +
                                std::to_string(rbq) + " exceeds budget");
  const int cb = tensor::ceil_div(p.C, vlen);
  if (cb_in_kernel && !(p.R == 1 && p.S == 1 && cb > 1))
    fail("cb_in_kernel set on a non-1x1 (or single-block) layer");
  if (pass == PlanPass::fwd) return;

  // The backward algorithm is shape-forced (Section II-I); a plan that
  // disagrees was serialized for a different layer.
  BwdAlgo want;
  if (p.stride_h == 1 && p.stride_w == 1) {
    want = BwdAlgo::duality_stride1;
  } else if (p.R == 1 && p.S == 1 && p.pad_h == 0 && p.pad_w == 0) {
    want = BwdAlgo::duality_1x1_strided;
  } else {
    want = BwdAlgo::gemm_fallback;
  }
  if (bwd_algo != want) fail("backward algorithm does not match layer shape");
  if (bwd_algo == BwdAlgo::duality_1x1_strided) {
    if (bwd1x1_rbq < 1 || bwd1x1_rbq > max_acc)
      fail("bwd1x1_rbq outside the register budget");
  }
  if (bwd_algo == BwdAlgo::gemm_fallback) {
    if (bwd_gemm_qc < 1 || bwd_gemm_qc > Q) fail("bwd_gemm_qc out of range");
    if (bwd_gemm_qc > max_acc) fail("bwd_gemm_qc outside the register budget");
  }
  if (upd_strategy == UpdStrategy::auto_pick)
    fail("unresolved (auto_pick) update strategy");
  if (upd_bp < 1 || upd_bp > P || upd_bq < 1 || upd_bq > Q)
    fail("update pixel blocking out of range");
  if (upd_reduce_unroll < 1 || upd_reduce_unroll > 8)
    fail("upd_reduce_unroll outside [1, 8]");
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::string ConvPlan::to_json(const PlanKey& key) const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"plan_schema_version\": " << kPlanSchemaVersion << ",\n";
  os << "  \"key\": \"" << key.to_string() << "\",\n";
  os << "  \"isa\": \"" << platform::isa_name(isa) << "\",\n";
  os << "  \"vlen\": " << vlen << ",\n";
  os << "  \"threads\": " << threads << ",\n";
  os << "  \"backend\": \"" << backend_pref_name(backend) << "\",\n";
  os << "  \"use_streams\": " << (use_streams ? "true" : "false") << ",\n";
  os << "  \"prefetch\": " << (prefetch ? "true" : "false") << ",\n";
  os << "  \"rbp\": " << rbp << ",\n";
  os << "  \"rbq\": " << rbq << ",\n";
  os << "  \"cb_in_kernel\": " << (cb_in_kernel ? "true" : "false") << ",\n";
  os << "  \"bwd_algo\": \"" << bwd_algo_name(bwd_algo) << "\",\n";
  os << "  \"bwd1x1_rbq\": " << bwd1x1_rbq << ",\n";
  os << "  \"bwd_gemm_qc\": " << bwd_gemm_qc << ",\n";
  os << "  \"upd_strategy\": \"" << upd_strategy_name(upd_strategy)
     << "\",\n";
  os << "  \"upd_bp\": " << upd_bp << ",\n";
  os << "  \"upd_bq\": " << upd_bq << ",\n";
  os << "  \"upd_loop_order\": \"" << upd_loop_order_name(upd_loop_order)
     << "\",\n";
  os << "  \"upd_reduce_jit\": " << (upd_reduce_jit ? "true" : "false")
     << ",\n";
  os << "  \"upd_reduce_unroll\": " << upd_reduce_unroll << ",\n";
  os << "  \"tuned\": " << (tuned ? "true" : "false") << "\n";
  os << "}\n";
  return os.str();
}

namespace {

// Minimal strict parser for the flat JSON object to_json emits: one level,
// string / integer / boolean values, no escapes (key strings contain none).
// Anything else is `corrupt` — a truncated or hand-garbled cache entry must
// never half-parse into a plausible plan.
struct FlatJson {
  std::unordered_map<std::string, std::string> strs;
  std::unordered_map<std::string, long> nums;
  std::unordered_map<std::string, bool> bools;
};

bool parse_flat_json(const std::string& text, FlatJson* out) {
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])))
      ++i;
  };
  auto parse_quoted = [&](std::string* s) {
    if (i >= text.size() || text[i] != '"') return false;
    const std::size_t start = ++i;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') return false;  // escapes never emitted
      ++i;
    }
    if (i >= text.size()) return false;
    *s = text.substr(start, i - start);
    ++i;
    return true;
  };
  skip_ws();
  if (i >= text.size() || text[i] != '{') return false;
  ++i;
  skip_ws();
  bool first = true;
  while (true) {
    skip_ws();
    if (i < text.size() && text[i] == '}') {
      ++i;
      break;
    }
    if (!first) {
      if (i >= text.size() || text[i] != ',') return false;
      ++i;
      skip_ws();
    }
    first = false;
    std::string key;
    if (!parse_quoted(&key)) return false;
    skip_ws();
    if (i >= text.size() || text[i] != ':') return false;
    ++i;
    skip_ws();
    if (i >= text.size()) return false;
    if (text[i] == '"') {
      std::string v;
      if (!parse_quoted(&v)) return false;
      out->strs[key] = v;
    } else if (text.compare(i, 4, "true") == 0) {
      out->bools[key] = true;
      i += 4;
    } else if (text.compare(i, 5, "false") == 0) {
      out->bools[key] = false;
      i += 5;
    } else {
      const std::size_t start = i;
      if (i < text.size() && text[i] == '-') ++i;
      while (i < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[i])))
        ++i;
      if (i == start) return false;
      try {
        out->nums[key] = std::stol(text.substr(start, i - start));
      } catch (const std::exception&) {
        return false;
      }
    }
  }
  skip_ws();
  return i == text.size();
}

}  // namespace

PlanLoadStatus plan_from_json(const std::string& text, const PlanKey& expect,
                              ConvPlan* out) {
  FlatJson j;
  if (!parse_flat_json(text, &j)) return PlanLoadStatus::corrupt;

  const auto num = [&](const char* k, long* v) {
    auto it = j.nums.find(k);
    if (it == j.nums.end()) return false;
    *v = it->second;
    return true;
  };
  const auto str = [&](const char* k, std::string* v) {
    auto it = j.strs.find(k);
    if (it == j.strs.end()) return false;
    *v = it->second;
    return true;
  };
  const auto boolean = [&](const char* k, bool* v) {
    auto it = j.bools.find(k);
    if (it == j.bools.end()) return false;
    *v = it->second;
    return true;
  };

  long version = 0;
  if (!num("plan_schema_version", &version)) return PlanLoadStatus::corrupt;
  if (version != kPlanSchemaVersion) return PlanLoadStatus::version_mismatch;
  std::string key;
  if (!str("key", &key)) return PlanLoadStatus::corrupt;
  if (key != expect.to_string()) return PlanLoadStatus::key_mismatch;

  ConvPlan plan;
  std::string isa, backend, bwd, upd, ulo;
  long vlen = 0, threads = 0, rbp = 0, rbq = 0, b1rbq = 0, gqc = 0, ubp = 0,
       ubq = 0, urun = 0;
  if (!str("isa", &isa) || !isa_from_name(isa, &plan.isa))
    return PlanLoadStatus::corrupt;
  if (!num("vlen", &vlen) || !num("threads", &threads))
    return PlanLoadStatus::corrupt;
  if (!str("backend", &backend) ||
      !backend_pref_from_name(backend, &plan.backend))
    return PlanLoadStatus::corrupt;
  if (!boolean("use_streams", &plan.use_streams) ||
      !boolean("prefetch", &plan.prefetch) ||
      !boolean("cb_in_kernel", &plan.cb_in_kernel) ||
      !boolean("upd_reduce_jit", &plan.upd_reduce_jit) ||
      !boolean("tuned", &plan.tuned))
    return PlanLoadStatus::corrupt;
  if (!num("rbp", &rbp) || !num("rbq", &rbq) || !num("bwd1x1_rbq", &b1rbq) ||
      !num("bwd_gemm_qc", &gqc) || !num("upd_bp", &ubp) ||
      !num("upd_bq", &ubq) || !num("upd_reduce_unroll", &urun))
    return PlanLoadStatus::corrupt;
  if (!str("bwd_algo", &bwd) || !bwd_algo_from_name(bwd, &plan.bwd_algo))
    return PlanLoadStatus::corrupt;
  if (!str("upd_strategy", &upd) ||
      !upd_strategy_from_name(upd, &plan.upd_strategy))
    return PlanLoadStatus::corrupt;
  if (!str("upd_loop_order", &ulo) ||
      !upd_loop_order_from_name(ulo, &plan.upd_loop_order))
    return PlanLoadStatus::corrupt;
  plan.vlen = static_cast<int>(vlen);
  plan.threads = static_cast<int>(threads);
  plan.rbp = static_cast<int>(rbp);
  plan.rbq = static_cast<int>(rbq);
  plan.bwd1x1_rbq = static_cast<int>(b1rbq);
  plan.bwd_gemm_qc = static_cast<int>(gqc);
  plan.upd_bp = static_cast<int>(ubp);
  plan.upd_bq = static_cast<int>(ubq);
  plan.upd_reduce_unroll = static_cast<int>(urun);

  // The entry's execution identity must agree with the key it claims.
  if (plan.isa != expect.isa || plan.vlen != expect.vlen ||
      plan.threads != expect.threads)
    return PlanLoadStatus::key_mismatch;
  try {
    plan.validate(expect.params, expect.pass);
  } catch (const std::invalid_argument&) {
    return PlanLoadStatus::corrupt;
  }
  *out = plan;
  return PlanLoadStatus::ok;
}

// ---------------------------------------------------------------------------
// PlanCache
// ---------------------------------------------------------------------------

PlanCache::PlanCache(std::string dir) {
  const platform::MutexLock lock(mu_);
  dir_ = std::move(dir);
}

PlanCache& PlanCache::instance() {
  static PlanCache* cache = [] {
    const char* v = platform::env::get("XCONV_PLAN_CACHE");
    return new PlanCache(v != nullptr ? std::string(v) : std::string());
  }();
  return *cache;
}

void PlanCache::set_directory(const std::string& dir) {
  const platform::MutexLock lock(mu_);
  dir_ = dir;
}

std::string PlanCache::directory() const {
  const platform::MutexLock lock(mu_);
  return dir_;
}

std::string PlanCache::file_path(const PlanKey& key) const {
  const std::string dir = directory();
  if (dir.empty()) return {};
  return dir + "/xconv_plan_" + key.hash_hex() + ".json";
}

void PlanCache::clear() {
  const platform::MutexLock lock(mu_);
  map_.clear();
}

PlanCache::Stats PlanCache::stats() const {
  const platform::MutexLock lock(mu_);
  return stats_;
}

void PlanCache::reset_stats() {
  const platform::MutexLock lock(mu_);
  stats_ = Stats{};
}

std::size_t PlanCache::size() const {
  const platform::MutexLock lock(mu_);
  return map_.size();
}

bool PlanCache::load_from_disk(const PlanKey& key, ConvPlan* out) {
  const std::string path = file_path(key);
  if (path.empty()) return false;
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;  // absent entry: a plain miss, not an error
  std::ostringstream text;
  text << f.rdbuf();
  const PlanLoadStatus st = plan_from_json(text.str(), key, out);
  if (st == PlanLoadStatus::ok) {
    const platform::MutexLock lock(mu_);
    ++stats_.disk_hits;
    return true;
  }
  // Loud fallback: a bad cache entry costs a re-plan, never correctness.
  std::fprintf(stderr,
               "xconv: plan cache entry %s rejected (%s); falling back to "
               "default planning for %s\n",
               path.c_str(), plan_load_status_name(st),
               key.to_string().c_str());
  const platform::MutexLock lock(mu_);
  ++stats_.disk_stale;
  return false;
}

void PlanCache::store_to_disk(const PlanKey& key, const ConvPlan& plan) {
  const std::string path = file_path(key);
  if (path.empty()) return;
  static std::atomic<unsigned> seq{0};
  const std::string tmp = path + ".tmp" + std::to_string(seq.fetch_add(1));
  std::error_code ec;
  std::filesystem::create_directories(std::filesystem::path(path).parent_path(),
                                      ec);
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "xconv: cannot write plan cache file %s\n",
                   tmp.c_str());
      return;
    }
    f << plan.to_json(key);
  }
  // Atomic publish: readers see either the old entry or the complete new one.
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::fprintf(stderr, "xconv: plan cache rename %s -> %s failed: %s\n",
                 tmp.c_str(), path.c_str(), ec.message().c_str());
    std::filesystem::remove(tmp, ec);
    return;
  }
  const platform::MutexLock lock(mu_);
  ++stats_.stores;
}

bool PlanCache::peek(const PlanKey& key, ConvPlan* out) {
  const std::string k = key.to_string();
  {
    const platform::MutexLock lock(mu_);
    auto it = map_.find(k);
    if (it != map_.end()) {
      ++stats_.hits;
      *out = it->second;
      return true;
    }
  }
  if (!load_from_disk(key, out)) return false;
  const platform::MutexLock lock(mu_);
  map_.emplace(k, *out);
  return true;
}

ConvPlan PlanCache::get_or_create(const PlanKey& key,
                                  const std::function<ConvPlan()>& make) {
  const std::string k = key.to_string();
  {
    const platform::MutexLock lock(mu_);
    auto it = map_.find(k);
    if (it != map_.end()) {
      ++stats_.hits;
      return it->second;
    }
  }
  // Creation (possibly a full autotune search) and file I/O run unlocked;
  // racing creators both build and the first insert wins (plans are
  // immutable values, so the loser's copy is simply discarded).
  ConvPlan plan;
  const bool from_disk = load_from_disk(key, &plan);
  if (!from_disk) plan = make();
  bool inserted = false;
  {
    const platform::MutexLock lock(mu_);
    auto [it, fresh] = map_.emplace(k, plan);
    inserted = fresh;
    if (!from_disk && fresh) ++stats_.misses;
    plan = it->second;
  }
  if (!from_disk && inserted) store_to_disk(key, plan);
  return plan;
}

void PlanCache::put(const PlanKey& key, const ConvPlan& plan) {
  const std::string k = key.to_string();
  {
    const platform::MutexLock lock(mu_);
    map_[k] = plan;
  }
  store_to_disk(key, plan);
}

// ---------------------------------------------------------------------------
// Resolution
// ---------------------------------------------------------------------------

bool autotune_enabled_from_env() {
  return platform::env::flag_or("XCONV_AUTOTUNE", false);
}

bool autotune_in_progress() { return g_autotune_in_progress; }

namespace detail {
AutotuneScope::AutotuneScope() { g_autotune_in_progress = true; }
AutotuneScope::~AutotuneScope() { g_autotune_in_progress = false; }
}  // namespace detail

ConvPlan resolve_plan(const ConvParams& p, const PlanRequest& req,
                      const std::optional<ConvPlan>& explicit_plan) {
  const PlanPass pass = req.fwd_only ? PlanPass::fwd : PlanPass::train;
  if (explicit_plan.has_value()) {
    const ConvPlan& plan = *explicit_plan;
    if (plan.isa != req.isa || plan.vlen != resolved_vlen(req.isa) ||
        plan.threads != (req.threads < 1 ? 1 : req.threads))
      throw std::invalid_argument(
          "ConvPlan: explicit plan was built for a different execution "
          "context (isa/vlen/threads) than the layer requests");
    plan.validate(p, pass);
    return plan;
  }
  if (req.has_overrides()) return plan_default(p, req);

  const PlanKey key = req.key(p);
  // Autotuning only applies to full training plans: forward-only layers are
  // the internals of the backward duality (their blocking is covered by the
  // parent search) and candidate constructions inside a running search must
  // plan closed-form or the search would recurse.
  const bool tune = pass == PlanPass::train && autotune_enabled_from_env() &&
                    !autotune_in_progress();
  ConvPlan plan = PlanCache::instance().get_or_create(key, [&] {
    return tune ? autotune_plan(p, req).plan : plan_default(p, req);
  });
  // Tuned decisions persist across processes; execution context (backend,
  // stream mode, prefetch) always follows the constructing caller.
  plan.backend = req.backend;
  plan.use_streams = req.use_streams;
  plan.prefetch = req.prefetch;
  return plan;
}

}  // namespace xconv::core
