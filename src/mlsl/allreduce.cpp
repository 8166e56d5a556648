#include "mlsl/allreduce.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "platform/envparse.hpp"
#include "platform/timer.hpp"

namespace xconv::mlsl {

namespace {

// Gather a bucket's (possibly non-contiguous) flat-vector slices into a
// contiguous payload, and scatter one back. Codecs see contiguous payloads
// so per-bucket scales cover every segment of the bucket.
void gather_bucket(const GradBucket& bk, const float* flat, float* dst) {
  for (const GradBucket::Segment& seg : bk.segments) {
    std::memcpy(dst, flat + seg.offset, seg.elems * sizeof(float));
    dst += seg.elems;
  }
}

void scatter_bucket(const GradBucket& bk, const float* src, float* flat) {
  for (const GradBucket::Segment& seg : bk.segments) {
    std::memcpy(flat + seg.offset, src, seg.elems * sizeof(float));
    src += seg.elems;
  }
}

}  // namespace

const char* reduce_algorithm_name(ReduceAlgorithm a) {
  return a == ReduceAlgorithm::kHierarchical ? "hierarchical" : "flat";
}

ReduceAlgorithm reduce_algorithm_from_name(const std::string& s) {
  if (s == "flat") return ReduceAlgorithm::kFlatRing;
  if (s == "hier" || s == "hierarchical") return ReduceAlgorithm::kHierarchical;
  throw std::invalid_argument(
      "reduce algorithm must be 'flat', 'hier' or 'hierarchical', got '" + s +
      "'");
}

CommConfig CommConfig::from_env(const CommConfig& defaults) {
  namespace env = platform::env;
  CommConfig c = defaults;
  if (const char* v = env::get("XCONV_MN_CODEC"))
    c.codec = codec_from_name(v);  // throws with the valid-name list
  if (const char* v = env::get("XCONV_MN_TOPK"))
    c.topk_fraction = env::fraction("XCONV_MN_TOPK", v);
  if (const char* v = env::get("XCONV_MN_COMM_THREADS"))
    c.comm_threads =
        static_cast<int>(env::positive_long("XCONV_MN_COMM_THREADS", v));
  if (const char* v = env::get("XCONV_MN_WIRE_GBS"))
    c.wire_gbs = env::nonneg_double("XCONV_MN_WIRE_GBS", v);
  if (const char* v = env::get("XCONV_MN_ALGO"))
    c.algorithm = reduce_algorithm_from_name(v);
  if (const char* v = env::get("XCONV_MN_RANKS_PER_NODE"))
    c.topo.ranks_per_node =
        static_cast<int>(env::positive_long("XCONV_MN_RANKS_PER_NODE", v));
  if (const char* v = env::get("XCONV_MN_INTRA_GBS"))
    c.topo.intra.link_bandwidth_gbs =
        env::nonneg_double("XCONV_MN_INTRA_GBS", v);
  if (const char* v = env::get("XCONV_MN_INTER_GBS"))
    c.topo.inter.link_bandwidth_gbs =
        env::nonneg_double("XCONV_MN_INTER_GBS", v);
  if (const char* v = env::get("XCONV_MN_INTRA_LAT_US"))
    c.topo.intra.latency_us = env::nonneg_double("XCONV_MN_INTRA_LAT_US", v);
  if (const char* v = env::get("XCONV_MN_INTER_LAT_US"))
    c.topo.inter.latency_us = env::nonneg_double("XCONV_MN_INTER_LAT_US", v);
  return c;
}

Communicator::Communicator(int ranks, const CommConfig& cfg)
    : ranks_(ranks), cfg_(cfg) {
  if (ranks < 1) throw std::invalid_argument("Communicator: ranks < 1");
  if (cfg.comm_threads < 1)
    throw std::invalid_argument("CommConfig: comm_threads must be >= 1");
  if (cfg.wire_gbs < 0.0)
    throw std::invalid_argument("CommConfig: wire_gbs must be >= 0");
  cfg_.topo.validate();
  // Resolve the topology against the actual rank count: derive the node
  // count when the config left it 0, otherwise insist on an exact match —
  // a silently truncated node grid would mis-route the hierarchy.
  topo_ = cfg_.topo;
  if (topo_.nodes == 0) {
    if (ranks % topo_.ranks_per_node != 0)
      throw std::invalid_argument(
          "Communicator: ranks not divisible by Topology::ranks_per_node");
    topo_.nodes = ranks / topo_.ranks_per_node;
  } else if (topo_.ranks() != ranks) {
    throw std::invalid_argument(
        "Communicator: Topology ranks (ranks_per_node * nodes) != "
        "communicator ranks");
  }
  // Legacy homogeneous wire: a scalar wire_gbs seeds both levels (latency 0)
  // when the topology carries no bandwidths of its own, so pre-topology
  // configurations keep their exact simulated-wire behavior.
  if (cfg.wire_gbs > 0.0 && topo_.intra.link_bandwidth_gbs == 0.0 &&
      topo_.inter.link_bandwidth_gbs == 0.0) {
    topo_.intra = NetworkModel{cfg.wire_gbs, 0.0};
    topo_.inter = NetworkModel{cfg.wire_gbs, 0.0};
  }
  rpn_ = topo_.ranks_per_node;
  nnodes_ = topo_.nodes;
  codec_ = make_codec(cfg.codec, cfg.topk_fraction);  // validates fraction
  barrier_ = std::make_unique<std::barrier<>>(ranks_);
  {
    // No other thread can exist yet; taken anyway so the guarded-member
    // write is analysis-clean without leaning on constructor exemptions.
    const platform::MutexLock lock(mu_);
    overlap_bufs_.assign(ranks_, nullptr);
  }
  residual_.resize(ranks_);
  node_residual_.resize(nnodes_);
}

Communicator::~Communicator() {
  {
    const platform::MutexLock lock(pool_mu_);
    pool_stop_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& t : rank_pool_)
    if (t.joinable()) t.join();
  {
    const platform::MutexLock lock(mu_);
    stop_comm_ = true;
  }
  cv_post_.notify_all();
  for (std::thread& t : comm_pool_)
    if (t.joinable()) t.join();
}

void Communicator::parallel(const std::function<void(int)>& fn) {
  if (ranks_ == 1) {
    fn(0);
    return;
  }
  platform::UniqueLock lk(pool_mu_);
  // Rank farm: spawn the R worker threads once, on first use, and
  // re-dispatch them per call via a generation counter — at 64+ ranks the
  // per-iteration cost is a broadcast + join instead of R thread spawns.
  if (rank_pool_.empty()) {
    rank_pool_.reserve(ranks_);
    for (int r = 0; r < ranks_; ++r)
      rank_pool_.emplace_back(&Communicator::rank_worker, this, r);
  }
  pool_fn_ = &fn;
  pool_err_ = nullptr;  // first exception of *this* generation wins
  pool_remaining_ = ranks_;
  ++pool_gen_;
  pool_cv_.notify_all();
  // Explicit wait loop (not a predicate lambda): the thread-safety analysis
  // treats a lambda as a separate unannotated function, so guarded-member
  // predicates must live in the annotated function body.
  while (pool_remaining_ != 0) pool_done_cv_.wait(lk);
  pool_fn_ = nullptr;
  std::exception_ptr err = pool_err_;
  pool_err_ = nullptr;
  lk.unlock();
  if (err) std::rethrow_exception(err);
}

void Communicator::rank_worker(int rank) {
  std::uint64_t seen = 0;
  platform::UniqueLock lk(pool_mu_);
  for (;;) {
    while (!(pool_stop_ || pool_gen_ != seen)) pool_cv_.wait(lk);
    if (pool_stop_) return;
    seen = pool_gen_;
    const std::function<void(int)>* fn = pool_fn_;
    lk.unlock();
    std::exception_ptr err;
    try {
      (*fn)(rank);
    } catch (...) {
      err = std::current_exception();
    }
    lk.lock();
    // Publication is serialized by pool_mu_ (std::exception_ptr assignment
    // is not atomic, and two racing unsynchronized stores of a shared_ptr-
    // like type would be a real data race, not just a torn value); the
    // dispatcher rethrows after the last rank checks in. pool_remaining_
    // doubles as the release fence: the dispatcher only reads pool_err_
    // after observing pool_remaining_ == 0 under the same mutex.
    if (err && !pool_err_) pool_err_ = err;
    if (--pool_remaining_ == 0) pool_done_cv_.notify_all();
  }
}

void Communicator::barrier() {
  if (ranks_ > 1) barrier_->arrive_and_wait();
}

void Communicator::ensure_residuals(std::size_t n) {
  if (!codec_->uses_residual()) return;
  for (std::vector<float>& r : residual_)
    if (r.size() < n) r.resize(n, 0.0f);
  if (sum_residual_.size() < n) sum_residual_.resize(n, 0.0f);
  // The hierarchical schedule re-encodes per-node partial sums, which is a
  // third compression point with its own error-feedback state. Only sized
  // on hierarchical-capable topologies (p > 1 and N > 1).
  if (rpn_ > 1 && nnodes_ > 1)
    for (std::vector<float>& r : node_residual_)
      if (r.size() < n) r.resize(n, 0.0f);
}

double Communicator::residual_l2(int r) const {
  double s = 0.0;
  for (const float v : residual_[r]) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

CommStats Communicator::stats() const {
  const platform::MutexLock lock(stats_mu_);
  CommStats s;
  s.bulk_logical_bytes_per_rank = counters_.bulk_logical;
  s.overlap_logical_bytes_per_rank = counters_.overlap_logical;
  s.wire_bytes_per_rank = counters_.wire;
  s.intra_wire_bytes_per_rank = counters_.intra;
  s.inter_wire_bytes_per_rank = counters_.inter;
  return s;
}

Communicator::WireSplit Communicator::split_wire(bool hier,
                                                 std::size_t contrib_total,
                                                 std::size_t partial_total,
                                                 std::size_t sum_bytes) const {
  WireSplit w;
  if (ranks_ <= 1) return w;
  if (!hier) {
    // Flat ring spans all R ranks: the traffic crosses the inter-node level
    // whenever the topology has more than one node (a single-node topology
    // keeps it on the intra fabric). 2*(R-1) latency-bearing ring steps.
    const std::size_t bytes = ring_wire_bytes(contrib_total, sum_bytes);
    const double steps = 2.0 * (ranks_ - 1);
    if (nnodes_ > 1) {
      w.inter_bytes = bytes;
      w.inter_steps = steps;
    } else {
      w.intra_bytes = bytes;
      w.intra_steps = steps;
    }
    return w;
  }
  // Hierarchical: intra-node reduce ships (p-1)/p of the mean contribution
  // payload per rank plus the (p-1)/p broadcast share of the reduced sum;
  // the leader ring ships (N-1)/N of the mean node-partial payload plus
  // (N-1)/N of the sum. Latency steps: 2(p-1) intra, 2(N-1) inter — the
  // step-count collapse (vs the flat ring's 2(R-1)) is where the
  // hierarchy's latency win comes from.
  const auto R = static_cast<std::size_t>(ranks_);
  const auto p = static_cast<std::size_t>(rpn_);
  const auto N = static_cast<std::size_t>(nnodes_);
  w.intra_bytes = (p - 1) * (contrib_total / R + sum_bytes) / p;
  w.inter_bytes = (N - 1) * (partial_total / N + sum_bytes) / N;
  w.intra_steps = 2.0 * static_cast<double>(p - 1);
  w.inter_steps = 2.0 * static_cast<double>(N - 1);
  return w;
}

double Communicator::wire_seconds(const WireSplit& w) const {
  if (ranks_ <= 1) return 0.0;
  // Per level: transmission of exactly the *published* byte count at the
  // level's bandwidth, plus the schedule's step count worth of per-message
  // latency. Zero bandwidth disables a level entirely (shared memory is the
  // wire), which also keeps legacy wire_gbs seeding latency-free.
  double t = 0.0;
  const NetworkModel& ia = topo_.intra;
  if (ia.link_bandwidth_gbs > 0.0)
    t += static_cast<double>(w.intra_bytes) / (ia.link_bandwidth_gbs * 1e9) +
         w.intra_steps * ia.chunk_messages * ia.latency_us * 1e-6;
  const NetworkModel& ie = topo_.inter;
  if (ie.link_bandwidth_gbs > 0.0)
    t += static_cast<double>(w.inter_bytes) / (ie.link_bandwidth_gbs * 1e9) +
         w.inter_steps * ie.chunk_messages * ie.latency_us * 1e-6;
  return t;
}

void Communicator::wait_out_wire(double delay, double elapsed) const {
  if (delay <= elapsed) return;
  // Sleep, don't spin: on an oversubscribed host a spinning comm thread
  // would steal the compute cycles the overlap is supposed to hide behind.
  std::this_thread::sleep_for(std::chrono::duration<double>(delay - elapsed));
}

void Communicator::allreduce_sum(int rank, std::vector<float*>& bufs,
                                 std::size_t n) {
  if (ranks_ == 1) {
    // Single node: nothing moves. Publish zeros (not stale values from an
    // earlier round/configuration) so MultiNodeStats byte counters and the
    // compression ratio derived from them stay truthful.
    const platform::MutexLock lock(stats_mu_);
    counters_.bulk_logical = 0;
    counters_.wire = 0;
    counters_.intra = 0;
    counters_.inter = 0;
    return;
  }
  const int R = ranks_;
  const bool hier = hier_effective(cfg_.algorithm);
  const int p = rpn_;
  const int N = nnodes_;
  // Chunk layout: R near-equal chunks, chunk c owned by rank c.
  auto chunk_begin = [&](int c) { return n * c / R; };
  auto chunk_end = [&](int c) { return n * (c + 1) / R; };
  const bool compressed = cfg_.codec != Codec::kFp32;
  const bool ef = codec_->uses_residual();
  platform::Timer tx;
  std::size_t contrib_total = 0, partial_total = 0, sum_total = 0;

  barrier();
  if (compressed) {
    // Compressed bulk allreduce, chunk-granular codec payloads. Each rank
    // writes only its own wire buffer / owner chunk / byte-count slots
    // between barriers, and the error-feedback residuals partition cleanly:
    // contribution-leg residuals are per rank, sum-leg residuals per owner
    // chunk, and (hierarchical only) partial-leg residuals per node.
    if (rank == 0) {
      ensure_residuals(n);
      std::size_t max_chunk = 0;
      for (int c = 0; c < R; ++c)
        max_chunk = std::max(max_chunk, chunk_end(c) - chunk_begin(c));
      bulk_slot_stride_ = codec_->max_encoded_bytes(max_chunk);
      bulk_wire_.resize(R);
      const std::size_t need =
          (static_cast<std::size_t>(R) + 1) * bulk_slot_stride_;
      for (std::vector<std::uint8_t>& w : bulk_wire_)
        if (w.size() < need) w.resize(need);
      bulk_chunk_bytes_.assign(static_cast<std::size_t>(R) * R, 0);
      bulk_sum_bytes_.assign(R, 0);
      if (hier) {
        bulk_partial_wire_.resize(N);
        const std::size_t pneed =
            static_cast<std::size_t>(R) * bulk_slot_stride_;
        for (std::vector<std::uint8_t>& w : bulk_partial_wire_)
          if (w.size() < pneed) w.resize(pneed);
        bulk_partial_bytes_.assign(static_cast<std::size_t>(R) * N, 0);
      }
    }
    barrier();
    // Reduce-scatter leg: this rank's contribution goes on the wire in R
    // chunk payloads (one per owner), each encoded independently into a
    // fixed-stride slot with its measured byte count published alongside.
    // One selection workspace serves every encode this rank performs in
    // this call (R contribution chunks + partials + the sum re-encode).
    CodecWorkspace cws;
    const std::size_t stride = bulk_slot_stride_;
    for (int c = 0; c < R; ++c) {
      const std::size_t cb = chunk_begin(c), ce = chunk_end(c);
      bulk_chunk_bytes_[static_cast<std::size_t>(rank) * R + c] =
          codec_->encode_scratch(bufs[rank] + cb,
                                 ef ? residual_[rank].data() + cb : nullptr,
                                 ce - cb, bulk_wire_[rank].data() + c * stride,
                                 cws);
    }
    barrier();
    const std::size_t b = chunk_begin(rank), e = chunk_end(rank);
    const std::size_t own = static_cast<std::size_t>(rank);
    if (hier) {
      // Intra-node reduce: each node leader accumulates its node's p
      // contribution payloads per chunk (canonical rank order within the
      // node) and re-encodes the node-partial — with the node's own
      // error-feedback residual, so the re-encode error is re-injected next
      // iteration — for the leader ring.
      if (rank % p == 0) {
        const int g = rank / p;
        std::size_t max_chunk = 0;
        for (int c = 0; c < R; ++c)
          max_chunk = std::max(max_chunk, chunk_end(c) - chunk_begin(c));
        std::vector<float> part(max_chunk);
        for (int c = 0; c < R; ++c) {
          const std::size_t cb = chunk_begin(c);
          const std::size_t clen = chunk_end(c) - cb;
          const int r0 = g * p;
          codec_->decode(bulk_wire_[r0].data() + c * stride,
                         bulk_chunk_bytes_[static_cast<std::size_t>(r0) * R + c],
                         part.data(), clen);
          for (int r = r0 + 1; r < r0 + p; ++r)
            codec_->decode_accumulate(
                bulk_wire_[r].data() + c * stride,
                bulk_chunk_bytes_[static_cast<std::size_t>(r) * R + c],
                part.data(), clen);
          bulk_partial_bytes_[static_cast<std::size_t>(c) * N + g] =
              codec_->encode_scratch(
                  part.data(), ef ? node_residual_[g].data() + cb : nullptr,
                  clen, bulk_partial_wire_[g].data() + c * stride, cws);
        }
      }
      barrier();
      // Leader-ring leg: the chunk owner accumulates the N node-partial
      // payloads in canonical node order 0..N-1 — every rank decodes the
      // same payload sequence, so replicas cannot diverge.
      codec_->decode(bulk_partial_wire_[0].data() + own * stride,
                     bulk_partial_bytes_[own * N], bufs[rank] + b, e - b);
      for (int g = 1; g < N; ++g)
        codec_->decode_accumulate(bulk_partial_wire_[g].data() + own * stride,
                                  bulk_partial_bytes_[own * N + g],
                                  bufs[rank] + b, e - b);
    } else {
      // Owner accumulates its chunk from the encoded payloads in canonical
      // rank order.
      codec_->decode(bulk_wire_[0].data() + own * stride,
                     bulk_chunk_bytes_[own], bufs[rank] + b, e - b);
      for (int r = 1; r < R; ++r)
        codec_->decode_accumulate(
            bulk_wire_[r].data() + own * stride,
            bulk_chunk_bytes_[static_cast<std::size_t>(r) * R + own],
            bufs[rank] + b, e - b);
    }
    // Sum re-encode for the allgather/broadcast leg (with its own error
    // feedback, so the re-encode error is re-injected next time), decoded
    // in place so every rank gathers wire-faithful values.
    std::uint8_t* sum_wire =
        bulk_wire_[rank].data() + static_cast<std::size_t>(R) * stride;
    bulk_sum_bytes_[rank] =
        codec_->encode_scratch(bufs[rank] + b,
                               ef ? sum_residual_.data() + b : nullptr, e - b,
                               sum_wire, cws);
    codec_->decode(sum_wire, bulk_sum_bytes_[rank], bufs[rank] + b, e - b);
  } else {
    // fp32 (exact codec): each rank sums all ranks' contributions to its
    // own chunk in canonical rank order 0..R-1 — the same per-element order
    // the overlapped bucket path uses, so bulk and overlapped training stay
    // bit-for-bit comparable. The *same* arithmetic serves both schedules:
    // fp32 wire hops are exact memcpys, so a physically two-level data
    // movement would reproduce these bits anyway — the hierarchy shows up
    // only in the byte accounting and the simulated-wire delay below,
    // which is what makes flat-vs-hierarchical bitwise equality a testable
    // invariant instead of a numerical accident.
    const std::size_t b = chunk_begin(rank), e = chunk_end(rank);
    for (std::size_t i = b; i < e; ++i) {
      float acc = bufs[0][i];
      for (int r = 1; r < R; ++r) acc += bufs[r][i];
      bufs[rank][i] = acc;
    }
  }
  barrier();
  // Allgather: every rank copies the reduced owner-chunks from their owners.
  for (int c = 0; c < R; ++c) {
    if (c == rank) continue;
    const std::size_t cb = chunk_begin(c), ce = chunk_end(c);
    std::memcpy(bufs[rank] + cb, bufs[c] + cb, (ce - cb) * sizeof(float));
  }
  // Per-rank wire bytes from the *measured* encoded payload sizes (every
  // rank computes the same value from the shared byte-count tables, all
  // published before the pre-allgather barriers). fp32 synthesizes the
  // equivalent exact-payload totals.
  if (compressed) {
    for (const std::size_t bb : bulk_chunk_bytes_) contrib_total += bb;
    for (const std::size_t bb : bulk_sum_bytes_) sum_total += bb;
    if (hier)
      for (const std::size_t bb : bulk_partial_bytes_) partial_total += bb;
  } else {
    const std::size_t payload = codec_->max_encoded_bytes(n);
    contrib_total = static_cast<std::size_t>(R) * payload;
    partial_total = static_cast<std::size_t>(N) * payload;
    sum_total = payload;
  }
  const WireSplit ws = split_wire(hier, contrib_total, partial_total,
                                  sum_total);
  // Publish the traffic counts *before* the final barrier (they used to be
  // written after, racing with ranks already inside a subsequent call), all
  // under the one counter lock so a concurrent stats() reader can never see
  // a torn intra/inter/wire split.
  if (rank == 0) {
    const platform::MutexLock lock(stats_mu_);
    counters_.bulk_logical = ring_bytes(n, sizeof(float));
    counters_.wire = ws.total();
    counters_.intra = ws.intra_bytes;
    counters_.inter = ws.inter_bytes;
  }
  // Simulated wire: every rank waits out the per-level transmission time of
  // exactly the byte split published above, so compression and topology
  // show up in wall time, not just counters — and the two can never drift
  // apart.
  wait_out_wire(wire_seconds(ws), tx.seconds());
  barrier();
}

// --- overlapped bucketized allreduce ---------------------------------------

void Communicator::set_buckets(std::vector<GradBucket> buckets) {
  // Size the error-feedback state to the flat-vector extent and the
  // per-thread codec scratch to the largest bucket — computed on the
  // argument before installing it, so no guarded state is read unlocked.
  std::size_t flat_elems = 0, max_bucket = 0;
  for (const GradBucket& bk : buckets) {
    max_bucket = std::max(max_bucket, bk.elems);
    for (const GradBucket::Segment& seg : bk.segments)
      flat_elems = std::max(flat_elems, seg.offset + seg.elems);
  }
  const std::size_t n_buckets = buckets.size();
  {
    const platform::MutexLock lock(mu_);
    buckets_ = std::move(buckets);
    posted_.assign(n_buckets, 0);
    // Nothing outstanding until overlap_begin opens a round.
    done_.assign(n_buckets, 1);
    next_bucket_ = n_buckets;
  }
  // The residual/scratch sizing below is safe outside the lock: the contract
  // forbids calling set_buckets with a round in flight, so the comm pool is
  // idle and never touches this state while we resize it.
  ensure_residuals(flat_elems);
  comm_scratch_.resize(cfg_.comm_threads);
  if (cfg_.codec != Codec::kFp32) {  // the fp32 fast path sums in place
    // Four bucket-sized float areas (contribution, residual, node-partial,
    // running sum) + one wire payload per comm thread — bounded regardless
    // of the rank count, so a 64+-rank farm does not scale scratch with R.
    const std::size_t wire_need = codec_->max_encoded_bytes(max_bucket);
    for (CommScratch& s : comm_scratch_) {
      if (s.f.size() < 4 * max_bucket) s.f.resize(4 * max_bucket);
      if (s.wire.size() < wire_need) s.wire.resize(wire_need);
    }
  }
  if (ranks_ > 1)
    while (static_cast<int>(comm_pool_.size()) < cfg_.comm_threads) {
      const int tid = static_cast<int>(comm_pool_.size());
      comm_pool_.emplace_back(&Communicator::comm_loop, this, tid);
    }
}

void Communicator::overlap_begin(int rank, float* buf) {
  // The previous round is fully drained (every rank passed wait_all), so the
  // comm pool is idle and the reset below cannot race with a reduction.
  barrier();
  {
    const platform::MutexLock lock(mu_);
    overlap_bufs_[rank] = buf;
    if (rank == 0) {
      std::fill(posted_.begin(), posted_.end(), 0);
      std::fill(done_.begin(), done_.end(), static_cast<char>(0));
      next_bucket_ = 0;
    }
  }
  if (rank == 0) {
    const platform::MutexLock lock(stats_mu_);
    counters_.overlap_logical = 0;
    counters_.wire = 0;
    counters_.intra = 0;
    counters_.inter = 0;
  }
  barrier();
}

std::size_t Communicator::bucket_count() const {
  const platform::MutexLock lock(mu_);
  return buckets_.size();
}

void Communicator::post_bucket(int rank, std::size_t b) {
  const platform::MutexLock lock(mu_);
  if (b >= buckets_.size())
    throw std::out_of_range("Communicator::post_bucket: bad bucket index");
  if (ranks_ == 1) {  // nothing to reduce; the bucket completes immediately
    done_[b] = 1;
    return;
  }
  (void)rank;
  ++posted_[b];
  // notify_all: with a comm-thread pool, every idle thread must get a chance
  // to claim (a notify_one could land on a thread already mid-reduction).
  cv_post_.notify_all();
}

void Communicator::wait_bucket(int rank, std::size_t b) {
  (void)rank;
  platform::UniqueLock lk(mu_);
  if (b >= buckets_.size())
    throw std::out_of_range("Communicator::wait_bucket: bad bucket index");
  while (done_[b] == 0) cv_done_.wait(lk);
}

void Communicator::wait_all(int /*rank*/) {
  platform::UniqueLock lk(mu_);
  // Bucket-by-bucket sweep instead of an all_of predicate: done_ flags only
  // transition 0 -> 1 within a round, so waiting them out in index order is
  // equivalent to waiting for all — and keeps every guarded access in this
  // annotated function body (no predicate lambda).
  for (std::size_t b = 0; b < done_.size(); ++b)
    while (done_[b] == 0) cv_done_.wait(lk);
}

void Communicator::comm_loop(int tid) {
  platform::UniqueLock lk(mu_);
  for (;;) {
    while (!(stop_comm_ || (next_bucket_ < buckets_.size() &&
                            posted_[next_bucket_] == ranks_)))
      cv_post_.wait(lk);
    if (stop_comm_) return;
    // Buckets are claimed strictly in index order; ranks post in the same
    // order, so a fully-posted bucket b implies 0..b-1 were fully posted
    // (and therefore already claimed) before it. With comm_threads > 1,
    // several claimed buckets are reduced concurrently — they are disjoint
    // flat-vector slices, so reductions never alias.
    while (next_bucket_ < buckets_.size() &&
           posted_[next_bucket_] == ranks_) {
      const std::size_t b = next_bucket_++;
      // Snapshot the handed-off state under the lock: the bucket layout is
      // immutable during a round (set_buckets contract) and the buffer
      // registrations were ordered before every post by mu_ itself.
      const GradBucket* bk = &buckets_[b];
      const std::vector<float*> bufs = overlap_bufs_;
      lk.unlock();
      reduce_bucket(*bk, bufs, comm_scratch_[tid]);
      lk.lock();
      done_[b] = 1;
      cv_done_.notify_all();
    }
  }
}

void Communicator::reduce_bucket(const GradBucket& bk,
                                 const std::vector<float*>& bufs,
                                 CommScratch& scratch) {
  const int R = ranks_;
  // The schedule is resolved per bucket: an explicit GradBucket::algorithm
  // wins, else the communicator default; hierarchical degenerates to flat
  // on non-hierarchical topologies.
  const bool hier = hier_effective(bk.algorithm.value_or(cfg_.algorithm));
  platform::Timer tx;
  const std::size_t n = bk.elems;
  std::size_t contrib_bytes = 0, partial_bytes = 0, sum_bytes = 0;
  if (cfg_.codec == Codec::kFp32) {
    // Exact-codec fast path (mirroring the bulk path's split): fp32's
    // encode/decode are memcpys, so sum in place across the rank buffers —
    // one fused pass, no scratch traffic on the comm threads whose
    // bandwidth the overlap is supposed to leave to backward compute. The
    // canonical rank order 0..R-1 matches the generic path bit for bit, and
    // serves both schedules — flat vs hierarchical differ only in the byte
    // split and delay below, keeping fp32 bitwise schedule-independent.
    for (const GradBucket::Segment& seg : bk.segments) {
      const std::size_t lo = seg.offset, hi = seg.offset + seg.elems;
      for (std::size_t i = lo; i < hi; ++i) {
        float acc = bufs[0][i];
        for (int r = 1; r < R; ++r) acc += bufs[r][i];
        for (int r = 0; r < R; ++r) bufs[r][i] = acc;
      }
    }
    // What the wire would have carried: one exact payload per leg.
    const std::size_t payload = codec_->max_encoded_bytes(n);
    contrib_bytes = static_cast<std::size_t>(R) * payload;
    partial_bytes = static_cast<std::size_t>(nnodes_) * payload;
    sum_bytes = payload;
  } else {
    // Generic variable-rate path: gather each rank's bucket slices into a
    // contiguous payload (so per-payload codec state — a scale, a top-k
    // selection — covers the whole bucket), encode it onto the wire with
    // error feedback, accumulate decoded payloads in canonical order, and
    // scatter the decoded re-encoded sum to every rank.
    const bool ef = codec_->uses_residual();
    float* x = scratch.f.data();
    float* res = x + n;
    float* part = res + n;  // node-partial accumulator (hierarchical only)
    float* sum = part + n;
    std::uint8_t* wire = scratch.wire.data();
    if (hier) {
      // Two-level pipeline: per node, accumulate the node's contributions
      // (canonical rank order within the node), re-encode the node-partial
      // with the node's own error-feedback residual — a genuine third
      // compression point, what a real leader ring would put on the
      // inter-node wire — then accumulate the decoded partials in canonical
      // node order 0..N-1.
      const int p = rpn_;
      const int N = nnodes_;
      for (int g = 0; g < N; ++g) {
        for (int j = 0; j < p; ++j) {
          const int r = g * p + j;
          gather_bucket(bk, bufs[r], x);
          if (ef) gather_bucket(bk, residual_[r].data(), res);
          const std::size_t wb =
              codec_->encode_scratch(x, ef ? res : nullptr, n, wire,
                                     scratch.ws);
          if (ef) scatter_bucket(bk, res, residual_[r].data());
          contrib_bytes += wb;
          if (j == 0)
            codec_->decode(wire, wb, part, n);
          else
            codec_->decode_accumulate(wire, wb, part, n);
        }
        if (ef) gather_bucket(bk, node_residual_[g].data(), res);
        const std::size_t pb = codec_->encode_scratch(part, ef ? res : nullptr,
                                                      n, wire, scratch.ws);
        if (ef) scatter_bucket(bk, res, node_residual_[g].data());
        partial_bytes += pb;
        if (g == 0)
          codec_->decode(wire, pb, sum, n);
        else
          codec_->decode_accumulate(wire, pb, sum, n);
      }
    } else {
      // Flat ring: accumulate the decoded contributions into the running
      // sum in canonical rank order 0..R-1 (rank 0 decodes by overwrite).
      for (int r = 0; r < R; ++r) {
        gather_bucket(bk, bufs[r], x);
        if (ef) gather_bucket(bk, residual_[r].data(), res);
        const std::size_t wb =
            codec_->encode_scratch(x, ef ? res : nullptr, n, wire, scratch.ws);
        if (ef) scatter_bucket(bk, res, residual_[r].data());
        contrib_bytes += wb;
        if (r == 0)
          codec_->decode(wire, wb, sum, n);
        else
          codec_->decode_accumulate(wire, wb, sum, n);
      }
    }
    // Sum re-encode for the allgather/broadcast leg with its own shared
    // residual; every rank receives the same decoded payload, so replicas
    // stay in sync under either schedule.
    if (ef) gather_bucket(bk, sum_residual_.data(), res);
    sum_bytes =
        codec_->encode_scratch(sum, ef ? res : nullptr, n, wire, scratch.ws);
    if (ef) scatter_bucket(bk, res, sum_residual_.data());
    codec_->decode(wire, sum_bytes, sum, n);
    for (int r = 0; r < R; ++r) scatter_bucket(bk, sum, bufs[r]);
  }

  const WireSplit ws = split_wire(hier, contrib_bytes, partial_bytes,
                                  sum_bytes);
  {
    // One locked update for all four counters: the old per-counter relaxed
    // fetch_adds let a concurrent stats() reader land between two of them
    // and observe intra + inter != wire. The lock makes the per-level sum
    // invariant hold in every snapshot (and is uncontended off the stats
    // path: one acquisition per bucket reduction).
    const platform::MutexLock lock(stats_mu_);
    counters_.overlap_logical += ring_bytes(bk.elems, sizeof(float));
    counters_.wire += ws.total();
    counters_.intra += ws.intra_bytes;
    counters_.inter += ws.inter_bytes;
  }
  // The simulated wire waits out exactly the byte split published above.
  wait_out_wire(wire_seconds(ws), tx.seconds());
}

}  // namespace xconv::mlsl
