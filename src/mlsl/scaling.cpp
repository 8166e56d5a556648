#include "mlsl/scaling.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "platform/envparse.hpp"
#include "platform/timer.hpp"

namespace xconv::mlsl {

const char* sync_mode_name(SyncMode m) {
  return m == SyncMode::kOverlap ? "overlap" : "bulk";
}

MultiNodeOptions MultiNodeOptions::from_env(const MultiNodeOptions& defaults) {
  namespace env = platform::env;
  MultiNodeOptions o = defaults;
  if (const char* v = env::get("XCONV_MN_MODE")) {
    const std::string s(v);
    if (s == "overlap")
      o.mode = SyncMode::kOverlap;
    else if (s == "bulk")
      o.mode = SyncMode::kBulk;
    else
      throw std::invalid_argument("XCONV_MN_MODE must be 'bulk' or 'overlap'");
  }
  if (const char* v = env::get("XCONV_MN_BUCKET_KB"))
    o.bucket_cap_bytes =
        static_cast<std::size_t>(env::positive_long("XCONV_MN_BUCKET_KB", v)) *
        1024;
  // Every communicator-level knob (codec, topology, algorithm, wire models,
  // comm threads) parses in one place.
  o.comm = CommConfig::from_env(o.comm);
  return o;
}

MultiNodeTrainer::MultiNodeTrainer(const std::vector<gxm::NodeSpec>& topology,
                                   int nodes, const gxm::GraphOptions& opt,
                                   const MultiNodeOptions& mn)
    : nodes_(nodes), mn_(mn), comm_(nodes, mn.comm) {
  graphs_.reserve(nodes_);
  for (int r = 0; r < nodes_; ++r) {
    gxm::GraphOptions o = opt;
    o.seed = opt.seed + 1000003u * static_cast<unsigned>(r);  // distinct data
    graphs_.push_back(std::make_unique<gxm::Graph>(topology, o));
  }
  const std::size_t ge = graphs_[0]->grad_elems();
  grad_bufs_.assign(nodes_, std::vector<float>(ge, 0.0f));
  if (mn_.mode == SyncMode::kOverlap) {
    build_buckets();
    comm_.set_buckets(buckets_);
  }
}

// Pack parameter-owning layers into size-capped buckets in backward
// completion order. The layout is identical on every rank (schedules are
// deterministic per topology), so bucket b means the same layers and the
// same flat-vector slices everywhere.
void MultiNodeTrainer::build_buckets() {
  const auto& segs = graphs_[0]->bwd_param_segments();
  GradBucket cur;
  std::size_t params_seen = 0;
  for (const gxm::GradSegment& s : segs) {
    cur.segments.push_back({s.offset, s.elems});
    cur.elems += s.elems;
    ++params_seen;
    if (cur.bytes() >= mn_.bucket_cap_bytes) {
      buckets_.push_back(std::move(cur));
      bucket_last_param_.push_back(params_seen);
      cur = GradBucket{};
    }
  }
  if (cur.elems > 0) {
    buckets_.push_back(std::move(cur));
    bucket_last_param_.push_back(params_seen);
  }
}

MultiNodeStats MultiNodeTrainer::train(int iters, const gxm::Solver& solver) {
  if (iters <= 0)
    throw std::invalid_argument("MultiNodeTrainer::train: iters must be > 0");
  MultiNodeStats st;
  st.nodes = nodes_;
  st.iterations = iters;
  st.mode = sync_mode_name(mn_.mode);
  st.codec = codec_name(mn_.comm.codec);
  st.algorithm = reduce_algorithm_name(mn_.comm.algorithm);
  st.ranks_per_node = comm_.topology().ranks_per_node;
  st.topo_nodes = comm_.topology().nodes;
  st.comm_threads = mn_.comm.comm_threads;
  const std::size_t ge = graphs_[0]->grad_elems();
  const int batch = graphs_[0]->input()->tops[0]->shape.n;
  const bool overlap = mn_.mode == SyncMode::kOverlap;
  if (overlap) st.bucket_wait_seconds.assign(buckets_.size(), 0.0);
  std::vector<float*> bufs(nodes_);
  for (int r = 0; r < nodes_; ++r) bufs[r] = grad_bufs_[r].data();
  const float inv = 1.0f / static_cast<float>(nodes_);

  platform::Timer t;
  for (int it = 0; it < iters; ++it) {
    comm_.parallel([&](int rank) {
      gxm::Graph& g = *graphs_[rank];
      g.forward(true);
      double exposed_s = 0;
      if (overlap) {
        // Post buckets while deeper layers are still in backward/UPD; the
        // comm-thread pool reduces them concurrently.
        comm_.overlap_begin(rank, bufs[rank]);
        std::size_t param_idx = 0, bucket = 0;
        g.backward_compute_grads([&](gxm::Node* n) {
          g.export_node_grads(n, bufs[rank]);
          ++param_idx;
          if (bucket < buckets_.size() &&
              param_idx == bucket_last_param_[bucket]) {
            comm_.post_bucket(rank, bucket);
            ++bucket;
          }
        });
        // Early per-bucket epilogue: import and apply each bucket as it
        // completes instead of blocking once on the whole round — the
        // optimizer step of bucket b overlaps the reduction of b+1, and
        // only per-bucket wait tails are exposed.
        const auto& segs = g.bwd_param_segments();
        std::size_t seg_idx = 0;
        for (std::size_t b = 0; b < buckets_.size(); ++b) {
          platform::Timer tw;
          comm_.wait_bucket(rank, b);
          const double w = tw.seconds();
          exposed_s += w;
          if (rank == 0) st.bucket_wait_seconds[b] += w;
          for (const GradBucket::Segment& bs : buckets_[b].segments) {
            float* p = bufs[rank] + bs.offset;
            for (std::size_t i = 0; i < bs.elems; ++i) p[i] *= inv;
            g.import_node_grads(segs[seg_idx].node, bufs[rank]);
            g.apply_node_update(segs[seg_idx].node, solver);
            ++seg_idx;
          }
        }
      } else {
        // Bulk baseline: backward + UPD complete before one synchronous
        // allreduce of the entire gradient vector, then a global update
        // sweep.
        g.backward_compute_grads();
        g.export_grads(bufs[rank]);
        platform::Timer ta;
        comm_.allreduce_sum(rank, bufs, ge);
        exposed_s = ta.seconds();
        for (std::size_t i = 0; i < ge; ++i) bufs[rank][i] *= inv;
        g.import_grads(bufs[rank]);
        g.apply_updates(solver);
      }
      if (rank == 0) st.exposed_comm_seconds += exposed_s;
    });
    st.last_loss = graphs_[0]->loss();
  }
  st.seconds = t.seconds();
  st.images_per_second =
      st.seconds > 0
          ? static_cast<double>(iters) * batch * nodes_ / st.seconds
          : 0;
  const CommStats cs = comm_.stats();
  st.allreduce_bytes_per_rank = overlap ? cs.overlap_logical_bytes_per_rank
                                        : cs.bulk_logical_bytes_per_rank;
  st.wire_bytes_per_rank = cs.wire_bytes_per_rank;
  st.intra_wire_bytes_per_rank = cs.intra_wire_bytes_per_rank;
  st.inter_wire_bytes_per_rank = cs.inter_wire_bytes_per_rank;
  st.compression_ratio =
      st.wire_bytes_per_rank > 0
          ? static_cast<double>(st.allreduce_bytes_per_rank) /
                static_cast<double>(st.wire_bytes_per_rank)
          : 1.0;
  st.residual_l2 = comm_.residual_l2(0);
  st.bucket_count = overlap ? buckets_.size() : 0;
  if (overlap)
    for (const GradBucket& bk : buckets_) {
      st.bucket_bytes = std::max(st.bucket_bytes, bk.bytes());
      st.bucket_payload_bytes.push_back(bk.bytes());
    }
  st.gradient_bytes = ge * sizeof(float);
  return st;
}

}  // namespace xconv::mlsl
