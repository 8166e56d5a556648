// The Figure 3 graph pipeline: Split insertion (ENL), wiring (ENG), task
// creation + binning (PETG/UETG) and the final ETG schedules.
#include <gtest/gtest.h>

#include <cmath>

#include "gxm/graph.hpp"
#include "topo/resnet50.hpp"

using namespace xconv;
using gxm::Graph;
using gxm::GraphOptions;
using gxm::Pass;

namespace {
GraphOptions quick_opts() {
  GraphOptions o;
  o.threads = 1;
  return o;
}
const char* kDiamond = R"(
layer { name: "data" type: "Input" top: "data" minibatch: 2 channels: 16 height: 8 width: 8 classes: 4 }
layer { name: "c1" type: "Convolution" bottom: "data" top: "c1" K: 16 R: 3 }
layer { name: "c2a" type: "Convolution" bottom: "c1" top: "c2a" K: 16 R: 1 pad: 0 }
layer { name: "c2b" type: "Convolution" bottom: "c1" top: "c2b" K: 16 R: 3 }
layer { name: "add" type: "Eltwise" bottom: "c2a" bottom: "c2b" top: "add" relu: 1 }
layer { name: "pool" type: "AvgPool" bottom: "add" top: "pool" global: 1 }
layer { name: "fc" type: "InnerProduct" bottom: "pool" top: "fc" K: 4 }
layer { name: "loss" type: "SoftmaxLoss" bottom: "fc" top: "loss" }
)";
}  // namespace

TEST(GraphBuild, NlExtenderInsertsSplitForMultiConsumer) {
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  EXPECT_EQ(g.splits_inserted(), 1);  // "c1" feeds c2a and c2b
  EXPECT_NE(g.find("c1_split"), nullptr);
  EXPECT_EQ(g.find("c1_split")->type(), "Split");
}

TEST(GraphBuild, NoSplitForLinearChains) {
  Graph g(gxm::parse_topology(topo::resnet_mini_topology(1, 32, 4)),
          quick_opts());
  // resnet-mini has 2 residual junctions (pool1 and res2a reused).
  EXPECT_EQ(g.splits_inserted(), 2);
}

TEST(GraphBuild, SchedulesCoverEveryNodeOnce) {
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  EXPECT_EQ(g.fwd_schedule().size(), g.n_nodes());
  EXPECT_EQ(g.bwd_schedule().size(), g.n_nodes());
  // UPD only for parameter owners: 3 convs + 1 fc.
  EXPECT_EQ(g.upd_schedule().size(), 4u);
}

TEST(GraphBuild, FwdScheduleRespectsDependencies) {
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  auto pos = [&](const std::string& name) {
    const auto& sched = g.fwd_schedule();
    for (std::size_t i = 0; i < sched.size(); ++i)
      if (sched[i].node->name() == name) return static_cast<int>(i);
    return -1;
  };
  EXPECT_LT(pos("data"), pos("c1"));
  EXPECT_LT(pos("c1"), pos("c1_split"));
  EXPECT_LT(pos("c1_split"), pos("c2a"));
  EXPECT_LT(pos("c1_split"), pos("c2b"));
  EXPECT_LT(pos("c2a"), pos("add"));
  EXPECT_LT(pos("c2b"), pos("add"));
  EXPECT_LT(pos("fc"), pos("loss"));
}

TEST(GraphBuild, BwdScheduleIsReversedByLevel) {
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  auto pos = [&](const std::string& name) {
    const auto& sched = g.bwd_schedule();
    for (std::size_t i = 0; i < sched.size(); ++i)
      if (sched[i].node->name() == name) return static_cast<int>(i);
    return -1;
  };
  EXPECT_LT(pos("loss"), pos("fc"));
  EXPECT_LT(pos("add"), pos("c2a"));
  EXPECT_LT(pos("c2a"), pos("c1_split"));
  EXPECT_LT(pos("c1_split"), pos("c1"));
}

TEST(GraphBuild, UnknownBottomFails) {
  EXPECT_THROW(
      Graph(gxm::parse_topology(
                R"(layer { name: "d" type: "Input" top: "d" }
                   layer { name: "c" type: "Convolution" bottom: "nope"
                           top: "c" K: 16 })"),
            quick_opts()),
      std::runtime_error);
}

TEST(GraphBuild, DuplicateTopFails) {
  EXPECT_THROW(
      Graph(gxm::parse_topology(
                R"(layer { name: "a" type: "Input" top: "x" }
                   layer { name: "b" type: "Input" top: "x" })"),
            quick_opts()),
      std::runtime_error);
}

TEST(GraphBuild, MissingInputFails) {
  EXPECT_THROW(Graph(gxm::parse_topology(
                         R"(layer { name: "c" type: "Split" bottom: "c"
                                    top: "d" })"),
                     quick_opts()),
               std::runtime_error);
}

TEST(GraphRun, GradExportImportRoundTrip) {
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  g.train_step({});
  const std::size_t n = g.grad_elems();
  ASSERT_GT(n, 0u);
  std::vector<float> a(n), b(n);
  g.export_grads(a.data());
  g.import_grads(a.data());
  g.export_grads(b.data());
  EXPECT_EQ(a, b);
}

TEST(GraphRun, ParamNodesAreConvAndFc) {
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  const auto nodes = g.param_nodes();
  ASSERT_EQ(nodes.size(), 4u);
  for (auto* n : nodes)
    EXPECT_TRUE(n->type() == "Convolution" || n->type() == "InnerProduct");
}

TEST(GraphRun, HaloConflictResolvedAcrossConsumers) {
  // c1 produces a tensor needed with halo 2 by its own backward (R=3, pad=1)
  // and halo 1 by consumer c2b (pad 1) — the port must satisfy both and the
  // forward/backward numerics must survive the raised halo.
  Graph g(gxm::parse_topology(kDiamond), quick_opts());
  g.train_step({});
  EXPECT_TRUE(std::isfinite(g.loss()));
  EXPECT_GT(g.loss(), 0.0f);
}

// ETG elimination: a port's gradient is live iff it reaches a parameter.
namespace {
bool port_live(Graph& g, const std::string& node, int bottom = 0) {
  return g.find(node)->bottoms[bottom]->grad_live;
}
}  // namespace

TEST(GraphEliminate, InputFedConvSkipsDeadBwdData) {
  Graph g(gxm::parse_topology(R"(
layer { name: "data" type: "Input" top: "data" minibatch: 2 channels: 16 height: 6 width: 6 classes: 3 }
layer { name: "conv" type: "Convolution" bottom: "data" top: "conv" K: 16 R: 3 }
layer { name: "gap" type: "AvgPool" bottom: "conv" top: "gap" global: 1 }
layer { name: "fc" type: "InnerProduct" bottom: "gap" top: "fc" K: 3 }
layer { name: "loss" type: "SoftmaxLoss" bottom: "fc" top: "loss" }
)"),
          quick_opts());
  EXPECT_FALSE(port_live(g, "conv"));  // Input owns no parameters
  EXPECT_TRUE(port_live(g, "gap"));    // produced by the conv
  EXPECT_TRUE(port_live(g, "fc"));
  // The conv's task stays in the schedule: its weight gradient is needed.
  EXPECT_EQ(g.bwd_schedule().size(), g.n_nodes());
  g.train_step({});
  g.train_step({});
  const tensor::ActTensor& din = g.find("conv")->bottoms[0]->grad;
  int nonzero = 0;
  for (std::size_t i = 0; i < din.size(); ++i)
    if (din.data()[i] != 0.0f) ++nonzero;
  EXPECT_EQ(nonzero, 0);
  std::vector<float> grads(g.grad_elems());
  g.export_grads(grads.data());
  double conv_dw = 0.0;
  for (std::size_t i = 0; i < g.find("conv")->param_count(); ++i)
    conv_dw += std::abs(grads[i]);
  EXPECT_GT(conv_dw, 0.0);
}

TEST(GraphEliminate, SplitAfterInputIsDead) {
  Graph g(gxm::parse_topology(R"(
layer { name: "data" type: "Input" top: "data" minibatch: 1 channels: 16 height: 4 width: 4 classes: 2 }
layer { name: "a" type: "Convolution" bottom: "data" top: "a" K: 16 R: 1 pad: 0 }
layer { name: "b" type: "Convolution" bottom: "data" top: "b" K: 16 R: 3 }
layer { name: "add" type: "Eltwise" bottom: "a" bottom: "b" top: "add" }
layer { name: "gap" type: "AvgPool" bottom: "add" top: "gap" global: 1 }
layer { name: "fc" type: "InnerProduct" bottom: "gap" top: "fc" K: 2 }
layer { name: "loss" type: "SoftmaxLoss" bottom: "fc" top: "loss" }
)"),
          quick_opts());
  ASSERT_NE(g.find("data_split"), nullptr);
  EXPECT_FALSE(port_live(g, "data_split"));
  EXPECT_FALSE(port_live(g, "a"));
  EXPECT_FALSE(port_live(g, "b"));
  EXPECT_TRUE(port_live(g, "add", 0));
  EXPECT_TRUE(port_live(g, "add", 1));
}

TEST(GraphEliminate, ConvBnConvChainIsLive) {
  Graph g(gxm::parse_topology(R"(
layer { name: "data" type: "Input" top: "data" minibatch: 1 channels: 16 height: 4 width: 4 classes: 2 }
layer { name: "c1" type: "Convolution" bottom: "data" top: "c1" K: 16 R: 3 }
layer { name: "bn" type: "BatchNorm" bottom: "c1" top: "bn" relu: 1 }
layer { name: "c2" type: "Convolution" bottom: "bn" top: "c2" K: 16 R: 3 }
layer { name: "gap" type: "AvgPool" bottom: "c2" top: "gap" global: 1 }
layer { name: "fc" type: "InnerProduct" bottom: "gap" top: "fc" K: 2 }
layer { name: "loss" type: "SoftmaxLoss" bottom: "fc" top: "loss" }
)"),
          quick_opts());
  EXPECT_FALSE(port_live(g, "c1"));
  EXPECT_TRUE(port_live(g, "bn"));
  EXPECT_TRUE(port_live(g, "c2"));
  g.train_step({});
  // c2's bwd-data ran: BN's output gradient is not all zero.
  const tensor::ActTensor& dbn = g.find("c2")->bottoms[0]->grad;
  double mag = 0.0;
  for (std::size_t i = 0; i < dbn.size(); ++i) mag += std::abs(dbn.data()[i]);
  EXPECT_GT(mag, 0.0);
}
