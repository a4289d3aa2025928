// Tests for the max-min fair flow network model.

#include <gtest/gtest.h>

#include <vector>

#include "wt/hw/network.h"

namespace wt {
namespace {

struct NetFixture {
  Simulator sim;
  Datacenter dc;
  Network net;

  explicit NetFixture(int racks = 2, int nodes_per_rack = 2,
                      double nic_gbps = 1.0, double uplink_gbps = 40.0)
      : dc(MakeConfig(racks, nodes_per_rack, nic_gbps, uplink_gbps)),
        net(&sim, &dc) {}

  static DatacenterConfig MakeConfig(int racks, int npr, double nic,
                                     double uplink) {
    DatacenterConfig cfg;
    cfg.num_racks = racks;
    cfg.nodes_per_rack = npr;
    cfg.node.nic.bandwidth_gbps = nic;
    cfg.tor_uplink_gbps = uplink;
    return cfg;
  }
};

TEST(NetworkTest, SingleFlowRunsAtNicSpeed) {
  NetFixture f;
  // 1 Gbps = 125 MB/s; transfer 125 MB in ~1 s.
  double bytes = 125e6;
  double done_at = -1;
  f.net.StartFlow(0, 1, bytes,
                  [&](FlowId, SimTime t) { done_at = t.seconds(); });
  f.sim.Run();
  EXPECT_NEAR(done_at, 1.0, 1e-6);
  EXPECT_DOUBLE_EQ(f.net.bytes_delivered(), bytes);
}

TEST(NetworkTest, TwoFlowsShareIngressFairly) {
  NetFixture f;
  // Both flows target node 1: its ingress link (125 MB/s) is the
  // bottleneck; each flow gets half.
  double bytes = 125e6;
  std::vector<double> done;
  f.net.StartFlow(0, 1, bytes, [&](FlowId, SimTime t) {
    done.push_back(t.seconds());
  });
  f.net.StartFlow(2, 1, bytes, [&](FlowId, SimTime t) {
    done.push_back(t.seconds());
  });
  f.sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-6);
  EXPECT_NEAR(done[1], 2.0, 1e-6);
}

TEST(NetworkTest, DisjointFlowsDontInterfere) {
  NetFixture f(2, 2);
  double bytes = 125e6;
  std::vector<double> done;
  f.net.StartFlow(0, 1, bytes, [&](FlowId, SimTime t) {
    done.push_back(t.seconds());
  });
  f.net.StartFlow(2, 3, bytes, [&](FlowId, SimTime t) {
    done.push_back(t.seconds());
  });
  f.sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.0, 1e-6);
  EXPECT_NEAR(done[1], 1.0, 1e-6);
}

TEST(NetworkTest, RateFreedWhenFlowFinishes) {
  NetFixture f;
  // Flow A: 125 MB, flow B: 250 MB, both into node 1. They share for the
  // first 2 s (A finishes: 125 MB at 62.5 MB/s), then B runs alone and
  // finishes its remaining 125 MB in 1 s. Total 3 s.
  std::vector<double> done;
  f.net.StartFlow(0, 1, 125e6, [&](FlowId, SimTime t) {
    done.push_back(t.seconds());
  });
  f.net.StartFlow(2, 1, 250e6, [&](FlowId, SimTime t) {
    done.push_back(t.seconds());
  });
  f.sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-6);
  EXPECT_NEAR(done[1], 3.0, 1e-6);
}

TEST(NetworkTest, NarrowUplinkBottlenecksCrossRackFlows) {
  // Uplink 1 Gbps shared by two cross-rack flows with 10 Gbps NICs.
  NetFixture f(2, 2, /*nic_gbps=*/10.0, /*uplink_gbps=*/1.0);
  std::vector<double> done;
  double bytes = 125e6;  // 1 s at full 1 Gbps
  f.net.StartFlow(0, 2, bytes, [&](FlowId, SimTime t) {
    done.push_back(t.seconds());
  });
  f.net.StartFlow(1, 3, bytes, [&](FlowId, SimTime t) {
    done.push_back(t.seconds());
  });
  f.sim.Run();
  ASSERT_EQ(done.size(), 2u);
  // Both share the rack-0 uplink: 2 s each.
  EXPECT_NEAR(done[0], 2.0, 1e-6);
  EXPECT_NEAR(done[1], 2.0, 1e-6);
}

TEST(NetworkTest, LocalCopyIsImmediate) {
  NetFixture f;
  double done_at = -1;
  f.net.StartFlow(1, 1, 1e12, [&](FlowId, SimTime t) {
    done_at = t.seconds();
  });
  f.sim.Run();
  EXPECT_LT(done_at, 0.001);
}

TEST(NetworkTest, CancelledFlowNeverCompletes) {
  NetFixture f;
  bool completed = false;
  FlowId id = f.net.StartFlow(0, 1, 125e6,
                              [&](FlowId, SimTime) { completed = true; });
  f.net.CancelFlow(id);
  f.sim.Run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(f.net.active_flow_count(), 0u);
}

TEST(NetworkTest, LimpingNicThrottlesFlow) {
  NetFixture f;
  f.dc.component(f.dc.node(1).nic).perf_factor = 0.1;  // node 1 NIC at 10%
  f.net.RefreshCapacities();
  double done_at = -1;
  f.net.StartFlow(0, 1, 125e6,
                  [&](FlowId, SimTime t) { done_at = t.seconds(); });
  f.sim.Run();
  EXPECT_NEAR(done_at, 10.0, 1e-6);
}

TEST(NetworkTest, MidFlightDegradeSlowsRemainder) {
  NetFixture f;
  double done_at = -1;
  f.net.StartFlow(0, 1, 125e6,
                  [&](FlowId, SimTime t) { done_at = t.seconds(); });
  // After 0.5 s (half transferred), degrade the source NIC to 50%.
  f.sim.Schedule(SimTime::Seconds(0.5), [&] {
    f.dc.component(f.dc.node(0).nic).perf_factor = 0.5;
    f.net.RefreshCapacities();
  });
  f.sim.Run();
  // Remaining 62.5 MB at 62.5 MB/s = 1 s; total 1.5 s.
  EXPECT_NEAR(done_at, 1.5, 1e-6);
}

TEST(NetworkTest, SwitchDegradationAffectsWholeRack) {
  Simulator sim;
  DatacenterConfig cfg;
  cfg.num_racks = 2;
  cfg.nodes_per_rack = 2;
  Datacenter dc(cfg);
  Network net(&sim, &dc);
  double before = net.NodeEgressCapacity(0);
  dc.component(dc.rack(0).tor).perf_factor = 0.5;
  net.RefreshCapacities();
  EXPECT_DOUBLE_EQ(net.NodeEgressCapacity(0), before * 0.5);
  EXPECT_DOUBLE_EQ(net.NodeEgressCapacity(1), before * 0.5);
  // Other rack untouched.
  EXPECT_DOUBLE_EQ(net.NodeEgressCapacity(2), before);
}

TEST(NetworkTest, FailedNodeStallsFlowUntilRepair) {
  NetFixture f;
  double done_at = -1;
  f.net.StartFlow(0, 1, 125e6,
                  [&](FlowId, SimTime t) { done_at = t.seconds(); });
  f.sim.Schedule(SimTime::Seconds(0.5), [&] {
    f.dc.component(f.dc.node(1).chassis).state = ComponentState::kFailed;
    f.net.RefreshCapacities();
  });
  f.sim.Schedule(SimTime::Seconds(10.0), [&] {
    f.dc.component(f.dc.node(1).chassis).state = ComponentState::kOperational;
    f.net.RefreshCapacities();
  });
  f.sim.Run();
  // 0.5 s of progress, 9.5 s stalled, then 0.5 s to finish.
  EXPECT_NEAR(done_at, 10.5, 1e-6);
}

TEST(NetworkTest, IdealTransferSecondsUsesBottleneck) {
  NetFixture f(2, 2, /*nic_gbps=*/10.0, /*uplink_gbps=*/1.0);
  double same_rack = f.net.IdealTransferSeconds(0, 1, 125e6);
  double cross_rack = f.net.IdealTransferSeconds(0, 2, 125e6);
  EXPECT_NEAR(same_rack, 0.1, 1e-9);  // 10 Gbps NIC
  EXPECT_NEAR(cross_rack, 1.0, 1e-9); // 1 Gbps uplink
}

TEST(NetworkTest, CompletionCallbackCanStartNewFlow) {
  NetFixture f;
  double second_done = -1;
  f.net.StartFlow(0, 1, 125e6, [&](FlowId, SimTime) {
    f.net.StartFlow(1, 0, 125e6, [&](FlowId, SimTime t2) {
      second_done = t2.seconds();
    });
  });
  f.sim.Run();
  EXPECT_NEAR(second_done, 2.0, 1e-6);
}

}  // namespace
}  // namespace wt
