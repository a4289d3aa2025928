// Coverage for small utilities not exercised elsewhere: enum-to-string
// helpers and a few API edge cases.

#include <gtest/gtest.h>

#include <cmath>

#include "wt/core/early_abort.h"
#include "wt/core/orchestrator.h"
#include "wt/hw/network.h"
#include "wt/sla/sla.h"
#include "wt/store/table.h"

namespace wt {
namespace {

TEST(EnumStringsTest, RunStatusNames) {
  EXPECT_STREQ(RunStatusToString(RunStatus::kCompleted), "completed");
  EXPECT_STREQ(RunStatusToString(RunStatus::kPruned), "pruned");
  EXPECT_STREQ(RunStatusToString(RunStatus::kError), "error");
}

TEST(EnumStringsTest, AbortDecisionNames) {
  EXPECT_STREQ(AbortDecisionToString(AbortDecision::kContinue), "continue");
  EXPECT_STREQ(AbortDecisionToString(AbortDecision::kPassEarly),
               "pass-early");
  EXPECT_STREQ(AbortDecisionToString(AbortDecision::kFailEarly),
               "fail-early");
}

TEST(EnumStringsTest, SlaOpNames) {
  EXPECT_STREQ(SlaOpToString(SlaOp::kAtLeast), ">=");
  EXPECT_STREQ(SlaOpToString(SlaOp::kAtMost), "<=");
}

TEST(NetworkEdgeTest, UnreachablePathIsInfinite) {
  Simulator sim;
  DatacenterConfig cfg;
  cfg.num_racks = 1;
  cfg.nodes_per_rack = 2;
  Datacenter dc(cfg);
  Network net(&sim, &dc);
  dc.component(dc.node(1).chassis).state = ComponentState::kFailed;
  net.RefreshCapacities();
  EXPECT_TRUE(std::isinf(net.IdealTransferSeconds(0, 1, 1e9)));
  EXPECT_DOUBLE_EQ(net.NodeEgressCapacity(1), 0.0);
}

TEST(NetworkEdgeTest, BytesDeliveredAccumulates) {
  Simulator sim;
  DatacenterConfig cfg;
  cfg.num_racks = 1;
  cfg.nodes_per_rack = 3;
  Datacenter dc(cfg);
  Network net(&sim, &dc);
  net.StartFlow(0, 1, 1000.0, nullptr);
  net.StartFlow(1, 2, 2000.0, nullptr);
  sim.Run();
  EXPECT_DOUBLE_EQ(net.bytes_delivered(), 3000.0);
}

TEST(TableEdgeTest, NullsSortFirstAscending) {
  Table t(Schema({{"v", ValueType::kDouble}}));
  ASSERT_TRUE(t.AppendRow({Value(2.0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1.0)}).ok());
  auto sorted = t.SortBy("v", true);
  ASSERT_TRUE(sorted.ok());
  EXPECT_TRUE(sorted->At(0, 0).is_null());
  EXPECT_DOUBLE_EQ(sorted->At(1, 0).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(sorted->At(2, 0).AsDouble(), 2.0);
}

TEST(TableEdgeTest, AggregateSkipsNulls) {
  Table t(Schema({{"v", ValueType::kInt}}));
  ASSERT_TRUE(t.AppendRow({Value(4)}).ok());
  ASSERT_TRUE(t.AppendRow({Value()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(6)}).ok());
  auto stats = t.Aggregate("v");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->count, 2u);
  EXPECT_DOUBLE_EQ(stats->mean, 5.0);
}

TEST(DesignPointTest, ToStringIsDeterministic) {
  DesignPoint p({{"b", Value(2)}, {"a", Value("x")}});
  // Map ordering: alphabetical by dimension name.
  EXPECT_EQ(p.ToString(), "a=x, b=2");
}

TEST(AvailabilityNinesTest, PerfectAvailabilityCaps) {
  EXPECT_DOUBLE_EQ(AvailabilityToNines(1.0), 16.0);
  EXPECT_NEAR(AvailabilityToNines(0.0), 0.0, 1e-12);
}

}  // namespace
}  // namespace wt
