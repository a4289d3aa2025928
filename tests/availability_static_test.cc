// Tests the Figure 1 Monte-Carlo estimator against the exact closed forms —
// the paper's own validation methodology (§4.3): "simple simulation models
// can be validated using analytical models".

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "wt/analytics/combinatorics.h"
#include "wt/sim/random.h"
#include "wt/soft/availability_static.h"
#include "wt/soft/storage_service.h"

namespace wt {
namespace {

StaticAvailabilityConfig FastConfig(int nodes) {
  StaticAvailabilityConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_users = 2000;  // plenty to saturate all windows
  cfg.placement_samples = 10;
  cfg.trials_per_placement = 100;
  cfg.seed = 42;
  return cfg;
}

TEST(StaticAvailabilityTest, ZeroFailuresIsAlwaysAvailable) {
  ReplicationScheme scheme = ReplicationScheme::Majority(3);
  RoundRobinPlacement rr;
  auto point = EstimateStaticUnavailability(scheme, rr, FastConfig(10), 0);
  EXPECT_DOUBLE_EQ(point.p_any_unavailable, 0.0);
  EXPECT_DOUBLE_EQ(point.mean_unavailable_fraction, 0.0);
}

TEST(StaticAvailabilityTest, AllNodesFailedIsAlwaysUnavailable) {
  ReplicationScheme scheme = ReplicationScheme::Majority(3);
  RoundRobinPlacement rr;
  auto point = EstimateStaticUnavailability(scheme, rr, FastConfig(10), 10);
  EXPECT_DOUBLE_EQ(point.p_any_unavailable, 1.0);
  EXPECT_DOUBLE_EQ(point.mean_unavailable_fraction, 1.0);
}

TEST(StaticAvailabilityTest, RoundRobinMatchesExactDp) {
  ReplicationScheme scheme = ReplicationScheme::Majority(3);
  RoundRobinPlacement rr;
  StaticAvailabilityConfig cfg = FastConfig(10);
  for (int f : {1, 2, 3, 4}) {
    auto mc = EstimateStaticUnavailability(scheme, rr, cfg, f);
    double exact = RoundRobinAnyUnavailable(10, 3, 2, f).value();
    // 1000 trials: tolerance ~4 sigma of a Bernoulli estimate.
    double sigma = std::sqrt(exact * (1 - exact) / 1000.0);
    EXPECT_NEAR(mc.p_any_unavailable, exact, 4 * sigma + 0.02)
        << "f=" << f;
  }
}

TEST(StaticAvailabilityTest, RandomMatchesClosedForm) {
  ReplicationScheme scheme = ReplicationScheme::Majority(3);
  RandomPlacement random;
  StaticAvailabilityConfig cfg = FastConfig(30);
  for (int f : {2, 3, 5}) {
    auto mc = EstimateStaticUnavailability(scheme, random, cfg, f);
    double exact = RandomPlacementAnyUnavailable(30, 3, 2, f, cfg.num_users);
    double sigma = std::sqrt(exact * (1 - exact) / 1000.0);
    EXPECT_NEAR(mc.p_any_unavailable, exact, 4 * sigma + 0.02)
        << "f=" << f;
  }
}

TEST(StaticAvailabilityTest, CurveIsMonotoneInFailures) {
  ReplicationScheme scheme = ReplicationScheme::Majority(5);
  RoundRobinPlacement rr;
  auto curve = StaticUnavailabilityCurve(scheme, rr, FastConfig(10), 6);
  ASSERT_EQ(curve.size(), 7u);
  // Allow small Monte-Carlo wiggle.
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].p_any_unavailable,
              curve[i - 1].p_any_unavailable - 0.05)
        << "f=" << i;
  }
}

TEST(StaticAvailabilityTest, HigherReplicationIsSafer) {
  RoundRobinPlacement rr;
  StaticAvailabilityConfig cfg = FastConfig(10);
  ReplicationScheme n3 = ReplicationScheme::Majority(3);
  ReplicationScheme n5 = ReplicationScheme::Majority(5);
  auto p3 = EstimateStaticUnavailability(n3, rr, cfg, 3);
  auto p5 = EstimateStaticUnavailability(n5, rr, cfg, 3);
  EXPECT_LE(p5.p_any_unavailable, p3.p_any_unavailable + 0.05);
}

TEST(StaticAvailabilityTest, DeterministicGivenSeed) {
  ReplicationScheme scheme = ReplicationScheme::Majority(3);
  RandomPlacement random;
  StaticAvailabilityConfig cfg = FastConfig(10);
  auto a = EstimateStaticUnavailability(scheme, random, cfg, 2);
  auto b = EstimateStaticUnavailability(scheme, random, cfg, 2);
  EXPECT_DOUBLE_EQ(a.p_any_unavailable, b.p_any_unavailable);
  EXPECT_DOUBLE_EQ(a.mean_unavailable_fraction, b.mean_unavailable_fraction);
}

TEST(StaticAvailabilityTest, MeanFractionBoundedByAny) {
  ReplicationScheme scheme = ReplicationScheme::Majority(3);
  RandomPlacement random;
  auto point = EstimateStaticUnavailability(scheme, random, FastConfig(10), 3);
  EXPECT_LE(point.mean_unavailable_fraction, point.p_any_unavailable);
  EXPECT_GE(point.mean_unavailable_fraction, 0.0);
}

// The kernel's per-trial answer must equal a brute-force per-object scan
// of the same layout: StorageService places with the same draws, and each
// object is judged by its live fragments and the scheme's own predicates.
TEST(NodeMajorKernelTest, MatchesPerObjectScanExactly) {
  constexpr int kNodes = 20;
  constexpr int64_t kObjects = 300;  // not a multiple of 64: tail word
  for (const char* spec :
       {"replication(3)", "replication(5)", "rs(6,3)", "lrc(6,2,2)"}) {
    auto scheme = RedundancyScheme::Create(spec).value();
    for (const char* name : {"random", "round_robin", "copyset"}) {
      SCOPED_TRACE(std::string(spec) + " / " + name);
      auto placement = PlacementPolicy::Create(name).value();
      NodeMajorKernel kernel(*scheme, kNodes, kObjects);
      RngStream kernel_rng(11);
      kernel.Build(*placement, kernel_rng);
      StorageServiceConfig sc;
      sc.num_users = kObjects;
      sc.num_nodes = kNodes;
      StorageService service(sc, scheme->Clone(), placement->Clone(),
                             RngStream(11));

      RngStream fail_rng(23);
      for (int f : {0, 1, kNodes / 2, kNodes}) {
        for (int sample = 0; sample < 8; ++sample) {
          std::vector<NodeIndex> order(kNodes);
          for (int i = 0; i < kNodes; ++i) order[static_cast<size_t>(i)] = i;
          for (int i = 0; i < f; ++i) {
            auto j = static_cast<size_t>(fail_rng.UniformInt(i, kNodes - 1));
            std::swap(order[static_cast<size_t>(i)], order[j]);
          }
          order.resize(static_cast<size_t>(f));
          std::vector<bool> up(kNodes, true);
          for (NodeIndex v : order) up[static_cast<size_t>(v)] = false;

          int64_t unavailable = 0;
          bool any_lost = false;
          for (ObjectId o = 0; o < kObjects; ++o) {
            const int live = service.UpFragments(o, up);
            if (!scheme->Available(live)) ++unavailable;
            if (!scheme->Durable(live)) any_lost = true;
          }
          const NodeMajorKernel::TrialResult r = kernel.Evaluate(order);
          EXPECT_EQ(r.unavailable, unavailable) << "f=" << f;
          EXPECT_EQ(r.any_lost, any_lost) << "f=" << f;
        }
      }
    }
  }
}

// Bit-identity golden: FNV-1a over the exact bits of every estimate. The
// kernel may change how it counts, never what it counts, so these
// constants must not move when the estimator is optimized.
std::string HexBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
  return buf;
}

void AppendPoint(const StaticAvailabilityPoint& p, std::string* out) {
  *out += HexBits(p.p_any_unavailable) + HexBits(p.mean_unavailable_fraction) +
          HexBits(p.p_any_lost) + std::to_string(p.trials) + "\n";
}

StaticAvailabilityConfig GoldenConfig(int nodes, uint64_t seed) {
  StaticAvailabilityConfig cfg;
  cfg.num_nodes = nodes;
  cfg.num_users = 2000;
  cfg.placement_samples = 3;
  cfg.trials_per_placement = 50;
  cfg.seed = seed;
  return cfg;
}

TEST(StaticAvailabilityTest, Fig1GridMatchesGolden) {
  // The 72 configurations of scenarios/fig1_unavailability.json.
  std::string fp;
  uint64_t seed = 2014;
  for (int nodes : {10, 30}) {
    for (int n : {3, 5}) {
      ReplicationScheme scheme = ReplicationScheme::Majority(n);
      for (const char* name : {"random", "round_robin"}) {
        auto placement = PlacementPolicy::Create(name).value();
        for (int f = 0; f <= 8; ++f) {
          AppendPoint(EstimateStaticUnavailability(
                          scheme, *placement, GoldenConfig(nodes, ++seed), f),
                      &fp);
        }
      }
    }
  }
  EXPECT_EQ(Fnv1a64(fp), UINT64_C(0xa2b88e11209f0c52)) << fp;
}

TEST(StaticAvailabilityTest, CodesCopysetAndLargeClusterMatchGolden) {
  struct Case {
    const char* scheme;
    const char* placement;
    int nodes;
    std::vector<int> failures;
  };
  const std::vector<Case> cases = {
      {"rs(6,3)", "random", 30, {0, 2, 4, 6, 10}},
      {"rs(6,3)", "round_robin", 10, {0, 3, 4, 7}},
      {"lrc(6,2,2)", "random", 30, {0, 3, 5, 8}},
      {"lrc(6,2,2)", "round_robin", 10, {0, 2, 3, 6}},
      {"replication(3)", "copyset", 30, {0, 2, 3, 6, 12}},
      {"replication(5)", "copyset", 30, {0, 3, 5, 9}},
      {"replication(3)", "random", 100, {0, 2, 5, 20, 100}},
  };
  std::string fp;
  uint64_t seed = 7;
  for (const Case& c : cases) {
    auto scheme = RedundancyScheme::Create(c.scheme).value();
    auto placement = PlacementPolicy::Create(c.placement).value();
    for (int f : c.failures) {
      AppendPoint(EstimateStaticUnavailability(
                      *scheme, *placement, GoldenConfig(c.nodes, ++seed), f),
                  &fp);
    }
  }
  EXPECT_EQ(Fnv1a64(fp), UINT64_C(0xb956753d1ff570f5)) << fp;
}

}  // namespace
}  // namespace wt
