// Static availability estimation — the Figure 1 experiment.
//
// "Figure 1 shows the probability of having at least one customer's data
// become unavailable as the number of node failures in the cluster
// increases, for varying cluster sizes, data placement algorithms and
// replication factors." (§4.6)
//
// Given f failed nodes sampled uniformly from N, estimate
//   P(at least one of U users cannot reach a quorum of its replicas)
// by Monte Carlo over (placement, failure-set) samples. The exact values
// for Random and RoundRobin placement are available in
// wt/analytics/combinatorics.h and are used to validate this estimator.
//
// Each trial is answered by NodeMajorKernel (DESIGN.md §4): a placement
// sample is laid out as one object bitset per node, and a failure set is
// counted by folding the down nodes' bitsets into "at least d fragments
// down" planes — word loops over ceil(U/64) words, not a scan of U objects.

#ifndef WT_SOFT_AVAILABILITY_STATIC_H_
#define WT_SOFT_AVAILABILITY_STATIC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "wt/soft/placement.h"
#include "wt/soft/redundancy.h"

namespace wt {

/// Monte-Carlo parameters for the static (snapshot) availability estimate.
struct StaticAvailabilityConfig {
  int num_nodes = 10;
  int64_t num_users = 10000;
  /// Placement layouts sampled (matters for randomized policies).
  int placement_samples = 20;
  /// Failure sets sampled per placement layout.
  int trials_per_placement = 100;
  uint64_t seed = 1;
};

/// Result of one (config, f) estimate.
struct StaticAvailabilityPoint {
  int failures = 0;
  /// P(>= 1 user unavailable).
  double p_any_unavailable = 0.0;
  /// E[fraction of users unavailable].
  double mean_unavailable_fraction = 0.0;
  /// P(>= 1 user's data entirely lost) — the durability analogue; for
  /// n-way replication this is "all n replicas among the failed nodes".
  double p_any_lost = 0.0;
  int64_t trials = 0;
};

/// One placement sample of `num_objects` objects under `scheme`, laid out
/// node-major: bit o of node v's bitset is set iff object o has a fragment
/// on v. Evaluate() answers one failure set exactly as a per-object scan
/// of live fragments against the scheme's Available/Durable would.
class NodeMajorKernel {
 public:
  /// Unavailable and lost objects under one failure set.
  struct TrialResult {
    int64_t unavailable = 0;
    bool any_lost = false;
  };

  /// Derives the thresholds d_unavail (least number of down fragments at
  /// which an object is unavailable) and d_lost (same for durability)
  /// from `scheme`; both predicates must be monotone in live fragments.
  NodeMajorKernel(const RedundancyScheme& scheme, int num_nodes,
                  int64_t num_objects);

  /// Places objects 0..num_objects-1 in order, one Place call each — the
  /// same draws StorageService's constructor makes — and rebuilds the
  /// bitsets. Allocation-free after the first call.
  void Build(const PlacementPolicy& placement, RngStream& rng);

  /// Counts the objects made unavailable by the distinct nodes `down`.
  TrialResult Evaluate(std::span<const NodeIndex> down);

 private:
  const uint64_t* NodeBits(NodeIndex v) const {
    return bits_.data() + static_cast<size_t>(v) * words_;
  }
  uint64_t* Plane(int d) {
    return planes_.data() + static_cast<size_t>(d - 1) * words_;
  }

  int num_nodes_;
  int64_t num_objects_;
  int num_fragments_;
  int d_unavail_;
  int d_lost_;
  size_t words_;
  // num_nodes_ x words_: the object bitset of each node.
  std::vector<uint64_t> bits_;
  // max(d_unavail_, d_lost_) x words_: plane d-1 holds the objects with at
  // least d fragments on down nodes.
  std::vector<uint64_t> planes_;
  std::vector<NodeIndex> placed_;
};

/// Estimates P(>=1 user unavailable) and the mean unavailable fraction for
/// exactly `failures` failed nodes.
StaticAvailabilityPoint EstimateStaticUnavailability(
    const RedundancyScheme& scheme, const PlacementPolicy& placement,
    const StaticAvailabilityConfig& config, int failures);

/// Sweeps failures = 0..max_failures (inclusive) — one Figure 1 curve.
std::vector<StaticAvailabilityPoint> StaticUnavailabilityCurve(
    const RedundancyScheme& scheme, const PlacementPolicy& placement,
    const StaticAvailabilityConfig& config, int max_failures);

}  // namespace wt

#endif  // WT_SOFT_AVAILABILITY_STATIC_H_
