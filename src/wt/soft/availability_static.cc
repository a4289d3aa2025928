#include "wt/soft/availability_static.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "wt/common/macros.h"
#include "wt/common/string_util.h"
#include "wt/obs/metrics.h"
#include "wt/obs/wallclock.h"

namespace wt {

namespace {

// Samples `f` distinct failed nodes into scratch[0, f).
void SampleFailureSet(int num_nodes, int f, RngStream& rng,
                      std::vector<NodeIndex>& scratch) {
  // Partial Fisher–Yates over the scratch identity permutation.
  scratch.resize(static_cast<size_t>(num_nodes));
  std::iota(scratch.begin(), scratch.end(), 0);
  for (int i = 0; i < f; ++i) {
    int64_t j = rng.UniformInt(i, num_nodes - 1);
    std::swap(scratch[static_cast<size_t>(i)], scratch[static_cast<size_t>(j)]);
  }
}

// Least number d of down fragments (of n) at which `holds(n - d)` is false.
// `holds` must be true with all n fragments up, false with none, and
// monotone in between, so "d or more down" is exactly where it fails.
template <typename Pred>
int FailingDownCount(int n, Pred holds, const char* what) {
  WT_CHECK(holds(n) && !holds(0))
      << what << " must hold with all " << n
      << " fragments up and fail with none";
  for (int up = 1; up <= n; ++up) {
    WT_CHECK(!holds(up - 1) || holds(up))
        << what << " is not monotone in live fragments at up=" << up;
  }
  int d = 1;
  while (holds(n - d)) ++d;
  return d;
}

}  // namespace

NodeMajorKernel::NodeMajorKernel(const RedundancyScheme& scheme,
                                 int num_nodes, int64_t num_objects)
    : num_nodes_(num_nodes),
      num_objects_(num_objects),
      num_fragments_(scheme.num_fragments()),
      d_unavail_(FailingDownCount(
          num_fragments_, [&](int up) { return scheme.Available(up); },
          "Available")),
      d_lost_(FailingDownCount(
          num_fragments_, [&](int up) { return scheme.Durable(up); },
          "Durable")),
      words_(static_cast<size_t>((num_objects + 63) / 64)) {
  WT_CHECK(num_objects >= 0);
  WT_CHECK(num_fragments_ <= num_nodes)
      << "scheme needs " << num_fragments_ << " nodes, cluster has "
      << num_nodes;
  bits_.resize(static_cast<size_t>(num_nodes) * words_);
  planes_.resize(static_cast<size_t>(std::max(d_unavail_, d_lost_)) *
                 words_);
}

void NodeMajorKernel::Build(const PlacementPolicy& placement,
                            RngStream& rng) {
  std::fill(bits_.begin(), bits_.end(), 0);
  for (int64_t o = 0; o < num_objects_; ++o) {
    placement.Place(o, num_fragments_, num_nodes_, rng, placed_);
    const size_t word = static_cast<size_t>(o / 64);
    const uint64_t bit = uint64_t{1} << (o % 64);
    for (NodeIndex v : placed_) {
      uint64_t& w = bits_[static_cast<size_t>(v) * words_ + word];
      WT_CHECK((w & bit) == 0) << "placement put two fragments of object "
                               << o << " on node " << v;
      w |= bit;
    }
  }
}

NodeMajorKernel::TrialResult NodeMajorKernel::Evaluate(
    std::span<const NodeIndex> down) {
  // Locals, not members: a store through a plane could otherwise alias
  // words_ and keep the word loops from vectorizing.
  const size_t words = words_;
  const int depth = std::max(d_unavail_, d_lost_);
  std::fill(planes_.begin(), planes_.end(), 0);
  // Saturating count per object: after folding i nodes, plane d holds the
  // objects with at least d fragments among them. Planes above i are still
  // empty, so the i-th fold starts at plane min(depth, i).
  int folded = 0;
  for (NodeIndex v : down) {
    WT_DCHECK(v >= 0 && v < num_nodes_);
    ++folded;
    const uint64_t* b = NodeBits(v);
    for (int d = std::min(depth, folded); d >= 2; --d) {
      uint64_t* hi = Plane(d);
      const uint64_t* lo = Plane(d - 1);
      for (size_t w = 0; w < words; ++w) hi[w] |= lo[w] & b[w];
    }
    uint64_t* p1 = Plane(1);
    for (size_t w = 0; w < words; ++w) p1[w] |= b[w];
  }
  TrialResult result;
  const uint64_t* unavailable = Plane(d_unavail_);
  for (size_t w = 0; w < words; ++w) {
    result.unavailable += std::popcount(unavailable[w]);
  }
  const uint64_t* lost = Plane(d_lost_);
  uint64_t any_lost = 0;
  for (size_t w = 0; w < words; ++w) any_lost |= lost[w];
  result.any_lost = any_lost != 0;
  return result;
}

StaticAvailabilityPoint EstimateStaticUnavailability(
    const RedundancyScheme& scheme, const PlacementPolicy& placement,
    const StaticAvailabilityConfig& config, int failures) {
  WT_CHECK(failures >= 0 && failures <= config.num_nodes);
  StaticAvailabilityPoint point;
  point.failures = failures;

  RngStream root(config.seed);
  int64_t hits = 0;
  int64_t loss_hits = 0;
  double unavailable_fraction_sum = 0.0;
  int64_t trials = 0;

  NodeMajorKernel kernel(scheme, config.num_nodes, config.num_users);
  // A private copy: CopysetPlacement caches its copysets in mutable state,
  // and concurrent sweeps may share `placement`.
  const std::unique_ptr<PlacementPolicy> policy = placement.Clone();
  std::vector<NodeIndex> scratch;
  const bool timed = obs::MetricsEnabled();

  for (int ps = 0; ps < config.placement_samples; ++ps) {
    // One placement layout; deterministic policies yield identical layouts
    // across samples, randomized ones are resampled.
    const int64_t build_start = timed ? obs::WallNanos() : 0;
    RngStream place_rng = root.Substream(StrFormat("placement-%d", ps));
    kernel.Build(*policy, place_rng);
    const int64_t scan_start = timed ? obs::WallNanos() : 0;

    RngStream fail_rng = root.Substream(StrFormat("failures-%d", ps));
    for (int t = 0; t < config.trials_per_placement; ++t) {
      SampleFailureSet(config.num_nodes, failures, fail_rng, scratch);
      const NodeMajorKernel::TrialResult r = kernel.Evaluate(
          std::span<const NodeIndex>(scratch).first(
              static_cast<size_t>(failures)));
      if (r.unavailable > 0) {
        ++hits;
        unavailable_fraction_sum +=
            static_cast<double>(r.unavailable) /
            static_cast<double>(config.num_users);
        // Loss implies unavailability, so only hit trials count it.
        if (r.any_lost) ++loss_hits;
      }
      ++trials;
    }
    if (timed) {
      const int64_t end = obs::WallNanos();
      obs::CountIfEnabled("mc.build.wall_ns", scan_start - build_start);
      obs::CountIfEnabled("mc.scan.wall_ns", end - scan_start);
      obs::CountIfEnabled("mc.trials", config.trials_per_placement);
    }
  }

  point.trials = trials;
  point.p_any_unavailable =
      trials > 0 ? static_cast<double>(hits) / static_cast<double>(trials)
                 : 0.0;
  point.mean_unavailable_fraction =
      trials > 0 ? unavailable_fraction_sum / static_cast<double>(trials)
                 : 0.0;
  point.p_any_lost =
      trials > 0 ? static_cast<double>(loss_hits) / static_cast<double>(trials)
                 : 0.0;
  return point;
}

std::vector<StaticAvailabilityPoint> StaticUnavailabilityCurve(
    const RedundancyScheme& scheme, const PlacementPolicy& placement,
    const StaticAvailabilityConfig& config, int max_failures) {
  std::vector<StaticAvailabilityPoint> curve;
  curve.reserve(static_cast<size_t>(max_failures + 1));
  for (int f = 0; f <= max_failures; ++f) {
    StaticAvailabilityConfig cfg = config;
    cfg.seed = config.seed + static_cast<uint64_t>(f) * 7919;
    curve.push_back(
        EstimateStaticUnavailability(scheme, placement, cfg, f));
  }
  return curve;
}

}  // namespace wt
