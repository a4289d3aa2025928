// Per-layer timing taken from the benchmark's own code.
//
// Nothing here reaches inside src/: every number is measured around a call
// into a layer's public function. The built-in simulations are registered
// wrapped under their usual names, so the sweep scheduler (core) calls the
// wrapper, and the wrapper times the model layer it forwards to (soft for
// the availability models, workload for the performance models).

#ifndef WTBENCH_LAYERS_H_
#define WTBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "wt/common/status.h"
#include "wt/core/wind_tunnel.h"

namespace wtbench {

/// Model layer a built-in simulation belongs to.
enum class ModelLayer { kStatic, kDynamic, kPerf, kCount };

/// Busy-time accounting for the RunFn calls of one model layer.
struct RunFnStats {
  std::atomic<int64_t> calls{0};
  std::atomic<int64_t> busy_ns{0};
  std::atomic<int64_t> max_ns{0};
  /// Monte Carlo trials reported by the static model (`mc_trials`).
  std::atomic<int64_t> trials{0};
};

/// Snapshot of one layer's counters, as plain numbers.
struct RunFnTotals {
  int64_t calls = 0;
  int64_t busy_ns = 0;
  int64_t max_ns = 0;
  int64_t trials = 0;
};

/// Process-wide RunFn accounting. Off by default: a wrapped RunFn then costs
/// one relaxed load over the call it forwards.
class RunFnClock {
 public:
  static RunFnClock& Get();

  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool on() const { return on_.load(std::memory_order_relaxed); }

  RunFnStats& layer(ModelLayer l) { return stats_[static_cast<int>(l)]; }
  RunFnTotals Totals(ModelLayer l) const;
  void Reset();

 private:
  std::atomic<bool> on_{false};
  RunFnStats stats_[static_cast<int>(ModelLayer::kCount)];
};

/// Takes the built-in simulations and model declarations from one scratch
/// tunnel, once per process. Call it before timing any set-up, so a timed
/// RegisterWrappedSimulations pays only for what the program's own
/// RegisterBuiltinSimulations does to a tunnel.
[[nodiscard]] wt::Status CaptureBuiltinSimulations();

/// Registers every built-in simulation on `tunnel` under its usual name,
/// wrapped so RunFnClock times each call, and declares the built-in models'
/// interactions, so the tunnel matches one RegisterBuiltinSimulations makes.
[[nodiscard]] wt::Status RegisterWrappedSimulations(wt::WindTunnel* tunnel);

}  // namespace wtbench

#endif  // WTBENCH_LAYERS_H_
