#include "layers.h"

#include <utility>
#include <vector>

#include "wt/obs/wallclock.h"
#include "wt/query/builtin_sims.h"

namespace wtbench {

namespace {

ModelLayer LayerOf(const std::string& simulation) {
  if (simulation == "static_availability") return ModelLayer::kStatic;
  if (simulation == "availability") return ModelLayer::kDynamic;
  // "performance" and "provisioning" both run the perf_sim queueing model.
  return ModelLayer::kPerf;
}

void UpdateMax(std::atomic<int64_t>* slot, int64_t v) {
  int64_t cur = slot->load(std::memory_order_relaxed);
  while (v > cur &&
         !slot->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

wt::RunFn Wrap(ModelLayer layer, wt::RunFn inner) {
  return [layer, inner = std::move(inner)](
             const wt::DesignPoint& point,
             wt::RngStream& rng) -> wt::Result<wt::MetricMap> {
    RunFnClock& clock = RunFnClock::Get();
    if (!clock.on()) return inner(point, rng);
    const int64_t t0 = wt::obs::WallNanos();
    wt::Result<wt::MetricMap> out = inner(point, rng);
    const int64_t ns = wt::obs::WallNanos() - t0;
    RunFnStats& s = clock.layer(layer);
    s.calls.fetch_add(1, std::memory_order_relaxed);
    s.busy_ns.fetch_add(ns, std::memory_order_relaxed);
    UpdateMax(&s.max_ns, ns);
    if (out.ok()) {
      auto it = out->find("mc_trials");
      if (it != out->end()) {
        s.trials.fetch_add(static_cast<int64_t>(it->second),
                           std::memory_order_relaxed);
      }
    }
    return out;
  };
}

}  // namespace

RunFnClock& RunFnClock::Get() {
  static RunFnClock clock;
  return clock;
}

RunFnTotals RunFnClock::Totals(ModelLayer l) const {
  const RunFnStats& s = stats_[static_cast<int>(l)];
  RunFnTotals t;
  t.calls = s.calls.load(std::memory_order_relaxed);
  t.busy_ns = s.busy_ns.load(std::memory_order_relaxed);
  t.max_ns = s.max_ns.load(std::memory_order_relaxed);
  t.trials = s.trials.load(std::memory_order_relaxed);
  return t;
}

void RunFnClock::Reset() {
  for (RunFnStats& s : stats_) {
    s.calls.store(0, std::memory_order_relaxed);
    s.busy_ns.store(0, std::memory_order_relaxed);
    s.max_ns.store(0, std::memory_order_relaxed);
    s.trials.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// The wrapped built-in simulations and the built-in model declarations.
struct Builtins {
  std::vector<std::pair<std::string, wt::RunFn>> simulations;
  std::vector<wt::ModelDecl> models;
};

const wt::Result<Builtins>& CapturedBuiltins() {
  // Registered on a scratch tunnel, so the wrapped set is exactly
  // RegisterBuiltinSimulations' set, under the same names.
  static const wt::Result<Builtins> captured = []() -> wt::Result<Builtins> {
    wt::WindTunnel scratch;
    WT_RETURN_IF_ERROR(wt::RegisterBuiltinSimulations(&scratch));
    Builtins b;
    for (const std::string& name : scratch.SimulationNames()) {
      WT_ASSIGN_OR_RETURN(wt::RunFn fn, scratch.GetSimulation(name));
      b.simulations.emplace_back(name, Wrap(LayerOf(name), std::move(fn)));
    }
    b.models = scratch.interactions().models();
    return b;
  }();
  return captured;
}

}  // namespace

wt::Status CaptureBuiltinSimulations() {
  return CapturedBuiltins().status();
}

wt::Status RegisterWrappedSimulations(wt::WindTunnel* tunnel) {
  const wt::Result<Builtins>& builtins = CapturedBuiltins();
  WT_RETURN_IF_ERROR(builtins.status());
  for (const auto& [name, fn] : builtins->simulations) {
    WT_RETURN_IF_ERROR(tunnel->RegisterSimulation(name, fn));
  }
  for (const wt::ModelDecl& decl : builtins->models) {
    WT_RETURN_IF_ERROR(tunnel->DeclareModel(decl));
  }
  return wt::Status::OK();
}

}  // namespace wtbench
