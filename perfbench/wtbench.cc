// wtbench: the wind tunnel's end-to-end benchmark.
//
//   wtbench --workload <fig1_mc|des_whatif|serve_mix> --seed <n>
//           --seconds <s> --trace <0|1>
//
// Workloads (why each exists is in perfbench/README.md):
//   fig1_mc     the corpus Figure-1 scenario answered repeatedly through
//               ExecuteQuery with nproc sweep workers (static Monte Carlo).
//   des_whatif  E9 limpware (perf_sim over the hw network model) and the
//               section-1 repair what-if (dynamic-availability DES with
//               monotone-hint pruning), plus a replicated copy of the
//               what-if, answered back to back.
//   serve_mix   a seeded open-loop Poisson mix of cache hits, cold misses
//               and coalesced bursts against one wt::serve::Server on an
//               AF_UNIX socket.
//
// --trace 0 measures the end-to-end metrics with every timer in the program
// off. Their times are CPU time (see CpuSeconds); wall-clock figures are
// reported with the per-layer metrics. --trace 1 splits the time into an
// untraced half and a traced half (obs metrics and spans on, RunFn timing
// on) and reports the per-layer metrics of the traced half; its outputs must
// equal the untraced half's.
// Every output is checked; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and a failed check exits 1.

#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "serve_mix.h"
#include "wt/analytics/combinatorics.h"
#include "wt/common/json.h"
#include "wt/common/string_util.h"
#include "wt/obs/obs.h"
#include "wt/obs/wallclock.h"
#include "wt/query/builtin_sims.h"
#include "wt/query/executor.h"
#include "wt/scenario/scenario.h"
#include "wt/serve/client.h"
#include "wt/serve/server.h"
#include "wt/sim/random.h"
#include "wt/store/table.h"

namespace wtbench {
namespace {

using wt::json::JsonValue;

constexpr uint64_t kDefaultSeed = 1;
// Set-up takes microseconds to milliseconds, so it is repeated on every CPU
// (see SetUpTimed).
constexpr int kSetupRepsPerCpu = 50;
// A batch phase answers at least this many rounds, however long they take.
constexpr int kMinRounds = 3;
constexpr const char* kOutDir = ".bench_out";

// ---------------------------------------------------------------- stats --

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The highest of p99, p95, p90 and p75 that has at least ten samples
/// beyond it, else the maximum. `label` names which one it is.
double Tail(std::vector<double> v, std::string* label) {
  if (v.empty()) {
    *label = "none";
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  static constexpr struct {
    double q;
    size_t min_n;
    const char* name;
  } kTiers[] = {
      {0.99, 1000, "p99"}, {0.95, 200, "p95"}, {0.90, 100, "p90"},
      {0.75, 40, "p75"}};
  for (const auto& t : kTiers) {
    if (n < t.min_n) continue;
    *label = t.name;
    return v[static_cast<size_t>(std::ceil(t.q * static_cast<double>(n))) -
             1];
  }
  *label = "max";
  return v.back();
}

/// CPU seconds a clock has counted. Every time metric of --trace 0 is CPU
/// time, not wall time: a thread's CPU clock stops while the thread waits
/// for a CPU, whether another process holds it or the hypervisor gave the
/// vCPU to another guest (the kernel subtracts steal time), so the
/// figures do not move with the load others put on a shared host.
double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

/// Samples the process's resident set every 2 ms on a thread of its own and
/// keeps the highest sample since the last TakePeakMb. The process-lifetime
/// peak (ru_maxrss) of des_whatif lands on one of several modes from 16 to
/// 22 MB, depending on which malloc arena each worker's allocations meet;
/// a round's peak is steadier, so a phase reports the median over rounds.
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  ~RssSampler() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

  /// The highest resident set seen since the last call, in MB; starts the
  /// next window at the current resident set.
  double TakePeakMb() {
    const int64_t now = ResidentBytes();
    const int64_t peak = std::max(now, peak_.exchange(now));
    return static_cast<double>(peak) / (1024.0 * 1024.0);
  }

  /// The sampler thread's own CPU seconds, which a caller subtracts from
  /// the process's CPU time.
  double CpuSeconds() {
    clockid_t clock;
    if (pthread_getcpuclockid(thread_.native_handle(), &clock) != 0) {
      return 0.0;
    }
    return wtbench::CpuSeconds(clock);
  }

 private:
  static int64_t ResidentBytes() {
    std::ifstream statm("/proc/self/statm");
    int64_t size_pages = 0, resident_pages = 0;
    statm >> size_pages >> resident_pages;
    return resident_pages * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
  }

  void Loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
      const int64_t now = ResidentBytes();
      int64_t cur = peak_.load(std::memory_order_relaxed);
      while (now > cur && !peak_.compare_exchange_weak(
                              cur, now, std::memory_order_relaxed)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<int64_t> peak_{0};
  std::thread thread_;
};

double SecondsSince(int64_t t0_ns) { return wt::obs::WallSecondsSince(t0_ns); }

double MicrosSince(int64_t t0_ns) {
  return static_cast<double>(wt::obs::WallNanos() - t0_ns) * 1e-3;
}

/// Runs `set_up` kSetupRepsPerCpu times with the calling thread pinned to
/// each CPU the process may use in turn, and sets `*setup_s` to the mean over
/// CPUs of each CPU's median of the process's CPU time per set-up. The CPUs
/// of a shared host can differ by 1.5x on this short work, and an unpinned
/// thread stays on the CPU it started on, so a plain median would read a
/// different mode from run to run. Each timed set-up is torn down untimed;
/// the one returned for the measured phases is made afterwards, unpinned,
/// so threads it starts may run on any CPU.
template <typename T>
wt::Result<T> SetUpTimed(const std::function<wt::Result<T>(int)>& set_up,
                         double* setup_s, int64_t* samples) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return wt::Status::Internal("sched_getaffinity failed");
  }
  std::vector<double> per_cpu;
  int rep = 0;
  wt::Status failure;
  for (int cpu = 0; cpu < CPU_SETSIZE && failure.ok(); ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    std::vector<double> times;
    for (int i = 0; i < kSetupRepsPerCpu; ++i) {
      const double cpu0 = ProcessCpuSeconds();
      wt::Result<T> timed = set_up(rep++);
      times.push_back(ProcessCpuSeconds() - cpu0);
      if (!timed.ok()) {
        failure = timed.status();
        break;
      }
    }
    per_cpu.push_back(Median(times));
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  if (!failure.ok()) return failure;
  *setup_s = Mean(per_cpu);
  *samples = rep;
  return set_up(rep);
}

// --------------------------------------------------------------- report --

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  int64_t samples = 0;
  std::string note;
};

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;

  bool correct() const { return failures.empty(); }

  /// A failed check is a failed operation: a wrong output or a refusal.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    failures.push_back(what);
  }
  void Add(const std::string& name, const std::string& unit, double value,
           int64_t samples = 1, std::string note = "") {
    metrics.push_back({name, unit, value, samples, std::move(note)});
  }
};

// ------------------------------------------------------------ traced run --

/// The per-layer numbers one traced phase collects besides RunFn timing.
struct LayerSamples {
  std::vector<double> load_us, resolve_us, parse_us, plan_us, sweep_us,
      postprocess_us;
  /// SweepStats sums over `stat_sweeps` sweeps.
  int64_t points = 0, pruned = 0, wavefronts = 0, stat_sweeps = 0;
  /// Sweeps the RunFn and obs counter totals cover.
  int64_t run_sweeps = 0;
  double sweep_wall_s = 0.0;  // summed sweep stage wall
  int sweep_workers = 1;
};

/// Turns on every observer for one traced phase and reads the deltas.
class TracedPhase {
 public:
  TracedPhase() {
    RunFnClock::Get().Reset();
    RunFnClock::Get().set_on(true);
    wt::obs::MetricsRegistry::Default().set_enabled(true);
    base_ = wt::obs::MetricsRegistry::Default().CaptureBaseline();
    wt::obs::TraceEmitter::Default().Start();
  }
  TracedPhase(const TracedPhase&) = delete;
  TracedPhase& operator=(const TracedPhase&) = delete;

  /// Stops observing; spans stay in memory until WriteTrace.
  void Stop() {
    wt::obs::TraceEmitter::Default().Stop();
    delta_ = wt::obs::MetricsRegistry::Default().SnapshotDelta(base_);
    wt::obs::MetricsRegistry::Default().set_enabled(false);
    RunFnClock::Get().set_on(false);
  }

  int64_t Counter(const char* name) const {
    const wt::obs::MetricsSnapshotEntry* e = delta_.Find(name);
    return e == nullptr ? 0 : e->value;
  }

 private:
  wt::obs::MetricsBaseline base_;
  wt::obs::MetricsSnapshot delta_;
};

/// Per-layer metrics shared by every workload: scenario, query, core, soft,
/// workload, sim and obs. Counts and busy time are per sweep, so they do
/// not grow with the run length. Layers a workload does not exercise read 0.
void AddLayerMetrics(const LayerSamples& s, const TracedPhase& phase,
                     double answer_traced, double answer_untraced,
                     Report* r) {
  RunFnClock& clock = RunFnClock::Get();
  const RunFnTotals st = clock.Totals(ModelLayer::kStatic);
  const RunFnTotals dy = clock.Totals(ModelLayer::kDynamic);
  const RunFnTotals pf = clock.Totals(ModelLayer::kPerf);
  const double busy_s =
      static_cast<double>(st.busy_ns + dy.busy_ns + pf.busy_ns) * 1e-9;
  const int64_t max_ns = std::max({st.max_ns, dy.max_ns, pf.max_ns});
  auto per_call_ms = [](const RunFnTotals& t) {
    return t.calls == 0 ? 0.0
                        : static_cast<double>(t.busy_ns) * 1e-6 /
                              static_cast<double>(t.calls);
  };
  auto med = [](const std::vector<double>& v) { return Median(v); };
  auto per_sweep = [](double total, int64_t sweeps) {
    return sweeps == 0 ? 0.0 : total / static_cast<double>(sweeps);
  };
  auto n = [](const std::vector<double>& v) {
    return static_cast<int64_t>(v.size());
  };

  r->Add("scenario.load_us", "us", med(s.load_us), n(s.load_us));
  r->Add("scenario.resolve_us", "us", med(s.resolve_us), n(s.resolve_us));
  r->Add("query.parse_us", "us", med(s.parse_us), n(s.parse_us));
  r->Add("query.plan_us", "us", med(s.plan_us), n(s.plan_us));
  r->Add("query.sweep_us", "us", med(s.sweep_us), n(s.sweep_us));
  r->Add("query.postprocess_us", "us", med(s.postprocess_us),
         n(s.postprocess_us));

  r->Add("core.points", "count",
         per_sweep(static_cast<double>(s.points), s.stat_sweeps),
         s.stat_sweeps);
  r->Add("core.pruned_ratio", "ratio",
         s.points + s.pruned == 0
             ? 0.0
             : static_cast<double>(s.pruned) /
                   static_cast<double>(s.points + s.pruned));
  r->Add("core.wavefronts", "count",
         per_sweep(static_cast<double>(s.wavefronts), s.stat_sweeps),
         s.stat_sweeps);
  r->Add("core.run_busy_s", "s", per_sweep(busy_s, s.run_sweeps),
         st.calls + dy.calls + pf.calls);
  r->Add("core.run_max_ms", "ms", static_cast<double>(max_ns) * 1e-6);
  r->Add("core.worker_util", "ratio",
         s.sweep_wall_s <= 0.0
             ? 0.0
             : busy_s / (s.sweep_wall_s * s.sweep_workers));

  r->Add("soft.static.run_ms", "ms", per_call_ms(st), st.calls);
  r->Add("soft.static.trials_per_s", "1/s",
         st.busy_ns == 0 ? 0.0
                         : static_cast<double>(st.trials) /
                               (static_cast<double>(st.busy_ns) * 1e-9),
         st.trials);
  r->Add("soft.dynamic.run_ms", "ms", per_call_ms(dy), dy.calls);
  r->Add("workload.perf.run_ms", "ms", per_call_ms(pf), pf.calls);
  r->Add("workload.perf.requests", "count",
         per_sweep(static_cast<double>(
                       phase.Counter("perf_sim.requests_completed")),
                   s.run_sweeps),
         s.run_sweeps);
  const int64_t events = phase.Counter("sim.events");
  const double des_s = static_cast<double>(dy.busy_ns + pf.busy_ns) * 1e-9;
  r->Add("sim.events", "count",
         per_sweep(static_cast<double>(events), s.run_sweeps), s.run_sweeps);
  r->Add("sim.events_per_s", "1/s",
         des_s <= 0.0 ? 0.0 : static_cast<double>(events) / des_s);
  r->Add("obs.trace_overhead_ratio", "ratio",
         answer_untraced <= 0.0 ? 0.0 : answer_traced / answer_untraced);
}

void AddZeroServeMetrics(Report* r) {
  for (const char* name : {"serve.hit_ratio", "serve.join_ratio",
                           "serve.sweeps_per_req"}) {
    r->Add(name, "ratio", 0.0, 0);
  }
  r->Add("serve.server_hit_us", "us", 0.0, 0);
  r->Add("serve.server_miss_ms", "ms", 0.0, 0);
  r->Add("serve.wire_us", "us", 0.0, 0);
  r->Add("serve.conn_wait_ms", "ms", 0.0, 0);
  r->Add("gen.late_ms", "ms", 0.0, 0);
  r->Add("serve.sweep_util", "ratio", 0.0, 0);
}

/// Writes the traced phase's spans (kept in memory until now).
void WriteTrace(const std::string& workload, uint64_t seed, Report* r) {
  const std::string path = wt::StrFormat(
      "%s/trace-%s-seed%llu.json", kOutDir, workload.c_str(),
      static_cast<unsigned long long>(seed));
  wt::Status st = wt::obs::TraceEmitter::Default().WriteJson(path);
  r->Check(st.ok(), "writing " + path + ": " + st.ToString());
  if (st.ok()) std::printf("trace: %s\n", path.c_str());
}

// ---------------------------------------------------------- batch runs --

/// One query of a batch workload, with the tunnel that answers it (the
/// replication count is a tunnel option, so each query owns one).
struct BatchQuery {
  std::string label;
  wt::QuerySpec spec;
  wt::WindTunnelOptions options;
  std::unique_ptr<wt::WindTunnel> tunnel;
};

wt::Result<std::unique_ptr<wt::WindTunnel>> BootTunnel(
    const wt::WindTunnelOptions& options) {
  auto tunnel = std::make_unique<wt::WindTunnel>(options);
  WT_RETURN_IF_ERROR(RegisterWrappedSimulations(tunnel.get()));
  return tunnel;
}

using BatchSetup = std::vector<BatchQuery>;

/// Loads each scenario, parses and resolves its USING SCENARIO query, boots
/// a tunnel and registers the wrapped simulations. Everything set-up costs.
wt::Result<BatchSetup> SetUpBatch(const std::vector<std::string>& refs,
                                  uint64_t seed, int workers,
                                  LayerSamples* layers) {
  BatchSetup setup;
  for (const std::string& ref : refs) {
    WT_ASSIGN_OR_RETURN(const std::string path,
                        wt::scenario::FindScenarioPath(ref));
    int64_t t0 = wt::obs::WallNanos();
    WT_ASSIGN_OR_RETURN(wt::scenario::ScenarioSpec scen,
                        wt::scenario::LoadScenarioFile(path));
    layers->load_us.push_back(MicrosSince(t0));

    t0 = wt::obs::WallNanos();
    WT_ASSIGN_OR_RETURN(wt::QuerySpec parsed,
                        wt::ParseQuery("USING SCENARIO \"" + path + "\""));
    layers->parse_us.push_back(MicrosSince(t0));
    t0 = wt::obs::WallNanos();
    WT_ASSIGN_OR_RETURN(wt::QuerySpec spec, wt::scenario::ResolveQuery(parsed));
    layers->resolve_us.push_back(MicrosSince(t0));

    wt::WindTunnelOptions options;
    options.num_workers = workers;
    options.seed = seed;
    if (scen.replications > 0) options.replications = scen.replications;
    WT_ASSIGN_OR_RETURN(std::unique_ptr<wt::WindTunnel> tunnel,
                        BootTunnel(options));
    setup.push_back(
        {scen.name, std::move(spec), options, std::move(tunnel)});
  }
  return setup;
}

/// What one batch phase measured.
struct BatchPhase {
  std::vector<double> round_s;  // wall per round / queries per round
  std::vector<double> round_cpu_s;  // CPU per round / queries per round
  std::vector<double> round_points_per_cpu_s;  // points / CPU, per round
  std::vector<double> round_rss_mb;  // peak resident set of each round
  int64_t executed = 0;
  double query_wall_s = 0.0;
  std::vector<std::string> csv;  // first round's output, per query
  std::vector<wt::Table> tables;  // first round's satisfying tables
  std::vector<wt::SweepStats> stats;
};

/// Answers every query of `setup` in rounds until `seconds` pass. Checks
/// that every round's output is byte-identical to the first. With `layers`
/// set, also times the plan and post-process stages from outside.
BatchPhase RunBatchPhase(BatchSetup* setup, double seconds,
                         LayerSamples* layers, Report* r) {
  BatchPhase phase;
  RssSampler rss;
  const int64_t start = wt::obs::WallNanos();
  for (int round = 0;
       round < kMinRounds || SecondsSince(start) < seconds; ++round) {
    rss.TakePeakMb();
    // A fresh tunnel per round, booted untimed: the store of every answer
    // is dropped before the next, so memory does not grow with the number
    // of rounds a run manages.
    for (BatchQuery& bq : *setup) {
      if (bq.tunnel != nullptr) continue;
      wt::Result<std::unique_ptr<wt::WindTunnel>> tunnel =
          BootTunnel(bq.options);
      if (!tunnel.ok()) {
        r->Check(false, bq.label + ": " + tunnel.status().ToString());
        return phase;
      }
      bq.tunnel = std::move(*tunnel);
    }
    const int64_t round_t0 = wt::obs::WallNanos();
    const double round_cpu0 = ProcessCpuSeconds() - rss.CpuSeconds();
    int64_t round_points = 0;
    for (size_t q = 0; q < setup->size(); ++q) {
      BatchQuery& bq = (*setup)[q];
      ++r->attempted;
      const int64_t t0 = wt::obs::WallNanos();
      wt::Result<wt::QueryResult> res = wt::ExecuteQuery(bq.tunnel.get(),
                                                         bq.spec);
      phase.query_wall_s += SecondsSince(t0);
      if (!res.ok()) {
        r->Check(false, bq.label + ": " + res.status().ToString());
        continue;
      }
      phase.executed += static_cast<int64_t>(res->stats.executed);
      round_points += static_cast<int64_t>(res->stats.executed);
      std::string csv = res->satisfying.ToCsv();
      if (round == 0) {
        phase.csv.push_back(csv);
        phase.stats.push_back(res->stats);
        phase.tables.push_back(res->satisfying);
      } else if (q < phase.csv.size() && csv != phase.csv[q]) {
        r->Check(false, bq.label + ": round " + std::to_string(round) +
                            " output differs from round 0");
      }
      if (layers == nullptr) continue;
      layers->sweep_us.push_back(static_cast<double>(res->profile.sweep_us));
      layers->sweep_wall_s += static_cast<double>(res->profile.sweep_us) * 1e-6;
      layers->points += static_cast<int64_t>(res->stats.executed);
      layers->pruned += static_cast<int64_t>(res->stats.pruned);
      layers->wavefronts += static_cast<int64_t>(res->stats.wavefronts);
      ++layers->stat_sweeps;
      ++layers->run_sweeps;
      // Plan and post-process, timed around the executor's own public
      // stage functions; the re-run post-process must reproduce the answer.
      int64_t ts = wt::obs::WallNanos();
      wt::Result<wt::DesignSpace> space = wt::BuildQuerySpace(bq.spec);
      layers->plan_us.push_back(MicrosSince(ts));
      auto stored = bq.tunnel->store().GetTableConst(res->sweep_table);
      if (!space.ok() || !stored.ok()) {
        r->Check(false, bq.label + ": plan or stored table missing");
        continue;
      }
      ts = wt::obs::WallNanos();
      wt::Result<wt::Table> post =
          wt::PostprocessSweepTable(**stored, bq.spec, nullptr);
      layers->postprocess_us.push_back(MicrosSince(ts));
      r->Check(post.ok() && post->ToCsv() == csv,
               bq.label + ": re-run post-process differs from the answer");
    }
    const double round_cpu =
        ProcessCpuSeconds() - rss.CpuSeconds() - round_cpu0;
    phase.round_s.push_back(SecondsSince(round_t0) /
                            static_cast<double>(setup->size()));
    phase.round_cpu_s.push_back(round_cpu /
                                static_cast<double>(setup->size()));
    phase.round_points_per_cpu_s.push_back(
        static_cast<double>(round_points) / round_cpu);
    phase.round_rss_mb.push_back(rss.TakePeakMb());
    for (BatchQuery& bq : *setup) bq.tunnel.reset();
  }
  return phase;
}

double Num(const wt::Table& t, size_t row, const char* col) {
  auto v = t.Get(row, col);
  if (!v.ok()) return std::nan("");
  auto d = v->ToNumeric();
  return d.ok() ? *d : std::nan("");
}

/// Figure 1: every point agrees with the exact combinatorics within
/// 5 sigma of its Monte Carlo estimate plus 0.02 (the absolute slack covers
/// the between-placement variance the binomial sigma leaves out).
void CheckFig1(const wt::Table& t, const wt::SweepStats& stats, Report* r) {
  r->Check(t.num_rows() == stats.total_points && t.num_rows() == 72,
           wt::StrFormat("fig1: %zu rows, expected 72", t.num_rows()));
  int bad = 0;
  for (size_t row = 0; row < t.num_rows(); ++row) {
    const int nodes = static_cast<int>(Num(t, row, "nodes"));
    const int n = static_cast<int>(Num(t, row, "replication"));
    const int f = static_cast<int>(Num(t, row, "failures"));
    const int64_t users = static_cast<int64_t>(Num(t, row, "users"));
    const double trials = Num(t, row, "mc_trials");
    const double sim = Num(t, row, "p_any_unavailable");
    const int quorum = n / 2 + 1;
    const bool rr = t.Get(row, "placement").value().AsString() == "round_robin";
    double exact = 0.0;
    if (rr) {
      auto e = wt::RoundRobinAnyUnavailable(nodes, n, quorum, f);
      if (!e.ok()) {
        ++bad;
        continue;
      }
      exact = *e;
    } else {
      exact = wt::RandomPlacementAnyUnavailable(nodes, n, quorum, f, users);
    }
    const double sigma = std::sqrt(exact * (1.0 - exact) / trials);
    if (!(std::fabs(sim - exact) <= 5.0 * sigma + 0.02)) {
      ++bad;
      std::printf("check: fig1 row %zu sim=%.6f exact=%.6f\n", row, sim,
                  exact);
    }
  }
  r->Check(bad == 0,
           wt::StrFormat("fig1: %d points off the exact column", bad));
}

/// E9: four limp factors, ordered latency percentiles, and the 100x-limped
/// NIC never has a better tail than the healthy one.
void CheckE9(const wt::Table& t, Report* r) {
  r->Check(t.num_rows() == 4, "e9: expected 4 rows");
  double p99_healthy = -1.0, p99_limped = -1.0;
  for (size_t row = 0; row < t.num_rows(); ++row) {
    const double p50 = Num(t, row, "latency_p50_ms");
    const double p95 = Num(t, row, "latency_p95_ms");
    const double p99 = Num(t, row, "latency_p99_ms");
    const double tput = Num(t, row, "throughput_per_s");
    r->Check(p50 > 0.0 && p50 <= p95 && p95 <= p99 && std::isfinite(p99) &&
                 tput > 0.0,
             wt::StrFormat("e9: row %zu latency/throughput invariants", row));
    const double limp = Num(t, row, "limp_factor");
    if (limp == 1.0) p99_healthy = p99;
    if (limp == 0.01) p99_limped = p99;
  }
  r->Check(p99_healthy > 0.0 && p99_limped >= p99_healthy,
           "e9: limped p99 below healthy p99");
}

/// The repair what-if: every kept design meets the WHERE clause, rows are
/// ordered by cost, and every point was either run or pruned.
void CheckWhatIf(const std::string& label, const wt::Table& t,
                 const wt::SweepStats& stats, Report* r) {
  r->Check(stats.total_points == 8 &&
               stats.executed + stats.pruned == stats.total_points &&
               stats.errors == 0,
           label + ": sweep accounting");
  double prev_cost = -1.0;
  for (size_t row = 0; row < t.num_rows(); ++row) {
    const double avail = Num(t, row, "availability");
    const double cost = Num(t, row, "cost_monthly_usd");
    r->Check(avail >= 0.999 && avail <= 1.0,
             label + wt::StrFormat(": row %zu availability %.6f", row, avail));
    r->Check(cost >= prev_cost, label + ": rows not ordered by cost");
    prev_cost = cost;
  }
}

std::string DigestOf(const std::vector<std::string>& csvs) {
  std::string all;
  for (const std::string& c : csvs) {
    all += c;
    all += '\x1e';
  }
  return wt::StrFormat("%016llx",
                       static_cast<unsigned long long>(wt::Fnv1a64(all)));
}

/// The committed digest of des_whatif's outputs at the default seed.
std::string CommittedDigest() {
  std::ifstream in(std::string(WTBENCH_DIR) + "/des_whatif.digest");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("seed=1 digest=", 0) == 0) return line.substr(14);
  }
  return "";
}

struct BatchWorkload {
  std::vector<std::string> refs;
  std::function<void(const BatchPhase&, Report*)> check;
};

BatchWorkload Fig1Workload() {
  return {{"fig1_unavailability"}, [](const BatchPhase& p, Report* r) {
            if (p.tables.size() == 1) CheckFig1(p.tables[0], p.stats[0], r);
          }};
}

BatchWorkload DesWorkload(uint64_t seed) {
  return {{"e9_limpware", "whatif_repair_codesign",
           std::string(WTBENCH_DIR) + "/whatif_repair_codesign_r4.json"},
          [seed](const BatchPhase& p, Report* r) {
            if (p.tables.size() != 3) return;
            CheckE9(p.tables[0], r);
            CheckWhatIf("whatif", p.tables[1], p.stats[1], r);
            CheckWhatIf("whatif_r4", p.tables[2], p.stats[2], r);
            if (seed == kDefaultSeed) {
              const std::string got = DigestOf(p.csv);
              const std::string want = CommittedDigest();
              r->Check(got == want, "des_whatif: digest " + got +
                                        " != committed " + want);
            }
          }};
}

/// The wall-clock view of a batch phase, reported with the per-layer
/// metrics: wall time moves with the shared host's load, so it is not an
/// end-to-end metric (see perfbench/README.md).
void AddBatchWallMetrics(const BatchPhase& p, Report* r) {
  const int64_t n = static_cast<int64_t>(p.round_s.size());
  std::string tail_label;
  const double tail = Tail(p.round_s, &tail_label);
  r->Add("wall.answer_s", "s", Median(p.round_s), n, "median over rounds");
  r->Add("wall.answer_tail_s", "s", tail, n, tail_label);
  r->Add("wall.points_per_s", "1/s",
         static_cast<double>(p.executed) / p.query_wall_s, p.executed);
}

void RunBatch(const std::string& name, const BatchWorkload& w, uint64_t seed,
              double seconds, bool trace, int workers, Report* r) {
  LayerSamples layers;
  layers.sweep_workers = workers;
  double setup_s = 0.0;
  int64_t setup_n = 0;
  wt::Result<BatchSetup> setup = SetUpTimed<BatchSetup>(
      [&](int) { return SetUpBatch(w.refs, seed, workers, &layers); },
      &setup_s, &setup_n);
  ++r->attempted;
  if (!setup.ok()) {
    r->Check(false, "set-up: " + setup.status().ToString());
    return;
  }

  if (!trace) {
    BatchPhase p = RunBatchPhase(&*setup, seconds, nullptr, r);
    w.check(p, r);
    const int64_t rounds = static_cast<int64_t>(p.round_cpu_s.size());
    r->Add("setup_s", "s", setup_s, setup_n,
           "CPU s, mean of per-CPU medians");
    r->Add("answer_cpu_s", "s", Median(p.round_cpu_s), rounds,
           "median over rounds of CPU s per query");
    r->Add("points_per_cpu_s", "1/s", Median(p.round_points_per_cpu_s),
           rounds, "median over rounds of points per CPU s");
    r->Add("peak_rss_mb", "MB", Median(p.round_rss_mb),
           static_cast<int64_t>(p.round_rss_mb.size()),
           "median over rounds of each round's peak");
    if (name == "des_whatif" && seed == kDefaultSeed) {
      std::printf("digest: %s\n", DigestOf(p.csv).c_str());
    }
    return;
  }

  BatchPhase untraced = RunBatchPhase(&*setup, seconds / 2, nullptr, r);
  w.check(untraced, r);
  TracedPhase observed;
  BatchPhase traced = RunBatchPhase(&*setup, seconds / 2, &layers, r);
  observed.Stop();
  r->Check(traced.csv == untraced.csv,
           name + ": traced outputs differ from untraced outputs");
  AddLayerMetrics(layers, observed, Median(traced.round_cpu_s),
                  Median(untraced.round_cpu_s), r);
  AddZeroServeMetrics(r);
  AddBatchWallMetrics(untraced, r);

  RunFnClock& clock = RunFnClock::Get();
  const RunFnTotals st = clock.Totals(ModelLayer::kStatic);
  const int64_t busy_ns = st.busy_ns +
                          clock.Totals(ModelLayer::kDynamic).busy_ns +
                          clock.Totals(ModelLayer::kPerf).busy_ns;
  if (name == "fig1_mc") {
    r->Check(st.busy_ns * 2 > busy_ns,
             "fig1_mc: static MC is not most of core.run_busy_s");
  } else {
    r->Check(observed.Counter("sim.events") > 0 && st.calls == 0,
             "des_whatif: expected DES events and no static MC runs");
  }
  WriteTrace(name, seed, r);
}

// ----------------------------------------------------------- serve_mix --

struct ServeSetup {
  std::unique_ptr<wt::WindTunnel> tunnel;
  std::unique_ptr<wt::serve::Server> server;
  std::vector<wt::serve::Client> clients;
};

wt::Result<ServeSetup> SetUpServe(int connections, int rep,
                                  LayerSamples* layers) {
  // The corpus files the catalogue's USING SCENARIO queries resolve to.
  for (const char* ref :
       {"fig1_unavailability", "whatif_repair_codesign", "e9_limpware"}) {
    WT_ASSIGN_OR_RETURN(const std::string path,
                        wt::scenario::FindScenarioPath(ref));
    const int64_t t0 = wt::obs::WallNanos();
    WT_RETURN_IF_ERROR(wt::scenario::LoadScenarioFile(path).status());
    layers->load_us.push_back(MicrosSince(t0));
  }
  ServeSetup s;
  s.tunnel = std::make_unique<wt::WindTunnel>();
  WT_RETURN_IF_ERROR(RegisterWrappedSimulations(s.tunnel.get()));
  // One sweep at a time on one worker: with the generator's connections
  // this keeps the process at or under nproc busy threads.
  wt::serve::ServerOptions opts;
  opts.num_workers = 1;
  opts.max_inflight_sweeps = 1;
  s.server = std::make_unique<wt::serve::Server>(s.tunnel.get(), opts);
  const std::string sock = wt::StrFormat(
      "%s/s%d-%d.sock", kOutDir, static_cast<int>(getpid()), rep);
  WT_RETURN_IF_ERROR(s.server->Listen(sock));
  for (int c = 0; c < connections; ++c) {
    WT_ASSIGN_OR_RETURN(wt::serve::Client client,
                        wt::serve::Client::Connect(sock));
    s.clients.push_back(std::move(client));
  }
  return s;
}

/// The answer a direct ExecuteQuery gives for `text`, on a tunnel with the
/// server's seed, replication and pruning options.
wt::Result<std::string> DirectAnswer(wt::WindTunnel* reference,
                                     const std::string& text,
                                     wt::QueryProfile* profile,
                                     wt::SweepStats* stats) {
  WT_ASSIGN_OR_RETURN(wt::QuerySpec parsed, wt::ParseQuery(text));
  WT_ASSIGN_OR_RETURN(wt::QuerySpec spec, wt::scenario::ResolveQuery(parsed));
  WT_ASSIGN_OR_RETURN(wt::QueryResult res, wt::ExecuteQuery(reference, spec));
  if (profile != nullptr) *profile = res.profile;
  if (stats != nullptr) *stats = res.stats;
  return res.satisfying.ToCsv();
}

struct ServePhase {
  std::vector<double> latency_s;  // done - due, every request
  std::vector<double> hit_us, miss_ms, wire_us, conn_wait_ms, late_ms;
  int64_t hits = 0, misses = 0, joins = 0, answered = 0;
  double miss_wall_s = 0.0;
  double wall_s = 0.0;  // first due time to last reply
  /// CPU seconds of the process while the schedule was driven, less the
  /// generator's and the memory sampler's: the server's CPU time.
  double server_cpu_s = 0.0;
  double peak_rss_mb = 0.0;  // while the schedule was driven
  /// (query text, reply payload) of sampled cold answers.
  std::vector<std::pair<std::string, std::string>> samples;
};

/// Sends one phase's schedule and checks every reply: repeats must be hits
/// byte-identical to the direct answer, a never-seen query a miss, a burst
/// one miss and the rest joins or hits, all with the same bytes. Cold
/// answers are sampled for CheckSamples.
ServePhase RunServePhase(ServeSetup* s,
                         const std::vector<std::string>& catalogue_csv,
                         const std::vector<ScheduledRequest>& schedule,
                         Report* r) {
  ServePhase p;
  std::vector<RequestOutcome> out;
  {
    RssSampler rss;
    const double cpu0 = ProcessCpuSeconds() - rss.CpuSeconds();
    double generator_cpu_s = 0.0;
    out = DriveOpenLoop(&s->clients, schedule, &generator_cpu_s);
    p.server_cpu_s =
        ProcessCpuSeconds() - rss.CpuSeconds() - cpu0 - generator_cpu_s;
    p.peak_rss_mb = rss.TakePeakMb();
  }
  if (!out.empty()) {
    int64_t last_done = out[0].done_ns;
    for (const RequestOutcome& o : out) {
      last_done = std::max(last_done, o.done_ns);
    }
    p.wall_s = static_cast<double>(last_done - out[0].due_ns) * 1e-9;
  }
  std::map<std::string, std::vector<size_t>> bursts;
  std::vector<size_t> sampled;
  int new_seen = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    const RequestOutcome& o = out[i];
    const ScheduledRequest& q = schedule[i];
    ++r->attempted;
    bool good = o.ok && o.rows == 1;
    if (q.kind == RequestKind::kRepeat) {
      good = good && o.cache == wt::serve::CacheOutcome::kHit &&
             o.payload == catalogue_csv[q.catalogue_index];
    } else if (q.kind == RequestKind::kNew) {
      good = good && o.cache == wt::serve::CacheOutcome::kMiss;
      if (new_seen++ % 8 == 0) sampled.push_back(i);
    } else {
      bursts[q.text].push_back(i);
    }
    if (!good) {
      r->Check(false, wt::StrFormat("serve_mix: request %zu (%s) %s", i,
                                    RequestKindName(q.kind),
                                    o.error.empty() ? "wrong reply"
                                                    : o.error.c_str()));
      continue;
    }
    ++p.answered;
    p.latency_s.push_back(static_cast<double>(o.done_ns - o.due_ns) * 1e-9);
    p.conn_wait_ms.push_back(
        static_cast<double>(std::max<int64_t>(0, o.taken_ns - o.due_ns)) *
        1e-6);
    p.late_ms.push_back(
        static_cast<double>(o.sent_ns - std::max(o.due_ns, o.taken_ns)) *
        1e-6);
    switch (o.cache) {
      case wt::serve::CacheOutcome::kHit:
        ++p.hits;
        p.hit_us.push_back(static_cast<double>(o.server_us));
        p.wire_us.push_back(static_cast<double>(o.done_ns - o.sent_ns) *
                                1e-3 -
                            static_cast<double>(o.server_us));
        break;
      case wt::serve::CacheOutcome::kMiss:
        ++p.misses;
        p.miss_ms.push_back(static_cast<double>(o.server_us) * 1e-3);
        p.miss_wall_s += static_cast<double>(o.server_us) * 1e-6;
        break;
      case wt::serve::CacheOutcome::kJoin:
        ++p.joins;
        break;
    }
  }
  for (const auto& [text, idx] : bursts) {
    int misses = 0;
    bool same = true;
    for (size_t i : idx) {
      misses += out[i].cache == wt::serve::CacheOutcome::kMiss ? 1 : 0;
      same = same && out[i].payload == out[idx[0]].payload;
    }
    r->Check(misses == 1 && same,
             wt::StrFormat("serve_mix: burst of %zu ran %d sweeps or "
                           "differed",
                           idx.size(), misses));
    sampled.push_back(idx[0]);
  }
  if (sampled.size() > 12) sampled.resize(12);
  for (size_t i : sampled) {
    p.samples.push_back({schedule[i].text, out[i].payload});
  }
  return p;
}

/// Byte-identity of sampled cold answers against a direct ExecuteQuery.
/// With `layers` set, records the direct sweeps' stage time and stats.
void CheckSamples(wt::WindTunnel* reference, const ServePhase& p,
                  LayerSamples* layers, Report* r) {
  for (const auto& [text, payload] : p.samples) {
    wt::QueryProfile profile;
    wt::SweepStats stats;
    wt::Result<std::string> direct =
        DirectAnswer(reference, text, &profile, &stats);
    r->Check(direct.ok() && *direct == payload,
             "serve_mix: reply differs from direct ExecuteQuery for " + text);
    if (layers == nullptr) continue;
    layers->sweep_us.push_back(static_cast<double>(profile.sweep_us));
    layers->points += static_cast<int64_t>(stats.executed);
    layers->pruned += static_cast<int64_t>(stats.pruned);
    layers->wavefronts += static_cast<int64_t>(stats.wavefronts);
    ++layers->stat_sweeps;
  }
}

/// Times the query pipeline's stages from outside, over the catalogue: the
/// same parse, resolve, plan and post-process calls the server makes.
void ProbeServeStages(ServeSetup* s, const std::vector<std::string>& catalogue,
                      const std::vector<std::string>& catalogue_csv,
                      LayerSamples* layers, Report* r) {
  for (size_t i = 0; i < catalogue.size(); ++i) {
    int64_t t0 = wt::obs::WallNanos();
    wt::Result<wt::QuerySpec> parsed = wt::ParseQuery(catalogue[i]);
    layers->parse_us.push_back(MicrosSince(t0));
    if (!parsed.ok()) continue;
    t0 = wt::obs::WallNanos();
    wt::Result<wt::QuerySpec> spec = wt::scenario::ResolveQuery(*parsed);
    layers->resolve_us.push_back(MicrosSince(t0));
    if (!spec.ok()) continue;
    t0 = wt::obs::WallNanos();
    wt::Result<wt::DesignSpace> space = wt::BuildQuerySpace(*spec);
    layers->plan_us.push_back(MicrosSince(t0));
    wt::Result<wt::serve::ServeReply> reply = s->server->Serve(catalogue[i]);
    if (!space.ok() || !reply.ok()) {
      r->Check(false, "serve_mix: stage probe failed for " + catalogue[i]);
      continue;
    }
    auto stored = s->tunnel->store().GetTableConst(reply->sweep_table);
    if (!stored.ok()) continue;
    t0 = wt::obs::WallNanos();
    wt::Result<wt::Table> post =
        wt::PostprocessSweepTable(**stored, *spec, nullptr);
    layers->postprocess_us.push_back(MicrosSince(t0));
    r->Check(post.ok() && post->ToCsv() == catalogue_csv[i],
             "serve_mix: post-process probe differs for " + catalogue[i]);
  }
}

double ServerCpuPerRequest(const ServePhase& p) {
  return p.answered == 0 ? 0.0
                         : p.server_cpu_s / static_cast<double>(p.answered);
}

/// A request may take this long at the nominal rate: five cold sweeps.
constexpr double kServeLatencyLimitS = 0.050;

/// The sweep slot's load over a phase with RunFnClock on: the server runs
/// one sweep at a time on one worker, so its RunFn busy time over the wall.
double SweepUtil(const ServePhase& p) {
  const int64_t busy_ns = RunFnClock::Get().Totals(ModelLayer::kStatic).busy_ns;
  return p.wall_s <= 0.0 ? 0.0 : static_cast<double>(busy_ns) * 1e-9 / p.wall_s;
}

/// --calibrate: offers the mix to one warm server at rates a factor sqrt(2)
/// apart from 200 arrivals/s, `seconds` each, until a rate is not
/// sustained. A rate is sustained when the p99 latency (Tail's label says
/// if fewer samples allow only a lower percentile) meets
/// kServeLatencyLimitS and the replies keep up with the arrivals within 5%
/// (no growing backlog). Prints one line per rate and the highest sustained
/// rate: the capacity ServeMixShape's nominal rate is a stated fraction of.
/// Every reply is checked as in a measured run.
void CalibrateServe(ServeSetup* s, const std::vector<std::string>& catalogue,
                    const std::vector<std::string>& catalogue_csv,
                    wt::WindTunnel* reference, uint64_t seed, double seconds,
                    Report* r) {
  ServeMixShape shape;
  double capacity = 0.0;
  int phase = 2;  // phases 0 and 1 belong to measured runs
  for (double rate = 200.0; phase < 10; rate *= std::sqrt(2.0), ++phase) {
    shape.rate_per_s = rate;
    const std::vector<ScheduledRequest> schedule =
        MakeSchedule(seed, phase, seconds, shape, catalogue);
    RunFnClock::Get().Reset();
    RunFnClock::Get().set_on(true);
    const ServePhase p = RunServePhase(s, catalogue_csv, schedule, r);
    RunFnClock::Get().set_on(false);
    CheckSamples(reference, p, nullptr, r);
    std::string label;
    const double p99 = Tail(p.latency_s, &label);
    const double offered = static_cast<double>(schedule.size()) / seconds;
    const double achieved =
        p.wall_s <= 0.0 ? 0.0 : static_cast<double>(p.answered) / p.wall_s;
    const double sweep_util = SweepUtil(p);
    const bool sustained =
        p99 <= kServeLatencyLimitS && achieved >= 0.95 * offered;
    std::printf("calibrate: rate %6.0f/s offered %7.1f/s achieved %7.1f/s "
                "p50 %8.3f ms %s %8.3f ms sweep_util %.2f misses %lld %s\n",
                rate, offered, achieved, Median(p.latency_s) * 1e3,
                label.c_str(), p99 * 1e3, sweep_util,
                static_cast<long long>(p.misses),
                sustained ? "sustained" : "NOT sustained");
    if (!sustained) break;
    capacity = rate;
  }
  std::printf("calibrate: capacity %.0f arrivals/s (limit p99 <= %.0f ms); "
              "nominal rate %.0f/s\n",
              capacity, kServeLatencyLimitS * 1e3, ServeMixShape().rate_per_s);
}

void RunServeMix(uint64_t seed, double seconds, bool trace, bool calibrate,
                 int nproc, Report* r) {
  const ServeMixShape shape;
  // A burst coalesces only when its requests go out on two connections at
  // once. One connection is used only where one CPU is all there is; no
  // join can happen there, and the traced run does not ask for one.
  const int connections =
      nproc >= 2 ? std::max(2, std::min(3, nproc - 1)) : 1;
  if (connections == 1) {
    std::printf("serve_mix: 1 CPU, 1 connection: bursts cannot coalesce, "
                "the join check is skipped\n");
  }
  LayerSamples layers;
  double setup_s = 0.0;
  int64_t setup_n = 0;
  wt::Result<ServeSetup> setup = SetUpTimed<ServeSetup>(
      [&](int rep) { return SetUpServe(connections, rep, &layers); },
      &setup_s, &setup_n);
  ++r->attempted;
  if (!setup.ok()) {
    r->Check(false, "set-up: " + setup.status().ToString());
    return;
  }

  // Warm the cache with the catalogue, checking each answer against a
  // direct ExecuteQuery. Not timed: the phases measure a warm server.
  wt::WindTunnel reference;
  wt::Status reg = wt::RegisterBuiltinSimulations(&reference);
  r->Check(reg.ok(), "reference tunnel: " + reg.ToString());
  const std::vector<std::string> catalogue = MakeCatalogue(seed, shape);
  std::vector<std::string> catalogue_csv;
  for (const std::string& text : catalogue) {
    ++r->attempted;
    wt::Result<std::string> direct =
        DirectAnswer(&reference, text, nullptr, nullptr);
    wt::Result<wt::serve::Client::Reply> reply =
        setup->clients[0].Query(text);
    const bool ok = direct.ok() && reply.ok() && reply->ok() &&
                    reply->payload == *direct;
    r->Check(ok, "serve_mix: warm-up answer differs for " + text);
    catalogue_csv.push_back(direct.ok() ? *direct : "");
  }

  if (calibrate) {
    CalibrateServe(&*setup, catalogue, catalogue_csv, &reference, seed,
                   seconds, r);
    return;
  }

  auto add_serve_e2e = [&](const ServePhase& p) {
    r->Add("setup_s", "s", setup_s, setup_n,
           "CPU s, mean of per-CPU medians");
    r->Add("answer_cpu_s", "s", ServerCpuPerRequest(p), p.answered,
           "server CPU s per answered request");
    r->Add("points_per_cpu_s", "1/s",
           p.server_cpu_s <= 0.0
               ? 0.0
               : static_cast<double>(p.misses) / p.server_cpu_s,
           p.misses, "cold-sweep points per server CPU s");
    r->Add("peak_rss_mb", "MB", p.peak_rss_mb, 1,
           "peak while the schedule was driven");
  };

  if (!trace) {
    const ServePhase p = RunServePhase(
        &*setup, catalogue_csv,
        MakeSchedule(seed, 0, seconds, shape, catalogue), r);
    CheckSamples(&reference, p, nullptr, r);
    add_serve_e2e(p);
    std::printf("serve_mix: %lld answered at %.0f arrivals/s: %lld hits, "
                "%lld misses, %lld joins\n",
                static_cast<long long>(p.answered), shape.rate_per_s,
                static_cast<long long>(p.hits),
                static_cast<long long>(p.misses),
                static_cast<long long>(p.joins));
    return;
  }

  const ServePhase untraced = RunServePhase(
      &*setup, catalogue_csv,
      MakeSchedule(seed, 0, seconds / 2, shape, catalogue), r);
  CheckSamples(&reference, untraced, nullptr, r);
  TracedPhase observed;
  const ServePhase p = RunServePhase(
      &*setup, catalogue_csv,
      MakeSchedule(seed, 1, seconds / 2, shape, catalogue), r);
  ProbeServeStages(&*setup, catalogue, catalogue_csv, &layers, r);
  observed.Stop();
  CheckSamples(&reference, p, &layers, r);

  const int64_t sweeps = observed.Counter("serve.sweeps");
  layers.run_sweeps = sweeps;
  layers.sweep_wall_s = p.miss_wall_s;
  layers.sweep_workers = 1;
  AddLayerMetrics(layers, observed, ServerCpuPerRequest(p),
                  ServerCpuPerRequest(untraced), r);
  const double answered = static_cast<double>(std::max<int64_t>(1, p.answered));
  r->Add("serve.hit_ratio", "ratio", static_cast<double>(p.hits) / answered,
         p.answered);
  r->Add("serve.join_ratio", "ratio", static_cast<double>(p.joins) / answered,
         p.answered);
  r->Add("serve.sweeps_per_req", "ratio",
         static_cast<double>(sweeps) / answered, p.answered);
  r->Add("serve.server_hit_us", "us", Median(p.hit_us),
         static_cast<int64_t>(p.hit_us.size()));
  r->Add("serve.server_miss_ms", "ms", Median(p.miss_ms),
         static_cast<int64_t>(p.miss_ms.size()));
  r->Add("serve.wire_us", "us", Median(p.wire_us),
         static_cast<int64_t>(p.wire_us.size()));
  r->Add("serve.conn_wait_ms", "ms", Mean(p.conn_wait_ms),
         static_cast<int64_t>(p.conn_wait_ms.size()), "mean");
  r->Add("gen.late_ms", "ms", Mean(p.late_ms),
         static_cast<int64_t>(p.late_ms.size()), "mean");
  r->Add("serve.sweep_util", "ratio", SweepUtil(p));
  std::string tail_label;
  const double tail = Tail(untraced.latency_s, &tail_label);
  const int64_t n_untraced = static_cast<int64_t>(untraced.latency_s.size());
  r->Add("wall.answer_s", "s", Median(untraced.latency_s), n_untraced,
         "p50 latency from due time");
  r->Add("wall.answer_tail_s", "s", tail, n_untraced,
         tail_label + " latency from due time");
  r->Add("wall.points_per_s", "1/s",
         untraced.miss_wall_s <= 0.0
             ? 0.0
             : static_cast<double>(untraced.misses) / untraced.miss_wall_s,
         untraced.misses, "cold-sweep points per second of server miss time");
  // The probe's Serve() calls are hits too; the sweeps all came from the
  // generator's misses, so they must match them.
  r->Check(p.hits > 0 && (p.joins > 0 || connections == 1) && sweeps > 0 &&
               sweeps == p.misses,
           wt::StrFormat("serve_mix: expected hits, joins and one sweep per "
                         "miss (hits=%lld joins=%lld misses=%lld sweeps=%lld)",
                         static_cast<long long>(p.hits),
                         static_cast<long long>(p.joins),
                         static_cast<long long>(p.misses),
                         static_cast<long long>(sweeps)));
  WriteTrace("serve_mix", seed, r);
}

// ----------------------------------------------------------- provenance --

/// FNV-1a over the measured tree: the library sources, the scenario corpus
/// and the benchmark itself, in path order.
std::string TreeDigest() {
  namespace fs = std::filesystem;
  const fs::path root(WTBENCH_REPO_ROOT);
  std::vector<std::string> files;
  for (const char* dir : {"src", "scenarios", "perfbench"}) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(root / dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file()) {
        files.push_back(fs::relative(it->path(), root).string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  std::string all;
  for (const std::string& f : files) {
    std::ifstream in(root / f, std::ios::binary);
    std::ostringstream body;
    body << in.rdbuf();
    all += f;
    all += '\0';
    all += body.str();
    all += '\0';
  }
  return wt::StrFormat("%016llx",
                       static_cast<unsigned long long>(wt::Fnv1a64(all)));
}

JsonValue Provenance(const wt::obs::RunManifest& m) {
  JsonValue p = JsonValue::Object();
  p.Insert("nproc", JsonValue::Int(m.hardware_threads));
  p.Insert("cpu_model", JsonValue::Str(m.cpu_model));
  p.Insert("compiler", JsonValue::Str(WTBENCH_COMPILER));
  p.Insert("build_type", JsonValue::Str(WTBENCH_BUILD_TYPE));
  p.Insert("library_build_type", JsonValue::Str(m.build_type));
  p.Insert("tree_digest", JsonValue::Str(TreeDigest()));
  p.Insert("git_commit", JsonValue::Str(m.git_commit));
  p.Insert("hostname", JsonValue::Str(m.hostname));
  return p;
}

// ----------------------------------------------------------------- main --

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool print_schedule = false;
  bool calibrate = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: wtbench --workload <fig1_mc|des_whatif|serve_mix> "
               "[--seed N] [--seconds S] [--trace 0|1] [--print-schedule] "
               "[--calibrate]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--print-schedule" || k == "--calibrate") {
      (k == "--calibrate" ? a->calibrate : a->print_schedule) = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else {
      return false;
    }
  }
  return a->workload == "fig1_mc" || a->workload == "des_whatif" ||
         a->workload == "serve_mix";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  // USING SCENARIO resolves against the repository's corpus.
  setenv("WT_SCENARIO_DIR", WTBENCH_REPO_ROOT "/scenarios", 1);

  if ((args.print_schedule || args.calibrate) &&
      args.workload != "serve_mix") {
    return Usage();
  }
  if (args.print_schedule) {
    const ServeMixShape shape;
    const std::vector<std::string> catalogue = MakeCatalogue(args.seed, shape);
    for (const ScheduledRequest& q :
         MakeSchedule(args.seed, 0, args.seconds, shape, catalogue)) {
      std::printf("%lld\t%s\t%s\n", static_cast<long long>(q.due_ns),
                  RequestKindName(q.kind), q.text.c_str());
    }
    return 0;
  }

  const wt::obs::RunManifest manifest = wt::obs::CollectRunManifest(0, "");
  if (std::string(WTBENCH_BUILD_TYPE) != "Release" ||
      manifest.build_type != "Release") {
    std::fprintf(stderr,
                 "wtbench: refusing to measure a %s build (library: %s); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 WTBENCH_BUILD_TYPE, manifest.build_type.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  wt::obs::SetThisThreadLabel("main");

  const int nproc = std::max(1, manifest.hardware_threads);
  Report r;
  // Outside every timed set-up: see CaptureBuiltinSimulations.
  const wt::Status captured = CaptureBuiltinSimulations();
  ++r.attempted;
  r.Check(captured.ok(), "built-in simulations: " + captured.ToString());
  const int64_t t0 = wt::obs::WallNanos();
  if (args.workload == "fig1_mc") {
    RunBatch(args.workload, Fig1Workload(), args.seed, args.seconds,
             args.trace, nproc, &r);
  } else if (args.workload == "des_whatif") {
    RunBatch(args.workload, DesWorkload(args.seed), args.seed, args.seconds,
             args.trace, nproc, &r);
  } else {
    RunServeMix(args.seed, args.seconds, args.trace, args.calibrate, nproc,
                &r);
  }
  const double wall = SecondsSince(t0);

  JsonValue metrics = JsonValue::Object();
  JsonValue detail = JsonValue::Object();
  for (const Metric& m : r.metrics) {
    JsonValue v = JsonValue::Object();
    v.Insert("value", JsonValue::Number(m.value));
    v.Insert("unit", JsonValue::Str(m.unit));
    metrics.Insert(m.name, v);
    v.Insert("samples", JsonValue::Int(m.samples));
    if (!m.note.empty()) v.Insert("note", JsonValue::Str(m.note));
    detail.Insert(m.name, v);
    std::printf("metric %-28s %14.6g %-6s n=%lld%s%s\n", m.name.c_str(),
                m.value, m.unit.c_str(), static_cast<long long>(m.samples),
                m.note.empty() ? "" : " ", m.note.c_str());
  }
  for (const std::string& f : r.failures) {
    std::printf("FAILED CHECK: %s\n", f.c_str());
  }

  JsonValue record = JsonValue::Object();
  record.Insert("workload", JsonValue::Str(args.workload));
  record.Insert("seed", JsonValue::Int(static_cast<int64_t>(args.seed)));
  record.Insert("seconds", JsonValue::Number(args.seconds));
  record.Insert("trace", JsonValue::Bool(args.trace));
  record.Insert("wall_s", JsonValue::Number(wall));
  const JsonValue provenance = Provenance(manifest);
  record.Insert("provenance", provenance);
  record.Insert("correct", JsonValue::Bool(r.correct()));
  record.Insert("attempted", JsonValue::Int(r.attempted));
  record.Insert("failed", JsonValue::Int(r.failed));
  JsonValue failures = JsonValue::Array();
  for (const std::string& f : r.failures) failures.Append(JsonValue::Str(f));
  record.Insert("failed_checks", failures);
  record.Insert("metrics", detail);
  const std::string path = wt::StrFormat(
      "%s/result-%s-seed%llu-trace%d.json", kOutDir, args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::ofstream(path) << record.Serialize() << "\n";
  std::printf("provenance: %s\n", provenance.Serialize().c_str());
  std::printf("record: %s\n", path.c_str());

  JsonValue result = JsonValue::Object();
  result.Insert("correct", JsonValue::Bool(r.correct()));
  result.Insert("attempted", JsonValue::Int(r.attempted));
  result.Insert("failed", JsonValue::Int(r.failed));
  result.Insert("metrics", metrics);
  std::printf("%s\n", result.Serialize().c_str());
  return r.correct() ? 0 : 1;
}

}  // namespace
}  // namespace wtbench

int main(int argc, char** argv) { return wtbench::Main(argc, argv); }
