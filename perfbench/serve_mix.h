// serve_mix: a seeded open-loop traffic mix against one wt::serve::Server.
//
// The schedule is a pure function of the seed: Poisson arrivals at a fixed
// offered rate, and per arrival one of three kinds of request sharing the
// server's sweep cache:
//   - a repeat of a catalogue query (Zipf-popular; a cache hit once warm),
//   - a never-seen query (a cold sweep that publishes to the ResultStore),
//   - a burst of one identical never-seen query sent on several
//     connections at once (one cold sweep, the rest coalesced joins).
// Every query explores exactly one design point, so a cold sweep stays in
// the tens of milliseconds and the front end (parse, resolve, cache,
// admission, wire) dominates a hit.

#ifndef WTBENCH_SERVE_MIX_H_
#define WTBENCH_SERVE_MIX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "wt/serve/client.h"
#include "wt/serve/server.h"

namespace wtbench {

enum class RequestKind { kRepeat, kNew, kBurst };

const char* RequestKindName(RequestKind kind);

struct ScheduledRequest {
  int64_t due_ns = 0;  // offset from the phase start
  RequestKind kind = RequestKind::kRepeat;
  int catalogue_index = -1;  // kRepeat only
  std::string text;
};

struct ServeMixShape {
  // Offered arrivals per second: a quarter of the mix's measured capacity.
  // On a 4-vCPU Intel Xeon VM, `wtbench --workload serve_mix --calibrate`
  // kept p99 within 50 ms up to a median of 566 arrivals/s over four runs
  // (283 to 800). At half the capacity, p99 swung by 2-4x with the shared
  // host's speed, past the benchmark's bounds; perfbench/README.md has
  // both. At this rate cold sweeps still share the CPUs with hits, and the
  // sweep slot is busy about 8% of the time.
  double rate_per_s = 140.0;
  // The request kinds' shares and the burst size are assumptions, not a
  // measured trace: an interactive what-if session mostly re-asks known
  // questions, and cold sweeps (about 10 ms each) stay a few percent of
  // requests, so p99 falls inside the cold-miss latencies. Of every `block`
  // arrivals, in a seeded order, `new_per_block` are a never-seen query,
  // `bursts_per_block` a burst and the rest repeats: 2%, 1% and 97%.
  int block = 100;
  int new_per_block = 2;
  int bursts_per_block = 1;
  int burst_size = 3;         // identical requests per burst
  int catalogue_size = 24;
  // Zipf-like popularity with an exponent below 1, as Breslau et al. found
  // for web requests ("Web Caching and Zipf-like Distributions", INFOCOM
  // 1999: 0.64 to 0.83 across their traces).
  double zipf_s = 0.8;
};

/// The catalogue of repeatable queries for `seed`.
std::vector<std::string> MakeCatalogue(uint64_t seed,
                                       const ServeMixShape& shape);

/// The request schedule of one phase. `phase`, 0 to 9, separates the
/// never-seen queries of different phases of one run, so none repeats
/// across phases.
std::vector<ScheduledRequest> MakeSchedule(
    uint64_t seed, int phase, double seconds, const ServeMixShape& shape,
    const std::vector<std::string>& catalogue);

/// What the generator observed for one request. Times are steady-clock
/// nanoseconds.
struct RequestOutcome {
  int64_t due_ns = 0;
  int64_t taken_ns = 0;  // a connection picked the request up
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool ok = false;
  wt::serve::CacheOutcome cache = wt::serve::CacheOutcome::kMiss;
  int64_t server_us = 0;  // the server's own wall_us for the request
  int64_t rows = 0;
  std::string payload;
  std::string error;
};

/// Drives `schedule` open-loop, one generator thread per connected client.
/// A due request waits for the next free connection. Returns one outcome per
/// scheduled request, in schedule order, and sets `*generator_cpu_s` to the
/// CPU seconds the generator threads spent, client side of the wire
/// included.
std::vector<RequestOutcome> DriveOpenLoop(
    std::vector<wt::serve::Client>* clients,
    const std::vector<ScheduledRequest>& schedule, double* generator_cpu_s);

}  // namespace wtbench

#endif  // WTBENCH_SERVE_MIX_H_
