#include "serve_mix.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "wt/common/string_util.h"
#include "wt/obs/wallclock.h"
#include "wt/sim/distributions.h"
#include "wt/sim/random.h"

namespace wtbench {

namespace {

// Never-seen queries vary `users`; catalogue queries use multiples of 500,
// so a never-seen value is any other number.
constexpr int64_t kCatalogueUsersStep = 500;

std::string StaticRoundRobin(int64_t failures, int64_t users) {
  return wt::StrFormat(
      "EXPLORE nodes IN [10], replication IN [3], "
      "placement IN ['round_robin'], failures IN [%lld], users IN [%lld] "
      "USING SCENARIO \"fig1_unavailability\"",
      static_cast<long long>(failures), static_cast<long long>(users));
}

std::string StaticSimulate(const char* placement, int64_t failures,
                           int64_t users) {
  return wt::StrFormat(
      "EXPLORE failures IN [%lld] SIMULATE static_availability WITH "
      "nodes = 10, replication = 3, placement = '%s', users = %lld, "
      "placement_samples = 4, trials = 50",
      static_cast<long long>(failures), placement,
      static_cast<long long>(users));
}

/// The k-th never-seen query of phase `phase` (0 to 9): two failed nodes,
/// `users` one of the 50 odd values from 1001 to 1099 (never a catalogue
/// multiple of kCatalogueUsersStep), and a WHERE threshold below 0.001, far
/// below the point's availability, whose digits spell the phase and k / 50.
/// The sweep cache key prints a threshold with six significant digits
/// (`%g`), so the threshold has at most five. The first 500'000 never-seen
/// queries of a phase are distinct from each other and from every other
/// phase's, and each is a cold sweep of nearly the same cost with one
/// answer row.
std::string NeverSeen(int64_t k, int phase) {
  const int64_t users = 1001 + 2 * (k % 50);
  return StaticRoundRobin(2, users) +
         wt::StrFormat(" WHERE availability >= 0.000%d%04lld", phase % 10,
                       static_cast<long long>((k / 50) % 10000));
}

int64_t Nanos() { return wt::obs::WallNanos(); }

int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void WaitUntil(int64_t due_ns) {
  // Sleep to just short of the due time, then yield-spin: a plain sleep
  // overshoots by tens of microseconds, as much as a cache hit costs.
  constexpr int64_t kSpinNs = 200'000;
  const int64_t now = Nanos();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (Nanos() < due_ns) std::this_thread::yield();
}

void ParseReplyHeader(const std::string& header, RequestOutcome* out) {
  // "ok <hit|miss|join> <rows> <wall_us>"
  const std::vector<std::string> f = wt::StrSplit(header, ' ');
  if (f.size() != 4 || f[0] != "ok") {
    out->error = "unexpected reply header '" + header + "'";
    return;
  }
  if (f[1] == "hit") {
    out->cache = wt::serve::CacheOutcome::kHit;
  } else if (f[1] == "join") {
    out->cache = wt::serve::CacheOutcome::kJoin;
  } else if (f[1] == "miss") {
    out->cache = wt::serve::CacheOutcome::kMiss;
  } else {
    out->error = "unknown cache outcome '" + f[1] + "'";
    return;
  }
  auto rows = wt::ParseInt(f[2]);
  auto wall = wt::ParseInt(f[3]);
  if (!rows.ok() || !wall.ok()) {
    out->error = "bad reply header '" + header + "'";
    return;
  }
  out->rows = *rows;
  out->server_us = *wall;
  out->ok = true;
}

}  // namespace

const char* RequestKindName(RequestKind kind) {
  switch (kind) {
    case RequestKind::kRepeat:
      return "repeat";
    case RequestKind::kNew:
      return "new";
    case RequestKind::kBurst:
      return "burst";
  }
  return "unknown";
}

std::vector<std::string> MakeCatalogue(uint64_t seed,
                                       const ServeMixShape& shape) {
  wt::RngStream rng = wt::RngStream(seed).Substream("serve_mix.catalogue");
  std::vector<std::string> out;
  for (int i = 0; i < shape.catalogue_size; ++i) {
    // The slot index fixes one parameter per template, so entries are
    // distinct; the seed draws the rest.
    const int64_t slot = 1 + i / 4;
    switch (i % 4) {
      case 0:
        out.push_back(StaticRoundRobin(rng.UniformInt(0, 5),
                                       kCatalogueUsersStep * slot));
        break;
      case 1:
        out.push_back(StaticSimulate("random", rng.UniformInt(0, 3),
                                     kCatalogueUsersStep * slot));
        break;
      case 2:
        out.push_back(wt::StrFormat(
            "EXPLORE replication IN [%lld], nic_gbps IN [%s], "
            "repair_parallel IN [%lld], years IN [%.1f] "
            "USING SCENARIO \"whatif_repair_codesign\"",
            static_cast<long long>(rng.UniformInt(2, 3)),
            rng.Bernoulli(0.5) ? "1.0" : "10.0",
            static_cast<long long>(rng.Bernoulli(0.5) ? 1 : 8),
            0.5 * static_cast<double>(slot)));
        break;
      default:
        out.push_back(wt::StrFormat(
            "EXPLORE limp_factor IN [%s], duration_s IN [%.1f], "
            "warmup_s IN [1.0] USING SCENARIO \"e9_limpware\"",
            rng.Bernoulli(0.5) ? "0.5" : "0.1",
            5.0 * static_cast<double>(slot)));
        break;
    }
  }
  return out;
}

std::vector<ScheduledRequest> MakeSchedule(
    uint64_t seed, int phase, double seconds, const ServeMixShape& shape,
    const std::vector<std::string>& catalogue) {
  wt::RngStream rng =
      wt::RngStream(seed).Substream(static_cast<uint64_t>(phase), 17);
  const wt::ZipfGenerator zipf(static_cast<int64_t>(catalogue.size()),
                               shape.zipf_s);
  // Kinds are dealt from decks of `block` arrivals that hold the shape's
  // exact counts, shuffled, so phases of one length run the same number of
  // cold sweeps give or take one deck.
  std::vector<RequestKind> deck;
  size_t dealt = 0;
  auto deal = [&]() {
    if (dealt == deck.size()) {
      const bool first = deck.empty();
      deck.assign(static_cast<size_t>(shape.block), RequestKind::kRepeat);
      for (int k = 0; k < shape.new_per_block + shape.bursts_per_block; ++k) {
        deck[static_cast<size_t>(k)] =
            k < shape.new_per_block ? RequestKind::kNew : RequestKind::kBurst;
      }
      for (size_t k = deck.size() - 1; k > 0; --k) {
        std::swap(deck[k], deck[static_cast<size_t>(rng.UniformInt(
                               0, static_cast<int64_t>(k)))]);
      }
      // A phase opens with a never-seen query and a burst, so even a short
      // phase takes all three paths through the cache.
      if (first) {
        std::swap(deck[0], *std::find(deck.begin(), deck.end(),
                                      RequestKind::kNew));
        std::swap(deck[1], *std::find(deck.begin() + 1, deck.end(),
                                      RequestKind::kBurst));
      }
      dealt = 0;
    }
    return deck[dealt++];
  };
  int64_t never_seen = 0;
  std::vector<ScheduledRequest> out;
  double t = 0.0;
  while (true) {
    t += -std::log(rng.NextDoubleOpen()) / shape.rate_per_s;
    if (t >= seconds) break;
    const int64_t due = static_cast<int64_t>(t * 1e9);
    const RequestKind kind = deal();
    if (kind == RequestKind::kNew) {
      out.push_back(
          {due, RequestKind::kNew, -1, NeverSeen(never_seen++, phase)});
    } else if (kind == RequestKind::kBurst) {
      const std::string text = NeverSeen(never_seen++, phase);
      for (int b = 0; b < shape.burst_size; ++b) {
        out.push_back({due, RequestKind::kBurst, -1, text});
      }
    } else {
      const int idx = static_cast<int>(zipf.Sample(rng));
      out.push_back({due, RequestKind::kRepeat, idx, catalogue[idx]});
    }
  }
  return out;
}

std::vector<RequestOutcome> DriveOpenLoop(
    std::vector<wt::serve::Client>* clients,
    const std::vector<ScheduledRequest>& schedule, double* generator_cpu_s) {
  std::vector<RequestOutcome> out(schedule.size());
  std::atomic<size_t> next{0};
  std::atomic<int64_t> cpu_ns{0};
  const int64_t start = Nanos() + 2'000'000;  // first due time in 2 ms
  auto generator = [&](wt::serve::Client* client) {
    const int64_t cpu0 = ThreadCpuNanos();
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= schedule.size()) break;
      RequestOutcome& o = out[i];
      o.due_ns = start + schedule[i].due_ns;
      o.taken_ns = Nanos();
      WaitUntil(o.due_ns);
      o.sent_ns = Nanos();
      wt::Result<wt::serve::Client::Reply> reply =
          client->Query(schedule[i].text);
      o.done_ns = Nanos();
      if (!reply.ok()) {
        o.error = reply.status().ToString();
        continue;
      }
      ParseReplyHeader(reply->header, &o);
      o.payload = std::move(reply->payload);
    }
    cpu_ns.fetch_add(ThreadCpuNanos() - cpu0, std::memory_order_relaxed);
  };
  std::vector<std::thread> threads;
  threads.reserve(clients->size());
  for (wt::serve::Client& c : *clients) threads.emplace_back(generator, &c);
  for (std::thread& t : threads) t.join();
  *generator_cpu_s =
      static_cast<double>(cpu_ns.load(std::memory_order_relaxed)) * 1e-9;
  return out;
}

}  // namespace wtbench
