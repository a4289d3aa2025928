// wt::serve — sweep cache, single-flight admission, wire protocol, and the
// golden property: a served answer is byte-identical to the cold executor
// path for the same (query, seed) (DESIGN.md §8).

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "wt/obs/metrics.h"
#include "wt/query/executor.h"
#include "wt/serve/admission_queue.h"
#include "wt/serve/client.h"
#include "wt/serve/server.h"
#include "wt/serve/sweep_cache.h"
#include "wt/serve/wire.h"

namespace wt {
namespace serve {
namespace {

// Deterministic toy simulation: metrics depend only on the design point and
// the per-run RngStream, so repeated sweeps with one seed agree bit-for-bit.
RunFn ToyScore() {
  return [](const DesignPoint& p, RngStream& rng) -> Result<MetricMap> {
    const double nodes = static_cast<double>(p.GetInt("nodes", 0));
    const double repl = static_cast<double>(p.GetInt("replication", 1));
    double noise = 0.0;
    for (int i = 0; i < 4; ++i) noise += rng.NextDoubleOpen();
    return MetricMap{{"score", nodes * repl + noise}, {"cost", nodes * 3.0}};
  };
}

constexpr char kToyQuery[] =
    "EXPLORE nodes IN [2, 4, 8], replication IN [1, 2] "
    "SIMULATE toy_score ORDER BY score DESC";

// A manual gate simulations can block on, so tests control exactly when an
// in-flight sweep completes. (Tests are outside the wtlint no-sleep rules.)
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> calls{0};

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
};

// Gated variant of ToyScore: counts invocations and blocks until released.
RunFn GatedScore(std::shared_ptr<Gate> gate) {
  RunFn inner = ToyScore();
  return [gate, inner](const DesignPoint& p,
                       RngStream& rng) -> Result<MetricMap> {
    gate->calls.fetch_add(1);
    gate->Wait();
    return inner(p, rng);
  };
}

std::unique_ptr<WindTunnel> ToyTunnel(uint64_t seed, int replications) {
  WindTunnelOptions opts;
  opts.num_workers = 1;
  opts.seed = seed;
  opts.replications = replications;
  auto tunnel = std::make_unique<WindTunnel>(opts);
  WT_CHECK(tunnel->RegisterSimulation("toy_score", ToyScore()).ok());
  return tunnel;
}

// ------------------------------------------------------------ sweep cache

TEST(SweepCacheTest, LookupInsertFirstWriterWins) {
  SweepCache cache;
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.size(), 0u);

  CachedSweep first;
  first.table = "serve_k";
  const CachedSweep* stored = cache.Insert("k", first);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->table, "serve_k");

  CachedSweep second;
  second.table = "someone_else";
  EXPECT_EQ(cache.Insert("k", second)->table, "serve_k");  // kept
  EXPECT_EQ(cache.Lookup("k"), stored);                    // stable address
  EXPECT_EQ(cache.size(), 1u);
}

// -------------------------------------------------------- admission queue

TEST(AdmissionQueueTest, SingleFlightDeduplicatesKey) {
  AdmissionQueue q(4);
  auto gate = std::make_shared<Gate>();
  std::atomic<int> computed{0};
  auto compute = [&]() -> Status {
    computed.fetch_add(1);
    gate->Wait();
    return Status::OK();
  };

  std::thread leader([&] {
    AdmissionQueue::Outcome out = q.RunOrJoin("same", compute);
    EXPECT_TRUE(out.status.ok());
    EXPECT_FALSE(out.joined);
  });
  while (computed.load() == 0) std::this_thread::yield();

  AdmissionQueue::Outcome follower_out;
  std::thread follower(
      [&] { follower_out = q.RunOrJoin("same", compute); });
  // Give the follower time to reach the flight map before releasing.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  gate->Release();
  leader.join();
  follower.join();

  EXPECT_EQ(computed.load(), 1);
  EXPECT_TRUE(follower_out.status.ok());
  EXPECT_TRUE(follower_out.joined);
}

TEST(AdmissionQueueTest, BoundsConcurrentLeaders) {
  AdmissionQueue q(1);
  auto gate = std::make_shared<Gate>();
  std::atomic<int> started_a{0};
  std::atomic<int> started_b{0};

  std::thread a([&] {
    (void)q.RunOrJoin("a", [&]() -> Status {
      started_a.store(1);
      gate->Wait();
      return Status::OK();
    });
  });
  while (started_a.load() == 0) std::this_thread::yield();
  EXPECT_EQ(q.inflight(), 1);

  std::thread b([&] {
    (void)q.RunOrJoin("b", [&]() -> Status {
      started_b.store(1);
      return Status::OK();
    });
  });
  // With one slot taken and held, a distinct key must queue, not compute.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(started_b.load(), 0);

  gate->Release();
  a.join();
  b.join();
  EXPECT_EQ(started_b.load(), 1);
  EXPECT_EQ(q.inflight(), 0);
}

TEST(AdmissionQueueTest, FollowersShareLeaderError) {
  AdmissionQueue q(2);
  AdmissionQueue::Outcome out = q.RunOrJoin(
      "bad", []() -> Status { return Status::Internal("boom"); });
  EXPECT_FALSE(out.status.ok());
  EXPECT_FALSE(out.joined);
  // A later flight for the same key starts fresh (the serve layer's cache
  // re-check is what makes retries cheap, not the queue).
  out = q.RunOrJoin("bad", []() -> Status { return Status::OK(); });
  EXPECT_TRUE(out.status.ok());
}

// ---------------------------------------------------------- wire protocol

TEST(WireTest, FrameRoundTripsThroughDotStuffing) {
  Frame in;
  in.header = "ok miss 3 42";
  in.payload = "a,b\n.leading dot\n..two dots\n\nplain";

  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  FdStream reader(fds[0]);
  FdStream writer(fds[1]);
  ASSERT_TRUE(WriteFrame(&writer, in).ok());
  Result<Frame> out = ReadFrame(&reader);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->header, in.header);
  // Payloads are line-oriented: a missing trailing newline is added.
  EXPECT_EQ(out->payload, in.payload + "\n");
  close(fds[0]);
  close(fds[1]);
}

TEST(WireTest, OversizedLineIsRejectedNotBuffered) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  FdStream writer(fds[1]);
  // 256 newline-free bytes against a 64-byte line bound.
  ASSERT_TRUE(writer.WriteAll(std::string(256, 'x')).ok());
  FdStream reader(fds[0], /*max_line_bytes=*/64);
  Result<std::string> line = reader.ReadLine();
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kInvalidArgument)
      << line.status().ToString();
  close(fds[0]);
  close(fds[1]);
}

// Regression: a peer that disappears before reading the reply must surface
// as a Status, not as a SIGPIPE that kills the process (which would kill
// this test binary).
TEST(WireTest, WriteToClosedPeerIsAStatusNotASignal) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  close(fds[0]);  // the "client" vanishes
  FdStream writer(fds[1]);
  const Status status = writer.WriteAll("reply nobody will read\n");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kAborted) << status.ToString();
  close(fds[1]);
}

TEST(WireTest, ReadFrameReportsEof) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  close(fds[1]);
  FdStream reader(fds[0]);
  Result<Frame> out = ReadFrame(&reader);
  EXPECT_FALSE(out.ok());
  close(fds[0]);
}

// ----------------------------------------------------------- serving core

TEST(ServeTest, HitIsByteIdenticalToColdAndExecutorPaths) {
  auto tunnel = ToyTunnel(/*seed=*/77, /*replications=*/2);
  ServerOptions opts;
  opts.seed = 77;
  opts.replications = 2;
  // Different worker count than the direct path: sweep output must not
  // depend on it (orchestrator determinism).
  opts.num_workers = 2;
  Server server(tunnel.get(), opts);

  Result<ServeReply> cold = server.Serve(kToyQuery);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->cache, CacheOutcome::kMiss);
  EXPECT_GT(cold->rows, 0u);

  Result<ServeReply> hit = server.Serve(kToyQuery);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->cache, CacheOutcome::kHit);
  EXPECT_EQ(hit->csv, cold->csv);
  EXPECT_EQ(hit->sweep_table, cold->sweep_table);
  EXPECT_EQ(server.cache().size(), 1u);

  // Golden property: the executor's direct (uncached) path produces the
  // same bytes for the same query and seed.
  Result<QueryResult> direct = RunQuery(tunnel.get(), kToyQuery, "direct");
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  EXPECT_EQ(direct->satisfying.ToCsv(), cold->csv);
}

TEST(ServeTest, PostprocessOnlyDifferencesShareOneSweep) {
  auto tunnel = ToyTunnel(/*seed=*/5, /*replications=*/1);
  ServerOptions opts;
  opts.seed = 5;
  Server server(tunnel.get(), opts);

  Result<ServeReply> first = server.Serve(kToyQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->cache, CacheOutcome::kMiss);

  // Same sweep, different ORDER BY / LIMIT: answered from the cache entry.
  Result<ServeReply> second = server.Serve(
      "EXPLORE nodes IN [2, 4, 8], replication IN [1, 2] "
      "SIMULATE toy_score ORDER BY cost ASC LIMIT 2");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->cache, CacheOutcome::kHit);
  EXPECT_EQ(second->rows, 2u);
  EXPECT_EQ(second->sweep_table, first->sweep_table);
  EXPECT_EQ(server.cache().size(), 1u);

  // A different seed is a different sweep.
  ServerOptions other = opts;
  other.seed = 6;
  Server other_server(tunnel.get(), other);
  Result<ServeReply> reseeded = other_server.Serve(kToyQuery);
  ASSERT_TRUE(reseeded.ok()) << reseeded.status().ToString();
  EXPECT_EQ(reseeded->cache, CacheOutcome::kMiss);
  EXPECT_NE(reseeded->sweep_table, first->sweep_table);
}

TEST(ServeTest, UnknownSimulationIsAnError) {
  auto tunnel = ToyTunnel(1, 1);
  Server server(tunnel.get(), ServerOptions{});
  Result<ServeReply> reply =
      server.Serve("EXPLORE x IN [1] SIMULATE nope");
  EXPECT_FALSE(reply.ok());
}

// The acceptance test for single-flight: N concurrent identical queries run
// exactly one sweep. The sweep's simulation is gated, so every request is
// in the building before any sweep work can finish; the sweeps counter and
// the simulation-call counter are then exact, regardless of thread timing
// (a straggler that starts a late flight re-checks the cache and never
// sweeps).
TEST(ServeTest, ConcurrentIdenticalQueriesRunOneSweep) {
  obs::MetricsRegistry::Default().set_enabled(true);
  auto gate = std::make_shared<Gate>();
  WindTunnelOptions topts;
  topts.seed = 9;
  WindTunnel tunnel(topts);
  ASSERT_TRUE(
      tunnel.RegisterSimulation("gated_score", GatedScore(gate)).ok());

  ServerOptions opts;
  opts.seed = 9;
  opts.num_workers = 1;
  Server server(&tunnel, opts);

  constexpr int kThreads = 8;
  const std::string query =
      "EXPLORE nodes IN [2, 4] SIMULATE gated_score ORDER BY score DESC";
  obs::Counter* requests =
      obs::MetricsRegistry::Default().GetCounter("serve.requests");
  const int64_t requests_before = requests->value();
  const obs::MetricsBaseline base =
      obs::MetricsRegistry::Default().CaptureBaseline();

  std::vector<std::string> csvs(kThreads);
  std::vector<CacheOutcome> outcomes(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      Result<ServeReply> reply = server.Serve(query);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      csvs[i] = reply->csv;
      outcomes[i] = reply->cache;
    });
  }
  // Hold the sweep until every request has entered the server, then let it
  // finish: requests increments at the top of the serving core.
  while (requests->value() - requests_before < kThreads) {
    std::this_thread::yield();
  }
  gate->Release();
  for (std::thread& t : threads) t.join();

  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Default().SnapshotDelta(base);
  ASSERT_NE(delta.Find("serve.sweeps"), nullptr);
  EXPECT_EQ(delta.Find("serve.sweeps")->value, 1);
  EXPECT_EQ(gate->calls.load(), 2);  // one sweep x two design points
  EXPECT_EQ(delta.Find("serve.requests")->value, kThreads);

  // Counter contract: hit + miss + join == requests; the split itself is
  // arrival-order dependent (wt/obs/metrics.h).
  int64_t split = 0;
  for (const char* name : {"serve.cache.hit", "serve.cache.miss",
                           "serve.cache.inflight_join"}) {
    if (const obs::MetricsSnapshotEntry* e = delta.Find(name)) {
      split += e->value;
    }
  }
  EXPECT_EQ(split, kThreads);

  int misses = 0;
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(csvs[i], csvs[0]) << "reply " << i << " diverged";
    if (outcomes[i] == CacheOutcome::kMiss) ++misses;
  }
  EXPECT_EQ(misses, 1);  // only the request that ran the sweep is a miss
  obs::MetricsRegistry::Default().set_enabled(false);
}

// ------------------------------------------------------------- wire front

TEST(ServeTest, HandleFrameSpeaksTheProtocol) {
  auto tunnel = ToyTunnel(3, 1);
  Server server(tunnel.get(), ServerOptions{});

  Frame reply = server.HandleFrame(Frame{"query", kToyQuery});
  EXPECT_EQ(reply.header.rfind("ok miss ", 0), 0u) << reply.header;
  EXPECT_FALSE(reply.payload.empty());

  Frame again = server.HandleFrame(Frame{"query", kToyQuery});
  EXPECT_EQ(again.header.rfind("ok hit ", 0), 0u) << again.header;
  EXPECT_EQ(again.payload, reply.payload);

  Frame stats = server.HandleFrame(Frame{"stats", ""});
  EXPECT_EQ(stats.header, "ok stats");
  EXPECT_NE(stats.payload.find("entries"), std::string::npos);

  EXPECT_EQ(server.HandleFrame(Frame{"query", "EXPLORE"}).header.rfind(
                "err", 0),
            0u);
  EXPECT_EQ(server.HandleFrame(Frame{"bogus", ""}).header.rfind("err", 0),
            0u);
}

TEST(ServeTest, SocketEndToEnd) {
  auto tunnel = ToyTunnel(11, 1);
  Server server(tunnel.get(), ServerOptions{});
  const std::string socket_path = "serve_test_e2e.sock";
  ASSERT_TRUE(server.Listen(socket_path).ok());

  Result<Client> client = Client::Connect(socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Result<Client::Reply> miss = client->Query(kToyQuery);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_TRUE(miss->ok());
  EXPECT_EQ(miss->header.rfind("ok miss ", 0), 0u) << miss->header;

  Result<Client::Reply> hit = client->Query(kToyQuery);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->header.rfind("ok hit ", 0), 0u) << hit->header;
  EXPECT_EQ(hit->payload, miss->payload);  // byte-identical over the wire

  Result<Client::Reply> stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->ok());

  // A second concurrent client sees the same cache.
  Result<Client> client2 = Client::Connect(socket_path);
  ASSERT_TRUE(client2.ok());
  Result<Client::Reply> hit2 = client2->Query(kToyQuery);
  ASSERT_TRUE(hit2.ok());
  EXPECT_EQ(hit2->header.rfind("ok hit ", 0), 0u) << hit2->header;

  client->Close();
  client2->Close();
  server.Shutdown();
  EXPECT_NE(access(socket_path.c_str(), F_OK), 0);  // socket file removed
}

// Regression: finished connection loops must leave the live set (their
// thread handles are parked for AcceptLoop/Shutdown to join) instead of
// accumulating for the server's lifetime.
TEST(ServeTest, ClosedConnectionsLeaveTheLiveSet) {
  auto tunnel = ToyTunnel(13, 1);
  Server server(tunnel.get(), ServerOptions{});
  const std::string socket_path = "serve_test_reap.sock";
  ASSERT_TRUE(server.Listen(socket_path).ok());

  for (int i = 0; i < 4; ++i) {
    Result<Client> client = Client::Connect(socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    Result<Client::Reply> reply = client->Stats();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    client->Close();
  }
  for (int i = 0; i < 5000 && server.live_connections() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.live_connections(), 0u);
  server.Shutdown();
}

}  // namespace
}  // namespace serve
}  // namespace wt
