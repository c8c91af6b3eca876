// Message-delivery semantics of the in-process transport + bus +
// partition-server stack (DESIGN.md §12): request/reply matching under
// concurrency, bounded-inbox backpressure, duplicate suppression,
// reorder tolerance, injected send/drop faults surfacing as retryable
// Status (never a hang), shutdown failing pending calls promptly, and
// the thread-switch cost of one call.
//
// Suite names carry "NetTransport" so the tsan CI job's -R regex picks
// them up.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include <gtest/gtest.h>

#include "test_util.h"

#include "cluster/hermes_cluster.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "graphdb/graph_store.h"
#include "net/bus.h"
#include "net/inproc_transport.h"
#include "net/message.h"

namespace hermes {
namespace {

std::uint64_t CounterValue(const std::string& name) {
  const auto snap = MetricsRegistry::Global().Snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

MutateRequest MakeCreate(VertexId v, double weight) {
  return {.entries = {{.op = MutateRequest::Op::kCreateNode,
                       .vertex = v,
                       .weight = weight}}};
}

MutateRequest MakeBump(VertexId v, double delta) {
  return {.entries = {{.op = MutateRequest::Op::kAddNodeWeight,
                       .vertex = v,
                       .weight = delta}}};
}

/// True when `reply` is an OK ExtractReply holding exactly vertex `v`.
bool ExtractedExactly(const Result<Envelope>& reply, VertexId v) {
  if (!reply.ok()) return false;
  const auto* rep = std::get_if<ExtractReply>(&reply->payload);
  return rep != nullptr && rep->status.ok() && rep->snapshots.size() == 1 &&
         rep->snapshots[0].id == v;
}

/// One partition server (endpoint 0) plus a client bus (endpoint 1),
/// with the shutdown ordering the cluster guarantees in production:
/// bus first, then transport (joining dispatchers), then the server.
struct Rig {
  explicit Rig(InProcTransport::Options topt = {},
               MessageBus::Options bopt = {},
               PartitionServer::Options sopt = {})
      : transport(topt) {
    auto opened = PartitionServer::Open(0, 0, &transport, std::move(sopt));
    HERMES_CHECK(opened.ok());
    server = std::move(*opened);
    bus = std::make_unique<MessageBus>(&transport, 1, bopt);
    HERMES_CHECK(bus->Start().ok());
  }
  ~Rig() {
    bus->Shutdown();
    transport.Shutdown();
  }

  Result<Envelope> Call(MessagePayload payload) {
    Envelope req;
    req.payload = std::move(payload);
    return bus->Call(0, std::move(req));
  }

  InProcTransport transport;
  std::unique_ptr<PartitionServer> server;
  std::unique_ptr<MessageBus> bus;
};

double ExtractWeight(Rig* rig, VertexId v) {
  auto r = rig->Call(ExtractRequest{{v}});
  EXPECT_OK(r);
  if (!r.ok()) return -1.0;
  const auto& rep = std::get<ExtractReply>(r->payload);
  EXPECT_OK(rep.status);
  if (rep.snapshots.size() != 1) return -1.0;
  return rep.snapshots[0].weight;
}

TEST(NetTransportTest, CallReplyBasic) {
  Rig rig;
  auto created = rig.Call(MakeCreate(7, 2.0));
  ASSERT_OK(created);
  const auto* mrep = std::get_if<MutateReply>(&created->payload);
  ASSERT_NE(mrep, nullptr);
  ASSERT_OK(mrep->status);

  ProbeRequest probe;
  probe.mode = ProbeRequest::Mode::kHasNode;
  probe.vertex = 7;
  auto probed = rig.Call(probe);
  ASSERT_OK(probed);
  const auto* prep = std::get_if<ProbeReply>(&probed->payload);
  ASSERT_NE(prep, nullptr);
  ASSERT_OK(prep->status);
  EXPECT_TRUE(prep->truth);

  auto health = rig.Call(HealthRequest{});
  ASSERT_OK(health);
  const auto* hrep = std::get_if<HealthReply>(&health->payload);
  ASSERT_NE(hrep, nullptr);
  EXPECT_EQ(hrep->nodes, 1u);
}

TEST(NetTransportTest, ConcurrentCallsMatchRequestToReply) {
  Rig rig;
  constexpr int kThreads = 4;
  constexpr int kVerticesPerThread = 25;
  // Seed one node per (thread, i) pair.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kVerticesPerThread; ++i) {
      auto r = rig.Call(
          MakeCreate(static_cast<VertexId>(t * 1000 + i), 1.0 + t));
      ASSERT_OK(r);
    }
  }
  // Concurrent extracts: each reply must carry exactly the vertex that
  // was asked for — a mispaired reply would show a different id.
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rig, &mismatches, t] {
      for (int i = 0; i < kVerticesPerThread; ++i) {
        const auto v = static_cast<VertexId>(t * 1000 + i);
        if (!ExtractedExactly(rig.Call(ExtractRequest{{v}}), v)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(NetTransportTest, BackpressureSurfacesTimedOut) {
  InProcTransport::Options opt;
  opt.inbox_capacity = 1;
  opt.send_timeout_us = 100'000;
  InProcTransport transport(opt);
  std::atomic<bool> release{false};
  // A handler that parks the dispatch thread keeps the single-slot
  // inbox full, so a further Send must give up with kTimedOut instead
  // of blocking forever.
  ASSERT_OK(transport.OpenEndpoint(5, [&release](std::string) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }));
  ASSERT_OK(transport.Send(5, "frame-1"));  // parked in the handler
  // The dispatcher may not have popped frame-1 yet, so frame-2 either
  // queues immediately or waits for the pop; both are accepted.
  ASSERT_OK(transport.Send(5, "frame-2"));
  const Status st = transport.Send(5, "frame-3");
  EXPECT_TRUE(st.IsTimedOut()) << st.ToString();
  release.store(true);
  transport.Shutdown();
}

TEST(NetTransportTest, OpenEndpointRejectsBadIds) {
  InProcTransport transport({});
  EXPECT_TRUE(transport.OpenEndpoint(1000, [](std::string) {})
                  .IsInvalidArgument());
  ASSERT_OK(transport.OpenEndpoint(3, [](std::string) {}));
  EXPECT_TRUE(transport.OpenEndpoint(3, [](std::string) {})
                  .IsAlreadyExists());
  EXPECT_TRUE(transport.Send(4, "frame").IsNotFound());
  transport.Shutdown();
  EXPECT_TRUE(transport.Send(3, "frame").IsUnavailable());
}

TEST(NetTransportTest, DuplicatedFramesAreNotReapplied) {
  InProcTransport::Options topt;
  topt.duplicate_every_n = 2;  // every 2nd accepted frame delivered twice
  const std::uint64_t dup_before = CounterValue("msg.duplicated");
  const std::uint64_t dedup_before = CounterValue("server.duplicate_requests");
  {
    Rig rig(topt);
    ASSERT_OK(rig.Call(MakeCreate(1, 1.0)));
    constexpr int kBumps = 20;
    for (int i = 0; i < kBumps; ++i) {
      auto r = rig.Call(MakeBump(1, 1.0));
      ASSERT_OK(r);
      ASSERT_OK(std::get<MutateReply>(r->payload).status);
    }
    // The transport manufactured duplicates, the server suppressed every
    // one of them: the weight reflects each bump exactly once.
    EXPECT_DOUBLE_EQ(ExtractWeight(&rig, 1), 1.0 + kBumps);
  }
  EXPECT_GT(CounterValue("msg.duplicated"), dup_before);
  EXPECT_GT(CounterValue("server.duplicate_requests"), dedup_before);
}

TEST(NetTransportTest, ReorderedFramesStillMatchReplies) {
  InProcTransport::Options topt;
  topt.reorder_every_n = 3;
  topt.fault_seed = 1;
  Rig rig(topt);
  for (int i = 0; i < 30; ++i) {
    ASSERT_OK(rig.Call(MakeCreate(static_cast<VertexId>(i), 1.0)));
  }
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&rig, &mismatches, t] {
      for (int i = 0; i < 10; ++i) {
        const auto v = static_cast<VertexId>(t * 10 + i);
        if (!ExtractedExactly(rig.Call(ExtractRequest{{v}}), v)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(NetTransportTest, ShutdownFailsPendingCallsPromptly) {
  InProcTransport transport({});
  // A sink endpoint that never replies: calls to it stay pending until
  // the bus shuts down.
  ASSERT_OK(transport.OpenEndpoint(5, [](std::string) {}));
  MessageBus::Options bopt;
  bopt.call_timeout_us = 60'000'000;
  MessageBus bus(&transport, 6, bopt);
  ASSERT_OK(bus.Start());
  std::atomic<bool> returned{false};
  std::thread caller([&bus, &returned] {
    Envelope req;
    req.payload = HealthRequest{};
    auto r = bus.Call(5, std::move(req));
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  bus.Shutdown();
  caller.join();
  EXPECT_TRUE(returned.load());
  transport.Shutdown();
}

/// Pins the calling thread — and every thread it starts — to one CPU,
/// restoring the original mask on destruction.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved_)) ++cpu;
    if (cpu == CPU_SETSIZE) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  bool pinned() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

std::uint64_t ContextSwitches() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
}

// A call is two thread handoffs: the request queues to the server's
// dispatch thread, and that thread hands the reply straight to the
// waiting caller. On one CPU that is two context switches per call. A
// wake routed through a condvar's internal mutex, a notify sent while
// the woken thread's mutex is still held, or a reply relayed by a
// dispatch thread of the bus's own each add switches (about 12.6 per
// call with all three).
TEST(NetTransportTest, PinnedCallCostsAtMostThreeContextSwitches) {
  PinToOneCpu pin;
  if (!pin.pinned()) {
    GTEST_SKIP() << "sched_setaffinity failed; cannot pin to one CPU";
  }
  constexpr int kWarmup = 200;
  constexpr int kCalls = 2000;
  Rig rig;  // its threads start after the pin and inherit it
  for (int i = 0; i < kWarmup; ++i) ASSERT_OK(rig.Call(HealthRequest{}));
  const std::uint64_t before = ContextSwitches();
  for (int i = 0; i < kCalls; ++i) ASSERT_OK(rig.Call(HealthRequest{}));
  const double per_call =
      static_cast<double>(ContextSwitches() - before) / kCalls;
  EXPECT_LE(per_call, 3.0);
}

#ifdef HERMES_LOCK_PROFILING
// The bus records each reply's round trip through a cached histogram
// handle: once the first call has registered everything, calls take the
// metrics registry's mutex zero times. The closing Snapshot() takes it
// once, and counts that acquisition in what it reports.
TEST(NetTransportTest, CallsTakeNoMetricsRegistryLock) {
  constexpr std::uint64_t kCalls = 100;
  const std::string key = "lock.metrics_registry.mu.acquisitions";
  Rig rig;
  ASSERT_OK(rig.Call(HealthRequest{}));
  const std::uint64_t before = CounterValue(key);
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    ASSERT_OK(rig.Call(HealthRequest{}));
  }
  EXPECT_EQ(CounterValue(key), before + 1);
}
#endif  // HERMES_LOCK_PROFILING

TEST(NetTransportFaultTest, SendIoErrorSurfacesAsStatus) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "HERMES_FAILPOINTS is off (default preset); run the "
                    "asan-ubsan or tsan preset";
  }
  // One attempt: this test pins how a send fault SURFACES; the healing
  // retry path has its own tests below.
  MessageBus::Options bopt;
  bopt.max_attempts = 1;
  Rig rig({}, bopt);
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 1;
  FailpointRegistry::Global().Arm("msg.send.io_error", cfg);
  auto r = rig.Call(HealthRequest{});
  FailpointRegistry::Global().Reset();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError()) << r.status().ToString();
  // The fault was transient; the very next call goes through.
  ASSERT_OK(rig.Call(HealthRequest{}));
}

TEST(NetTransportFaultTest, DroppedRequestSurfacesRetryableTimeout) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "HERMES_FAILPOINTS is off (default preset)";
  }
  MessageBus::Options bopt;
  bopt.call_timeout_us = 100'000;
  bopt.max_attempts = 1;  // pin the surfaced status, not the healing
  Rig rig({}, bopt);
  const std::uint64_t timeouts_before = CounterValue("msg.timeouts");
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 1;
  FailpointRegistry::Global().Arm("msg.recv.drop", cfg);
  auto r = rig.Call(HealthRequest{});
  FailpointRegistry::Global().Reset();
  // The frame vanished in flight: the call must come back (no hang) as
  // retryable kUnavailable, and the retry must succeed.
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  EXPECT_GT(CounterValue("msg.timeouts"), timeouts_before);
  ASSERT_OK(rig.Call(HealthRequest{}));
}

std::string FreshDir(const char* name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Spin-waits (bounded) until `name` exceeds `prev` — used to quiesce on
/// server-side effects of frames whose replies never reached the bus.
void AwaitCounterAbove(const std::string& name, std::uint64_t prev) {
  for (int i = 0; i < 5000 && CounterValue(name) <= prev; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(CounterValue(name), prev) << name;
}

// The bus endpoint is inline, so a duplicated reply runs the bus's
// handler twice on the server's thread, usually before the caller has
// claimed the first delivery. The second must be counted stale and
// dropped, not overwrite the first. Every duplicate the transport makes
// — a duplicated request the server answers twice, or a duplicated
// reply — therefore reaches the bus as exactly one stale reply.
TEST(NetTransportTest, EveryDuplicateReachesTheBusAsOneStaleReply) {
  InProcTransport::Options topt;
  topt.duplicate_every_n = 3;
  topt.fault_seed = 1;
  const std::uint64_t duplicated_before = CounterValue("msg.duplicated");
  const std::uint64_t stale_before = CounterValue("msg.stale_replies");
  {
    Rig rig(topt);
    for (VertexId v = 0; v < 20; ++v) {
      auto created = rig.Call(MakeCreate(v, 1.0 + v));
      ASSERT_OK(created);
      ASSERT_OK(std::get<MutateReply>(created->payload).status);
      auto extracted = rig.Call(ExtractRequest{{v}});
      ASSERT_TRUE(ExtractedExactly(extracted, v));  // its own reply
      EXPECT_DOUBLE_EQ(
          std::get<ExtractReply>(extracted->payload).snapshots[0].weight,
          1.0 + v);
    }
  }  // shutdown joins the server's thread: every duplicate was delivered
  const std::uint64_t duplicated =
      CounterValue("msg.duplicated") - duplicated_before;
  EXPECT_GT(duplicated, 0u);
  EXPECT_EQ(CounterValue("msg.stale_replies") - stale_before, duplicated);
}

// The headline exactly-once regression (fails pre-fix): the server
// applies a mutation but its reply vanishes in flight. Pre-fix the
// duplicate path suppressed the re-apply but sent NOTHING, so the
// same-token resend timed out forever — the at-most-once hole. Post-fix
// the cached reply is replayed and the call succeeds with the mutation
// applied exactly once. The transport drop knob makes this run in every
// preset, failpoints or not.
TEST(NetTransportRetryTest, ReplyLossIsHealedBySameTokenRetry) {
  InProcTransport::Options topt;
  topt.drop_every_n = 2;  // with fault_seed 1: every odd arrival at the
  topt.drop_dst = 1;      // bus endpoint vanishes — every first reply
  topt.fault_seed = 1;    // lost, every retried reply delivered
  MessageBus::Options bopt;
  bopt.call_timeout_us = 50'000;
  bopt.retry_backoff_us = 500;
  const std::uint64_t retries_before = CounterValue("msg.retries");
  const std::uint64_t dedup_before = CounterValue("msg.dedup_hits");
  Rig rig(topt, bopt);

  auto created = rig.Call(MakeCreate(1, 2.0));
  ASSERT_OK(created);
  ASSERT_OK(std::get<MutateReply>(created->payload).status);
  auto bumped = rig.Call(MakeBump(1, 0.5));
  ASSERT_OK(bumped);
  ASSERT_OK(std::get<MutateReply>(bumped->payload).status);
  // Both mutations lost their first reply and were resent under the same
  // token; the weight arithmetic proves each applied exactly once.
  EXPECT_DOUBLE_EQ(ExtractWeight(&rig, 1), 2.5);
  EXPECT_GT(CounterValue("msg.retries"), retries_before);
  EXPECT_GT(CounterValue("msg.dedup_hits"), dedup_before);
}

TEST(NetTransportRetryTest, ExhaustedRetriesStillApplyExactlyOnce) {
  InProcTransport::Options topt;
  topt.drop_every_n = 1;  // EVERY reply to the bus vanishes
  topt.drop_dst = 1;
  MessageBus::Options bopt;
  bopt.call_timeout_us = 30'000;
  bopt.retry_backoff_us = 500;
  bopt.max_attempts = 2;
  const std::uint64_t dedup_before = CounterValue("msg.dedup_hits");
  Rig rig(topt, bopt);
  // Seed the node out of band so the only bus traffic is the mutation
  // under test (store_for_test is the sanctioned seeding path).
  ASSERT_OK(rig.server->store_for_test()->CreateNode(9, 1.0));

  auto r = rig.Call(MakeBump(9, 0.5));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status().ToString();
  // The second attempt dedup-hit the first apply; once it has been
  // processed the rig is quiescent and the store must show ONE apply
  // even though the client never heard back.
  AwaitCounterAbove("msg.dedup_hits", dedup_before);
  auto weight = rig.server->store_for_test()->NodeWeight(9);
  ASSERT_OK(weight);
  EXPECT_DOUBLE_EQ(*weight, 1.5);
}

// A batched Mutate is one token: a lost reply is answered from the dedup
// cache, so neither a batch that applied in full nor one that stopped at
// a failing entry runs again, and the replayed reply reports the same
// applied prefix.
TEST(NetTransportRetryTest, BatchedMutateLostReplyIsReplayedNotReapplied) {
  InProcTransport::Options topt;
  topt.drop_every_n = 2;  // with fault_seed 1: every first reply to the
  topt.drop_dst = 1;      // bus is lost, every retried one delivered
  topt.fault_seed = 1;
  MessageBus::Options bopt;
  bopt.call_timeout_us = 50'000;
  bopt.retry_backoff_us = 500;
  const std::uint64_t dedup_before = CounterValue("msg.dedup_hits");
  Rig rig(topt, bopt);

  MutateRequest batch = MakeCreate(1, 2.0);
  batch.entries.push_back(MakeBump(1, 0.5).entries[0]);
  batch.entries.push_back(MakeBump(1, 0.25).entries[0]);
  auto whole = rig.Call(batch);
  ASSERT_OK(whole);
  const auto& applied_all = std::get<MutateReply>(whole->payload);
  ASSERT_OK(applied_all.status);
  EXPECT_EQ(applied_all.applied, 3u);

  // Stops at the remove of a missing node: the bump before it lands,
  // the one after it never runs.
  MutateRequest stops = MakeBump(1, 1.0);
  stops.entries.push_back(
      {.op = MutateRequest::Op::kRemoveNode, .vertex = 9});
  stops.entries.push_back(MakeBump(1, 100.0).entries[0]);
  auto partial = rig.Call(stops);
  ASSERT_OK(partial);
  const auto& applied_prefix = std::get<MutateReply>(partial->payload);
  EXPECT_TRUE(applied_prefix.status.IsNotFound())
      << applied_prefix.status.ToString();
  EXPECT_EQ(applied_prefix.applied, 1u);

  EXPECT_DOUBLE_EQ(ExtractWeight(&rig, 1), 3.75);
  EXPECT_GE(CounterValue("msg.dedup_hits"), dedup_before + 2);
}

/// `n` partition servers (endpoints 0..n-1, each seeded with node id ==
/// endpoint at weight 1) plus a client bus at endpoint n, torn down in
/// the same order as Rig.
struct FanOutRig {
  FanOutRig(EndpointId n, InProcTransport::Options topt,
            MessageBus::Options bopt)
      : transport(topt) {
    for (EndpointId e = 0; e < n; ++e) {
      auto opened = PartitionServer::Open(e, e, &transport, {});
      HERMES_CHECK(opened.ok());
      HERMES_CHECK((*opened)->store_for_test()->CreateNode(e, 1.0).ok());
      servers.push_back(std::move(*opened));
    }
    bus = std::make_unique<MessageBus>(&transport, n, bopt);
    HERMES_CHECK(bus->Start().ok());
  }
  ~FanOutRig() {
    bus->Shutdown();
    transport.Shutdown();
  }

  InProcTransport transport;
  std::vector<std::unique_ptr<PartitionServer>> servers;
  std::unique_ptr<MessageBus> bus;
};

// A fan-out that loses one reply: CallMany resends that request under its
// own token while the others complete, and the server answers the resend
// from its dedup cache, so every mutation applies exactly once. Call() is
// a one-request CallMany(), so the single-call retry tests above drive
// the same retry loop.
TEST(NetTransportRetryTest, CallManyFanOutHealsLostReplyExactlyOnce) {
  constexpr EndpointId kServers = 3;
  InProcTransport::Options topt;
  topt.drop_every_n = kServers;  // the last of the three replies to
  topt.drop_dst = kServers;      // reach the bus endpoint is lost
  MessageBus::Options bopt;
  bopt.call_timeout_us = 50'000;
  bopt.retry_backoff_us = 500;
  const std::uint64_t dropped_before = CounterValue("msg.dropped");
  const std::uint64_t retries_before = CounterValue("msg.retries");
  const std::uint64_t dedup_before = CounterValue("msg.dedup_hits");
  FanOutRig rig(kServers, topt, bopt);

  std::vector<MessageBus::Outgoing> requests(kServers);
  for (EndpointId e = 0; e < kServers; ++e) {
    requests[e].dst = e;
    requests[e].request.payload = MakeBump(e, 0.5 + e);
  }
  std::vector<Result<Envelope>> replies = rig.bus->CallMany(std::move(requests));
  ASSERT_EQ(replies.size(), kServers);
  for (EndpointId e = 0; e < kServers; ++e) {
    ASSERT_OK(replies[e]) << "request " << e;
    EXPECT_EQ(replies[e]->src, e) << "reply " << e << " answers request " << e;
    ASSERT_OK(std::get<MutateReply>(replies[e]->payload).status);
  }
  EXPECT_EQ(CounterValue("msg.dropped"), dropped_before + 1);
  EXPECT_EQ(CounterValue("msg.retries"), retries_before + 1);
  EXPECT_EQ(CounterValue("msg.dedup_hits"), dedup_before + 1);
  for (EndpointId e = 0; e < kServers; ++e) {
    auto weight = rig.servers[e]->store_for_test()->NodeWeight(e);
    ASSERT_OK(weight);
    EXPECT_DOUBLE_EQ(*weight, 1.5 + e) << "server " << e;
  }
}

// Regression for the eviction bug (fails pre-fix): the old fixed 4096
// FIFO forgot a token after 4096 later mutations, so a straggling resend
// re-applied it. Options::dedup_window now sizes the window; with one
// larger than the flood the early token must survive and its resend must
// dedup-hit instead of double-applying.
TEST(NetTransportRetryTest, DedupWindowFromOptionsSurvivesOverflowOfOldDefault) {
  constexpr std::size_t kOldFixedWindow = 4096;
  constexpr std::size_t kFlood = kOldFixedWindow + 400;
  PartitionServer::Options sopt;
  sopt.dedup_window = kFlood + 600;  // dominates everything in flight
  InProcTransport transport({});
  auto opened = PartitionServer::Open(0, 0, &transport, std::move(sopt));
  ASSERT_OK(opened);
  auto server = std::move(*opened);

  // Raw client endpoint 1: crafts frames directly so the same token can
  // be resent byte-for-byte, bypassing the bus's own dedup of ids.
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::uint64_t, Envelope> replies;
  ASSERT_OK(transport.OpenEndpoint(1, [&](std::string frame) {
    auto env = DecodeFrame(frame);
    if (!env.ok()) return;
    std::lock_guard<std::mutex> lock(mu);
    replies[env->request_id] = std::move(*env);
    cv.notify_all();
  }));
  auto send = [&](std::uint64_t id, MessagePayload payload) {
    Envelope env;
    env.request_id = id;
    env.src = 1;
    env.dst = 0;
    env.payload = std::move(payload);
    auto frame = EncodeFrame(env);
    ASSERT_OK(frame);
    ASSERT_OK(transport.Send(0, std::move(*frame)));
  };
  auto wait_for = [&](std::uint64_t id) -> Envelope {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return replies.count(id) != 0; });
    return replies[id];
  };

  send(1, MakeCreate(1, 1.0));
  send(2, MakeBump(1, 1.0));  // the token under test
  send(3, MakeCreate(2, 1.0));
  wait_for(3);
  const std::uint64_t dedup_before = CounterValue("msg.dedup_hits");
  for (std::uint64_t i = 0; i < kFlood; ++i) {
    send(4 + i, MakeBump(2, 1.0));
  }
  wait_for(3 + kFlood);
  // The straggling resend of token 2, byte-identical. Pre-fix the window
  // had evicted it and the bump re-applied.
  send(2, MakeBump(1, 1.0));
  send(4 + kFlood, ExtractRequest{{1}});
  const Envelope extracted = wait_for(4 + kFlood);
  const auto& rep = std::get<ExtractReply>(extracted.payload);
  ASSERT_OK(rep.status);
  ASSERT_EQ(rep.snapshots.size(), 1u);
  EXPECT_DOUBLE_EQ(rep.snapshots[0].weight, 2.0);  // one create + one bump
  EXPECT_GT(CounterValue("msg.dedup_hits"), dedup_before);
  transport.Shutdown();
}

// Recovery-safe dedup (fails pre-fix): the server crashes after applying
// a mutation and durably logging its token, but before the reply reached
// the client. The reopened server must answer the client's same-token
// retry from recovered dedup state — synthesized reply, no double-apply.
TEST(NetTransportRecoveryTest, RecoveredTokenAnsweredAfterCrashBetweenApplyAndReply) {
  const std::string dir = FreshDir("net_recovered_token");
  PartitionServer::Options sopt;
  sopt.durability_dir = dir;
  const std::uint64_t bump_token = 2;  // ids mint from 1: create=1, bump=2
  MutateRequest bump = MakeBump(1, 0.5);
  {
    InProcTransport::Options topt;
    topt.drop_every_n = 2;  // fault_seed 0: arrival 2 at the bus — the
    topt.drop_dst = 1;      // bump's reply — vanishes
    MessageBus::Options bopt;
    bopt.call_timeout_us = 50'000;
    bopt.max_attempts = 1;  // the client "crashes with the server":
                            // no in-session retry, the loss surfaces
    const std::uint64_t dropped_before = CounterValue("msg.dropped");
    Rig rig(topt, bopt, sopt);
    auto created = rig.Call(MakeCreate(1, 2.0));
    ASSERT_OK(created);
    ASSERT_OK(std::get<MutateReply>(created->payload).status);
    auto bumped = rig.Call(bump);
    ASSERT_FALSE(bumped.ok());
    EXPECT_TRUE(bumped.status().IsUnavailable()) << bumped.status().ToString();
    // The drop fires AFTER the server applied and WAL-logged the token,
    // so once it is counted the crash point is exactly apply-then-no-reply.
    AwaitCounterAbove("msg.dropped", dropped_before);
  }  // "crash": no checkpoint; the WAL keeps the mutations and tokens

  InProcTransport transport({});
  auto reopened = PartitionServer::Open(0, 0, &transport, std::move(sopt));
  ASSERT_OK(reopened);
  auto server = std::move(*reopened);
  // Recovery surfaced the token, and the cluster-level contract
  // (first_request_id above every recovered token) depends on this.
  EXPECT_EQ(server->max_recovered_token_id(), bump_token);
  MessageBus::Options bopt;
  bopt.first_request_id = bump_token;  // the client retries ITS token
  MessageBus bus(&transport, 1, bopt);
  ASSERT_OK(bus.Start());
  Envelope retry;
  retry.payload = bump;
  auto r = bus.Call(0, std::move(retry));
  ASSERT_OK(r);
  ASSERT_OK(std::get<MutateReply>(r->payload).status);
  Envelope ex;
  ex.payload = ExtractRequest{{1}};
  auto extracted = bus.Call(0, std::move(ex));
  ASSERT_TRUE(ExtractedExactly(extracted, 1));
  // Applied once, across the crash.
  EXPECT_DOUBLE_EQ(
      std::get<ExtractReply>(extracted->payload).snapshots[0].weight, 2.5);
  bus.Shutdown();
  transport.Shutdown();
}

// A batched Mutate whose reply died with the process: the reopened
// server answers the retry from the log, reporting as applied only the
// entries logged under its token. A batch that applied in full answers
// OK (with the record id of its last entry's edge); one that stopped at
// a failing entry reports that prefix and an error, and the entries
// after it stay unapplied.
TEST(NetTransportRecoveryTest, RecoveredBatchReportsOnlyTheLoggedEntries) {
  const std::string dir = FreshDir("net_recovered_batch");
  PartitionServer::Options sopt;
  sopt.durability_dir = dir;
  MutateRequest whole = MakeCreate(1, 2.0);
  whole.entries.push_back(MakeCreate(2, 1.0).entries[0]);
  whole.entries.push_back({.op = MutateRequest::Op::kAddEdge,
                           .vertex = 1,
                           .other = 2,
                           .other_is_local = true});
  MutateRequest stops = MakeBump(1, 0.5);
  stops.entries.push_back(
      {.op = MutateRequest::Op::kRemoveNode, .vertex = 9});
  stops.entries.push_back(MakeBump(2, 1.0).entries[0]);
  {
    InProcTransport::Options topt;
    topt.drop_every_n = 1;  // every reply to the bus vanishes
    topt.drop_dst = 1;
    MessageBus::Options bopt;
    bopt.call_timeout_us = 50'000;
    bopt.max_attempts = 1;
    const std::uint64_t dropped_before = CounterValue("msg.dropped");
    Rig rig(topt, bopt, sopt);
    EXPECT_FALSE(rig.Call(whole).ok());  // token 1
    EXPECT_FALSE(rig.Call(stops).ok());  // token 2
    // Both replies were dropped after the server applied and logged.
    AwaitCounterAbove("msg.dropped", dropped_before + 1);
  }  // "crash": no checkpoint; the WAL keeps the entries and tokens

  InProcTransport transport({});
  auto reopened = PartitionServer::Open(0, 0, &transport, std::move(sopt));
  ASSERT_OK(reopened);
  auto server = std::move(*reopened);
  EXPECT_EQ(server->max_recovered_token_id(), 2u);
  MessageBus::Options bopt;
  bopt.first_request_id = 1;  // the client retries its two tokens
  MessageBus bus(&transport, 1, bopt);
  ASSERT_OK(bus.Start());
  auto call = [&bus](MessagePayload payload) {
    Envelope env;
    env.payload = std::move(payload);
    return bus.Call(0, std::move(env));
  };
  auto first = call(whole);
  ASSERT_OK(first);
  const auto& full = std::get<MutateReply>(first->payload);
  ASSERT_OK(full.status);
  EXPECT_EQ(full.applied, 3u);
  const auto edge = server->store_for_test()->FindEdge(1, 2);
  ASSERT_OK(edge);
  EXPECT_EQ(full.record_id, *edge);
  auto second = call(stops);
  ASSERT_OK(second);
  const auto& prefix = std::get<MutateReply>(second->payload);
  EXPECT_FALSE(prefix.status.ok());
  EXPECT_EQ(prefix.applied, 1u);

  bus.Shutdown();
  transport.Shutdown();
  // Nothing applied twice, and the entry after the failure never ran.
  EXPECT_DOUBLE_EQ(*server->store_for_test()->NodeWeight(1), 2.5);
  EXPECT_DOUBLE_EQ(*server->store_for_test()->NodeWeight(2), 1.0);
}

TEST(NetTransportFaultTest, TransientSendErrorIsHealedByRetry) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "HERMES_FAILPOINTS is off (default preset)";
  }
  MessageBus::Options bopt;
  bopt.retry_backoff_us = 500;
  Rig rig({}, bopt);
  const std::uint64_t retries_before = CounterValue("msg.retries");
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 1;
  FailpointRegistry::Global().Arm("msg.send.io_error", cfg);
  auto r = rig.Call(MakeCreate(3, 1.5));
  FailpointRegistry::Global().Reset();
  // The first send failed outright; the same-token resend healed it.
  ASSERT_OK(r);
  ASSERT_OK(std::get<MutateReply>(r->payload).status);
  EXPECT_GT(CounterValue("msg.retries"), retries_before);
  EXPECT_DOUBLE_EQ(ExtractWeight(&rig, 3), 1.5);
}

TEST(NetTransportFaultTest, DroppedRequestIsHealedByRetry) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "HERMES_FAILPOINTS is off (default preset)";
  }
  MessageBus::Options bopt;
  bopt.call_timeout_us = 50'000;
  bopt.retry_backoff_us = 500;
  Rig rig({}, bopt);
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 1;
  FailpointRegistry::Global().Arm("msg.recv.drop", cfg);
  auto r = rig.Call(MakeCreate(4, 2.25));
  FailpointRegistry::Global().Reset();
  // The REQUEST vanished: the server first saw the token on the resend
  // and applied exactly once.
  ASSERT_OK(r);
  ASSERT_OK(std::get<MutateReply>(r->payload).status);
  EXPECT_DOUBLE_EQ(ExtractWeight(&rig, 4), 2.25);
}

Graph TwoTriangles() {
  Graph g(6);
  EXPECT_OK(g.AddEdge(0, 1));
  EXPECT_OK(g.AddEdge(1, 2));
  EXPECT_OK(g.AddEdge(0, 2));
  EXPECT_OK(g.AddEdge(3, 4));
  EXPECT_OK(g.AddEdge(4, 5));
  EXPECT_OK(g.AddEdge(3, 5));
  EXPECT_OK(g.AddEdge(2, 3));  // bridge
  return g;
}

PartitionAssignment SplitAtBridge() {
  PartitionAssignment asg(6, 2);
  for (VertexId v = 3; v < 6; ++v) asg.Assign(v, 1);
  return asg;
}

TEST(NetTransportClusterTest, ClusterSurvivesDuplicateAndReorderFaults) {
  HermesCluster::Options opt;
  opt.transport.duplicate_every_n = 3;
  opt.transport.reorder_every_n = 5;
  opt.transport.fault_seed = 2;
  HermesCluster cluster(TwoTriangles(), SplitAtBridge(), opt);
  // Reads and writes keep succeeding and the duplicate suppression
  // keeps the stores exactly consistent with the logical directory.
  for (VertexId v = 0; v < 6; ++v) {
    ASSERT_OK(cluster.ExecuteRead(v, 1));
  }
  auto added = cluster.InsertVertex();
  ASSERT_OK(added);
  ASSERT_OK(cluster.InsertEdge(*added, 0));
  EXPECT_TRUE(cluster.Validate());
}

TEST(NetTransportClusterTest, ClusterReadSurfacesRetryableDeliveryFault) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "HERMES_FAILPOINTS is off (default preset)";
  }
  HermesCluster::Options opt;
  opt.bus.call_timeout_us = 100'000;
  opt.bus.max_attempts = 1;  // pin the surfaced status, not the healing
  HermesCluster cluster(TwoTriangles(), SplitAtBridge(), opt);
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 1;
  FailpointRegistry::Global().Arm("msg.recv.drop", cfg);
  auto run = cluster.ExecuteRead(0, 1);
  FailpointRegistry::Global().Reset();
  // The dropped frame must surface as a retryable error, not corrupt
  // anything: the retry succeeds and the cluster still validates.
  ASSERT_FALSE(run.ok());
  EXPECT_TRUE(run.status().IsUnavailable() || run.status().IsIOError())
      << run.status().ToString();
  ASSERT_OK(cluster.ExecuteRead(0, 1));
  EXPECT_TRUE(cluster.Validate());
}

TEST(NetTransportClusterTest, ClusterWriteSurfacesInjectedSendError) {
  if (!kFailpointsEnabled) {
    GTEST_SKIP() << "HERMES_FAILPOINTS is off (default preset)";
  }
  HermesCluster cluster(TwoTriangles(), SplitAtBridge());
  FailpointConfig cfg;
  cfg.policy = FailpointConfig::Policy::kNthHit;
  cfg.n = 1;
  FailpointRegistry::Global().Arm("msg.send.io_error", cfg);
  auto added = cluster.InsertVertex();
  FailpointRegistry::Global().Reset();
  // InsertVertex's store write hits the injected send fault; whatever
  // the outcome, the directory and the stores must stay in agreement.
  if (!added.ok()) {
    EXPECT_TRUE(added.status().IsIOError() ||
                added.status().IsUnavailable())
        << added.status().ToString();
  }
  EXPECT_TRUE(cluster.Validate());
}

}  // namespace
}  // namespace hermes
