/// Request/reply bus over a Transport (DESIGN.md §12). CallMany() stamps
/// a fresh request id on each request, sends every encoded frame, and
/// then blocks until each matching reply arrives on this bus's own
/// endpoint or its deadline passes — a timeout surfaces as kUnavailable
/// ("retryable"), never a hang, which is what the delivery-fault tests
/// pin down. Call() is a one-request CallMany(). Replies are matched
/// purely by request id, so duplicated or reordered frames at the
/// transport layer cannot mispair a call: stale and duplicate replies
/// are counted and dropped.
///
/// The bus endpoint is inline (Transport::OpenInlineEndpoint): a reply
/// runs OnFrame on the thread that sent it, possibly on several server
/// threads at once. The transport must be shut down, joining those
/// threads, before the bus is destroyed.
///
/// Retries are idempotent by construction: a request that times out or
/// hits a retryable send error is resent with the SAME request id (never
/// a fresh one), with bounded attempts and exponential, deterministically
/// jittered backoff. Servers deduplicate on (src, request_id) and replay
/// the cached reply, which upgrades mutations from at-most-once to
/// exactly-once under message loss (the exactly-once contract, DESIGN.md
/// §12). tools/lint.py enforces that no retry loop outside this class
/// mints request ids.
#ifndef HERMES_NET_BUS_H_
#define HERMES_NET_BUS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/lock_order.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "net/message.h"
#include "net/transport.h"

namespace hermes {

class MessageBus {
 public:
  struct Options {
    /// How long one attempt waits for the reply before timing out (and,
    /// if attempts remain, resending the same token).
    std::uint64_t call_timeout_us = 30'000'000;
    /// Total delivery attempts per request (0 behaves as 1). Every attempt
    /// reuses the request id minted on the first, so server-side dedup
    /// makes retried mutations exactly-once.
    std::uint32_t max_attempts = 3;
    /// Backoff before the 2nd attempt; doubles each further attempt,
    /// plus a deterministic jitter in [0, backoff) seeded from
    /// `retry_jitter_seed`, the request id, and the attempt number. The
    /// wait parks on the reply condvar, so a straggler reply completes
    /// the call mid-backoff.
    std::uint64_t retry_backoff_us = 1'000;
    std::uint64_t retry_jitter_seed = 0x48455253u;  // "HERS"
    /// First request id this bus mints. HermesCluster::Recover() sets it
    /// above the highest idempotency token recovered from any WAL, so a
    /// fresh post-recovery call can never collide with a recovered
    /// token and be answered from stale dedup state.
    std::uint64_t first_request_id = 1;
  };

  /// The bus does not own `transport`; it must outlive the bus.
  MessageBus(Transport* transport, EndpointId self, Options options);

  /// Opens this bus's reply endpoint on the transport, inline: replies
  /// are handled on the sender's thread.
  [[nodiscard]] Status Start() EXCLUDES(mu_);

  /// One request of a CallMany() fan-out.
  struct Outgoing {
    EndpointId dst = 0;
    Envelope request;
  };

  /// Sends every request, then waits for every reply, so the requests
  /// are in flight at once: a fan-out to N servers costs one round trip,
  /// not N. Each `request.payload` must be set; the routing header is
  /// filled in here. Element i of the result answers `requests[i]`: its
  /// reply, or the transport error, the encode error, or kUnavailable on
  /// reply timeout / bus shutdown. Each request retries with its own
  /// token, independently of the others.
  [[nodiscard]] std::vector<Result<Envelope>> CallMany(
      std::vector<Outgoing> requests) EXCLUDES(mu_);

  /// CallMany() with one request.
  [[nodiscard]] Result<Envelope> Call(EndpointId dst, Envelope request)
      EXCLUDES(mu_);

  /// Fails every pending and future Call with kUnavailable. Does not
  /// touch the transport (the owner shuts that down separately).
  void Shutdown() EXCLUDES(mu_);

  EndpointId endpoint() const { return self_; }

 private:
  enum class WaitOutcome { kReply, kShutdown, kTimeout };

  /// A request whose id has been minted, plus its latest delivery.
  struct PendingCall {
    Envelope request;
    /// Result of the latest send, and when its reply is due.
    Status sent;
    std::chrono::steady_clock::time_point deadline;
  };

  void OnFrame(std::string frame) EXCLUDES(mu_);

  /// Encodes and sends attempt `attempt` of `call`, recording the send
  /// status and the reply deadline.
  void SendAttempt(PendingCall* call, std::uint32_t attempt) EXCLUDES(mu_);

  /// The retry loop: waits for the reply to `call`'s first attempt (sent
  /// already), resending the same token with backoff until a reply, a
  /// permanent error, shutdown, or the last attempt.
  [[nodiscard]] Result<Envelope> AwaitReply(PendingCall* call,
                                            std::uint64_t start_us)
      EXCLUDES(mu_);

  /// Blocks until the reply for `id` arrives (claims it into `*out`),
  /// the bus shuts down, or `deadline` passes. On kTimeout the id stays
  /// in `waiting_` so a later attempt — or a straggler reply — can still
  /// complete the call.
  [[nodiscard]] WaitOutcome WaitForReply(
      std::uint64_t id, std::chrono::steady_clock::time_point deadline,
      Envelope* out) EXCLUDES(mu_);

  /// Exponential backoff with deterministic jitter before attempt
  /// `attempt` (>= 1) of request `id`.
  [[nodiscard]] std::uint64_t BackoffUs(std::uint32_t attempt,
                                        std::uint64_t id) const;

  // audit:allow(guard, not owned; Transport implementations self-synchronize)
  Transport* const transport_;
  const EndpointId self_;
  const Options options_;
  mutable Mutex mu_{"msg.bus", lock_order::kRankMsgBus};
  CondVar reply_cv_;
  std::uint64_t next_request_id_ GUARDED_BY(mu_);
  /// Calls that have been issued and not yet completed.
  std::set<std::uint64_t> waiting_ GUARDED_BY(mu_);
  /// Replies delivered but not yet claimed by their caller.
  std::map<std::uint64_t, Envelope> done_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  Counter* const m_calls_;
  Counter* const m_timeouts_;
  Counter* const m_decode_errors_;
  Counter* const m_stale_replies_;
  Counter* const m_retries_;
  Histogram* const m_rtt_us_;
  Histogram* const m_retry_latency_us_;
};

}  // namespace hermes

#endif  // HERMES_NET_BUS_H_
