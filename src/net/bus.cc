#include "net/bus.h"

#include <chrono>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace hermes {

MessageBus::MessageBus(Transport* transport, EndpointId self, Options options)
    : transport_(transport),
      self_(self),
      options_(options),
      m_calls_(MetricsRegistry::Global().GetCounter("msg.calls")),
      m_timeouts_(MetricsRegistry::Global().GetCounter("msg.timeouts")),
      m_decode_errors_(
          MetricsRegistry::Global().GetCounter("msg.decode_errors")),
      m_stale_replies_(
          MetricsRegistry::Global().GetCounter("msg.stale_replies")),
      m_retries_(MetricsRegistry::Global().GetCounter("msg.retries")),
      m_rtt_us_(MetricsRegistry::Global().GetHistogram("msg.rtt_us")),
      m_retry_latency_us_(
          MetricsRegistry::Global().GetHistogram("msg.retry_latency_us")) {
  MutexLock lock(&mu_);
  next_request_id_ = options_.first_request_id == 0 ? 1
                                                    : options_.first_request_id;
}

Status MessageBus::Start() {
  // Inline: a reply is decoded and handed to its waiter on the thread
  // that sent it (a server's dispatch thread, which replies holding no
  // lock), not on a dispatch thread of the bus's own.
  return transport_->OpenInlineEndpoint(
      self_, [this](std::string frame) { OnFrame(std::move(frame)); });
}

Result<Envelope> MessageBus::Call(EndpointId dst, Envelope request) {
  std::vector<Outgoing> one;
  one.push_back({dst, std::move(request)});
  return std::move(CallMany(std::move(one)).front());
}

std::vector<Result<Envelope>> MessageBus::CallMany(
    std::vector<Outgoing> requests) {
  std::vector<PendingCall> calls(requests.size());
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      return std::vector<Result<Envelope>>(
          requests.size(), Status::Unavailable("message bus: shut down"));
    }
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Envelope& request = calls[i].request;
      request = std::move(requests[i].request);
      request.src = self_;
      request.dst = requests[i].dst;
      request.request_id = next_request_id_++;
      waiting_.insert(request.request_id);
    }
  }
  const std::uint64_t start_us = SteadyNowMicros();
  m_calls_->Increment(calls.size());
  // Every first attempt is on the wire before any reply is awaited;
  // replies that arrive while an earlier request is still being awaited
  // wait in done_ for their turn.
  for (PendingCall& call : calls) SendAttempt(&call, 0);
  std::vector<Result<Envelope>> replies;
  replies.reserve(calls.size());
  for (PendingCall& call : calls) {
    replies.push_back(AwaitReply(&call, start_us));
  }
  return replies;
}

void MessageBus::SendAttempt(PendingCall* call, std::uint32_t attempt) {
  // Every attempt resends the SAME request id — the idempotency token.
  // A server that already applied this mutation replays its cached
  // reply instead of re-executing, which is what makes the retry loop
  // exactly-once rather than at-least-once.
  call->request.attempt = static_cast<std::uint16_t>(attempt);
  auto encoded = EncodeFrame(call->request);
  if (!encoded.ok()) {
    call->sent = encoded.status();
    return;
  }
  // The pending-table mutex is NOT held across Send: a bounded inbox
  // can block the sender, and the reply handler needs the mutex to
  // complete this very call.
  call->sent = transport_->Send(call->request.dst, std::move(*encoded));
  call->deadline = std::chrono::steady_clock::now() +
                   std::chrono::microseconds(options_.call_timeout_us);
}

Result<Envelope> MessageBus::AwaitReply(PendingCall* call,
                                        std::uint64_t start_us) {
  const std::uint64_t id = call->request.request_id;
  auto cleanup = [this, id]() EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    waiting_.erase(id);
    done_.erase(id);
  };
  const std::uint32_t max_attempts =
      options_.max_attempts == 0 ? 1 : options_.max_attempts;
  Envelope reply;
  bool have_reply = false;
  std::uint32_t attempts_used = 1;
  Status last_error =
      Status::Unavailable("message bus: reply timed out (retryable)");
  for (std::uint32_t attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential, deterministically jittered backoff before every
      // resend. The wait parks on reply_cv_ (never a raw sleep), so a
      // straggler reply from an earlier attempt completes the call
      // mid-backoff instead of after it.
      const auto backoff_deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(BackoffUs(attempt, id));
      const WaitOutcome w = WaitForReply(id, backoff_deadline, &reply);
      if (w == WaitOutcome::kShutdown) {
        return Status::Unavailable("message bus: shut down");
      }
      if (w == WaitOutcome::kReply) {
        have_reply = true;
        break;
      }
      m_retries_->Increment();
      attempts_used = attempt + 1;
      SendAttempt(call, attempt);
    }
    if (!call->sent.ok()) {
      last_error = call->sent;
      if (last_error.IsNotFound() || last_error.IsInvalidArgument()) {
        // No such endpoint / malformed destination / unencodable
        // request: permanent, fail fast.
        cleanup();
        return last_error;
      }
      continue;  // retryable send failure: back off, then resend
    }
    const WaitOutcome w = WaitForReply(id, call->deadline, &reply);
    if (w == WaitOutcome::kShutdown) {
      return Status::Unavailable("message bus: shut down");
    }
    if (w == WaitOutcome::kReply) {
      have_reply = true;
      break;
    }
    m_timeouts_->Increment();
    last_error =
        Status::Unavailable("message bus: reply timed out (retryable)");
  }
  if (!have_reply) {
    cleanup();
    return last_error;
  }
  const std::uint64_t elapsed = SteadyNowMicros() - start_us;
  m_rtt_us_->Record(elapsed);
  if (attempts_used > 1) {
    // Latency distribution of calls that needed at least one retry: the
    // price of a lost frame under the exactly-once contract.
    m_retry_latency_us_->Record(elapsed);
  }
  return reply;
}

MessageBus::WaitOutcome MessageBus::WaitForReply(
    std::uint64_t id, std::chrono::steady_clock::time_point deadline,
    Envelope* out) {
  MutexLock lock(&mu_);
  for (;;) {
    auto it = done_.find(id);
    if (it != done_.end()) {
      *out = std::move(it->second);
      done_.erase(it);
      waiting_.erase(id);
      return WaitOutcome::kReply;
    }
    if (shutdown_) {
      waiting_.erase(id);
      return WaitOutcome::kShutdown;
    }
    if (reply_cv_.WaitUntil(&mu_, deadline) == std::cv_status::timeout &&
        done_.find(id) == done_.end() && !shutdown_) {
      // The id stays in waiting_: a later attempt (or a straggler reply
      // beating the next resend) can still complete this call.
      return WaitOutcome::kTimeout;
    }
  }
}

std::uint64_t MessageBus::BackoffUs(std::uint32_t attempt,
                                    std::uint64_t id) const {
  const std::uint64_t base = attempt >= 64
                                 ? options_.retry_backoff_us
                                 : options_.retry_backoff_us << (attempt - 1);
  if (base == 0) return 0;
  Rng jitter(options_.retry_jitter_seed ^ (id * 0x9e3779b97f4a7c15ULL) ^
             attempt);
  return base + jitter.Uniform(base);
}

void MessageBus::Shutdown() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  reply_cv_.NotifyAll();
}

void MessageBus::OnFrame(std::string frame) {
  auto env = DecodeFrame(frame);
  if (!env.ok()) {
    m_decode_errors_->Increment();
    return;
  }
  {
    MutexLock lock(&mu_);
    const std::uint64_t id = env->request_id;
    if (waiting_.find(id) == waiting_.end() ||
        !done_.try_emplace(id, std::move(*env)).second) {
      // A duplicate of a reply already delivered (claimed or not), or a
      // reply whose caller has given up. The first delivery stands.
      m_stale_replies_->Increment();
      return;
    }
  }
  // The waiter reacquires mu_ as soon as it wakes, so wake it only once
  // mu_ is free. The bus outlives this call: the transport is shut down,
  // joining every thread that delivers here, before the bus is destroyed.
  reply_cv_.NotifyAll();
}

}  // namespace hermes
