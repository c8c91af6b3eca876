#include "net/inproc_transport.h"

#include <chrono>
#include <utility>
#include <vector>

#include "common/failpoint.h"

namespace hermes {

InProcTransport::Inbox::Inbox(EndpointId id, FrameHandler h)
    : label("msg.inbox." + std::to_string(id)),
      handler(std::move(h)),
      mu(label.c_str(),
         lock_order::kRankMsgInboxBase + static_cast<int>(id)),
      depth_gauge(MetricsRegistry::Global().GetGauge(
          "msg.inbox_depth." + std::to_string(id))) {}

InProcTransport::InProcTransport(Options options)
    : options_(options),
      m_sent_(MetricsRegistry::Global().GetCounter("msg.sent")),
      m_bytes_(MetricsRegistry::Global().GetCounter("msg.bytes")),
      m_dropped_(MetricsRegistry::Global().GetCounter("msg.dropped")),
      m_duplicated_(MetricsRegistry::Global().GetCounter("msg.duplicated")),
      m_reordered_(MetricsRegistry::Global().GetCounter("msg.reordered")) {}

InProcTransport::~InProcTransport() { Shutdown(); }

Status InProcTransport::CheckOpenableLocked(EndpointId id) const {
  if (shutdown_) {
    return Status::Unavailable("inproc transport: shut down");
  }
  if (inboxes_.count(id) != 0 || inline_endpoints_.count(id) != 0) {
    return Status::AlreadyExists("inproc transport: endpoint already open");
  }
  return Status::OK();
}

Status InProcTransport::OpenEndpoint(EndpointId id, FrameHandler handler) {
  // Inbox ranks live between the transport registry and the partition
  // servers; an id that reached kRankPartitionBase would alias a server
  // rank and blind the lock-order validator.
  if (lock_order::kRankMsgInboxBase + static_cast<int>(id) >=
      lock_order::kRankPartitionBase) {
    return Status::InvalidArgument("inproc transport: endpoint id too large");
  }
  auto inbox = std::make_unique<Inbox>(id, std::move(handler));
  Inbox* raw = inbox.get();
  {
    MutexLock lock(&mu_);
    HERMES_RETURN_NOT_OK(CheckOpenableLocked(id));
    inboxes_.emplace(id, std::move(inbox));
  }
  raw->dispatcher = std::thread(&InProcTransport::DispatchLoop, this, raw);
  return Status::OK();
}

Status InProcTransport::OpenInlineEndpoint(EndpointId id,
                                           FrameHandler handler) {
  MutexLock lock(&mu_);
  HERMES_RETURN_NOT_OK(CheckOpenableLocked(id));
  inline_endpoints_.try_emplace(id, std::move(handler));
  return Status::OK();
}

Status InProcTransport::Send(EndpointId dst, std::string frame) {
  HERMES_FAILPOINT_IOERROR("msg.send.io_error");
  Inbox* inbox = nullptr;
  InlineEndpoint* direct = nullptr;
  bool drop = false;
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      return Status::Unavailable("inproc transport: shut down");
    }
    if (auto it = inboxes_.find(dst); it != inboxes_.end()) {
      inbox = it->second.get();
    } else if (auto in = inline_endpoints_.find(dst);
               in != inline_endpoints_.end()) {
      direct = &in->second;
    } else {
      return Status::NotFound("inproc transport: no such endpoint");
    }
    if (options_.drop_every_n != 0 && dst == options_.drop_dst) {
      // Count the arrival whether or not it survives: a cadence over
      // delivered frames only would re-fire on every frame after the
      // first hit.
      ++drop_arrivals_;
      drop = (drop_arrivals_ + options_.fault_seed) %
                 options_.drop_every_n ==
             0;
    }
  }
  if (drop) {
    m_dropped_->Increment();
    return Status::OK();
  }
  // A fired receive-drop means the frame was "accepted" but never
  // arrives: the sender sees OK and the caller's reply timeout is what
  // surfaces the loss, exactly like a lossy network.
  if (HERMES_FAILPOINT_HIT("msg.recv.drop").fired) {
    m_dropped_->Increment();
    return Status::OK();
  }
  m_sent_->Increment();
  m_bytes_->Increment(frame.size());
  if (direct != nullptr) {
    DeliverInline(direct, std::move(frame));
    return Status::OK();
  }
  return Enqueue(inbox, std::move(frame));
}

void InProcTransport::DeliverInline(InlineEndpoint* endpoint,
                                    std::string frame) {
  bool duplicate = false;
  if (options_.duplicate_every_n != 0) {
    MutexLock lock(&mu_);
    ++endpoint->pushes;
    duplicate = (endpoint->pushes + options_.fault_seed) %
                    options_.duplicate_every_n ==
                0;
  }
  if (duplicate) {
    m_duplicated_->Increment();
    endpoint->handler(frame);  // the copy; the frame itself follows
  }
  endpoint->handler(std::move(frame));
}

Status InProcTransport::Enqueue(Inbox* inbox, std::string frame) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(options_.send_timeout_us);
  {
    MutexLock lock(&inbox->mu);
    while (inbox->frames.size() >= options_.inbox_capacity &&
           !inbox->stopping) {
      if (inbox->not_full.WaitUntil(&inbox->mu, deadline) ==
              std::cv_status::timeout &&
          inbox->frames.size() >= options_.inbox_capacity &&
          !inbox->stopping) {
        return Status::TimedOut("inproc transport: inbox full");
      }
    }
    if (inbox->stopping) {
      return Status::Unavailable("inproc transport: endpoint stopping");
    }
    ++inbox->pushes;
    const std::uint64_t phase = inbox->pushes + options_.fault_seed;
    const bool duplicate = options_.duplicate_every_n != 0 &&
                           phase % options_.duplicate_every_n == 0;
    const bool reorder = options_.reorder_every_n != 0 &&
                         phase % options_.reorder_every_n == 0;
    // The frame is moved into the queue; only a duplicate costs a copy.
    std::string copy = duplicate ? frame : std::string();
    if (reorder && !inbox->frames.empty()) {
      // Deliver this frame ahead of the one queued before it.
      inbox->frames.insert(inbox->frames.end() - 1, std::move(frame));
      m_reordered_->Increment();
    } else {
      inbox->frames.push_back(std::move(frame));
    }
    if (duplicate) {
      inbox->frames.push_back(std::move(copy));
      m_duplicated_->Increment();
    }
    inbox->depth_gauge->Set(static_cast<double>(inbox->frames.size()));
  }
  // Woken after the unlock, the dispatcher takes inbox->mu at once
  // instead of blocking on it behind this sender.
  inbox->not_empty.NotifyOne();
  return Status::OK();
}

void InProcTransport::DispatchLoop(Inbox* inbox) {
  for (;;) {
    std::string frame;
    {
      MutexLock lock(&inbox->mu);
      while (inbox->frames.empty() && !inbox->stopping) {
        inbox->not_empty.Wait(&inbox->mu);
      }
      if (inbox->frames.empty()) {
        return;  // stopping and fully drained
      }
      frame = std::move(inbox->frames.front());
      inbox->frames.pop_front();
      inbox->depth_gauge->Set(static_cast<double>(inbox->frames.size()));
    }
    inbox->not_full.NotifyAll();
    inbox->handler(std::move(frame));
  }
}

void InProcTransport::Shutdown() {
  std::vector<Inbox*> all;
  {
    MutexLock lock(&mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
    all.reserve(inboxes_.size());
    for (auto& [id, inbox] : inboxes_) {
      all.push_back(inbox.get());
    }
  }
  for (Inbox* inbox : all) {
    {
      MutexLock lock(&inbox->mu);
      inbox->stopping = true;
    }
    inbox->not_empty.NotifyAll();
    inbox->not_full.NotifyAll();
  }
  for (Inbox* inbox : all) {
    if (inbox->dispatcher.joinable()) {
      inbox->dispatcher.join();
    }
  }
}

}  // namespace hermes
