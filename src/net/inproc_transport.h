/// In-process Transport: a queued endpoint gets one bounded frame queue
/// ("inbox") drained by a dedicated dispatch thread; an inline endpoint
/// has neither and runs its handler inside Send. This is the first
/// transport behind the bus seam — it exercises the full encode/queue/
/// dispatch path and all of its failure modes (full inboxes, injected
/// send errors, dropped/duplicated/reordered frames) without sockets, so
/// the cluster logic is already written against real message semantics
/// when a socket `hermesd` transport arrives.
///
/// Fault injection: `msg.send.io_error` and `msg.recv.drop` failpoints
/// fire at the send boundary; seeded duplicate/reorder cadences are
/// plain Options so every build preset can exercise them
/// deterministically. All of them apply to inline endpoints too, except
/// reordering: an inline frame is delivered before Send returns, so
/// there is no queued predecessor to overtake.
#ifndef HERMES_NET_INPROC_TRANSPORT_H_
#define HERMES_NET_INPROC_TRANSPORT_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/lock_order.h"
#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "net/transport.h"

namespace hermes {

class InProcTransport final : public Transport {
 public:
  struct Options {
    /// Frames an inbox may hold before Send blocks (backpressure).
    std::size_t inbox_capacity = 1024;
    /// How long Send waits on a full inbox before giving up.
    std::uint64_t send_timeout_us = 10'000'000;
    /// Every n-th accepted frame is delivered twice (0 = off).
    std::uint64_t duplicate_every_n = 0;
    /// Every n-th accepted frame is delivered before its predecessor
    /// (0 = off).
    std::uint64_t reorder_every_n = 0;
    /// Phase offset for the duplicate/reorder/drop cadences, so
    /// different seeds hit different frames.
    std::uint64_t fault_seed = 0;
    /// Every n-th frame addressed to `drop_dst` vanishes after Send
    /// returns OK (0 = off) — the sender only learns via its reply
    /// timeout, exactly like a lossy network. Unlike the msg.recv.drop
    /// failpoint this is plain configuration, so benchmarks in every
    /// build preset can measure retry cost deterministically. The
    /// cadence counts every arrival (dropped frames included), so a hit
    /// never shifts the phase onto the frames that follow it.
    std::uint64_t drop_every_n = 0;
    EndpointId drop_dst = 0;
  };

  explicit InProcTransport(Options options);
  ~InProcTransport() override;

  [[nodiscard]] Status OpenEndpoint(EndpointId id,
                                    FrameHandler handler) override
      EXCLUDES(mu_);
  [[nodiscard]] Status OpenInlineEndpoint(EndpointId id,
                                          FrameHandler handler) override
      EXCLUDES(mu_);
  [[nodiscard]] Status Send(EndpointId dst, std::string frame) override
      EXCLUDES(mu_);
  void Shutdown() override EXCLUDES(mu_);

 private:
  /// One endpoint's bounded queue plus the thread that drains it. The
  /// mutex rank is kRankMsgInboxBase + id: above the bus/transport
  /// registry (senders may hold those), below every partition server
  /// (dispatch handlers acquire server mutexes with nothing held).
  struct Inbox {
    Inbox(EndpointId id, FrameHandler h);

    const std::string label;
    const FrameHandler handler;
    Mutex mu;
    CondVar not_empty;
    CondVar not_full;
    std::deque<std::string> frames GUARDED_BY(mu);
    bool stopping GUARDED_BY(mu) = false;
    /// Accepted-frame counter driving the fault cadences.
    std::uint64_t pushes GUARDED_BY(mu) = 0;
    Gauge* const depth_gauge;
    // audit:allow(guard, joined exactly once by Shutdown after `stopping`
    // is published under `mu`; never touched concurrently)
    std::thread dispatcher;
  };

  /// An endpoint whose handler runs on the sender's thread.
  struct InlineEndpoint {
    explicit InlineEndpoint(FrameHandler h) : handler(std::move(h)) {}

    const FrameHandler handler;
    /// Accepted-frame counter driving the duplicate cadence. Guarded by
    /// the transport's mu_, like the map that owns this entry.
    std::uint64_t pushes = 0;
  };

  /// AlreadyExists if `id` is open (either kind), Unavailable after
  /// Shutdown.
  [[nodiscard]] Status CheckOpenableLocked(EndpointId id) const
      REQUIRES(mu_);
  [[nodiscard]] Status Enqueue(Inbox* inbox, std::string frame);
  void DeliverInline(InlineEndpoint* endpoint, std::string frame)
      EXCLUDES(mu_);
  void DispatchLoop(Inbox* inbox);

  const Options options_;
  mutable Mutex mu_{"msg.transport", lock_order::kRankMsgTransport};
  std::map<EndpointId, std::unique_ptr<Inbox>> inboxes_ GUARDED_BY(mu_);
  std::map<EndpointId, InlineEndpoint> inline_endpoints_ GUARDED_BY(mu_);
  bool shutdown_ GUARDED_BY(mu_) = false;
  /// Arrivals at `drop_dst`, dropped frames included, driving the
  /// Options::drop_every_n cadence.
  std::uint64_t drop_arrivals_ GUARDED_BY(mu_) = 0;
  Counter* const m_sent_;
  Counter* const m_bytes_;
  Counter* const m_dropped_;
  Counter* const m_duplicated_;
  Counter* const m_reordered_;
};

}  // namespace hermes

#endif  // HERMES_NET_INPROC_TRANSPORT_H_
