/// Transport abstraction under the message bus (DESIGN.md §12): moves
/// opaque, already-encoded frames between numbered endpoints. The
/// interface deliberately assumes nothing beyond byte delivery — no
/// shared memory, no ordering across endpoints, no delivery guarantee
/// stronger than "Send returning OK means the frame was accepted for
/// delivery" — so a socket-backed `hermesd` transport can slot in behind
/// the same seam as the in-process implementation.
///
/// An endpoint is either queued (OpenEndpoint: its own dispatch thread
/// runs the handler, so a sender never runs another endpoint's code) or
/// inline (OpenInlineEndpoint: the handler runs on the sending thread,
/// inside Send). A bus call is two thread handoffs: the request queues
/// to the server's dispatch thread, and the reply is delivered on that
/// thread straight into the waiting caller.
#ifndef HERMES_NET_TRANSPORT_H_
#define HERMES_NET_TRANSPORT_H_

#include <functional>
#include <string>

#include "common/status.h"
#include "net/message.h"

namespace hermes {

/// Invoked with the raw frame bytes: on the receiving endpoint's
/// dispatch thread, or on the sender's thread for an inline endpoint.
/// The handler owns the buffer and must not block on a reply from its
/// own endpoint.
using FrameHandler = std::function<void(std::string)>;

class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers `handler` as the consumer for frames addressed to `id`
  /// and starts its dispatcher. Fails if the endpoint already exists or
  /// the transport is shut down.
  [[nodiscard]] virtual Status OpenEndpoint(EndpointId id,
                                            FrameHandler handler) = 0;

  /// Registers `handler` for frames addressed to `id`, run on the
  /// sending thread inside Send: no queue and no dispatch thread. Every
  /// sender must hold no lock the handler takes. Shutdown stops new
  /// deliveries but does not wait for a handler already running, so the
  /// handler's owner must outlive every sender (the dispatch threads
  /// Shutdown joins). Same failure modes as OpenEndpoint.
  [[nodiscard]] virtual Status OpenInlineEndpoint(EndpointId id,
                                                  FrameHandler handler) = 0;

  /// Queues a frame for asynchronous delivery to `dst`, or runs an
  /// inline endpoint's handler before returning. May block while the
  /// destination inbox is at capacity (bounded queues are the
  /// backpressure mechanism). OK means accepted, not yet delivered.
  [[nodiscard]] virtual Status Send(EndpointId dst, std::string frame) = 0;

  /// Stops all dispatchers and joins their threads. Frames still queued
  /// are delivered before the dispatcher exits; subsequent Sends fail
  /// with kUnavailable. Idempotent.
  virtual void Shutdown() = 0;
};

}  // namespace hermes

#endif  // HERMES_NET_TRANSPORT_H_
