// Client->server request/response transports.
//
// The server side has one shape: an `AsyncDispatcher` takes sealed request
// bytes together with a `RespondFn` completion, and the server may answer
// immediately or hold the completion (a parked long-poll) and invoke it
// much later from a different thread. Two transports deliver into it:
//  * AsyncInProcConnection (below) — a function call into the dispatcher,
//    used by the simulator (NVFlare SimulatorRunner equivalent);
//  * TcpConnection/TcpServer (tcp.h) — real sockets over the epoll reactor
//    (reactor.h) for multi-process runs.
// The client side mirrors it: `Connection::send` takes a sealed frame plus
// a completion that receives the reply or the transport error. The client
// I/O loop (client.h) is written against it; `call` is a blocking helper.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/error.h"

namespace cppflare::flare {

/// Completion for one async request. Invoke exactly once with the sealed
/// response bytes; safe to call from any thread, including long after the
/// dispatching call returned (that is what a parked long-poll does). The
/// transport behind it drops the response if the originating connection has
/// died in the meantime.
using RespondFn = std::function<void(std::vector<std::uint8_t>)>;

/// Asynchronous server-side entry point: sealed request bytes plus the
/// completion to deliver the sealed response through. Must be thread-safe.
/// The implementation may call `respond` synchronously before returning
/// (the common case) or retain it and complete later (long-poll parking).
using AsyncDispatcher = std::function<void(const std::vector<std::uint8_t>&,
                                           RespondFn)>;

/// How one client-side exchange ended: the sealed reply, or (`error` set)
/// why the transport could not deliver the frame or read its answer.
struct Delivery {
  std::vector<std::uint8_t> reply;
  std::optional<std::string> error;
};
using SendDone = std::function<void(Delivery)>;

class Connection {
 public:
  virtual ~Connection() = default;

  /// Delivers one sealed frame and completes `done` exactly once; never
  /// throws. `done` may run before send returns or later on any thread (a
  /// parked long-poll's reply). One exchange at a time. Completing `done`
  /// is the last thing the connection does for the exchange, so its owner
  /// may destroy it from inside `done` or any time after.
  virtual void send(const std::vector<std::uint8_t>& frame, SendDone done) = 0;

  /// Blocking helper: send, then wait. Throws TransportError on a transport
  /// error, and when the completion is dropped without an answer.
  std::vector<std::uint8_t> call(const std::vector<std::uint8_t>& frame) {
    auto result = std::make_shared<std::promise<Delivery>>();
    std::future<Delivery> got = result->get_future();
    send(frame, [result](Delivery d) { result->set_value(std::move(d)); });
    Delivery delivery;
    try {
      delivery = got.get();
    } catch (const std::future_error&) {
      throw TransportError("channel closed with request pending");
    }
    if (delivery.error) throw TransportError(*delivery.error);
    return std::move(delivery.reply);
  }
};

/// In-process connection: `send` is the dispatcher call, so a parked
/// long-poll holds no thread on either side.
class AsyncInProcConnection : public Connection {
 public:
  explicit AsyncInProcConnection(AsyncDispatcher dispatcher)
      : dispatcher_(std::move(dispatcher)) {}

  void send(const std::vector<std::uint8_t>& frame, SendDone done) override {
    // A copy: an inline reply may let the owner destroy this connection.
    const AsyncDispatcher dispatch = dispatcher_;
    dispatch(frame, [done = std::move(done)](std::vector<std::uint8_t> reply) {
      done(Delivery{std::move(reply), std::nullopt});
    });
  }

 private:
  AsyncDispatcher dispatcher_;
};

}  // namespace cppflare::flare
