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
// The client side needs one primitive: a blocking `Connection::call` that
// delivers sealed request bytes and returns sealed response bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
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

class Connection {
 public:
  virtual ~Connection() = default;
  virtual std::vector<std::uint8_t> call(const std::vector<std::uint8_t>& request) = 0;
};

/// In-process connection over an AsyncDispatcher: `call` blocks the calling
/// thread until the server completes the request, so a parked long-poll
/// costs a blocked caller thread (exactly like a socket client) instead of a
/// retry loop. The completion may run on another thread (whichever server
/// thread drains the park); the promise/future pair carries it back here.
class AsyncInProcConnection : public Connection {
 public:
  explicit AsyncInProcConnection(AsyncDispatcher dispatcher)
      : dispatcher_(std::move(dispatcher)) {}

  std::vector<std::uint8_t> call(const std::vector<std::uint8_t>& request) override {
    auto reply = std::make_shared<std::promise<std::vector<std::uint8_t>>>();
    std::future<std::vector<std::uint8_t>> got = reply->get_future();
    dispatcher_(request, [reply](std::vector<std::uint8_t> response) {
      reply->set_value(std::move(response));
    });
    try {
      return got.get();
    } catch (const std::future_error&) {
      // The server dropped the completion without answering (teardown with
      // the request still parked) — to the caller that is a dead channel.
      throw TransportError("in-process channel closed with request pending");
    }
  }

 private:
  AsyncDispatcher dispatcher_;
};

}  // namespace cppflare::flare
