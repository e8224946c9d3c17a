// The federated client runtime: the one I/O loop around ClientSession.
//
// Owns a transport connection and a ClientSession (client_session.h), which
// holds the whole client protocol — the client half of Fig. 3: register
// (token handshake), poll for tasks, run local training, pass the result
// through the outbound filter chain, submit, repeat until the server says
// stop. The loop is continuation-driven: it hands each frame the session
// produces to `Connection::send`, posts the reply to an executor, and on
// that executor feeds the reply back to the session. A retry delay sleeps
// on the executor's thread and then rebuilds the connection through the
// `ConnectionFactory` when one is available (DESIGN.md §9).
//
// The simulator runs every site's loop on its site pool (`start`); a
// deployed site blocks in `run`. Either way it is the same loop over the
// same session.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>

#include "flare/client_session.h"
#include "flare/transport.h"

namespace cppflare::flare {

/// Builds a fresh connection to the server; called once lazily and again
/// after every transport failure. May throw TransportError (counted against
/// the same retry budget as a failed call).
using ConnectionFactory = std::function<std::unique_ptr<Connection>()>;

class FederatedClient {
 public:
  /// Runs one step of the loop: on the simulator's site pool, or on run()'s
  /// private worker. Invoked from any thread; a step it drops (a pool
  /// shutting down) ends the loop without `on_done`.
  using Executor = std::function<void(std::function<void()>)>;
  /// How the loop ended: null when the server stopped the run, otherwise
  /// the ProtocolError or TransportError that ended it.
  using DoneFn = std::function<void(std::exception_ptr)>;

  /// Single fixed connection (no reconnect on failure; retries re-use it).
  FederatedClient(ClientConfig config, Credential credential,
                  std::unique_ptr<Connection> connection,
                  std::shared_ptr<Learner> learner);
  /// Reconnecting client: the factory is invoked lazily and again after
  /// every transport failure.
  FederatedClient(ClientConfig config, Credential credential,
                  ConnectionFactory factory, std::shared_ptr<Learner> learner);

  /// The client protocol state: outbound filters, the unmask provider
  /// (DESIGN.md §14) and the protocol counters. Configure it before the
  /// loop starts; read its counters once the loop has ended.
  ClientSession& session();
  const ClientSession& session() const;
  /// Filters applied to every outbound contribution (privacy lives here).
  FilterChain& outbound_filters() { return session().outbound_filters(); }
  const std::string& site_name() const { return session().site_name(); }
  /// Connections rebuilt through the factory after transport failures.
  std::int64_t reconnects() const;

  /// Starts the loop and returns at once. Every step — the session's
  /// reaction to a reply (local training included) and every retry sleep —
  /// runs as a task on `executor`, one at a time. `on_done` fires exactly
  /// once, from the loop's last task. Call at most once. The loop keeps its
  /// state alive by itself, so the client may be destroyed while a reply is
  /// still in flight.
  void start(Executor executor, DoneFn on_done);

  /// Blocking: runs the loop on a private worker until the server stops the
  /// run. Rethrows the ProtocolError of a fatal protocol violation, or the
  /// TransportError that exhausted the retry budget.
  void run();

 private:
  struct Loop;
  std::shared_ptr<Loop> loop_;
};

}  // namespace cppflare::flare
