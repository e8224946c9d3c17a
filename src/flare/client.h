// The federated client runtime: the blocking I/O loop around ClientSession.
//
// Owns a transport connection and a ClientSession (client_session.h), which
// holds the whole client protocol — the client half of Fig. 3: register
// (token handshake), poll for tasks, run local training, pass the result
// through the outbound filter chain, submit, repeat until the server says
// stop. `run()` delivers each frame the session produces over the
// Connection, feeds the reply back, and sleeps out the session's retry
// delays, rebuilding the connection through the `ConnectionFactory` when
// one is available (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "flare/client_session.h"
#include "flare/transport.h"

namespace cppflare::flare {

/// Builds a fresh connection to the server; called once lazily and again
/// after every transport failure. May throw TransportError (counted against
/// the same retry budget as a failed call).
using ConnectionFactory = std::function<std::unique_ptr<Connection>()>;

class FederatedClient {
 public:
  /// Single fixed connection (no reconnect on failure; retries re-use it).
  FederatedClient(ClientConfig config, Credential credential,
                  std::unique_ptr<Connection> connection,
                  std::shared_ptr<Learner> learner);
  /// Reconnecting client: the factory is invoked lazily and again after
  /// every transport failure.
  FederatedClient(ClientConfig config, Credential credential,
                  ConnectionFactory factory, std::shared_ptr<Learner> learner);

  /// Filters applied to every outbound contribution (privacy lives here).
  FilterChain& outbound_filters() { return session_.outbound_filters(); }

  /// See ClientSession::UnmaskProvider. Installed by the secure-aggregation
  /// wiring; without one an UnmaskRequest is a fatal protocol error.
  using UnmaskProvider = ClientSession::UnmaskProvider;
  void set_unmask_provider(UnmaskProvider provider) {
    session_.set_unmask_provider(std::move(provider));
  }

  /// Blocking: registers and participates until the server stops the run.
  /// Throws ProtocolError on fatal protocol violations and TransportError
  /// once the retry budget for a transport failure is exhausted.
  void run();

  std::int64_t rounds_participated() const {
    return session_.rounds_participated();
  }
  /// Contributions the server refused (validator rejection, quarantine,
  /// stale round) over the client's lifetime.
  std::int64_t updates_rejected() const { return session_.updates_rejected(); }
  /// Transport-level failures absorbed by the retry machinery (dropped or
  /// corrupted frames, reconnects) over the client's lifetime.
  std::int64_t transport_failures() const {
    return session_.transport_failures();
  }
  std::int64_t reconnects() const { return reconnects_; }
  std::int64_t reregistrations() const { return session_.reregistrations(); }
  /// UnmaskRequests answered during mask-recovery phases.
  std::int64_t unmask_answers() const { return session_.unmask_answers(); }
  const std::string& site_name() const { return session_.site_name(); }

 private:
  /// Delivers one frame; throws TransportError when it cannot.
  std::vector<std::uint8_t> call(const std::vector<std::uint8_t>& frame);

  ClientSession session_;
  std::unique_ptr<Connection> connection_;
  ConnectionFactory factory_;
  std::int64_t reconnects_ = 0;
};

}  // namespace cppflare::flare
