#include "flare/client.h"

#include "core/error.h"

namespace cppflare::flare {

FederatedClient::FederatedClient(ClientConfig config, Credential credential,
                                 std::unique_ptr<Connection> connection,
                                 std::shared_ptr<Learner> learner)
    : session_(std::move(config), std::move(credential), std::move(learner)),
      connection_(std::move(connection)) {
  if (!connection_) throw Error("FederatedClient: connection required");
}

FederatedClient::FederatedClient(ClientConfig config, Credential credential,
                                 ConnectionFactory factory,
                                 std::shared_ptr<Learner> learner)
    : session_(std::move(config), std::move(credential), std::move(learner)),
      factory_(std::move(factory)) {
  if (!factory_) throw Error("FederatedClient: connection factory required");
}

std::vector<std::uint8_t> FederatedClient::call(
    const std::vector<std::uint8_t>& frame) {
  if (!connection_) {
    if (!factory_) {
      throw TransportError(site_name() + ": connection lost and no factory");
    }
    connection_ = factory_();
    if (!connection_) {
      throw TransportError(site_name() + ": connection factory returned null");
    }
  }
  return connection_->call(frame);
}

void FederatedClient::run() {
  ClientStep step = session_.start();
  for (;;) {
    switch (step.kind) {
      case ClientStep::Kind::kDone:
        return;
      case ClientStep::Kind::kRetry:
        core::Backoff::sleep_ms(step.delay_ms);
        if (factory_ && connection_) {
          // A broken socket cannot be told apart from a lost frame; rebuild
          // the connection when we can and let the factory decide how.
          connection_.reset();
          reconnects_ += 1;
        }
        step = session_.resend();
        break;
      case ClientStep::Kind::kSend: {
        std::vector<std::uint8_t> reply;
        try {
          reply = call(step.frame);
        } catch (const TransportError& e) {
          step = session_.on_transport_error(e.what());
          break;
        }
        step = session_.on_reply(reply, steady_now_ms());
        break;
      }
    }
  }
}

}  // namespace cppflare::flare
