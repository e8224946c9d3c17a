#include "flare/client.h"

#include <future>

#include "core/error.h"
#include "core/thread_pool.h"

namespace cppflare::flare {

/// The loop's state, shared with the completion in flight so that a reply
/// arriving after the client is gone never touches freed memory.
///
/// Threading: the loop has at most one exchange outstanding, and each step
/// schedules the next, so the session and the connection are touched by one
/// executor task at a time; the executor's queue supplies the
/// happens-before edge between consecutive steps.
struct FederatedClient::Loop : std::enable_shared_from_this<Loop> {
  Loop(ClientConfig config, Credential credential,
       std::shared_ptr<Learner> learner, std::unique_ptr<Connection> connection,
       ConnectionFactory factory)
      : session(std::move(config), std::move(credential), std::move(learner)),
        connection(std::move(connection)),
        factory(std::move(factory)) {}

  /// Runs on the executor: takes the session's next step and acts on it
  /// until a frame is in flight or the loop ends.
  void drive(const std::function<ClientStep()>& next_step) {
    try {
      ClientStep step = next_step();
      for (;;) {
        if (step.kind == ClientStep::Kind::kDone) return on_done(nullptr);
        if (step.kind == ClientStep::Kind::kRetry) {
          core::Backoff::sleep_ms(step.delay_ms);
          if (factory && connection) {
            // A broken socket cannot be told apart from a lost frame;
            // rebuild the connection when we can and let the factory
            // decide how.
            connection.reset();
            reconnects += 1;
          }
          step = session.resend();
          continue;
        }
        try {
          if (!connection) connection = factory();
          if (!connection) {
            throw TransportError(session.site_name() +
                                 ": connection factory returned null");
          }
        } catch (const TransportError& e) {
          step = session.on_transport_error(e.what());
          continue;
        }
        connection->send(step.frame, [self = shared_from_this()](Delivery d) {
          self->executor([self, d = std::move(d)] {
            self->drive([&] {
              return d.error ? self->session.on_transport_error(*d.error)
                             : self->session.on_reply(d.reply, steady_now_ms());
            });
          });
        });
        return;
      }
    } catch (...) {
      on_done(std::current_exception());
    }
  }

  ClientSession session;
  std::unique_ptr<Connection> connection;
  ConnectionFactory factory;
  std::int64_t reconnects = 0;
  Executor executor;
  DoneFn on_done;
};

FederatedClient::FederatedClient(ClientConfig config, Credential credential,
                                 std::unique_ptr<Connection> connection,
                                 std::shared_ptr<Learner> learner) {
  if (!connection) throw Error("FederatedClient: connection required");
  loop_ = std::make_shared<Loop>(std::move(config), std::move(credential),
                                 std::move(learner), std::move(connection),
                                 nullptr);
}

FederatedClient::FederatedClient(ClientConfig config, Credential credential,
                                 ConnectionFactory factory,
                                 std::shared_ptr<Learner> learner) {
  if (!factory) throw Error("FederatedClient: connection factory required");
  loop_ = std::make_shared<Loop>(std::move(config), std::move(credential),
                                 std::move(learner), nullptr,
                                 std::move(factory));
}

ClientSession& FederatedClient::session() { return loop_->session; }
const ClientSession& FederatedClient::session() const { return loop_->session; }
std::int64_t FederatedClient::reconnects() const { return loop_->reconnects; }

void FederatedClient::start(Executor executor, DoneFn on_done) {
  if (loop_->executor) throw Error("FederatedClient: loop already started");
  loop_->executor = std::move(executor);
  loop_->on_done = std::move(on_done);
  loop_->executor(
      [loop = loop_] { loop->drive([&] { return loop->session.start(); }); });
}

void FederatedClient::run() {
  std::promise<void> finished;
  std::future<void> ended = finished.get_future();
  core::ThreadPool worker(1);
  start([&worker](std::function<void()> step) { worker.post(std::move(step)); },
        [&finished](std::exception_ptr error) {
          if (error) {
            finished.set_exception(error);
          } else {
            finished.set_value();
          }
        });
  ended.get();
}

}  // namespace cppflare::flare
