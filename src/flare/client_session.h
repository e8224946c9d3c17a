// The client half of the federated protocol as a sans-IO state machine.
//
// A ClientSession holds every rule of the client protocol — register, long
// poll, train, stamp the round, run the outbound filters, submit, answer
// mask-recovery requests, stop — plus the retry and re-registration
// discipline (DESIGN.md §9). It does no I/O and never sleeps: an I/O loop
// feeds it reply bytes (with the current time) and gets back the next
// sealed frame to deliver, a delay to wait before resending, or "done".
// One I/O loop runs it: FederatedClient (client.h), which posts each reply
// to an executor — the simulator's site pool, or the calling thread of a
// deployed site's blocking run(). cflint R15 keeps the session's reply
// calls inside client.* so a second loop cannot grow back.
//
// Failure classification, per exchange:
//  * transport failures — the I/O loop's call threw, the reply failed
//    verification, or the server answered kRetryable — are retried under
//    `ClientConfig::retry` (a fresh core::Backoff episode per exchange);
//  * kUnknownSession re-registers, then resends the interrupted exchange
//    (at most 3 times per exchange; fatal during registration itself);
//  * everything else is fatal: ProtocolError for protocol violations
//    (kFatal, kWrongJob, a reply bound to another job, a replayed reply),
//    TransportError once the retry budget or the idle limit runs out.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/backoff.h"
#include "flare/filters.h"
#include "flare/learner.h"
#include "flare/messages.h"
#include "flare/provision.h"
#include "flare/secure_channel.h"

namespace cppflare::flare {

struct ClientConfig {
  /// Job binding: stamped on every outbound envelope (the multi-job
  /// coordinator routes frames by it and rejects cross-job traffic with
  /// ErrorCode::kWrongJob) and carried into the Learner's FLContext. Empty
  /// means unbound — accepted when the peer hosts exactly one job.
  std::string job_id;
  /// Long-poll budget sent with every get_task: the server parks the call
  /// until a task is ready or this much time passed (it also clamps the
  /// value, kMaxGetTaskWaitMs). Values below 1 are sent as 1, so every
  /// poll can park and an idle client never spins.
  std::int64_t long_poll_ms = 10000;
  /// Give up if the server stays silent this long (0 = never).
  std::int64_t max_idle_ms = 60000;
  /// Retry schedule for transport-level failures (initial/max delay,
  /// multiplier, retries per failed exchange, jitter fraction, fast first
  /// retry). Each exchange gets a fresh episode, so the common transient —
  /// one lost or corrupted frame — is retried immediately; only repeated
  /// failures of the same exchange wait out the exponential schedule.
  core::BackoffPolicy retry = {10, 2000, 2.0, 5, 0.2, true};
  /// Seed for the retry jitter (combined with the site name), keeping
  /// fault-injection runs reproducible.
  std::uint64_t retry_seed = 0x9277;
};

/// The clock the I/O loop hands the session as `now_ms`: milliseconds on
/// the monotonic clock.
inline std::int64_t steady_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What the I/O loop does next.
struct ClientStep {
  enum class Kind : std::uint8_t {
    kSend,   // deliver `frame`, then hand the reply to on_reply()
    kRetry,  // the exchange failed in transit: wait `delay_ms`, then resend()
    kDone,   // the server stopped the run
  };
  Kind kind = Kind::kDone;
  std::vector<std::uint8_t> frame;
  std::int64_t delay_ms = 0;
};

class ClientSession {
 public:
  /// Answers the server's mask-recovery question (DESIGN.md §14): given the
  /// set of dropped sites and the round, return the sum of this site's
  /// pairwise masks against them so the server can subtract them from the
  /// masked aggregate. `skeleton` is the server-supplied zeros template of
  /// the expected share, for providers restarted after a crash with no
  /// upload-time state (DESIGN.md §15). A session without a provider
  /// answers an UnmaskRequest with a fatal ProtocolError, which is correct
  /// for unmasked runs (the server never asks).
  using UnmaskProvider =
      std::function<Dxo(const std::vector<std::string>& dropped,
                        std::int64_t round, const nn::StateDict& skeleton)>;

  ClientSession(ClientConfig config, Credential credential,
                std::shared_ptr<Learner> learner);

  /// Filters applied to every outbound contribution (privacy lives here).
  FilterChain& outbound_filters() { return outbound_filters_; }
  void set_unmask_provider(UnmaskProvider provider) {
    unmask_provider_ = std::move(provider);
  }

  /// The first frame: registration.
  ClientStep start();
  /// Feeds the sealed reply to the last frame sent. `now_ms` is the
  /// I/O loop's monotonic clock in ms (only differences matter; the idle
  /// limit is measured on it). Runs local training when the reply is a
  /// train task, so it may take a while.
  ClientStep on_reply(const std::vector<std::uint8_t>& sealed_reply,
                      std::int64_t now_ms);
  /// The I/O loop could not deliver the last frame or read its reply
  /// (broken socket, dropped frame, no connection). Also how the session
  /// itself books an unverifiable reply or a kRetryable server error.
  ClientStep on_transport_error(const std::string& what);
  /// After a kRetry step's delay: the current exchange, re-sealed with a
  /// fresh sequence number.
  ClientStep resend();

  std::int64_t rounds_participated() const { return rounds_participated_; }
  /// Contributions the server refused (validator rejection, quarantine,
  /// stale round).
  std::int64_t updates_rejected() const { return updates_rejected_; }
  /// Transport-level failures absorbed by the retry machinery.
  std::int64_t transport_failures() const { return transport_failures_; }
  std::int64_t reregistrations() const { return reregistrations_; }
  /// UnmaskRequests answered during mask-recovery phases.
  std::int64_t unmask_answers() const { return unmask_answers_; }
  const std::string& site_name() const { return credential_.name; }

 private:
  enum class Exchange : std::uint8_t { kRegister, kPoll, kSubmit, kUnmask };

  /// Retry state of one exchange: its backoff episode (built on the
  /// exchange's first failure — most exchanges never need one) and how
  /// many times it re-registered.
  struct Episode {
    std::optional<core::Backoff> backoff;
    std::int64_t session_recoveries = 0;
  };
  /// Starts a new exchange (fresh episode) and returns its first frame.
  ClientStep begin(Exchange exchange);
  /// Packs and seals the current exchange's frame.
  ClientStep send();
  ClientStep reregister(const std::string& detail);
  /// The current exchange succeeded with `payload`; decide the next one.
  ClientStep advance(std::span<const std::uint8_t> payload,
                     std::int64_t now_ms);
  ClientStep on_poll_reply(std::span<const std::uint8_t> payload,
                           std::int64_t now_ms);
  void train(const TaskMessage& task);

  ClientConfig config_;
  Credential credential_;
  std::shared_ptr<Learner> learner_;
  FilterChain outbound_filters_;
  UnmaskProvider unmask_provider_;
  SequenceSource seq_;
  SequenceTracker server_seq_;
  std::string session_id_;

  Exchange exchange_ = Exchange::kRegister;
  Episode episode_;
  /// The exchange a re-registration interrupted, resumed (with its own
  /// episode) once the new session is up.
  std::optional<std::pair<Exchange, Episode>> interrupted_;
  SubmitUpdateRequest pending_submit_;
  UnmaskResponse pending_unmask_;
  std::int64_t submit_started_ns_ = 0;
  std::int64_t last_progress_ms_ = 0;

  std::int64_t rounds_participated_ = 0;
  std::int64_t updates_rejected_ = 0;
  std::int64_t transport_failures_ = 0;
  std::int64_t reregistrations_ = 0;
  std::int64_t unmask_answers_ = 0;
};

}  // namespace cppflare::flare
