// ClientSession without threads or sockets: every reply is scripted and
// sealed under the site's channel key as "server", every frame the session
// produces is opened and checked, and time is whatever the test says it is.
#include "flare/client_session.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/logging.h"
#include "flare/messages.h"
#include "flare/provision.h"
#include "flare/secure_channel.h"
#include "test_util.h"

namespace cppflare::flare {
namespace {

using cppflare::testing::dict_of;

constexpr const char* kJob = "session-job";

/// Returns a fixed update and counts how often it trained.
class CountingLearner : public Learner {
 public:
  Dxo train(const Dxo&, const FLContext& ctx) override {
    trained += 1;
    last_round = ctx.current_round;
    Dxo update(DxoKind::kWeights, dict_of({1.0f, 2.0f}));
    update.set_meta_int(Dxo::kMetaNumSamples, 10);
    return update;
  }
  std::string site_name() const override { return "site-1"; }

  int trained = 0;
  std::int64_t last_round = -1;
};

/// Marks every update it sees, proving the outbound chain ran.
class MarkFilter : public Filter {
 public:
  void process(Dxo& dxo, const FLContext&) override {
    dxo.set_meta_int("marked", 1);
  }
  std::string name() const override { return "Mark"; }
};

class ClientSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
    site_ = Provisioner(kJob, 5).provision("site-1");
    config_.job_id = kJob;
    config_.long_poll_ms = 7000;
    config_.max_idle_ms = 0;
  }
  void TearDown() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }

  std::unique_ptr<ClientSession> make_session() {
    return std::make_unique<ClientSession>(config_, site_, learner_);
  }

  /// A reply as the server would seal it, bound to `job_id`.
  std::vector<std::uint8_t> reply(const std::vector<std::uint8_t>& payload,
                                  const std::string& job_id = kJob) {
    return seal("server", site_.secret, server_seq_.next(), payload, job_id);
  }

  /// Opens the frame a kSend step carries and checks its envelope.
  Envelope sent(const ClientStep& step) {
    EXPECT_EQ(step.kind, ClientStep::Kind::kSend);
    const Envelope env = open(step.frame, site_.secret);
    EXPECT_EQ(env.sender, "site-1");
    EXPECT_EQ(env.job_id, kJob);
    EXPECT_GT(env.sequence, last_sequence_) << "sequence must increase";
    last_sequence_ = env.sequence;
    return env;
  }

  std::vector<std::uint8_t> task(TaskKind kind, std::int64_t round = 0) {
    TaskMessage t;
    t.task = kind;
    t.round = round;
    t.total_rounds = 2;
    if (kind == TaskKind::kTrain) {
      t.payload = Dxo(DxoKind::kWeights, dict_of({0.0f, 0.0f}));
    }
    return pack(t);
  }

  std::vector<std::uint8_t> error(ErrorCode code) {
    return pack(ErrorMessage{"scripted", code});
  }

  /// Registers (session "s1") and returns the first poll step.
  ClientStep registered(ClientSession& session, std::int64_t now_ms = 0) {
    EXPECT_EQ(peek_type(sent(session.start()).payload), MsgType::kRegister);
    return session.on_reply(reply(pack(RegisterAck{true, "s1", ""})), now_ms);
  }

  Credential site_;
  ClientConfig config_;
  std::shared_ptr<CountingLearner> learner_ =
      std::make_shared<CountingLearner>();
  SequenceSource server_seq_;
  std::uint64_t last_sequence_ = 0;
};

TEST_F(ClientSessionTest, FullProtocolRunCountsEveryOutcome) {
  auto session = make_session();
  session->outbound_filters().add(std::make_shared<MarkFilter>());
  std::vector<std::string> asked_dropped;
  session->set_unmask_provider([&](const std::vector<std::string>& dropped,
                                   std::int64_t, const nn::StateDict&) {
    asked_dropped = dropped;
    return Dxo(DxoKind::kWeights, dict_of({9.0f, 9.0f}));
  });

  const RegisterRequest reg = decode_register(sent(session->start()).payload);
  EXPECT_EQ(reg.site_name, "site-1");
  EXPECT_EQ(reg.token, site_.token);
  ClientStep step =
      session->on_reply(reply(pack(RegisterAck{true, "s1", ""})), 0);
  GetTaskRequest poll = decode_get_task(sent(step).payload);
  EXPECT_EQ(poll.session_id, "s1");
  EXPECT_EQ(poll.wait_ms, 7000);

  // Nothing to do yet: poll again.
  step = session->on_reply(reply(task(TaskKind::kNone)), 10);
  EXPECT_EQ(peek_type(sent(step).payload), MsgType::kGetTask);

  // Round 0: train, stamp, filter, submit.
  step = session->on_reply(reply(task(TaskKind::kTrain, 0)), 20);
  EXPECT_EQ(learner_->trained, 1);
  EXPECT_EQ(learner_->last_round, 0);
  SubmitUpdateRequest submit = decode_submit(sent(step).payload);
  EXPECT_EQ(submit.session_id, "s1");
  EXPECT_EQ(submit.round, 0);
  EXPECT_EQ(submit.payload.meta_int(Dxo::kMetaRound, -1), 0);
  EXPECT_EQ(submit.payload.meta_int("marked", 0), 1);

  // An earlier attempt landed but its ack was lost: the round still counts.
  step = session->on_reply(
      reply(pack(SubmitAck{false, kDuplicateContribution, RejectReason::kDuplicate})),
      30);
  EXPECT_EQ(session->rounds_participated(), 1);
  EXPECT_EQ(session->updates_rejected(), 0);
  EXPECT_EQ(peek_type(sent(step).payload), MsgType::kGetTask);

  // Mask recovery: answer with the provider's share.
  UnmaskRequest unmask;
  unmask.round = 0;
  unmask.wave = 1;
  unmask.dropped = {"site-2"};
  step = session->on_reply(reply(pack(unmask)), 40);
  EXPECT_EQ(asked_dropped, (std::vector<std::string>{"site-2"}));
  const UnmaskResponse share = decode_unmask_response(sent(step).payload);
  EXPECT_EQ(share.session_id, "s1");
  EXPECT_EQ(share.round, 0);
  EXPECT_EQ(share.wave, 1);
  EXPECT_EQ(share.share.data().at("w").values, (std::vector<float>{9.0f, 9.0f}));
  step = session->on_reply(reply(pack(SubmitAck{true, "", RejectReason::kNone})), 50);
  EXPECT_EQ(session->unmask_answers(), 1);
  EXPECT_EQ(peek_type(sent(step).payload), MsgType::kGetTask);

  // Round 1: the server turns the contribution away.
  step = session->on_reply(reply(task(TaskKind::kTrain, 1)), 60);
  EXPECT_EQ(decode_submit(sent(step).payload).round, 1);
  step = session->on_reply(
      reply(pack(SubmitAck{false, "stale round", RejectReason::kStaleRound})), 70);
  EXPECT_EQ(peek_type(sent(step).payload), MsgType::kGetTask);

  step = session->on_reply(reply(task(TaskKind::kStop)), 80);
  EXPECT_EQ(step.kind, ClientStep::Kind::kDone);
  EXPECT_EQ(learner_->trained, 2);
  EXPECT_EQ(session->rounds_participated(), 1);
  EXPECT_EQ(session->updates_rejected(), 1);
  EXPECT_EQ(session->unmask_answers(), 1);
  EXPECT_EQ(session->transport_failures(), 0);
  EXPECT_EQ(session->reregistrations(), 0);
}

TEST_F(ClientSessionTest, UnknownSessionDuringSubmitReregistersAndResends) {
  auto session = make_session();
  ClientStep step = registered(*session);
  step = session->on_reply(reply(task(TaskKind::kTrain, 3)), 0);
  const SubmitUpdateRequest first = decode_submit(sent(step).payload);
  EXPECT_EQ(first.session_id, "s1");

  // The server restarted and forgot us: re-register first...
  step = session->on_reply(reply(error(ErrorCode::kUnknownSession)), 0);
  EXPECT_EQ(peek_type(sent(step).payload), MsgType::kRegister);
  EXPECT_EQ(session->reregistrations(), 1);
  // ...then resend the same round's update under the new session.
  step = session->on_reply(reply(pack(RegisterAck{true, "s2", ""})), 0);
  const SubmitUpdateRequest resent = decode_submit(sent(step).payload);
  EXPECT_EQ(resent.session_id, "s2");
  EXPECT_EQ(resent.round, 3);
  EXPECT_EQ(resent.payload.data().at("w").values,
            first.payload.data().at("w").values);
  EXPECT_EQ(learner_->trained, 1);  // no retraining

  step = session->on_reply(reply(pack(SubmitAck{true, "", RejectReason::kNone})), 0);
  EXPECT_EQ(decode_get_task(sent(step).payload).session_id, "s2");
  EXPECT_EQ(session->rounds_participated(), 1);
  EXPECT_EQ(session->transport_failures(), 0);
}

TEST_F(ClientSessionTest, ReregistrationIsBoundedPerExchange) {
  auto session = make_session();
  ClientStep step = registered(*session);
  for (int i = 0; i < 3; ++i) {
    step = session->on_reply(reply(error(ErrorCode::kUnknownSession)), 0);
    EXPECT_EQ(peek_type(sent(step).payload), MsgType::kRegister);
    step = session->on_reply(reply(pack(RegisterAck{true, "s", ""})), 0);
    EXPECT_EQ(peek_type(sent(step).payload), MsgType::kGetTask);
  }
  EXPECT_THROW(
      (void)session->on_reply(reply(error(ErrorCode::kUnknownSession)), 0),
      ProtocolError);
  EXPECT_EQ(session->reregistrations(), 3);
}

TEST_F(ClientSessionTest, UnknownSessionDuringRegistrationIsFatal) {
  auto session = make_session();
  (void)sent(session->start());
  EXPECT_THROW(
      (void)session->on_reply(reply(error(ErrorCode::kUnknownSession)), 0),
      ProtocolError);
}

TEST_F(ClientSessionTest, WrongJobErrorIsFatal) {
  auto session = make_session();
  (void)registered(*session);
  EXPECT_THROW((void)session->on_reply(reply(error(ErrorCode::kWrongJob)), 0),
               ProtocolError);
}

TEST_F(ClientSessionTest, ReplyBoundToAnotherJobIsFatal) {
  auto session = make_session();
  (void)registered(*session);
  EXPECT_THROW(
      (void)session->on_reply(reply(task(TaskKind::kNone), "other-job"), 0),
      ProtocolError);
}

TEST_F(ClientSessionTest, FatalServerErrorAndRejectedRegistrationThrow) {
  auto session = make_session();
  (void)registered(*session);
  EXPECT_THROW((void)session->on_reply(reply(error(ErrorCode::kFatal)), 0),
               ProtocolError);

  auto refused = make_session();
  (void)refused->start();
  EXPECT_THROW((void)refused->on_reply(
                   reply(pack(RegisterAck{false, "", "bad token"})), 0),
               ProtocolError);
}

TEST_F(ClientSessionTest, RetryBudgetRunsOutAfterMaxRetries) {
  config_.retry = {10, 40, 2.0, 3, 0.0, /*fast_first_retry=*/true};
  auto session = make_session();
  ClientStep step = registered(*session);
  (void)sent(step);

  // Three different transport failures of the same exchange: a retryable
  // server error, an unverifiable reply, and a failed delivery. Each is
  // answered with the backoff schedule, then a fresh re-seal of the poll.
  step = session->on_reply(reply(error(ErrorCode::kRetryable)), 0);
  EXPECT_EQ(step.kind, ClientStep::Kind::kRetry);
  EXPECT_EQ(step.delay_ms, 0);  // fast first retry
  EXPECT_EQ(peek_type(sent(session->resend()).payload), MsgType::kGetTask);

  step = session->on_reply({0xde, 0xad}, 0);
  EXPECT_EQ(step.kind, ClientStep::Kind::kRetry);
  EXPECT_EQ(step.delay_ms, 10);
  EXPECT_EQ(peek_type(sent(session->resend()).payload), MsgType::kGetTask);

  step = session->on_transport_error("connection reset");
  EXPECT_EQ(step.kind, ClientStep::Kind::kRetry);
  EXPECT_EQ(step.delay_ms, 20);
  EXPECT_EQ(peek_type(sent(session->resend()).payload), MsgType::kGetTask);

  EXPECT_THROW((void)session->on_transport_error("connection reset"),
               TransportError);
  EXPECT_EQ(session->transport_failures(), 4);
}

TEST_F(ClientSessionTest, EachExchangeGetsAFreshRetryBudget) {
  config_.retry = {10, 40, 2.0, 1, 0.0, /*fast_first_retry=*/true};
  auto session = make_session();
  ClientStep step = registered(*session);
  for (int exchange = 0; exchange < 3; ++exchange) {
    EXPECT_EQ(session->on_transport_error("lost").kind,
              ClientStep::Kind::kRetry);
    (void)sent(session->resend());
    step = session->on_reply(reply(task(TaskKind::kNone)), 0);
    (void)sent(step);
  }
  EXPECT_EQ(session->transport_failures(), 3);
}

TEST_F(ClientSessionTest, IdleLimitTripsOnTheInjectedClock) {
  config_.max_idle_ms = 1000;
  auto session = make_session();
  ClientStep step = registered(*session, /*now_ms=*/5000);
  step = session->on_reply(reply(task(TaskKind::kNone)), 5999);
  EXPECT_EQ(peek_type(sent(step).payload), MsgType::kGetTask);
  EXPECT_THROW((void)session->on_reply(reply(task(TaskKind::kNone)), 6000),
               TransportError);
}

TEST_F(ClientSessionTest, TrainingResetsTheIdleClock) {
  config_.max_idle_ms = 1000;
  auto session = make_session();
  ClientStep step = registered(*session, 0);
  step = session->on_reply(reply(task(TaskKind::kTrain, 0)), 900);
  (void)sent(step);
  step = session->on_reply(reply(pack(SubmitAck{true, "", RejectReason::kNone})),
                           950);
  step = session->on_reply(reply(task(TaskKind::kNone)), 1800);
  EXPECT_EQ(peek_type(sent(step).payload), MsgType::kGetTask);
}

TEST_F(ClientSessionTest, UnmaskRequestWithoutProviderIsFatal) {
  auto session = make_session();
  (void)registered(*session);
  UnmaskRequest unmask;
  unmask.dropped = {"site-2"};
  EXPECT_THROW((void)session->on_reply(reply(pack(unmask)), 0), ProtocolError);
}

}  // namespace
}  // namespace cppflare::flare
