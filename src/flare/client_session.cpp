#include "flare/client_session.h"

#include <algorithm>

#include "core/error.h"
#include "core/logging.h"
#include "core/trace.h"

#define CPPFLARE_LOG_COMPONENT "FederatedClient"

namespace cppflare::flare {

namespace {
/// Stable string hash (FNV-1a) so retry jitter is reproducible per site
/// across processes, unlike std::hash.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

ClientStep step_of(ClientStep::Kind kind) {
  ClientStep step;
  step.kind = kind;
  return step;
}
}  // namespace

ClientSession::ClientSession(ClientConfig config, Credential credential,
                             std::shared_ptr<Learner> learner)
    : config_(std::move(config)),
      credential_(std::move(credential)),
      learner_(std::move(learner)) {
  if (!learner_) throw Error("ClientSession: learner required");
}

ClientStep ClientSession::start() { return begin(Exchange::kRegister); }

ClientStep ClientSession::begin(Exchange exchange) {
  exchange_ = exchange;
  episode_ = Episode{};
  return send();
}

ClientStep ClientSession::resend() { return send(); }

ClientStep ClientSession::send() {
  std::vector<std::uint8_t> body;
  switch (exchange_) {
    case Exchange::kRegister:
      body = pack(RegisterRequest{credential_.name, credential_.token});
      break;
    case Exchange::kPoll:
      body = pack(GetTaskRequest{
          session_id_, std::max<std::int64_t>(1, config_.long_poll_ms)});
      break;
    case Exchange::kSubmit:
      // Rebuilt per attempt: a re-registration changes the session id.
      pending_submit_.session_id = session_id_;
      body = pack(pending_submit_);
      break;
    case Exchange::kUnmask:
      pending_unmask_.session_id = session_id_;
      body = pack(pending_unmask_);
      break;
  }
  // Every attempt is sealed with a fresh sequence number, so a resend never
  // trips the server's replay protection. The envelope is bound to our job
  // so the multi-job router can dispatch it (and a cross-job replay fails
  // the MAC on the other job's channel).
  ClientStep step = step_of(ClientStep::Kind::kSend);
  step.frame = seal(credential_.name, credential_.secret, seq_.next(), body,
                    config_.job_id);
  return step;
}

ClientStep ClientSession::on_transport_error(const std::string& what) {
  transport_failures_ += 1;
  if (!episode_.backoff) {
    episode_.backoff.emplace(config_.retry,
                             config_.retry_seed ^ fnv1a(credential_.name));
  }
  const std::int64_t delay = episode_.backoff->next_retry_ms();
  if (delay < 0) {
    LOG(warn)
        .msg("giving up:")
        .msg(what)
        .kv("site", credential_.name)
        .kv("retries", episode_.backoff->retries());
    throw TransportError(what);
  }
  LOG(warn)
      .msg("transport failure:")
      .msg(what)
      .kv("site", credential_.name)
      .kv("retry", episode_.backoff->retries())
      .kv("max_retries", config_.retry.max_retries);
  ClientStep step = step_of(ClientStep::Kind::kRetry);
  step.delay_ms = delay;
  return step;
}

ClientStep ClientSession::reregister(const std::string& detail) {
  if (exchange_ == Exchange::kRegister ||
      ++episode_.session_recoveries > 3) {
    throw ProtocolError(credential_.name +
                        ": session repeatedly rejected: " + detail);
  }
  LOG(warn)
      .msg("session unknown to server; re-registering")
      .kv("site", credential_.name)
      .kv("detail", detail);
  reregistrations_ += 1;
  interrupted_.emplace(exchange_, std::move(episode_));
  return begin(Exchange::kRegister);
}

ClientStep ClientSession::on_reply(const std::vector<std::uint8_t>& sealed_reply,
                                   std::int64_t now_ms) {
  Envelope env;
  try {
    env = open(sealed_reply, credential_.secret);
  } catch (const Error& e) {
    // The reply failed verification: corrupted in flight, or the server
    // could not even identify us (its error was sealed under an empty key).
    // Either way the request may not have taken effect — retry.
    return on_transport_error(credential_.name +
                              ": response unverifiable: " + e.what());
  }
  if (env.sender != "server") {
    throw ProtocolError("response not from server but '" + env.sender + "'");
  }
  if (!config_.job_id.empty() && !env.job_id.empty() &&
      env.job_id != config_.job_id) {
    throw ProtocolError(credential_.name + ": response bound to job '" +
                        env.job_id + "', expected '" + config_.job_id + "'");
  }
  server_seq_.check_and_advance(env.sender, env.sequence);
  if (peek_type(env.payload) == MsgType::kError) {
    const ErrorMessage err = decode_error(env.payload);
    switch (err.code) {
      case ErrorCode::kRetryable:
        return on_transport_error("server (retryable): " + err.message);
      case ErrorCode::kUnknownSession:
        return reregister(err.message);
      case ErrorCode::kWrongJob:
        throw ProtocolError(credential_.name + " (cross-job traffic): " +
                            err.message);
      case ErrorCode::kFatal:
        break;
    }
    throw ProtocolError("server error: " + err.message);
  }
  return advance(env.payload, now_ms);
}

ClientStep ClientSession::advance(std::span<const std::uint8_t> payload,
                                  std::int64_t now_ms) {
  switch (exchange_) {
    case Exchange::kRegister: {
      const RegisterAck ack = decode_register_ack(payload);
      if (!ack.accepted) {
        throw ProtocolError("registration rejected for " + credential_.name +
                            ": " + ack.message);
      }
      session_id_ = ack.session_id;
      LOG(info).msg("Successfully registered client:" + credential_.name +
                    " for project " + config_.job_id +
                    ". Token:" + credential_.token);
      if (interrupted_) {
        // Resume the interrupted exchange, retry budget and all.
        exchange_ = interrupted_->first;
        episode_ = std::move(interrupted_->second);
        interrupted_.reset();
        return send();
      }
      last_progress_ms_ = now_ms;
      return begin(Exchange::kPoll);
    }
    case Exchange::kPoll:
      return on_poll_reply(payload, now_ms);
    case Exchange::kSubmit: {
      const SubmitAck ack = decode_submit_ack(payload);
      core::Tracer& tracer = core::Tracer::instance();
      if (tracer.enabled()) {
        tracer.record_complete("client.submit", credential_.name,
                               pending_submit_.round, submit_started_ns_,
                               tracer.now_ns());
      }
      if (ack.accepted || ack.message == kDuplicateContribution) {
        // A duplicate ack means an earlier attempt landed but its response
        // was lost — the contribution is in, count the round.
        rounds_participated_ += 1;
      } else {
        updates_rejected_ += 1;
        LOG(warn)
            .msg("contribution rejected:")
            .msg(ack.message)
            .kv("site", credential_.name)
            .kv("reason", reject_reason_name(ack.reason));
      }
      pending_submit_.payload = Dxo();  // release the update's memory
      return begin(Exchange::kPoll);
    }
    case Exchange::kUnmask: {
      const SubmitAck ack = decode_submit_ack(payload);
      if (ack.accepted) {
        unmask_answers_ += 1;
      } else {
        // Stale wave / already-finished recovery: harmless, the server moved
        // on without us. Log and resume polling.
        LOG(warn)
            .msg("unmask share not accepted:")
            .msg(ack.message)
            .kv("site", credential_.name)
            .kv("round", pending_unmask_.round)
            .kv("wave", pending_unmask_.wave);
      }
      pending_unmask_.share = Dxo();
      last_progress_ms_ = now_ms;
      return begin(Exchange::kPoll);
    }
  }
  throw ProtocolError("unreachable client exchange");
}

ClientStep ClientSession::on_poll_reply(std::span<const std::uint8_t> payload,
                                        std::int64_t now_ms) {
  if (peek_type(payload) == MsgType::kUnmaskRequest) {
    // Mask-recovery phase (DESIGN.md §14): the server lost sites after
    // masked submissions landed and asks us to reveal the sum of our
    // pairwise masks against the dropped set.
    const UnmaskRequest req = decode_unmask_request(payload);
    if (!unmask_provider_) {
      throw ProtocolError(credential_.name +
                          ": server asked for mask shares but no unmask "
                          "provider is installed");
    }
    {
      CF_TRACE_SPAN_SITE("client.unmask", credential_.name, req.round);
      pending_unmask_.share =
          unmask_provider_(req.dropped, req.round, req.skeleton.data());
    }
    pending_unmask_.round = req.round;
    pending_unmask_.wave = req.wave;
    return begin(Exchange::kUnmask);
  }
  const TaskMessage task = decode_task(payload);
  switch (task.task) {
    case TaskKind::kStop:
      LOG(info).msg("received stop; shutting down").kv("site", credential_.name);
      return step_of(ClientStep::Kind::kDone);
    case TaskKind::kNone:
      // The long-poll budget expired (or this round sampled us out): poll
      // again, unless the task-less stretch has outlived max_idle_ms.
      if (config_.max_idle_ms > 0 &&
          now_ms - last_progress_ms_ >= config_.max_idle_ms) {
        throw TransportError(credential_.name + " idle for too long; aborting");
      }
      return begin(Exchange::kPoll);
    case TaskKind::kTrain:
      last_progress_ms_ = now_ms;
      train(task);
      return begin(Exchange::kSubmit);
  }
  throw ProtocolError(credential_.name + ": unknown task kind");
}

void ClientSession::train(const TaskMessage& task) {
  FLContext ctx;
  ctx.job_id = config_.job_id;
  ctx.site_name = credential_.name;
  ctx.current_round = task.round;
  ctx.total_rounds = task.total_rounds;
  Dxo update;
  {
    CF_TRACE_SPAN_SITE("client.train", credential_.name, task.round);
    update = learner_->train(task.payload, ctx);
  }
  // Stamp the round before the filter chain runs: the server's freshness
  // check needs the honest stamp, and a poisoning filter replaying an old
  // update must carry the *old* stamp through (that is the attack).
  if (!update.has_meta(Dxo::kMetaRound)) {
    update.set_meta_int(Dxo::kMetaRound, task.round);
  }
  outbound_filters_.process(update, ctx);
  pending_submit_.round = task.round;
  pending_submit_.payload = std::move(update);
  submit_started_ns_ = core::Tracer::instance().now_ns();
}

}  // namespace cppflare::flare
