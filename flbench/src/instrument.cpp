#include "instrument.h"

#include <utility>

#include "flare/observability.h"

namespace flbench {

namespace fl = cppflare::flare;

TimedLearner::TimedLearner(std::shared_ptr<fl::Learner> inner, SpanLog* log,
                           std::shared_ptr<SiteTrace> site)
    : inner_(std::move(inner)), log_(log), site_(std::move(site)) {}

fl::Dxo TimedLearner::train(const fl::Dxo& global_model, const fl::FLContext& ctx) {
  const auto round = static_cast<std::int32_t>(ctx.current_round);
  const std::int64_t cpu0 = thread_cpu_ns();
  const std::int64_t id = log_->open(SpanName::kLearner, site_->site, round, now_ns());
  site_->round = round;
  site_->learner_span = id;
  fl::Dxo out = inner_->train(global_model, ctx);
  log_->close(id, now_ns(), thread_cpu_ns() - cpu0);
  site_->learner_span = -1;
  return out;
}

TimedClassifier::TimedClassifier(
    std::shared_ptr<cppflare::models::SequenceClassifier> inner, SpanLog* log,
    std::shared_ptr<SiteTrace> site)
    : inner_(std::move(inner)), log_(log), site_(std::move(site)) {
  register_child("", inner_);
}

cppflare::tensor::Tensor TimedClassifier::class_logits(const cppflare::data::Batch& batch,
                                                       cppflare::core::Rng& rng) const {
  Span span;
  span.name = training() ? SpanName::kForwardTrain : SpanName::kForwardEval;
  span.site = site_->site;
  span.round = site_->round;
  span.parent = site_->learner_span;
  span.start_ns = now_ns();
  cppflare::tensor::Tensor logits = inner_->class_logits(batch, rng);
  span.end_ns = now_ns();
  log_->add(span);
  return logits;
}

TimedAggregator::TimedAggregator(std::unique_ptr<fl::Aggregator> inner, SpanLog* log)
    : inner_(std::move(inner)), log_(log) {}

void TimedAggregator::reset(const cppflare::nn::StateDict& global, std::int64_t round) {
  round_ = static_cast<std::int32_t>(round);
  const std::int64_t id = log_->open(SpanName::kReset, -1, round_, now_ns());
  inner_->reset(global, round);
  log_->close(id, now_ns());
}

bool TimedAggregator::accept(const std::string& site, const fl::Dxo& contribution) {
  const std::int64_t id = log_->open(SpanName::kAccept, -1, round_, now_ns());
  const bool ok = inner_->accept(site, contribution);
  log_->close(id, now_ns());
  ++attempted_;
  if (ok) ++accepted_;
  return ok;
}

bool TimedAggregator::revoke(const std::string& site) {
  const std::int64_t id = log_->open(SpanName::kRevoke, -1, round_, now_ns());
  const bool ok = inner_->revoke(site);
  log_->close(id, now_ns());
  if (ok) --accepted_;
  return ok;
}

cppflare::nn::StateDict TimedAggregator::aggregate() {
  const std::int64_t id = log_->open(SpanName::kAggregate, -1, round_, now_ns());
  cppflare::nn::StateDict out = inner_->aggregate();
  log_->close(id, now_ns());
  return out;
}

void RoundClock::attach(fl::FederatedServer& server, bool all_phases) {
  auto& events = server.events();
  const auto rounds = static_cast<std::int64_t>(marks.size());
  // Observers run under the coordinator's lock: each only stores a
  // timestamp into a slot that exists already.
  auto stamp = [this, rounds](int slot) {
    return [this, rounds, slot](const fl::FLContext& ctx) {
      if (ctx.current_round < 0 || ctx.current_round >= rounds) return;
      marks[static_cast<std::size_t>(ctx.current_round)][static_cast<std::size_t>(slot)] =
          now_ns();
    };
  };
  events.subscribe(fl::EventType::kRoundStarted, [this, rounds](const fl::FLContext& ctx) {
    if (ctx.current_round < 0 || ctx.current_round >= rounds) return;
    marks[static_cast<std::size_t>(ctx.current_round)][kStarted] = now_ns();
    if (ctx.current_round == 0) cpu_first_started_ns = process_cpu_ns();
  });
  events.subscribe(fl::EventType::kRoundDone, [this, rounds](const fl::FLContext& ctx) {
    if (ctx.current_round < 0 || ctx.current_round >= rounds) return;
    last_done_ns = now_ns();
    marks[static_cast<std::size_t>(ctx.current_round)][kDone] = last_done_ns;
    rounds_done = ctx.current_round + 1;
    if (rounds_done == rounds) cpu_last_done_ns = process_cpu_ns();
  });
  if (!all_phases) return;
  events.subscribe(fl::EventType::kAfterAggregation, stamp(kAfter));
  cppflare::core::Gauge* parked =
      &server.metrics_registry().gauge(fl::metric_names::kServerParkedPolls);
  events.subscribe(fl::EventType::kBeforeAggregation,
                   [this, rounds, parked](const fl::FLContext& ctx) {
                     if (ctx.current_round < 0 || ctx.current_round >= rounds) return;
                     const auto r = static_cast<std::size_t>(ctx.current_round);
                     marks[r][kBefore] = now_ns();
                     parked_at_close[r] = parked->value();
                   });
}

}  // namespace flbench
