// Instruments that time the program from outside, through its public
// interfaces only: decorators around a Learner, a SequenceClassifier and an
// Aggregator, and EventBus observers that stamp the round milestones.
// Nothing here changes what the wrapped object computes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "flare/aggregator.h"
#include "flare/learner.h"
#include "flare/server.h"
#include "measure.h"
#include "models/classifier.h"

namespace flbench {

/// The learner span a site is inside, shared by that site's learner and
/// model decorators so forward spans name their parent. A site's learner
/// runs on one thread at a time, so the fields need no lock.
struct SiteTrace {
  std::int32_t site = -1;
  std::int32_t round = -1;
  std::int64_t learner_span = -1;
};

class TimedLearner final : public cppflare::flare::Learner {
 public:
  TimedLearner(std::shared_ptr<cppflare::flare::Learner> inner, SpanLog* log,
               std::shared_ptr<SiteTrace> site);
  cppflare::flare::Dxo train(const cppflare::flare::Dxo& global_model,
                             const cppflare::flare::FLContext& ctx) override;
  std::string site_name() const override { return inner_->site_name(); }

 private:
  std::shared_ptr<cppflare::flare::Learner> inner_;
  SpanLog* log_;
  std::shared_ptr<SiteTrace> site_;
};

/// Registers the wrapped model as an unnamed child, so parameter names,
/// state dicts and train/eval switching are exactly the inner model's.
class TimedClassifier final : public cppflare::models::SequenceClassifier {
 public:
  TimedClassifier(std::shared_ptr<cppflare::models::SequenceClassifier> inner,
                  SpanLog* log, std::shared_ptr<SiteTrace> site);
  cppflare::tensor::Tensor class_logits(const cppflare::data::Batch& batch,
                                        cppflare::core::Rng& rng) const override;
  const cppflare::models::ModelConfig& config() const override {
    return inner_->config();
  }

 private:
  std::shared_ptr<cppflare::models::SequenceClassifier> inner_;
  SpanLog* log_;
  std::shared_ptr<SiteTrace> site_;
};

/// Every call arrives under the coordinator's lock, one at a time.
class TimedAggregator final : public cppflare::flare::Aggregator {
 public:
  TimedAggregator(std::unique_ptr<cppflare::flare::Aggregator> inner, SpanLog* log);
  void reset(const cppflare::nn::StateDict& global, std::int64_t round) override;
  bool accept(const std::string& site, const cppflare::flare::Dxo& contribution) override;
  bool revoke(const std::string& site) override;
  cppflare::nn::StateDict aggregate() override;
  std::int64_t accepted_count() const override { return inner_->accepted_count(); }
  cppflare::flare::RoundMetrics metrics() const override { return inner_->metrics(); }
  std::string name() const override { return inner_->name(); }

  /// accept() calls that returned true / all accept() calls.
  std::int64_t accepted() const { return accepted_; }
  std::int64_t attempted() const { return attempted_; }

 private:
  std::unique_ptr<cppflare::flare::Aggregator> inner_;
  SpanLog* log_;
  std::int32_t round_ = -1;
  std::int64_t accepted_ = 0;
  std::int64_t attempted_ = 0;
};

/// Round milestones stamped by EventBus observers into storage sized before
/// the run. Index 0..3: RoundStarted, BeforeAggregation, AfterAggregation,
/// RoundDone. The untraced runs subscribe only to RoundStarted/RoundDone.
struct RoundClock {
  static constexpr int kStarted = 0, kBefore = 1, kAfter = 2, kDone = 3;

  explicit RoundClock(std::int64_t rounds)
      : marks(static_cast<std::size_t>(rounds), {-1, -1, -1, -1}),
        parked_at_close(static_cast<std::size_t>(rounds), -1.0) {}

  /// Subscribes the observers; `all_phases` adds the two aggregation events
  /// and samples the parked-poll gauge at each round close.
  void attach(cppflare::flare::FederatedServer& server, bool all_phases);

  std::vector<std::array<std::int64_t, 4>> marks;
  std::vector<double> parked_at_close;
  std::int64_t cpu_first_started_ns = -1;
  std::int64_t cpu_last_done_ns = -1;
  std::int64_t last_done_ns = -1;
  std::int64_t rounds_done = 0;
};

}  // namespace flbench
