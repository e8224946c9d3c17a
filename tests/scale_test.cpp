// Scaling-path tests: long-poll park/push dispatch, seeded client-sampling
// determinism, and the site pool (site_workers) up to 256 sites, with and
// without injected faults.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <set>
#include <thread>

#include "core/error.h"
#include "core/logging.h"
#include "flare/simulator.h"
#include "test_util.h"

namespace cppflare::flare {
namespace {

using cppflare::testing::dict_of;

/// Exact (bit-level) StateDict comparison — the reproducibility guarantees
/// are memcmp-equal, not approximately equal.
::testing::AssertionResult bitwise_equal(const nn::StateDict& a,
                                         const nn::StateDict& b) {
  if (a.entries().size() != b.entries().size()) {
    return ::testing::AssertionFailure() << "entry count differs";
  }
  for (const auto& [name, blob] : a.entries()) {
    const auto& other = b.at(name);
    if (blob.values.size() != other.values.size()) {
      return ::testing::AssertionFailure() << name << ": size differs";
    }
    if (!blob.values.empty() &&
        std::memcmp(blob.values.data(), other.values.data(),
                    blob.values.size() * sizeof(float)) != 0) {
      return ::testing::AssertionFailure() << name << ": bits differ";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Deterministic pseudo-random contribution for site `site_seed` (an LCG, so
/// the test needs no global RNG state).
Dxo lcg_contribution(std::uint64_t site_seed, std::int64_t samples) {
  std::vector<float> w(17);
  std::uint64_t s = site_seed * 0x9e3779b97f4a7c15ull + 12345;
  for (float& v : w) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<float>(static_cast<std::int64_t>(s >> 40) % 2000 - 1000) /
        250.0f;
  }
  Dxo d(DxoKind::kWeights, dict_of(std::move(w)));
  d.set_meta_int(Dxo::kMetaNumSamples, samples);
  d.set_meta_int(Dxo::kMetaRound, 0);
  d.set_meta_double(Dxo::kMetaTrainLoss, 1.0);
  d.set_meta_double(Dxo::kMetaValidAcc, 0.5);
  return d;
}

class ScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  }
  void TearDown() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }
};

// ---- wire compatibility --------------------------------------------------

TEST_F(ScaleTest, GetTaskWaitMsRoundtripsAndIsRequired) {
  const GetTaskRequest req{"sess-42-site-1", 12345};
  const std::vector<std::uint8_t> frame = pack(req);
  const GetTaskRequest back = decode_get_task(frame);
  EXPECT_EQ(back.session_id, req.session_id);
  EXPECT_EQ(back.wait_ms, 12345);

  // wait_ms is a required field: the same bytes minus the trailing i64 are
  // a truncated frame, refused with a typed decode error.
  std::vector<std::uint8_t> truncated = frame;
  ASSERT_GE(truncated.size(), 8u);
  truncated.resize(truncated.size() - 8);
  EXPECT_THROW((void)decode_get_task(truncated), SerializationError);
}

// ---- long-poll park and push --------------------------------------------

/// Minimal raw protocol driver over the async dispatcher: seal a frame,
/// dispatch it, get the opened payload back through a future. This is what
/// lets the test observe *when* the server answers, which a blocking client
/// cannot.
class RawSite {
 public:
  RawSite(Credential cred, AsyncDispatcher dispatch)
      : cred_(std::move(cred)), dispatch_(std::move(dispatch)) {}

  std::future<std::vector<std::uint8_t>> send(
      const std::vector<std::uint8_t>& frame) {
    auto prom = std::make_shared<std::promise<std::vector<std::uint8_t>>>();
    std::future<std::vector<std::uint8_t>> fut = prom->get_future();
    const std::vector<std::uint8_t> sealed_frame =
        seal(cred_.name, cred_.secret, seq_.next(), frame);
    const std::vector<std::uint8_t> secret = cred_.secret;
    dispatch_(sealed_frame, [prom, secret](std::vector<std::uint8_t> resp) {
      try {
        const std::span<const std::uint8_t> payload = open(resp, secret).payload;
        prom->set_value({payload.begin(), payload.end()});
      } catch (...) {
        prom->set_exception(std::current_exception());
      }
    });
    return fut;
  }

  void register_site() {
    const RegisterAck ack =
        decode_register_ack(send(pack(RegisterRequest{cred_.name, cred_.token})).get());
    ASSERT_TRUE(ack.accepted) << ack.message;
    session_ = ack.session_id;
  }

  std::future<std::vector<std::uint8_t>> get_task(std::int64_t wait_ms) {
    return send(pack(GetTaskRequest{session_, wait_ms}));
  }

  void submit(std::int64_t round) {
    Dxo d = lcg_contribution(1, 10);
    d.set_meta_int(Dxo::kMetaRound, round);
    const SubmitAck ack = decode_submit_ack(
        send(pack(SubmitUpdateRequest{session_, round, d})).get());
    ASSERT_TRUE(ack.accepted) << ack.message;
  }

 private:
  Credential cred_;
  AsyncDispatcher dispatch_;
  SequenceSource seq_;
  std::string session_;
};

TEST_F(ScaleTest, LongPollParksUntilRoundOpensThenPushes) {
  const auto registry = Provisioner("scale-park", 5).provision_sites(2);
  ServerConfig config;
  config.job_id = "scale-park";
  config.num_rounds = 1;
  config.min_clients = 2;
  config.expected_clients = 2;
  FederatedServer server(config, registry, dict_of(std::vector<float>(17, 0.0f)),
                         std::make_unique<FedAvgAggregator>(true));

  RawSite s1(registry.at("site-1"), server.async_dispatcher());
  RawSite s2(registry.at("site-2"), server.async_dispatcher());
  s1.register_site();

  // The run has not started (site-2 is missing): a long-poll must park, not
  // answer kNone.
  std::future<std::vector<std::uint8_t>> parked = s1.get_task(10000);
  ASSERT_EQ(parked.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);

  // site-2's registration opens round 0; the parked poll must complete with
  // the train task *without* site-1 ever re-polling.
  s2.register_site();
  ASSERT_EQ(parked.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  const TaskMessage pushed = decode_task(parked.get());
  EXPECT_EQ(pushed.task, TaskKind::kTrain);
  EXPECT_EQ(pushed.round, 0);
}

TEST_F(ScaleTest, ParkedPollExpiresWithNoneAtDeadline) {
  const auto registry = Provisioner("scale-expire", 6).provision_sites(2);
  ServerConfig config;
  config.job_id = "scale-expire";
  config.num_rounds = 2;
  config.min_clients = 2;
  config.expected_clients = 2;
  FederatedServer server(config, registry, dict_of(std::vector<float>(17, 0.0f)),
                         std::make_unique<FedAvgAggregator>(true));

  RawSite s1(registry.at("site-1"), server.async_dispatcher());
  RawSite s2(registry.at("site-2"), server.async_dispatcher());
  s1.register_site();
  s2.register_site();
  // site-1 resolves round 0; its next poll has nothing to do (the round is
  // waiting on site-2) and parks, then expires with kNone at its deadline.
  s1.submit(0);
  const auto t0 = std::chrono::steady_clock::now();
  const TaskMessage expired = decode_task(s1.get_task(80).get());
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_EQ(expired.task, TaskKind::kNone);
  EXPECT_GE(waited, 50);  // genuinely parked, not answered immediately
}

// ---- seeded sampling determinism ----------------------------------------

/// Records which (round, site) pairs actually trained — the observable
/// cohort of each round — while producing a deterministic update.
class CohortLearner : public Learner {
 public:
  struct Recorder {
    core::Mutex mu;
    std::map<std::int64_t, std::set<std::string>> cohorts CF_GUARDED_BY(mu);

    std::map<std::int64_t, std::set<std::string>> snapshot() {
      core::MutexLock lock(mu);
      return cohorts;
    }
  };

  CohortLearner(std::string site, float target,
                std::shared_ptr<Recorder> recorder)
      : site_(std::move(site)), target_(target), recorder_(std::move(recorder)) {}

  Dxo train(const Dxo& global, const FLContext& ctx) override {
    {
      core::MutexLock lock(recorder_->mu);
      recorder_->cohorts[ctx.current_round].insert(site_);
    }
    nn::StateDict updated = global.data();
    for (auto& [name, blob] : updated.entries()) {
      for (float& v : blob.values) v += 0.5f * (target_ - v);
    }
    Dxo update(DxoKind::kWeights, updated);
    update.set_meta_int(Dxo::kMetaNumSamples, 10);
    update.set_meta_double(Dxo::kMetaTrainLoss, 1.0);
    update.set_meta_double(Dxo::kMetaValidAcc, 0.5);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  float target_;
  std::shared_ptr<Recorder> recorder_;
};

struct SampledRun {
  std::map<std::int64_t, std::set<std::string>> cohorts;
  nn::StateDict final_model;
};

SampledRun run_sampled(std::uint64_t seed, std::int64_t site_workers) {
  SimulatorConfig config;
  config.num_clients = 8;
  config.num_rounds = 5;
  config.clients_per_round = 3;
  config.seed = seed;
  config.site_workers = site_workers;
  auto recorder = std::make_shared<CohortLearner::Recorder>();
  SimulatorRunner runner(config, dict_of(std::vector<float>(9, 0.0f)),
                         std::make_unique<FedAvgAggregator>(true),
                         [&](std::int64_t i, const std::string& name) {
                           return std::make_shared<CohortLearner>(
                               name, static_cast<float>(i), recorder);
                         });
  const SimulationResult result = runner.run();
  EXPECT_FALSE(result.aborted) << result.abort_reason;
  return {recorder->snapshot(), result.final_model};
}

TEST_F(ScaleTest, SamplingSameSeedSameCohortsAndBits) {
  const SampledRun a = run_sampled(21, 0);
  const SampledRun b = run_sampled(21, 0);
  ASSERT_EQ(a.cohorts.size(), 5u);
  for (const auto& [round, cohort] : a.cohorts) {
    EXPECT_EQ(cohort.size(), 3u) << "round " << round;
  }
  EXPECT_EQ(a.cohorts, b.cohorts);
  EXPECT_TRUE(bitwise_equal(a.final_model, b.final_model));

  // A different seed draws different cohorts (deterministically so).
  const SampledRun c = run_sampled(22, 0);
  EXPECT_NE(a.cohorts, c.cohorts);
}

TEST_F(ScaleTest, SamplingCohortsIdenticalAtEveryWorkerCount) {
  // The cohort is a server-side draw: one pool worker, four, or one per
  // site, the same seed sees the same K-of-N sample every round and
  // aggregates to the same bits.
  const SampledRun per_site = run_sampled(33, 0);
  for (const std::int64_t site_workers : {1, 4}) {
    SCOPED_TRACE("site_workers=" + std::to_string(site_workers));
    const SampledRun pooled = run_sampled(33, site_workers);
    EXPECT_EQ(per_site.cohorts, pooled.cohorts);
    EXPECT_TRUE(bitwise_equal(per_site.final_model, pooled.final_model));
  }
}

// ---- the site pool --------------------------------------------------------

TEST_F(ScaleTest, TcpWithTooFewWorkersIsRejected) {
  // A TCP send holds its worker through a parked long-poll, so a pool
  // smaller than the federation could park every worker and wedge.
  SimulatorConfig config;
  config.num_clients = 2;
  config.num_rounds = 1;
  config.site_workers = 1;
  config.use_tcp = true;
  SimulatorRunner runner(config, dict_of({0.0f}),
                         std::make_unique<FedAvgAggregator>(true),
                         [](std::int64_t i, const std::string& name) {
                           return std::make_shared<CohortLearner>(
                               name, static_cast<float>(i),
                               std::make_shared<CohortLearner::Recorder>());
                         });
  EXPECT_THROW(runner.run(), ConfigError);
}

nn::StateDict run_federation(
    std::int64_t num_clients, std::int64_t site_workers,
    std::unique_ptr<Aggregator> aggregator, std::int64_t clients_per_round = 0,
    SimulatorRunner::FaultPlanner fault_planner = nullptr) {
  SimulatorConfig config;
  config.num_clients = num_clients;
  config.num_rounds = 3;
  config.clients_per_round = clients_per_round;
  config.site_workers = site_workers;
  SimulatorRunner runner(config, dict_of(std::vector<float>(9, 0.0f)),
                         std::move(aggregator),
                         [&](std::int64_t i, const std::string& name) {
                           return std::make_shared<CohortLearner>(
                               name, static_cast<float>(i % 5),
                               std::make_shared<CohortLearner::Recorder>());
                         });
  if (fault_planner) runner.set_fault_planner(std::move(fault_planner));
  const SimulationResult result = runner.run();
  EXPECT_FALSE(result.aborted) << result.abort_reason;
  EXPECT_EQ(result.history.size(), 3u);
  EXPECT_TRUE(result.failed_sites.empty());
  return result.final_model;
}

TEST_F(ScaleTest, SameBitsAtEveryWorkerCount) {
  const nn::StateDict per_site =
      run_federation(8, 0, std::make_unique<FedAvgAggregator>(true));
  for (const std::int64_t site_workers : {1, 4}) {
    SCOPED_TRACE("site_workers=" + std::to_string(site_workers));
    EXPECT_TRUE(bitwise_equal(
        per_site, run_federation(8, site_workers,
                                 std::make_unique<FedAvgAggregator>(true))));
  }
}

TEST_F(ScaleTest, TwoFiftySixSitesOnEightWorkersReproducible) {
  // The acceptance case: a 256-site sampled federation on 8 pool workers
  // on one box, bitwise-reproducible across invocations.
  const nn::StateDict first = run_federation(
      256, 8, std::make_unique<FedAvgAggregator>(true), 64);
  const nn::StateDict second = run_federation(
      256, 8, std::make_unique<FedAvgAggregator>(true), 64);
  EXPECT_TRUE(bitwise_equal(first, second));
}

TEST_F(ScaleTest, TwoFiftySixFaultySitesOnEightWorkersMatchCleanRun) {
  // The same fleet under 10% frame drops and delays on every link plus one
  // hard mid-run disconnect: retries and reconnects absorb every fault, so
  // the model is the clean run's, bit for bit.
  const nn::StateDict clean = run_federation(
      256, 8, std::make_unique<FedAvgAggregator>(true), 64);
  // The planner runs once per connection, so every fault that forced a
  // reconnect shows up as an extra call.
  std::atomic<std::int64_t> connections{0};
  const nn::StateDict faulty = run_federation(
      256, 8, std::make_unique<FedAvgAggregator>(true), 64,
      [&connections](std::int64_t index, const std::string&,
                     std::int64_t incarnation) -> std::optional<FaultPlan> {
        connections.fetch_add(1);
        FaultPlan plan;
        plan.seed = 0x256f + static_cast<std::uint64_t>(index) * 977 +
                    static_cast<std::uint64_t>(incarnation);
        plan.drop_prob = 0.1;
        plan.delay_prob = 0.1;
        plan.delay_ms = 1;
        if (index == 5 && incarnation == 0) plan.disconnect_on_call = 3;
        return plan;
      });
  EXPECT_GT(connections.load(), 256 + 10);
  EXPECT_TRUE(bitwise_equal(clean, faulty));
}

}  // namespace
}  // namespace cppflare::flare
