#include "flare/aggregator.h"

#include <gtest/gtest.h>

#include "core/error.h"
#include "core/logging.h"
#include "test_util.h"

namespace cppflare::flare {
namespace {

using cppflare::testing::dict_of;

Dxo weights_dxo(std::vector<float> w, std::int64_t samples) {
  Dxo dxo(DxoKind::kWeights, dict_of(std::move(w)));
  dxo.set_meta_int(Dxo::kMetaNumSamples, samples);
  return dxo;
}

class AggregatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  }
  void TearDown() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }
};

TEST_F(AggregatorTest, WeightedAverageBySamples) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0, 0}), 0);
  ASSERT_TRUE(agg.accept("site-1", weights_dxo({1, 1}, 300)));
  ASSERT_TRUE(agg.accept("site-2", weights_dxo({4, 0}, 100)));
  const nn::StateDict out = agg.aggregate();
  // (300*1 + 100*4) / 400 = 1.75 ; (300*1 + 100*0) / 400 = 0.75
  EXPECT_NEAR(out.at("w").values[0], 1.75f, 1e-5f);
  EXPECT_NEAR(out.at("w").values[1], 0.75f, 1e-5f);
}

TEST_F(AggregatorTest, UniformAverageIgnoresSamples) {
  FedAvgAggregator agg(false);
  agg.reset(dict_of({0, 0}), 0);
  agg.accept("site-1", weights_dxo({1, 1}, 300));
  agg.accept("site-2", weights_dxo({4, 0}, 100));
  const nn::StateDict out = agg.aggregate();
  EXPECT_NEAR(out.at("w").values[0], 2.5f, 1e-5f);
  EXPECT_NEAR(out.at("w").values[1], 0.5f, 1e-5f);
}

TEST_F(AggregatorTest, WeightDiffAddsToGlobal) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({10, 20}), 2);
  Dxo d1(DxoKind::kWeightDiff, dict_of({1, -1}));
  d1.set_meta_int(Dxo::kMetaNumSamples, 1);
  Dxo d2(DxoKind::kWeightDiff, dict_of({3, 1}));
  d2.set_meta_int(Dxo::kMetaNumSamples, 1);
  agg.accept("a", d1);
  agg.accept("b", d2);
  const nn::StateDict out = agg.aggregate();
  EXPECT_NEAR(out.at("w").values[0], 12.0f, 1e-5f);
  EXPECT_NEAR(out.at("w").values[1], 20.0f, 1e-5f);
}

TEST_F(AggregatorTest, RejectsDuplicateSite) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0}), 0);
  EXPECT_TRUE(agg.accept("a", weights_dxo({1}, 1)));
  EXPECT_FALSE(agg.accept("a", weights_dxo({2}, 1)));
  EXPECT_EQ(agg.accepted_count(), 1);
}

TEST_F(AggregatorTest, RejectsMixedKindsWithinRound) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0}), 0);
  EXPECT_TRUE(agg.accept("a", weights_dxo({1}, 1)));
  Dxo diff(DxoKind::kWeightDiff, dict_of({1}));
  diff.set_meta_int(Dxo::kMetaNumSamples, 1);
  EXPECT_FALSE(agg.accept("b", diff));
}

TEST_F(AggregatorTest, RejectsIncongruentModel) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0, 0}), 0);
  EXPECT_FALSE(agg.accept("a", weights_dxo({1}, 1)));  // wrong size
  nn::StateDict renamed;
  renamed.insert("other", {{2}, {1, 1}});
  Dxo bad(DxoKind::kWeights, renamed);
  bad.set_meta_int(Dxo::kMetaNumSamples, 1);
  EXPECT_FALSE(agg.accept("b", bad));
}

TEST_F(AggregatorTest, RejectsMetricsOnlyAndBadWeights) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0}), 0);
  Dxo metrics;
  EXPECT_FALSE(agg.accept("a", metrics));
  Dxo zero_samples = weights_dxo({1}, 0);
  EXPECT_FALSE(agg.accept("b", zero_samples));
}

TEST_F(AggregatorTest, AggregateWithoutContributionsThrows) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0}), 0);
  EXPECT_THROW(agg.aggregate(), Error);
}

TEST_F(AggregatorTest, MetricsAreSampleWeighted) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0}), 5);
  Dxo a = weights_dxo({0}, 300);
  a.set_meta_double(Dxo::kMetaTrainLoss, 1.0);
  a.set_meta_double(Dxo::kMetaValidAcc, 0.9);
  a.set_meta_double(Dxo::kMetaValidLoss, 0.5);
  Dxo b = weights_dxo({0}, 100);
  b.set_meta_double(Dxo::kMetaTrainLoss, 2.0);
  b.set_meta_double(Dxo::kMetaValidAcc, 0.5);
  b.set_meta_double(Dxo::kMetaValidLoss, 1.5);
  agg.accept("a", a);
  agg.accept("b", b);
  agg.aggregate();
  const RoundMetrics m = agg.metrics();
  EXPECT_EQ(m.round, 5);
  EXPECT_EQ(m.num_contributions, 2);
  EXPECT_EQ(m.total_samples, 400);
  EXPECT_NEAR(m.train_loss, (300 * 1.0 + 100 * 2.0) / 400, 1e-9);
  EXPECT_NEAR(m.valid_acc, (300 * 0.9 + 100 * 0.5) / 400, 1e-9);
  EXPECT_NEAR(m.valid_loss, (300 * 0.5 + 100 * 1.5) / 400, 1e-9);
}

TEST_F(AggregatorTest, ResetClearsState) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({0}), 0);
  agg.accept("a", weights_dxo({2}, 1));
  agg.aggregate();
  agg.reset(dict_of({0}), 1);
  EXPECT_EQ(agg.accepted_count(), 0);
  // The same site may contribute again in the new round.
  EXPECT_TRUE(agg.accept("a", weights_dxo({4}, 1)));
  EXPECT_NEAR(agg.aggregate().at("w").values[0], 4.0f, 1e-6f);
}

TEST_F(AggregatorTest, NameReflectsMode) {
  EXPECT_EQ(FedAvgAggregator(true).name(), "FedAvg(weighted)");
  EXPECT_EQ(FedAvgAggregator(false).name(), "FedAvg(uniform)");
}

TEST_F(AggregatorTest, SingleContributorPassthrough) {
  FedAvgAggregator agg(true);
  agg.reset(dict_of({7, -3}), 0);
  agg.accept("solo", weights_dxo({1.5f, 2.5f}, 123));
  const nn::StateDict out = agg.aggregate();
  EXPECT_FLOAT_EQ(out.at("w").values[0], 1.5f);
  EXPECT_FLOAT_EQ(out.at("w").values[1], 2.5f);
}

}  // namespace
}  // namespace cppflare::flare
