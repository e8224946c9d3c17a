#include "train/experiment.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/logging.h"

namespace cppflare::train {
namespace {

ExperimentScale tiny_scale() {
  ExperimentScale s;
  s.num_patients = 240;
  s.pretrain_sequences = 64;
  s.pretrain_valid = 16;
  s.max_seq_len = 16;
  s.num_drugs = 30;
  s.num_diagnoses = 30;
  s.num_procedures = 15;
  s.num_clients = 8;
  s.fl_rounds = 1;
  s.batch_size = 16;
  s.epochs_centralized = 1;
  s.epochs_standalone = 1;
  s.mlm_epochs = 1;
  return s;
}

// Each site's privacy filter draws its own noise; a rerun draws it again.
TEST(SitePrivacyFilter, SitesDifferAndRerunsReproduce) {
  const auto noised = [](const std::string& site) {
    nn::StateDict d;
    d.insert("w", {{64}, std::vector<float>(64, 1.0f)});
    flare::Dxo dxo(flare::DxoKind::kWeights, d);
    flare::FLContext ctx;
    make_site_privacy_filter(0.5, 60, site)->process(dxo, ctx);
    return dxo.data().at("w").values;
  };
  const std::vector<float> site1 = noised("site-1");
  const std::vector<float> site2 = noised("site-2");
  EXPECT_NE(site1, site2);
  EXPECT_EQ(noised("site-1"), site1);
  EXPECT_EQ(noised("site-2"), site2);
}

TEST(ExperimentScaleTest, EnvOverridesApply) {
  ::setenv("REPRO_NUM_PATIENTS", "777", 1);
  ::setenv("REPRO_FL_ROUNDS", "13", 1);
  const ExperimentScale s = ExperimentScale::from_env();
  EXPECT_EQ(s.num_patients, 777);
  EXPECT_EQ(s.fl_rounds, 13);
  ::unsetenv("REPRO_NUM_PATIENTS");
  ::unsetenv("REPRO_FL_ROUNDS");
  const ExperimentScale d = ExperimentScale::from_env();
  EXPECT_EQ(d.num_patients, ExperimentScale{}.num_patients);
}

TEST(ExperimentScaleTest, GeneratorConfigLeavesRoomForSpecials) {
  ExperimentScale s = tiny_scale();
  const data::ClinicalGenConfig g = s.generator_config();
  EXPECT_LE(g.max_events + 2, s.max_seq_len);  // [CLS] + genotype prefix fit
}

TEST(PrepareClassificationData, SplitsAndShardsAreConsistent) {
  const ExperimentScale s = tiny_scale();
  const ClassificationData data = prepare_classification_data(s);

  EXPECT_EQ(data.train.size() + data.valid.size(), s.num_patients);
  EXPECT_NEAR(static_cast<double>(data.valid.size()) / s.num_patients,
              s.valid_fraction, 0.01);

  ASSERT_EQ(static_cast<std::int64_t>(data.shards.size()), s.num_clients);
  std::int64_t shard_total = 0;
  for (const auto& shard : data.shards) shard_total += shard.size();
  EXPECT_EQ(shard_total, data.train.size());

  // Imbalanced ratios: the first shard dominates the last.
  EXPECT_GT(data.shards.front().size(), 5 * data.shards.back().size());

  // Global positive rate near the paper's 21.1%.
  const double rate =
      (data.train.positive_rate() * data.train.size() +
       data.valid.positive_rate() * data.valid.size()) /
      static_cast<double>(s.num_patients);
  EXPECT_GT(rate, 0.10);
  EXPECT_LT(rate, 0.35);
}

TEST(PrepareClassificationData, DeterministicForSameSeed) {
  const ExperimentScale s = tiny_scale();
  const ClassificationData a = prepare_classification_data(s);
  const ClassificationData b = prepare_classification_data(s);
  ASSERT_EQ(a.train.size(), b.train.size());
  for (std::int64_t i = 0; i < a.train.size(); ++i) {
    EXPECT_EQ(a.train[i].ids, b.train[i].ids);
    EXPECT_EQ(a.train[i].label, b.train[i].label);
  }
}

TEST(PrepareClassificationData, SamplesFitMaxSeqLen) {
  const ExperimentScale s = tiny_scale();
  const ClassificationData data = prepare_classification_data(s);
  for (std::int64_t i = 0; i < data.train.size(); ++i) {
    EXPECT_EQ(static_cast<std::int64_t>(data.train[i].ids.size()), s.max_seq_len);
    EXPECT_LE(data.train[i].length, s.max_seq_len);
    EXPECT_GT(data.train[i].length, 1);
  }
}

TEST(MlmSchemeNames, AllDistinct) {
  EXPECT_STREQ(mlm_scheme_name(MlmScheme::kCentralized), "centralized");
  EXPECT_STREQ(mlm_scheme_name(MlmScheme::kSmallDataset), "small-dataset");
  EXPECT_STREQ(mlm_scheme_name(MlmScheme::kFlImbalanced), "fl-imbalanced");
  EXPECT_STREQ(mlm_scheme_name(MlmScheme::kFlBalanced), "fl-balanced");
}

TEST(SchemeRunners, StandaloneSmokeOnLstm) {
  core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
  ExperimentScale s = tiny_scale();
  s.num_patients = 160;
  const ClassificationData data = prepare_classification_data(s);
  const SchemeResult r = run_standalone("lstm", data, s);
  core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  EXPECT_EQ(r.scheme, "standalone");
  EXPECT_EQ(r.model, "lstm");
  EXPECT_GE(r.accuracy, 0.0);
  EXPECT_LE(r.accuracy, 1.0);
  EXPECT_GT(r.seconds, 0.0);
}

}  // namespace
}  // namespace cppflare::train
