#include "flare/aggregator.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"
#include "test_util.h"

namespace cppflare::flare {
namespace {

using cppflare::testing::bit_equal;
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

// ---- the reduction, pinned to a reference tree ----------------------------

/// The canonical pairwise tree for element i over contributions [lo, hi):
/// split at the largest power of two below the count; the leaf is 0 + w*x
/// and a node left + 1*right, written the way StateDict::axpy writes them.
float reference_tree(const std::vector<float>& w,
                     const std::vector<const float*>& x, std::size_t lo,
                     std::size_t hi, std::size_t i) {
  if (hi - lo == 1) {
    float leaf = 0.0f;
    leaf += w[lo] * x[lo][i];
    return leaf;
  }
  std::size_t p = 1;
  while (p * 2 < hi - lo) p *= 2;
  float left = reference_tree(w, x, lo, lo + p, i);
  const float right = reference_tree(w, x, lo + p, hi, i);
  left += 1.0f * right;
  return left;
}

/// Two blobs: one spanning two reduction chunks plus a ragged tail, one
/// shorter than a chunk. Pseudo-random values (an LCG) with a signed zero
/// and a denormal in front.
nn::StateDict lcg_model(std::uint64_t seed) {
  nn::StateDict d;
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 12345;
  for (const std::size_t size : {std::size_t{2 * 4096 + 37}, std::size_t{5}}) {
    std::vector<float> v(size);
    for (float& x : v) {
      s = s * 6364136223846793005ull + 1442695040888963407ull;
      x = static_cast<float>(static_cast<std::int64_t>(s >> 40) % 2000 - 1000) /
          7.0f;
    }
    v[0] = -0.0f;
    v[1] = -1e-45f;
    d.insert(size == 5 ? "b" : "a",
             {{static_cast<std::int64_t>(size)}, std::move(v)});
  }
  return d;
}

std::string site_name(std::size_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "s-%03zu", i);
  return buf;
}

TEST_F(AggregatorTest, FedAvgMatchesReferenceTreeBitwise) {
  const std::size_t saved_threads = core::compute_threads();
  const nn::StateDict global = lcg_model(999);
  for (const std::size_t n : {1u, 2u, 3u, 5u, 8u, 11u, 16u, 33u, 256u}) {
    for (const DxoKind kind : {DxoKind::kWeights, DxoKind::kWeightDiff}) {
      // Diff rounds accept one extra site and revoke it again.
      const std::size_t m = kind == DxoKind::kWeightDiff ? n + 1 : n;
      const std::size_t revoked = kind == DxoKind::kWeightDiff ? m / 2 : m;
      std::vector<Dxo> dxos;
      for (std::size_t i = 0; i < m; ++i) {
        dxos.emplace_back(kind, lcg_model(i + 1));
        dxos.back().set_meta_int(Dxo::kMetaNumSamples,
                                 10 + 7 * static_cast<std::int64_t>(i % 5));
      }
      for (const bool weighted : {true, false}) {
        std::vector<float> w;
        double weight_sum = 0.0;
        std::vector<const nn::StateDict*> kept;
        for (std::size_t i = 0; i < m; ++i) {
          if (i == revoked) continue;
          const double wi =
              weighted ? static_cast<double>(dxos[i].meta_int(Dxo::kMetaNumSamples, 1))
                       : 1.0;
          w.push_back(static_cast<float>(wi));
          weight_sum += wi;
          kept.push_back(&dxos[i].data());
        }
        const float scale = static_cast<float>(1.0 / weight_sum);
        nn::StateDict expected = global.zeros_like();
        for (auto& [name, blob] : expected.entries()) {
          std::vector<const float*> x;
          for (const nn::StateDict* d : kept) x.push_back(d->at(name).values.data());
          for (std::size_t i = 0; i < blob.values.size(); ++i) {
            blob.values[i] = reference_tree(w, x, 0, x.size(), i) * scale;
          }
        }
        if (kind == DxoKind::kWeightDiff) {
          nn::StateDict next = global;
          next.axpy(1.0f, expected);
          expected = std::move(next);
        }
        for (const std::size_t threads : {1u, 4u}) {
          core::set_compute_threads(threads);
          FedAvgAggregator agg(weighted);
          agg.reset(global, 0);
          // Scrambled arrival order; the reduction runs in site-name order.
          for (std::size_t j = 0; j < m; ++j) {
            const std::size_t i = (j * 7 + 3) % m;
            ASSERT_TRUE(agg.accept(site_name(i), dxos[i]));
          }
          if (revoked < m) {
            ASSERT_TRUE(agg.revoke(site_name(revoked)));
          }
          EXPECT_TRUE(bit_equal(agg.aggregate(), expected))
              << "n=" << n << " weighted=" << weighted
              << " diff=" << (kind == DxoKind::kWeightDiff)
              << " threads=" << threads;
        }
      }
    }
  }
  core::set_compute_threads(saved_threads);
}

}  // namespace
}  // namespace cppflare::flare
