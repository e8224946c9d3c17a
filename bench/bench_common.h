// Shared helpers for the table/figure bench binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>

#include "core/error.h"
#include "core/logging.h"
#include "flare/learner.h"
#include "train/experiment.h"

namespace cppflare::bench {

/// Banner + scale dump shared by the experiment benches.
inline void print_header(const std::string& title,
                         const train::ExperimentScale& scale) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
  std::printf(
      "reproduction scale (override via REPRO_* env vars):\n"
      "  patients=%lld (paper: 8638)  pretrain_seqs=%lld (paper: 453377)\n"
      "  clients=%lld  fl_rounds=%lld  local_epochs=%lld  batch=%lld (rnn) / "
      "%lld (transformer)  lr=%g\n"
      "  max_seq_len=%lld  vocab~=%lld\n\n",
      static_cast<long long>(scale.num_patients),
      static_cast<long long>(scale.pretrain_sequences),
      static_cast<long long>(scale.num_clients),
      static_cast<long long>(scale.fl_rounds),
      static_cast<long long>(scale.local_epochs),
      static_cast<long long>(scale.batch_size),
      static_cast<long long>(scale.transformer_batch_size), scale.lr,
      static_cast<long long>(scale.max_seq_len),
      static_cast<long long>(scale.num_drugs + scale.num_diagnoses +
                             scale.num_procedures + 2));
}

/// Silence the NVFlare-style component logs during measurement loops.
inline void quiet_logs() {
  core::LogConfig::instance().set_threshold(core::LogLevel::kWarn);
}

/// Near-zero-cost learner for the protocol benches: nudges every weight
/// halfway toward a per-site target and claims 10 samples, so the protocol
/// (not training) dominates. A `crash_round` >= 0 makes the site throw from
/// that round on — a site crashing mid-run.
class NudgeLearner : public flare::Learner {
 public:
  NudgeLearner(std::string site, float target, std::int64_t crash_round = -1)
      : site_(std::move(site)), target_(target), crash_round_(crash_round) {}

  flare::Dxo train(const flare::Dxo& global,
                   const flare::FLContext& ctx) override {
    if (crash_round_ >= 0 && ctx.current_round >= crash_round_) {
      throw Error("bench: site crashed mid-run");
    }
    nn::StateDict updated = global.data();
    for (auto& [name, blob] : updated.entries()) {
      for (float& v : blob.values) v += 0.5f * (target_ - v);
    }
    flare::Dxo update(flare::DxoKind::kWeights, updated);
    update.set_meta_int(flare::Dxo::kMetaNumSamples, 10);
    return update;
  }
  std::string site_name() const override { return site_; }

 private:
  std::string site_;
  float target_;
  std::int64_t crash_round_;
};

}  // namespace cppflare::bench
