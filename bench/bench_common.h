// Shared helpers for the table/figure bench binaries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
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

/// The host a bench ran on: the ISA the kernels were compiled for, the
/// host's SIMD flags that decide GEMM throughput (from the first "flags"
/// line of /proc/cpuinfo) and its hardware thread count. Every BENCH file
/// records it, so a number can be read against the machine it came from.
struct HostInfo {
  std::string kernel_isa;
  std::string simd_flags;
  unsigned hardware_concurrency = 0;
};

inline HostInfo host_info() {
  HostInfo host;
#if defined(__AVX2__) && defined(__FMA__)
  host.kernel_isa = "avx2+fma (x86-64-v3)";
#else
  host.kernel_isa = "x86-64 baseline (sse2)";
#endif
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    for (std::string w; words >> w;) {
      if (w != "avx2" && w != "fma" && w != "avx512f") continue;
      if (!host.simd_flags.empty()) host.simd_flags += ' ';
      host.simd_flags += w;
    }
    break;
  }
  if (host.simd_flags.empty()) host.simd_flags = "none";
  host.hardware_concurrency = std::thread::hardware_concurrency();
  return host;
}

/// host_info() as a JSON object, for the benches that write their own JSON.
inline std::string host_json() {
  const HostInfo host = host_info();
  return "{\"kernel_isa\": \"" + host.kernel_isa + "\", \"host_simd_flags\": \"" +
         host.simd_flags + "\", \"hardware_concurrency\": " +
         std::to_string(host.hardware_concurrency) + "}";
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
