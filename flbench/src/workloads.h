// The benchmark's workloads and the episode that runs one of them.
//
// An episode is one complete federated job through flare::SimulatorRunner:
// build the inputs from the seed, construct the runner, run every round,
// check the result. A run repeats episodes with the same seed until its time
// budget is spent, so set-up is measured several times per run and each
// repetition must reproduce the same final model bits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flare/simulator.h"
#include "measure.h"
#include "nn/state_dict.h"

namespace flbench {

enum class LearnerKind { kClinical, kDyadic };

struct WorkloadSpec {
  std::string name;
  LearnerKind learners = LearnerKind::kDyadic;
  /// Classifier for kClinical ("lstm", "bert-mini"); shape source for
  /// kDyadic ("bert"), or empty for a flat `flat_numel`-float model.
  std::string model;
  std::int64_t sites = 0;
  /// 0 = one thread per site (FederatedClient); > 0 = SimSite multiplexing.
  std::int64_t site_workers = 0;
  /// Kernel-pool budget per site (SimulatorConfig::compute_threads).
  std::int64_t compute_threads = -1;
  bool tcp = false;
  /// Round journal fsynced once per round plus a checkpoint every round.
  bool journal = false;
  std::int64_t rounds = 0;   // rounds per episode
  std::int64_t patients = 0;  // cohort size for kClinical
  std::int64_t flat_numel = 0;
};

const std::vector<WorkloadSpec>& workloads();
/// nullptr when no workload has that name.
const WorkloadSpec* find_workload(const std::string& name);

struct EpisodeResult {
  bool traced = false;
  // Set-up, tiled: setup_s = data_prepare_s + models_init_s + runner_init_s,
  // where runner_init_s runs from the runner's construction to the first
  // kRoundStarted (provisioning, job registry, transport, site start-up).
  double setup_s = 0.0;
  double data_prepare_s = 0.0;
  double models_init_s = 0.0;
  double runner_init_s = 0.0;

  std::int64_t rounds_planned = 0;
  std::int64_t rounds_completed = 0;
  std::vector<double> round_s;  // kRoundStarted -> kRoundDone, per round
  double post_setup_wall_s = 0.0;  // first kRoundStarted -> last kRoundDone
  double post_setup_cpu_s = 0.0;   // process user+sys over the same window
  std::int64_t contributions_attempted = 0;  // sites x planned rounds
  std::int64_t contributions_accepted = 0;
  std::int64_t rejected = 0;
  std::int64_t late = 0;
  std::int64_t tcp_bytes = 0;   // tcp.bytes_sent over the episode
  std::int64_t tcp_frames = 0;  // tcp.frames_sent over the episode

  bool correct = false;
  std::string check_detail;
  std::string model_sha256;
  double valid_loss = 0.0;  // kClinical only; NaN otherwise

  // Traced episodes only.
  std::vector<Span> spans;  // decorator spans followed by the server phases
  std::int64_t spans_dropped = 0;
  std::vector<double> parked_at_close;
  std::int64_t agg_attempted = 0;
  std::int64_t agg_accepted = 0;

  cppflare::nn::StateDict final_model;
};

/// Runs one episode. `scratch_dir` holds the journal and checkpoint; it is
/// emptied afterwards.
EpisodeResult run_episode(const WorkloadSpec& spec, std::uint64_t seed, bool traced,
                          const std::string& scratch_dir);

struct ContributionTally {
  std::int64_t attempted = 0;
  std::int64_t accepted = 0;
  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - accepted) /
                                static_cast<double>(attempted);
  }
};

/// Site-round contributions a run was asked for (sites x planned rounds)
/// against those the aggregator kept. An aborted run's missing rounds
/// contribute nothing, so every remaining contribution counts as failed.
ContributionTally tally_contributions(const cppflare::flare::SimulationResult& result,
                                      std::int64_t sites, std::int64_t planned_rounds);

}  // namespace flbench
