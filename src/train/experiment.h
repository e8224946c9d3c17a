// Shared experiment harness for the paper's evaluation section.
//
// The benches for Table III and Fig. 2 and the integration tests all drive
// these entry points. `ExperimentScale` collects every size knob with
// defaults small enough for a single CPU core; each field can be overridden
// through REPRO_* environment variables (see from_env) to scale toward the
// paper's sizes on bigger hardware.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/clinical_gen.h"
#include "data/dataset.h"
#include "data/partitioner.h"
#include "flare/aggregator.h"
#include "flare/filters.h"
#include "train/clinical_learner.h"

namespace cppflare::train {

struct ExperimentScale {
  // Cohort (paper: 8,638 patients; 6,927 train / 1,732 validation).
  std::int64_t num_patients = 2000;
  double valid_fraction = 0.2;
  // MLM pretraining corpus (paper: 453,377 train / 8,683 validation).
  std::int64_t pretrain_sequences = 1000;
  std::int64_t pretrain_valid = 160;
  // Sequence/vocabulary scale.
  std::int64_t max_seq_len = 32;
  std::int64_t num_drugs = 120;
  std::int64_t num_diagnoses = 160;
  std::int64_t num_procedures = 80;
  // Federation (Table I: 8 clients).
  std::int64_t num_clients = 8;
  std::int64_t fl_rounds = 6;
  std::int64_t local_epochs = 1;
  double label_skew_alpha = 0.3;
  // Optimization (Table I: Adam, lr 1e-2).
  std::int64_t batch_size = 16;
  /// Transformers amortize per-op overhead much better at larger batches
  /// on this CPU substrate; used for bert/bert-mini and MLM pretraining.
  std::int64_t transformer_batch_size = 48;
  double lr = 1e-2;
  /// Adam L2 coefficient for the ADR classification runs (the recurrent
  /// models overfit the small cohort without it).
  double weight_decay = 1e-3;
  std::int64_t epochs_centralized = 4;
  std::int64_t epochs_standalone = 4;
  // MLM pretraining epochs/rounds for Fig. 2.
  std::int64_t mlm_epochs = 3;
  std::uint64_t seed = 2024;
  /// Per-site compute-thread budget for federated runs; 0 auto-divides the
  /// machine between site workers and kernels (SimulatorConfig semantics).
  std::int64_t compute_threads = 0;

  /// Applies REPRO_<UPPERCASED_FIELD> env overrides (e.g.
  /// REPRO_NUM_PATIENTS=8638 REPRO_FL_ROUNDS=10).
  static ExperimentScale from_env();

  data::ClinicalGenConfig generator_config() const;
};

/// Tokenized cohort plus the federated shards (imbalanced sizes per the
/// paper's ratios + label skew).
struct ClassificationData {
  std::shared_ptr<data::ClinicalTokenizer> tokenizer;
  data::Dataset train;
  data::Dataset valid;
  std::vector<data::Dataset> shards;
};

ClassificationData prepare_classification_data(const ExperimentScale& scale);

struct [[nodiscard]] SchemeResult {
  std::string scheme;
  std::string model;
  double accuracy = 0.0;
  double loss = 0.0;
  double seconds = 0.0;
  /// The trained weights behind `accuracy` (the selected global model for
  /// the federated scheme, the fitted model for centralized). Standalone
  /// leaves it empty (there is one model per site).
  nn::StateDict trained_model;
};

/// Table III rows: one (model, scheme) cell each.
SchemeResult run_centralized(const std::string& model_name,
                             const ClassificationData& data,
                             const ExperimentScale& scale);
SchemeResult run_standalone(const std::string& model_name,
                            const ClassificationData& data,
                            const ExperimentScale& scale);

struct FederatedOptions {
  bool weighted_aggregation = true;
  double dp_sigma = 0.0;    // >0 adds a Gaussian privacy filter on clients
  bool send_diff = false;
  bool use_tcp = false;
  /// FedProx proximal coefficient for local training (0 = FedAvg).
  double fedprox_mu = 0.0;
  /// Pairwise-mask secure aggregation (forces uniform aggregation so the
  /// masks cancel; see flare/secure_agg.h).
  bool secure_masking = false;
  /// Report the best round's global model (IntimeModelSelector) instead of
  /// the final round's.
  bool select_best = false;
};
/// The outbound Gaussian privacy filter run_federated installs on `site`
/// when dp_sigma > 0. Its seed mixes `seed` with a stable FNV-1a hash of the
/// site name, so every site draws its own noise and a rerun draws the same.
std::shared_ptr<flare::GaussianPrivacyFilter> make_site_privacy_filter(
    double sigma, std::uint64_t seed, const std::string& site);

SchemeResult run_federated(const std::string& model_name,
                           const ClassificationData& data,
                           const ExperimentScale& scale,
                           const FederatedOptions& options = {});

// ---- Fig. 2: MLM pretraining schemes ---------------------------------------

enum class MlmScheme {
  kCentralized,   // all pretraining data pooled
  kSmallDataset,  // a single site's shard only (the paper's lower bound)
  kFlImbalanced,  // FL over the paper's imbalanced split
  kFlBalanced,    // FL over an equal split
};

const char* mlm_scheme_name(MlmScheme scheme);

/// Validation MLM loss after each epoch (centralized/small) or each round
/// (FL schemes); series length = scale.mlm_epochs (= fl rounds for FL).
std::vector<double> run_mlm_scheme(MlmScheme scheme, const ExperimentScale& scale);

}  // namespace cppflare::train
