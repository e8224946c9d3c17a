#include "workloads.h"

#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>

#include "core/bytes.h"
#include "core/sha256.h"
#include "data/vocab.h"
#include "dyadic.h"
#include "flare/observability.h"
#include "instrument.h"
#include "models/lstm_classifier.h"
#include "train/clinical_learner.h"
#include "train/experiment.h"
#include "train/metrics.h"

namespace flbench {

namespace fl = cppflare::flare;
namespace nn = cppflare::nn;
namespace train = cppflare::train;
namespace models = cppflare::models;
namespace core = cppflare::core;

// Sizes are chosen so one episode (set-up plus every round) takes a few
// seconds on a 4-core host: a run of the default length then repeats the
// set-up several times and collects enough rounds for a stable median.
// Each workload drives at most 4 site threads or pool workers and at most
// 4 loopback connections, and its clients wait for the round to close
// before they get their next task (ScatterAndGather is a closed loop).
// BENCHMARK.json lists the first three; README.md says why the fleet
// workload is run only by hand.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec lstm;
    lstm.name = "fl-lstm-8site";
    lstm.learners = LearnerKind::kClinical;
    lstm.model = "lstm";
    lstm.sites = 8;
    lstm.site_workers = 4;
    lstm.compute_threads = 1;
    lstm.journal = true;
    lstm.rounds = 6;
    lstm.patients = 400;
    v.push_back(lstm);

    // One kernel thread: with a larger budget the parallel regions wait on
    // whichever vCPU the host steals, and identical rounds varied by up to 2x.
    WorkloadSpec bertmini;
    bertmini.name = "fl-bertmini-1site-tcp";
    bertmini.learners = LearnerKind::kClinical;
    bertmini.model = "bert-mini";
    bertmini.sites = 1;
    bertmini.compute_threads = 1;
    bertmini.tcp = true;
    bertmini.rounds = 6;
    bertmini.patients = 200;
    v.push_back(bertmini);

    WorkloadSpec wire;
    wire.name = "wire-bert-4site-tcp";
    wire.model = "bert";
    wire.sites = 4;
    wire.tcp = true;
    wire.rounds = 8;
    v.push_back(wire);

    WorkloadSpec fleet;
    fleet.name = "fleet-256site-journal";
    fleet.sites = 256;
    fleet.site_workers = 4;
    fleet.journal = true;
    fleet.rounds = 30;
    fleet.flat_numel = 4096;
    v.push_back(fleet);
    return v;
  }();
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ContributionTally tally_contributions(const fl::SimulationResult& result,
                                      std::int64_t sites, std::int64_t planned_rounds) {
  ContributionTally tally;
  tally.attempted = sites * planned_rounds;
  for (std::size_t r = 0;
       r < result.history.size() && static_cast<std::int64_t>(r) < planned_rounds; ++r) {
    tally.accepted += std::min(result.history[r].num_contributions, sites);
  }
  return tally;
}

namespace {

double seconds_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

std::string model_digest(const nn::StateDict& model) {
  core::ByteWriter writer;
  model.serialize(writer);
  return core::to_hex(core::Sha256::hash(writer.bytes().data(), writer.bytes().size()));
}

std::int64_t counter_value(const char* name) {
  return core::MetricRegistry::instance().counter(name).value();
}

std::int64_t snapshot_counter(const core::MetricSnapshot& snap, const char* name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) { return (a + b - 1) / b; }

/// Appends the four coordinator phases of every round as spans and gives
/// each decorator span without an explicit parent the phase it ran in:
/// learner and accept -> collect(r); aggregate and revoke -> aggregate(r);
/// reset(r) -> turnaround(r - 1). Phases are children of their round.
void add_server_phases(const RoundClock& clock, std::vector<Span>& spans) {
  const auto rounds = static_cast<std::int64_t>(clock.marks.size());
  const std::size_t first_phase = spans.size();
  // phase_id[r][k]: index of round r's span k (0 round, 1 collect,
  // 2 aggregate, 3 publish, 4 turnaround); -1 where the round is missing.
  std::vector<std::array<std::int64_t, 5>> phase_id(static_cast<std::size_t>(rounds),
                                                    {-1, -1, -1, -1, -1});
  auto push = [&spans](SpanName name, std::int32_t round, std::int64_t a, std::int64_t b,
                       std::int64_t parent) {
    Span s;
    s.name = name;
    s.round = round;
    s.start_ns = a;
    s.end_ns = b;
    s.parent = parent;
    spans.push_back(s);
    return static_cast<std::int64_t>(spans.size() - 1);
  };
  for (std::int64_t r = 0; r < rounds; ++r) {
    const auto& m = clock.marks[static_cast<std::size_t>(r)];
    if (m[RoundClock::kStarted] < 0 || m[RoundClock::kDone] < 0) continue;
    const bool has_next = r + 1 < rounds &&
                          clock.marks[static_cast<std::size_t>(r + 1)][RoundClock::kStarted] >= 0;
    const std::int64_t next =
        has_next ? clock.marks[static_cast<std::size_t>(r + 1)][RoundClock::kStarted]
                 : m[RoundClock::kDone];
    const auto rr = static_cast<std::int32_t>(r);
    auto& ids = phase_id[static_cast<std::size_t>(r)];
    ids[0] = push(SpanName::kRound, rr, m[RoundClock::kStarted], next, -1);
    ids[1] = push(SpanName::kCollect, rr, m[RoundClock::kStarted], m[RoundClock::kBefore], ids[0]);
    ids[2] = push(SpanName::kAggregatePhase, rr, m[RoundClock::kBefore],
                  m[RoundClock::kAfter], ids[0]);
    ids[3] = push(SpanName::kPublish, rr, m[RoundClock::kAfter], m[RoundClock::kDone], ids[0]);
    if (has_next) ids[4] = push(SpanName::kTurnaround, rr, m[RoundClock::kDone], next, ids[0]);
  }
  for (std::size_t i = 0; i < first_phase; ++i) {
    Span& s = spans[i];
    if (s.parent >= 0 || s.round < 0 || s.round >= rounds) continue;
    const auto& ids = phase_id[static_cast<std::size_t>(s.round)];
    switch (s.name) {
      case SpanName::kLearner:
      case SpanName::kAccept: s.parent = ids[1]; break;
      case SpanName::kAggregate:
      case SpanName::kRevoke: s.parent = ids[2]; break;
      case SpanName::kReset:
        if (s.round >= 1) s.parent = phase_id[static_cast<std::size_t>(s.round - 1)][4];
        break;
      default: break;
    }
  }
}

/// Inputs of a kClinical episode.
struct ClinicalInputs {
  train::ClassificationData data;
  models::ModelConfig config;
  train::LearnerOptions options;
};

}  // namespace

EpisodeResult run_episode(const WorkloadSpec& spec, std::uint64_t seed, bool traced,
                          const std::string& scratch_dir) {
  EpisodeResult out;
  out.traced = traced;
  out.rounds_planned = spec.rounds;
  out.valid_loss = std::numeric_limits<double>::quiet_NaN();
  const bool clinical = spec.learners == LearnerKind::kClinical;

  const std::int64_t t0 = now_ns();
  // ---- data: the cohort and its Table I shards (kClinical only) ----
  std::shared_ptr<ClinicalInputs> inputs;
  if (clinical) {
    train::ExperimentScale scale;
    scale.num_patients = spec.patients;
    scale.num_clients = spec.sites;
    scale.seed = seed;
    inputs = std::make_shared<ClinicalInputs>();
    inputs->data = train::prepare_classification_data(scale);
    inputs->config = models::ModelConfig::by_name(
        spec.model, inputs->data.tokenizer->vocab().size(),
        inputs->data.tokenizer->max_seq_len());
    const bool transformer = inputs->config.kind == models::ModelKind::kBert ||
                             inputs->config.kind == models::ModelKind::kBertMini;
    inputs->options.local_epochs = scale.local_epochs;
    inputs->options.batch_size =
        transformer ? scale.transformer_batch_size : scale.batch_size;
    inputs->options.lr = scale.lr;
    inputs->options.weight_decay = scale.weight_decay;
    inputs->options.seed = seed + 42;
    inputs->options.verbose = false;
  }
  const std::int64_t t_data = now_ns();

  // ---- models: the initial global model ----
  nn::StateDict initial;
  if (clinical) {
    core::Rng init_rng(seed + 40);
    initial = models::make_classifier(inputs->config, init_rng)->state_dict();
  } else if (spec.model.empty()) {
    initial = dyadic_flat_model(spec.flat_numel, seed);
  } else {
    // Table II's model at its vocabulary size (bench_table2_models), with
    // dyadic values so the closed form stays exact.
    const train::ExperimentScale scale;
    const std::int64_t vocab = scale.num_drugs + scale.num_diagnoses + scale.num_procedures +
                               2 + cppflare::data::Vocabulary::kNumSpecial;
    core::Rng init_rng(seed + 40);
    const auto shape_model = models::make_classifier(
        models::ModelConfig::by_name(spec.model, vocab, scale.max_seq_len), init_rng);
    initial = dyadic_weights(shape_model->state_dict(), seed);
  }
  const std::int64_t t_models = now_ns();

  // ---- flare: the runner, its instruments, the run ----
  std::size_t span_capacity = 0;
  if (traced) {
    std::int64_t per_round = 4 * spec.sites + 8;
    if (clinical) {
      const std::int64_t bs = inputs->options.batch_size;
      per_round += ceil_div(inputs->data.train.size(), bs) + spec.sites +
                   spec.sites * (ceil_div(inputs->data.valid.size(), bs) + 1);
    }
    span_capacity = static_cast<std::size_t>(per_round * (spec.rounds + 1) + 1024);
  }
  auto log = std::make_unique<SpanLog>(span_capacity);

  fl::SimulatorConfig config;
  config.num_clients = spec.sites;
  config.num_rounds = spec.rounds;
  config.use_tcp = spec.tcp;
  config.seed = seed + 41;
  config.site_workers = spec.site_workers;
  config.compute_threads = spec.compute_threads;
  config.timeout_ms = 120000;
  const std::filesystem::path episode_dir = std::filesystem::path(scratch_dir) / "episode";
  if (spec.journal) {
    std::filesystem::remove_all(episode_dir);
    std::filesystem::create_directories(episode_dir);
    config.persist_path = (episode_dir / "global.ckpt").string();
    config.journal = true;
    config.journal_sync = core::WalSyncPolicy::kEveryRound;
  }

  std::unique_ptr<fl::Aggregator> aggregator = std::make_unique<fl::FedAvgAggregator>(true);
  TimedAggregator* timed_aggregator = nullptr;
  if (traced) {
    auto timed = std::make_unique<TimedAggregator>(std::move(aggregator), log.get());
    timed_aggregator = timed.get();
    aggregator = std::move(timed);
  }

  SpanLog* log_ptr = log.get();
  fl::SimulatorRunner::LearnerFactory factory =
      [inputs, seed, traced, log_ptr](std::int64_t i, const std::string& name)
      -> std::shared_ptr<fl::Learner> {
    auto trace = std::make_shared<SiteTrace>();
    trace->site = static_cast<std::int32_t>(i);
    std::shared_ptr<fl::Learner> learner;
    if (inputs) {
      core::Rng site_rng(seed + 50 + static_cast<std::uint64_t>(i));
      std::shared_ptr<models::SequenceClassifier> model =
          models::make_classifier(inputs->config, site_rng);
      if (traced) model = std::make_shared<TimedClassifier>(model, log_ptr, trace);
      learner = std::make_shared<train::ClinicalLearner>(
          name, std::move(model), inputs->data.shards[static_cast<std::size_t>(i)],
          inputs->data.valid, inputs->options);
    } else {
      learner = std::make_shared<DyadicLearner>(name, i, seed);
    }
    if (traced) learner = std::make_shared<TimedLearner>(learner, log_ptr, trace);
    return learner;
  };

  const std::int64_t bytes0 = counter_value(fl::metric_names::kTcpBytesSent);
  const std::int64_t frames0 = counter_value(fl::metric_names::kTcpFramesSent);
  // Set-up excludes the span log allocated above, so traced and untraced
  // episodes time the same set-up work.
  const std::int64_t t_flare = now_ns();
  RoundClock clock(spec.rounds);  // outlives the runner whose observers it feeds
  fl::SimulatorRunner runner(config, initial, std::move(aggregator), factory);
  clock.attach(runner.server(), traced);
  const fl::SimulationResult result = runner.run();
  out.tcp_bytes = counter_value(fl::metric_names::kTcpBytesSent) - bytes0;
  out.tcp_frames = counter_value(fl::metric_names::kTcpFramesSent) - frames0;

  // ---- end-to-end figures from the round clock ----
  const std::int64_t first_started = clock.marks.empty() ? -1 : clock.marks[0][RoundClock::kStarted];
  if (first_started >= 0) {
    out.data_prepare_s = seconds_between(t0, t_data);
    out.models_init_s = seconds_between(t_data, t_models);
    out.runner_init_s = seconds_between(t_flare, first_started);
    out.setup_s = out.data_prepare_s + out.models_init_s + out.runner_init_s;
  }
  for (const auto& m : clock.marks) {
    if (m[RoundClock::kStarted] >= 0 && m[RoundClock::kDone] >= 0) {
      out.round_s.push_back(seconds_between(m[RoundClock::kStarted], m[RoundClock::kDone]));
    }
  }
  out.rounds_completed = static_cast<std::int64_t>(result.history.size());
  if (first_started >= 0 && clock.last_done_ns >= 0) {
    out.post_setup_wall_s = seconds_between(first_started, clock.last_done_ns);
  }
  if (clock.cpu_first_started_ns >= 0 && clock.cpu_last_done_ns >= 0) {
    out.post_setup_cpu_s = seconds_between(clock.cpu_first_started_ns, clock.cpu_last_done_ns);
  }
  const ContributionTally tally = tally_contributions(result, spec.sites, spec.rounds);
  out.contributions_attempted = tally.attempted;
  out.contributions_accepted = tally.accepted;
  out.rejected = snapshot_counter(result.metrics, fl::metric_names::kServerContribRejected);
  out.late = snapshot_counter(result.metrics, fl::metric_names::kServerLateContribs);
  out.model_sha256 = model_digest(result.final_model);

  // ---- correctness gates ----
  if (result.aborted) {
    out.correct = false;
    out.check_detail = "run aborted: " + result.abort_reason;
  } else if (tally.accepted != tally.attempted) {
    out.correct = false;
    out.check_detail = std::to_string(tally.attempted - tally.accepted) +
                       " site-round contributions not accepted";
  } else if (clinical) {
    core::Rng eval_rng(seed + 70);
    auto eval_model = models::make_classifier(inputs->config, eval_rng);
    eval_model->load_state_dict(result.final_model);
    out.valid_loss = train::evaluate(*eval_model, inputs->data.valid,
                                     inputs->options.batch_size)
                         .loss;
    out.correct = std::isfinite(out.valid_loss);
    out.check_detail = out.correct ? "all sites accepted every round; valid_loss finite"
                                   : "valid_loss is not finite";
  } else {
    const ClosedFormCheck check =
        check_closed_form(initial, result.final_model, spec.sites, spec.rounds, seed);
    out.correct = check.ok;
    out.check_detail = check.detail;
  }

  if (traced) {
    out.spans = log->snapshot();
    out.spans_dropped = log->dropped();
    add_server_phases(clock, out.spans);
    out.parked_at_close = clock.parked_at_close;
    out.agg_attempted = timed_aggregator->attempted();
    out.agg_accepted = timed_aggregator->accepted();
  }
  out.final_model = result.final_model;
  if (spec.journal) std::filesystem::remove_all(episode_dir);
  return out;
}

}  // namespace flbench
