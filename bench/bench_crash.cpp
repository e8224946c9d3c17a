// Durability overhead + crash-recovery latency bench (DESIGN.md §15).
//
// Part 1 runs the same 8-site in-process federation three times — journal
// off, journal with one fsync per round, journal with an fsync on every
// record — and reports rounds/s for each plus the overhead factors. The
// fsync-per-round policy is the recommended default and carries a 1.10x
// budget against the journal-off baseline.
//
// Part 2 fabricates the on-disk aftermath of a coordinator killed mid-round
// (a checkpoint plus a journal holding a round-open and eight accepted
// contributions) and times how long a restarted server takes to replay it —
// the recovery-latency figure a paging SRE actually cares about.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_common.h"
#include "core/wal.h"
#include "flare/aggregator.h"
#include "flare/journal.h"
#include "flare/persistor.h"
#include "flare/provision.h"
#include "flare/server.h"
#include "flare/simulator.h"

namespace {

using namespace cppflare;
using bench::NudgeLearner;

constexpr std::int64_t kSites = 8;
constexpr std::int64_t kRounds = 100;
constexpr int kReps = 5;  // best-of, to shed scheduler noise
constexpr std::int64_t kModelFloats = 4096;

nn::StateDict bench_model() {
  nn::StateDict d;
  d.insert("w", {{kModelFloats}, std::vector<float>(kModelFloats, 0.0f)});
  return d;
}

enum class Mode { kJournalOff, kFsyncPerRound, kFsyncPerRecord };

double run_federation(const std::filesystem::path& dir, Mode mode) {
  flare::SimulatorConfig config;
  config.job_id = "bench-crash";
  config.num_clients = kSites;
  config.num_rounds = kRounds;
  config.use_tcp = false;
  config.compute_threads = -1;
  // Mode-specific filenames so one mode's leftovers never shadow another's.
  config.persist_path =
      (dir / ("model_" + std::to_string(static_cast<int>(mode)) + ".bin"))
          .string();
  config.journal = mode != Mode::kJournalOff;
  config.journal_sync = mode == Mode::kFsyncPerRecord
                            ? core::WalSyncPolicy::kEveryRecord
                            : core::WalSyncPolicy::kEveryRound;
  flare::SimulatorRunner runner(
      config, bench_model(), std::make_unique<flare::FedAvgAggregator>(true),
      [](std::int64_t i, const std::string& name) {
        return std::make_shared<NudgeLearner>(name, static_cast<float>(i));
      });
  const flare::SimulationResult result = runner.run();
  if (result.aborted ||
      result.history.size() != static_cast<std::size_t>(kRounds)) {
    std::fprintf(stderr, "federation did not complete cleanly\n");
    std::exit(1);
  }
  return static_cast<double>(kRounds) / result.wall_seconds;
}

/// Measures every mode kReps times, interleaved (off, per-round, per-record,
/// off, ...), so slow-machine phases — noisy neighbours, thermal dips — hit
/// all three modes instead of biasing whichever ran during them. Best-of per
/// mode then discards the noise floor.
std::array<double, 3> measure_interleaved(const std::filesystem::path& dir) {
  std::array<double, 3> best{};
  for (int rep = 0; rep < kReps; ++rep) {
    for (const Mode mode :
         {Mode::kJournalOff, Mode::kFsyncPerRound, Mode::kFsyncPerRecord}) {
      const std::size_t slot = static_cast<std::size_t>(mode);
      best[slot] = std::max(best[slot], run_federation(dir, mode));
    }
  }
  return best;
}

/// Fabricates the mid-round kill aftermath, then times a cold server boot
/// over it: WAL read, frame decode, and re-applying every journaled accept
/// through the aggregator all happen inside the FederatedServer ctor.
double measure_recovery_ms(const std::filesystem::path& dir) {
  const std::string job = "bench-crash-recovery";
  const std::string persist_path = (dir / "recover.bin").string();
  const std::string journal_path = persist_path + ".journal";
  const std::map<std::string, flare::Credential> registry =
      flare::Provisioner(job, 17).provision_sites(kSites);

  std::vector<std::string> cohort;
  for (const auto& [site, cred] : registry) cohort.push_back(site);
  {
    flare::RoundJournal journal(journal_path, core::WalSyncPolicy::kEveryRound);
    (void)journal.open(job);
    journal.append({.type = flare::JournalEventType::kRoundOpen,
                    .round = 0,
                    .names = cohort});
    for (const std::string& site : cohort) {
      flare::Dxo dxo(flare::DxoKind::kWeights, bench_model());
      dxo.set_meta_int(flare::Dxo::kMetaNumSamples, 10);
      journal.append({.type = flare::JournalEventType::kAccepted,
                      .site = site,
                      .payload = std::move(dxo)});
    }
    journal.sync();
  }

  flare::ServerConfig config;
  config.job_id = job;
  config.num_rounds = 3;
  config.expected_clients = kSites;
  config.min_clients = kSites;

  const auto started = std::chrono::steady_clock::now();
  auto persistor = std::make_shared<flare::ModelPersistor>(persist_path);
  flare::FederatedServer server(
      config, registry, bench_model(),
      std::make_unique<flare::FedAvgAggregator>(false), persistor,
      persistor->load(),
      std::make_shared<flare::RoundJournal>(journal_path,
                                            core::WalSyncPolicy::kEveryRound));
  const auto elapsed = std::chrono::steady_clock::now() - started;
  return std::chrono::duration<double, std::milli>(elapsed).count();
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }
  bench::quiet_logs();

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("cppflare_bench_crash_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  std::printf("Durability overhead: %lld-site in-process federation, %lld "
              "rounds (%lld-float model)\n",
              static_cast<long long>(kSites), static_cast<long long>(kRounds),
              static_cast<long long>(kModelFloats));

  const std::array<double, 3> best = measure_interleaved(dir);
  const double off = best[static_cast<std::size_t>(Mode::kJournalOff)];
  const double per_round = best[static_cast<std::size_t>(Mode::kFsyncPerRound)];
  const double per_record =
      best[static_cast<std::size_t>(Mode::kFsyncPerRecord)];
  std::printf("  journal off      : %7.1f rounds/s\n", off);
  std::printf("  fsync per round  : %7.1f rounds/s  (%.3fx, budget 1.10x)\n",
              per_round, off / per_round);
  std::printf("  fsync per record : %7.1f rounds/s  (%.3fx)\n", per_record,
              off / per_record);

  const double recovery_ms = measure_recovery_ms(dir);
  std::printf("  mid-round recovery (journal replay of %lld accepts): %.2f ms\n",
              static_cast<long long>(kSites), recovery_ms);

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"host\": %s,\n"
                 "  \"sites\": %lld,\n"
                 "  \"rounds\": %lld,\n"
                 "  \"model_floats\": %lld,\n"
                 "  \"transport\": \"inproc\",\n"
                 "  \"journal_off_rounds_per_sec\": %.3f,\n"
                 "  \"fsync_per_round_rounds_per_sec\": %.3f,\n"
                 "  \"fsync_per_record_rounds_per_sec\": %.3f,\n"
                 "  \"fsync_per_round_overhead_factor\": %.3f,\n"
                 "  \"fsync_per_round_overhead_budget\": 1.10,\n"
                 "  \"fsync_per_record_overhead_factor\": %.3f,\n"
                 "  \"recovery\": {\"journaled_accepts\": %lld, "
                 "\"replay_ms\": %.3f}\n"
                 "}\n",
                 bench::host_json().c_str(), static_cast<long long>(kSites),
                 static_cast<long long>(kRounds),
                 static_cast<long long>(kModelFloats), off, per_round,
                 per_record, off / per_round, off / per_record,
                 static_cast<long long>(kSites), recovery_ms);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }
  std::filesystem::remove_all(dir);
  return 0;
}
