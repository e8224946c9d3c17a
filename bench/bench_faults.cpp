// Fault-tolerance overhead bench.
//
// Runs the same 8-site loopback-TCP federation twice — once clean, once
// under the "standard" fault plan (10% drops, 10% delays, one mid-run
// disconnect) — and reports rounds/s for each plus the overhead factor.
// The learner is a trivial nudge step so the numbers isolate the runtime's
// retry/reconnect/quorum machinery, not training compute.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "flare/simulator.h"

namespace {

using namespace cppflare;
using bench::NudgeLearner;

nn::StateDict tiny_model() {
  nn::StateDict d;
  d.insert("w", {{16}, std::vector<float>(16, 0.0f)});
  return d;
}

struct RunResult {
  double rounds_per_sec = 0.0;
  double wall_seconds = 0.0;
};

RunResult run_federation(std::int64_t rounds, bool faulty) {
  flare::SimulatorConfig config;
  config.num_clients = 8;
  config.num_rounds = rounds;
  config.use_tcp = true;
  config.compute_threads = -1;
  flare::SimulatorRunner runner(
      config, tiny_model(), std::make_unique<flare::FedAvgAggregator>(true),
      [](std::int64_t i, const std::string& name) {
        return std::make_shared<NudgeLearner>(name, static_cast<float>(i));
      });
  if (faulty) {
    runner.set_fault_planner(
        [](std::int64_t index, const std::string&,
           std::int64_t incarnation) -> std::optional<flare::FaultPlan> {
          flare::FaultPlan plan;
          plan.seed = 0xbe7c4 + static_cast<std::uint64_t>(index) * 131 +
                      static_cast<std::uint64_t>(incarnation);
          plan.drop_prob = 0.1;
          plan.delay_prob = 0.1;
          plan.delay_ms = 1;
          if (index == 3 && incarnation == 0) plan.disconnect_on_call = 9;
          return plan;
        });
  }
  const flare::SimulationResult result = runner.run();
  if (result.aborted || result.history.size() != static_cast<std::size_t>(rounds)) {
    std::fprintf(stderr, "federation did not complete cleanly\n");
    std::exit(1);
  }
  RunResult r;
  r.wall_seconds = result.wall_seconds;
  r.rounds_per_sec = static_cast<double>(rounds) / result.wall_seconds;
  return r;
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
  // Injected faults log one warning per retry by design; that's thousands of
  // lines at bench scale, so keep only errors.
  core::LogConfig::instance().set_threshold(core::LogLevel::kError);

  const std::int64_t rounds = 30;
  std::printf("Fault-tolerance overhead: 8-site TCP federation, %lld rounds\n",
              static_cast<long long>(rounds));

  const RunResult clean = run_federation(rounds, /*faulty=*/false);
  std::printf("  clean : %7.1f rounds/s (%.3f s)\n", clean.rounds_per_sec,
              clean.wall_seconds);
  const RunResult faulty = run_federation(rounds, /*faulty=*/true);
  std::printf("  faulty: %7.1f rounds/s (%.3f s)  [10%% drop, 10%% delay, "
              "1 disconnect]\n",
              faulty.rounds_per_sec, faulty.wall_seconds);
  const double overhead = clean.rounds_per_sec / faulty.rounds_per_sec;
  std::printf("  overhead factor: %.2fx\n", overhead);

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"sites\": 8,\n"
                 "  \"rounds\": %lld,\n"
                 "  \"transport\": \"tcp\",\n"
                 "  \"fault_plan\": {\"drop_prob\": 0.1, \"delay_prob\": 0.1, "
                 "\"delay_ms\": 1, \"disconnects\": 1},\n"
                 "  \"clean_rounds_per_sec\": %.3f,\n"
                 "  \"faulty_rounds_per_sec\": %.3f,\n"
                 "  \"overhead_factor\": %.3f\n"
                 "}\n",
                 static_cast<long long>(rounds), clean.rounds_per_sec,
                 faulty.rounds_per_sec, overhead);
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path);
  }
  return 0;
}
