// flbench — the federated-round benchmark.
//
//   flbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   flbench --self-test
//
// Runs one workload (see workloads.cpp and flbench/README.md) through
// flare::SimulatorRunner for about --seconds, repeating whole episodes with
// inputs derived from --seed, and checks every episode's output. With
// --trace 0 it reports the end-to-end metrics; with --trace 1 it alternates
// untraced and traced episodes and reports the per-layer metrics, the
// payload and fsync probes, and the tracing overhead. The last line of
// stdout is the result as one JSON object; the full record, and the spans of
// the last traced episode, go under .bench_out/results/.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/logging.h"
#include "measure.h"
#include "probes.h"
#include "report.h"
#include "selftest.h"
#include "workloads.h"

namespace {

using namespace flbench;

// Any run, however its episodes size up, ends well inside the 180 s a run
// may take.
constexpr double kHardCapSeconds = 120.0;

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  int trace = -1;
  bool self_test = false;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "flbench: %s\n"
               "usage: flbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       flbench --self-test\nworkloads:",
               why);
  for (const WorkloadSpec& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

std::optional<Args> parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      const unsigned long long s = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
      a.seed = s;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return std::nullopt;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      a.trace = value == "1" ? 1 : 0;
    } else {
      return std::nullopt;
    }
  }
  return a;
}

std::string metrics_json(const std::vector<Metric>& metrics, bool result_only) {
  std::string out = "{";
  bool first = true;
  for (const Metric& m : metrics) {
    if (result_only && !m.in_result) continue;
    out += (first ? "" : ", ") + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (!result_only) out += ", \"note\": " + json_string(m.note);
    out += "}";
    first = false;
  }
  return out + "}";
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-38s %14.6g %-6s %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.in_result ? "" : "[printed only] ", m.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (!optimized_build()) {
    std::fprintf(stderr, "flbench: refusing to report from an unoptimised build\n");
    return 3;
  }
  cppflare::core::LogConfig::instance().set_threshold(cppflare::core::LogLevel::kError);
  const std::optional<Args> args = parse(argc, argv);
  if (!args) return usage("bad arguments");
  if (run_self_tests() != 0) {
    std::fprintf(stderr, "flbench: self-tests failed; not measuring\n");
    return 4;
  }
  if (args->self_test) {
    std::printf("flbench self-tests passed\n");
    return 0;
  }
  const WorkloadSpec* spec = find_workload(args->workload);
  if (spec == nullptr) return usage("unknown or missing --workload");
  if (!args->seed) return usage("--seed is required");
  if (!(args->seconds > 0.0)) return usage("--seconds must be positive");
  if (args->trace < 0) return usage("--trace 0|1 is required");
  const std::uint64_t seed = *args->seed;
  const bool traced_run = args->trace == 1;
  const bool clinical = spec->learners == LearnerKind::kClinical;

  const std::filesystem::path out_dir = ".bench_out";
  const std::filesystem::path scratch = out_dir / ("tmp-" + std::to_string(::getpid()));
  const std::filesystem::path results = out_dir / "results";
  std::filesystem::create_directories(scratch);
  std::filesystem::create_directories(results);

  std::printf("flbench workload=%s seed=%llu seconds=%g trace=%d\n", spec->name.c_str(),
              static_cast<unsigned long long>(seed), args->seconds, args->trace);
  std::fflush(stdout);

  // ---- episodes ----
  const std::int64_t start = now_ns();
  const auto elapsed = [start] { return static_cast<double>(now_ns() - start) * 1e-9; };
  // Three set-ups at least, for a median. A traced run alternates untraced
  // and traced episodes; its first (untraced) episode is the warm-up and
  // stays out of the tracing-overhead baseline.
  const std::size_t min_episodes = 3;
  std::vector<EpisodeResult> episodes;
  while ((episodes.size() < min_episodes || elapsed() < args->seconds) &&
         elapsed() < kHardCapSeconds) {
    const bool traced = traced_run && episodes.size() % 2 == 1;
    try {
      episodes.push_back(run_episode(*spec, seed, traced, scratch.string()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "flbench: episode %zu failed: %s\n", episodes.size() + 1, e.what());
      std::filesystem::remove_all(scratch);
      return 1;
    }
    const EpisodeResult& e = episodes.back();
    std::printf("  episode %zu%s: setup %.3f s, %lld rounds in %.3f s, %s\n", episodes.size(),
                traced ? " (traced)" : "", e.setup_s, static_cast<long long>(e.rounds_completed),
                e.post_setup_wall_s, e.check_detail.c_str());
    std::fflush(stdout);
  }

  // ---- gates ----
  std::vector<std::string> failures;
  std::int64_t attempted = 0, accepted = 0;
  std::vector<const EpisodeResult*> traced, untraced;
  for (const EpisodeResult& e : episodes) {
    attempted += e.contributions_attempted;
    accepted += e.contributions_accepted;
    (e.traced ? traced : untraced).push_back(&e);
    if (!e.correct) failures.push_back("episode check: " + e.check_detail);
    if (e.model_sha256 != episodes.front().model_sha256) {
      failures.push_back("final model differs between episodes of the same seed");
    }
    if (e.spans_dropped > 0) failures.push_back("span log overflowed");
  }
  if (episodes.size() < min_episodes) failures.push_back("too few episodes before the hard cap");

  // ---- metrics ----
  std::vector<Metric> metrics;
  if (!traced_run) {
    metrics = end_to_end_metrics(untraced, clinical);
  } else if (!traced.empty() && untraced.size() >= 2) {
    const std::vector<const EpisodeResult*> baseline(untraced.begin() + 1, untraced.end());
    metrics = per_layer_metrics(traced, baseline, clinical);
    for (Metric& m : payload_probe(traced.back()->final_model)) metrics.push_back(std::move(m));
    metrics.push_back(fsync_probe(scratch.string()));
  }
  for (const Metric& m : metrics) {
    if (m.in_result && !std::isfinite(m.value)) failures.push_back(m.name + " is not finite");
  }
  const bool correct = failures.empty();

  std::printf("metrics (%s):\n", traced_run ? "per layer, traced episodes" : "end to end");
  print_table(metrics);
  if (traced_run) {
    std::printf("self time by span over traced episodes:\n%s",
                self_time_table(traced).c_str());
  }
  std::printf("final model sha256 %s\n", episodes.front().model_sha256.c_str());
  for (const std::string& f : failures) std::printf("GATE FAILED: %s\n", f.c_str());
  const std::string host = host_fingerprint_json();
  std::printf("host %s\n", host.c_str());

  // ---- record ----
  const std::string stem = spec->name + "-seed" + std::to_string(seed) +
                           (traced_run ? "-trace1" : "-trace0");
  {
    std::string episodes_json = "[";
    for (std::size_t i = 0; i < episodes.size(); ++i) {
      const EpisodeResult& e = episodes[i];
      std::string rounds = "[";
      for (std::size_t r = 0; r < e.round_s.size(); ++r) {
        rounds += (r ? ", " : "") + json_number(e.round_s[r]);
      }
      episodes_json += std::string(i ? ", " : "") + "{\"traced\": " +
                       (e.traced ? "true" : "false") +
                       ", \"setup_s\": " + json_number(e.setup_s) +
                       ", \"round_s\": " + rounds + "]" +
                       ", \"post_setup_wall_s\": " + json_number(e.post_setup_wall_s) +
                       ", \"post_setup_cpu_s\": " + json_number(e.post_setup_cpu_s) +
                       ", \"model_sha256\": " + json_string(e.model_sha256) +
                       ", \"check\": " + json_string(e.check_detail) + "}";
    }
    episodes_json += "]";
    std::string failures_json = "[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      failures_json += (i ? ", " : "") + json_string(failures[i]);
    }
    failures_json += "]";
    std::ofstream record(results / (stem + ".json"));
    record << "{\"workload\": " << json_string(spec->name) << ", \"seed\": " << seed
           << ", \"seconds\": " << json_number(args->seconds) << ", \"trace\": " << args->trace
           << ", \"host\": " << host << ", \"correct\": " << (correct ? "true" : "false")
           << ", \"gate_failures\": " << failures_json << ", \"episodes\": " << episodes_json
           << ", \"metrics\": " << metrics_json(metrics, false) << "}\n";
    if (!traced.empty()) {
      std::ofstream spans(results / (stem + ".spans.jsonl"));
      spans << spans_jsonl(*traced.back());
    }
  }
  std::filesystem::remove_all(scratch);

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(attempted - accepted), metrics_json(metrics, true).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
