// Turns episodes into the benchmark's named metrics.
#pragma once

#include <string>
#include <vector>

#include "workloads.h"

namespace flbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Part of the result line (listed in BENCHMARK.json). The others are
  /// printed and recorded but are not defined on every workload.
  bool in_result = true;
  std::string note;
};

/// End-to-end metrics over the untraced episodes of a run.
std::vector<Metric> end_to_end_metrics(const std::vector<const EpisodeResult*>& episodes,
                                       bool clinical);

/// Per-layer metrics over the traced episodes; `untraced` supplies the
/// tracing-overhead baseline measured in the same run, after its warm-up.
std::vector<Metric> per_layer_metrics(const std::vector<const EpisodeResult*>& traced,
                                      const std::vector<const EpisodeResult*>& untraced,
                                      bool clinical);

/// Completed rounds per second after set-up: the median of the episodes'
/// rates, so one slow warm-up episode does not move it.
double rounds_per_second(const std::vector<const EpisodeResult*>& episodes);

/// One line per span name: count, total wall and total self time.
std::string self_time_table(const std::vector<const EpisodeResult*>& traced);

/// JSON encodings: a quoted, escaped string (control characters dropped),
/// and a number with all its digits (null when not finite).
std::string json_string(const std::string& s);
std::string json_number(double v);

/// Every span of one episode as JSON lines (name, site, round, start, end,
/// parent, self time), for offline inspection.
std::string spans_jsonl(const EpisodeResult& episode);

}  // namespace flbench
