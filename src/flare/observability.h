// Profiling-hook exporters and federation-level telemetry glue over the
// core tracing substrate (core/trace.h).
//
// The span tracer and MetricRegistry live in core so tensor/train code can
// record without a flare dependency; this header owns everything that turns
// those recordings into artifacts:
//
//   * ChromeTraceSink — streams a drained trace to Chrome's `about:tracing`
//     JSON array format (one complete event per line; open the file at
//     chrome://tracing or https://ui.perfetto.dev).
//   * TraceSummarySink — aggregates spans by name into a fixed-width table
//     (count / total / mean / max wall ms, CPU ms) for terminal inspection.
//   * write_chrome_trace / write_trace_summary — one-call exports of the
//     process-wide tracer.
//
// Metric naming convention (enforced by taste, documented in DESIGN.md §11):
// dot-separated lowercase `layer.thing[.detail]`, with per-site values under
// `site.<name>.<metric>`. The `metric_names` namespace collects the shared
// names so call sites and tests don't drift apart.
#pragma once

#include <cstdio>
#include <map>
#include <string>

#include "core/trace.h"

namespace cppflare::flare {

/// Shared metric names: the consolidation point for the telemetry that used
/// to live in RoundTelemetry, SimulationResult ad-hoc fields and
/// train/metrics.* (see the deprecation notes in those headers).
namespace metric_names {
// Server round lifecycle (per-run registry owned by FederatedServer).
inline constexpr const char* kServerRoundsCompleted = "server.rounds_completed";
inline constexpr const char* kServerContribAccepted = "server.contributions_accepted";
inline constexpr const char* kServerContribRejected = "server.contributions_rejected";
inline constexpr const char* kServerLateContribs = "server.late_contributions";
inline constexpr const char* kServerEvictedSites = "server.evicted_sites";
inline constexpr const char* kServerDeadlineFired = "server.deadline_fired";
inline constexpr const char* kServerTrainLoss = "server.round.train_loss";
inline constexpr const char* kServerValidAcc = "server.round.valid_acc";
inline constexpr const char* kServerValidLoss = "server.round.valid_loss";
// kTrain task bodies packed; one per round however many sites receive it.
inline constexpr const char* kServerTaskEncodes = "server.task_encodes";
// Prefixes for dynamic names.
inline constexpr const char* kRejectionPrefix = "server.rejections.";  // + reason
inline constexpr const char* kSitePrefix = "site.";  // + <name>.<metric>
// Secure-aggregation mask recovery (per-run registry; DESIGN.md §14).
inline constexpr const char* kServerRecoveryRounds =
    "server.secure_agg.recovery_rounds";
inline constexpr const char* kServerUnmaskShares =
    "server.secure_agg.unmask_shares";
inline constexpr const char* kServerRecoveryDemotions =
    "server.secure_agg.demotions";
inline constexpr const char* kServerRecoveryDropped =
    "server.secure_agg.dropped_sites";
// Differential-privacy accountant (per-run registry): cumulative epsilon
// spent across published rounds at the configured delta.
inline constexpr const char* kDpEpsilonSpent = "privacy.dp.epsilon_spent";
// Transport byte/frame accounting (process-wide registry).
inline constexpr const char* kTcpBytesSent = "tcp.bytes_sent";
inline constexpr const char* kTcpBytesRecv = "tcp.bytes_recv";
inline constexpr const char* kTcpFramesSent = "tcp.frames_sent";
inline constexpr const char* kTcpFramesRecv = "tcp.frames_recv";
// Reactor transport (process-wide registry): connection high-water mark and
// the number of get_task calls currently parked server-side.
inline constexpr const char* kTcpPeakConnections = "tcp.peak_connections";
inline constexpr const char* kServerParkedPolls = "server.parked_polls";
// Training-loop counters (process-wide registry).
inline constexpr const char* kTrainBatches = "train.batches";
inline constexpr const char* kTrainEpochs = "train.epochs";
inline constexpr const char* kTrainEpochMs = "train.epoch_ms";  // histogram
}  // namespace metric_names

/// Builds the canonical per-site gauge name `site.<site>.<metric>`.
std::string site_metric_name(const std::string& site, const std::string& metric);

/// Streams trace events as a Chrome `about:tracing`-compatible JSON array,
/// one complete ("ph":"X") event per line. Timestamps/durations are emitted
/// in microseconds as the format requires; span metadata (site, round, CPU
/// time, span/parent ids) rides in "args". Dropped-event counts surface as
/// one metadata event so truncated timelines are visibly truncated.
class ChromeTraceSink final : public core::TraceSink {
 public:
  /// Does not own `out`; the caller keeps it open until end() returns.
  explicit ChromeTraceSink(std::FILE* out) : out_(out) {}

  void begin(std::int64_t dropped) override;
  void event(const core::TraceEvent& e) override;
  void end() override;

 private:
  std::FILE* out_;
  bool first_ = true;
};

/// One row of the per-span-name aggregation produced by TraceSummarySink.
struct SpanSummary {
  std::int64_t count = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t max_wall_ns = 0;
};

/// Aggregates spans by name; render with format() or read rows() directly.
class TraceSummarySink final : public core::TraceSink {
 public:
  void begin(std::int64_t dropped) override { dropped_ = dropped; }
  void event(const core::TraceEvent& e) override;

  const std::map<std::string, SpanSummary>& rows() const { return rows_; }
  std::int64_t dropped() const { return dropped_; }

  /// Fixed-width table, one line per span name, sorted by total wall time.
  std::string format() const;

 private:
  std::map<std::string, SpanSummary> rows_;
  std::int64_t dropped_ = 0;
};

/// Drains the process-wide tracer into `path` as Chrome-tracing JSON.
/// Returns false (and logs) if the file cannot be written.
bool write_chrome_trace(const std::string& path);

/// Drains the process-wide tracer into a summary table string.
std::string write_trace_summary();

}  // namespace cppflare::flare
