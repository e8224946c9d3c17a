// Measurement primitives of the federated-round benchmark: clocks, the
// percentile rule, and the span log the traced runs record into.
//
// Spans live in memory preallocated before a run starts. Recording one is a
// relaxed fetch_add plus a few stores, because several recorders (EventBus
// observers, the aggregator decorator) run under the coordinator's lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace flbench {

/// steady_clock nanoseconds.
std::int64_t now_ns();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
std::int64_t thread_cpu_ns();
/// user+sys CPU time of the whole process.
std::int64_t process_cpu_ns();
/// Peak resident set size of the process in MB (getrusage ru_maxrss).
double peak_rss_mb();

// ---- percentiles -----------------------------------------------------------

/// Median; the mean of the two middle values for an even count. NaN if empty.
double median(std::vector<double> values);

/// Nearest-rank percentile for an integer percent in [1, 100]. NaN if empty.
double percentile(std::vector<double> values, int percent);

/// Samples strictly above the nearest-rank `percent` position among `n`.
std::size_t samples_beyond(std::size_t n, int percent);

/// The reporting rule: a percentile is reported only when at least ten
/// samples lie beyond it.
bool percentile_reportable(std::size_t n, int percent);

// ---- spans -----------------------------------------------------------------

enum class SpanName : std::uint16_t {
  kRound = 0,         // flare.server.round: RoundStarted -> next RoundStarted
  kCollect,           // flare.server.collect: RoundStarted -> BeforeAggregation
  kAggregatePhase,    // flare.server.aggregate: Before -> AfterAggregation
  kPublish,           // flare.server.publish: After -> RoundDone
  kTurnaround,        // flare.server.turnaround: RoundDone -> next RoundStarted
  kLearner,           // train.learner: Learner::train
  kForwardTrain,      // models.forward_train: class_logits in training mode
  kForwardEval,       // models.forward_eval: class_logits in eval mode
  kAccept,            // flare.aggregator.accept
  kAggregate,         // flare.aggregator.aggregate
  kReset,             // flare.aggregator.reset
  kRevoke,            // flare.aggregator.revoke
  kCount,
};

const char* span_name(SpanName name);

struct Span {
  SpanName name = SpanName::kRound;
  std::int32_t site = -1;   // 0-based site index; -1 for coordinator spans
  std::int32_t round = -1;  // the shared id that ties a round's spans together
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // < start_ns while the span is still open
  std::int64_t cpu_ns = -1;  // calling-thread CPU inside the span, -1 if untaken
  std::int64_t parent = -1;  // index into the log, -1 for a root
  bool closed() const { return end_ns >= start_ns; }
  std::int64_t duration_ns() const { return closed() ? end_ns - start_ns : 0; }
};

/// Fixed-capacity, multi-writer span store. Spans past the capacity are
/// counted as dropped instead of allocating during the run.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) : spans_(capacity) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Reserves a slot for a span whose end is not known yet; -1 when full.
  std::int64_t open(SpanName name, std::int32_t site, std::int32_t round,
                    std::int64_t start_ns);
  void close(std::int64_t id, std::int64_t end_ns, std::int64_t cpu_ns = -1);
  /// Records a finished span; returns its id or -1 when full.
  std::int64_t add(const Span& span);

  /// Valid only after every recorder has stopped (the run has joined).
  std::vector<Span> snapshot() const;
  std::int64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  std::vector<Span> spans_;
  std::atomic<std::int64_t> next_{0};
  std::atomic<std::int64_t> dropped_{0};
};

/// Self time of every span: its duration minus the union of its children's
/// intervals, each clipped to the parent. Concurrent children (sites training
/// in parallel) are counted once where they overlap.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

}  // namespace flbench
