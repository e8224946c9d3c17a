// Process-wide observability substrate: a span tracer and a metric registry.
//
// The tracer records scoped RAII spans (wall + thread-CPU time, parent/child
// nesting per thread) into a fixed-capacity thread-safe ring buffer; sinks
// (TraceSink) consume the buffer after a run — the Chrome `about:tracing`
// exporter and the summary table live in flare/observability.h. The
// MetricRegistry holds named counters, gauges and histograms whose hot-path
// recording is a single relaxed atomic op, cheap enough for per-frame and
// per-batch call sites.
//
// Cost contract: with the tracer disabled (the default) a CF_TRACE_SPAN is
// one relaxed atomic load and a branch — measured ≤1% on a clean 8-site
// round (bench/bench_trace, BENCH_obs.json). Compiling with
// -DCPPFLARE_DISABLE_TRACING removes the spans entirely
// (`kTracingCompiledIn` lets tests check which build they got). Recording
// never touches model data: a fully traced run is memcmp-equal to an
// untraced one (tests/trace_test.cpp holds this line).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/thread_annotations.h"

namespace cppflare::core {

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

/// One completed span. Fixed-size buffers only: recording must not allocate.
struct TraceEvent {
  static constexpr std::size_t kNameCap = 40;
  static constexpr std::size_t kSiteCap = 24;

  char name[kNameCap];  // span name ("server.aggregate", ...), NUL-terminated
  char site[kSiteCap];  // site label or "" when not site-scoped
  std::int64_t round = -1;  // federation round or -1 when not round-scoped
  std::int64_t ts_ns = 0;   // start, monotonic ns since Tracer::start()
  std::int64_t dur_ns = 0;  // wall duration
  std::int64_t cpu_ns = 0;  // thread CPU time consumed inside the span
  std::uint64_t tid = 0;    // small stable per-thread id (1-based)
  std::uint64_t id = 0;     // span id (1-based, process-wide)
  std::uint64_t parent = 0; // enclosing span id on the same thread, 0 = root
};

/// Profiling hook: consumes a drained trace buffer event by event.
/// Implementations must not call back into the tracer.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// Called once before the first event; `dropped` is the number of events
  /// lost to ring-buffer wrap-around.
  virtual void begin(std::int64_t dropped) { (void)dropped; }
  virtual void event(const TraceEvent& e) = 0;
  virtual void end() {}
};

/// The do-nothing sink — the runtime end of the zero-cost story (the
/// compile-time end is -DCPPFLARE_DISABLE_TRACING).
class NullTraceSink final : public TraceSink {
 public:
  void event(const TraceEvent&) override {}
};

/// Process-wide span recorder. Disabled by default; `start()` arms it and
/// (re)allocates the ring buffer, `stop()` disarms it but keeps the events
/// for export. All entry points are thread-safe.
class Tracer {
 public:
  static Tracer& instance();

  /// Enables recording into a fresh ring of `capacity` events. The epoch
  /// for `ts_ns` is reset to now.
  void start(std::size_t capacity = 1 << 16);
  /// Disables recording; buffered events stay readable until the next
  /// start() or clear().
  void stop();
  void clear();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Monotonic nanoseconds since start() (0 if never started).
  std::int64_t now_ns() const;

  /// Appends one completed event (no-op while disabled). Used by ScopedSpan
  /// and by callers whose span cannot be lexically scoped (e.g. a
  /// federation round that opens and closes on different dispatch calls).
  void record(const TraceEvent& e);

  /// Convenience for manual complete-events.
  void record_complete(const char* name, std::string_view site,
                       std::int64_t round, std::int64_t start_ns,
                       std::int64_t end_ns, std::int64_t cpu_ns = 0);

  /// Snapshot of the buffered events, sorted by start timestamp.
  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  std::int64_t dropped() const;

  /// Streams the (chronological) buffer through a sink:
  /// begin(dropped), event()*, end().
  void drain(TraceSink& sink) const;

  // ---- internals for ScopedSpan (public: called from the RAII type) ----
  std::uint64_t next_span_id() { return id_counter_.fetch_add(1, std::memory_order_relaxed) + 1; }
  static std::uint64_t this_thread_id();
  static std::uint64_t current_parent();
  static void set_current_parent(std::uint64_t id);

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> id_counter_{0};
  mutable Mutex mu_;
  std::vector<TraceEvent> ring_ CF_GUARDED_BY(mu_);
  std::size_t capacity_ CF_GUARDED_BY(mu_) = 0;
  std::size_t head_ CF_GUARDED_BY(mu_) = 0;  // next overwrite once full
  std::int64_t dropped_ CF_GUARDED_BY(mu_) = 0;
  // steady_clock ns at start(); atomic so now_ns() — two calls per span —
  // stays off the ring mutex.
  std::atomic<std::int64_t> epoch_ns_{0};
};

/// RAII span: opens at construction, records at destruction. Inactive (and
/// nearly free) while the tracer is disabled. `name` must outlive the span
/// — pass string literals.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : ScopedSpan(name, {}, -1) {}
  ScopedSpan(const char* name, std::string_view site, std::int64_t round);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  char site_[TraceEvent::kSiteCap];
  std::int64_t round_;
  std::int64_t start_ns_ = 0;
  std::int64_t cpu_start_ns_ = 0;
  std::uint64_t id_ = 0;  // 0 = inactive (tracer was disabled at entry)
  std::uint64_t parent_ = 0;
};

/// True when spans are compiled in (i.e. CPPFLARE_DISABLE_TRACING unset).
#if defined(CPPFLARE_DISABLE_TRACING)
inline constexpr bool kTracingCompiledIn = false;
#define CF_TRACE_CONCAT2(a, b) a##b
#define CF_TRACE_CONCAT(a, b) CF_TRACE_CONCAT2(a, b)
#define CF_TRACE_SPAN(name) \
  do {                      \
  } while (0)
#define CF_TRACE_SPAN_SITE(name, site, round) \
  do {                                        \
  } while (0)
#else
inline constexpr bool kTracingCompiledIn = true;
#define CF_TRACE_CONCAT2(a, b) a##b
#define CF_TRACE_CONCAT(a, b) CF_TRACE_CONCAT2(a, b)
/// Scoped span covering the rest of the enclosing block.
#define CF_TRACE_SPAN(name) \
  ::cppflare::core::ScopedSpan CF_TRACE_CONCAT(cf_span_, __LINE__)((name))
/// Scoped span tagged with a site label and a round index.
#define CF_TRACE_SPAN_SITE(name, site, round)                            \
  ::cppflare::core::ScopedSpan CF_TRACE_CONCAT(cf_span_, __LINE__)((name), \
                                                                   (site), (round))
#endif

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

/// Monotonic counter. Hot path: one relaxed fetch_add.
class Counter {
 public:
  void add(std::int64_t delta = 1) { v_.fetch_add(delta, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-value gauge. Hot path: one relaxed store of the double's bits.
class Gauge {
 public:
  void set(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    bits_.store(bits, std::memory_order_relaxed);
  }
  double value() const {
    const std::uint64_t bits = bits_.load(std::memory_order_relaxed);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  void reset() { set(0.0); }

 private:
  std::atomic<std::uint64_t> bits_{0};  // IEEE-754 bits; 0 encodes 0.0
};

struct HistogramStats {
  std::int64_t count = 0;
  double sum = 0.0;
  double mean = 0.0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  /// Bucket-resolution (power-of-two) percentile estimates.
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// Histogram of non-negative int64 samples (durations in ns, byte counts)
/// over 64 power-of-two buckets. Hot path: a handful of relaxed atomics.
class Histogram {
 public:
  Histogram();
  void record(std::int64_t v);
  HistogramStats stats() const;
  void reset();

 private:
  std::array<std::atomic<std::int64_t>, 64> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{0};
  std::atomic<std::int64_t> max_{0};
};

/// RAII wall-clock sample into `hist`, taken only while the tracer is armed.
/// For per-kernel timing (GEMMs, parallel regions): thousands of calls per
/// train step would flood the span ring and evict the round-level spans, so
/// they land in a histogram instead. Disarmed cost: one relaxed load.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram& hist);
  ~ScopedHistogramTimer();

  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram* hist_ = nullptr;  // null = inactive (tracer was disabled at entry)
  std::int64_t start_ns_ = 0;
};

/// Point-in-time copy of every metric in a registry.
struct MetricSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramStats> histograms;

  /// Gauges whose name starts with `prefix` (e.g. "site." for the per-site
  /// view the simulator attaches to SimulationResult).
  std::map<std::string, double> gauges_with_prefix(const std::string& prefix) const;
  std::map<std::string, std::int64_t> counters_with_prefix(
      const std::string& prefix) const;
};

/// Named metric store. Registration (first lookup of a name) takes a mutex;
/// the returned references stay valid for the registry's lifetime, so hot
/// paths look a metric up once and record through the reference.
///
/// Two usage patterns: per-run registries owned by a component (the
/// federated server owns one, exposed as FederatedServer::metrics()), and
/// the process-wide `instance()` for global counters (TCP frame bytes,
/// tensor/trainer counters) that have no per-run owner.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  static MetricRegistry& instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricSnapshot snapshot() const;
  /// Zeroes every registered metric (registrations survive).
  void reset();

 private:
  // mu_ guards the name->metric maps (registration and snapshot); the metric
  // objects themselves are internally atomic, which is why the returned
  // references are safe to record through without the lock.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      CF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      CF_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      CF_GUARDED_BY(mu_);
};

/// Times the rest of the enclosing block into the process-wide histogram
/// `name` (nanoseconds) while the tracer is armed; compiled out with the
/// spans under CPPFLARE_DISABLE_TRACING. `name` must be a literal: the
/// histogram is looked up once per call site.
#if defined(CPPFLARE_DISABLE_TRACING)
#define CF_TRACE_HISTOGRAM(name) \
  do {                           \
  } while (0)
#else
#define CF_TRACE_HISTOGRAM(name)                                         \
  static ::cppflare::core::Histogram& CF_TRACE_CONCAT(cf_hist_, __LINE__) = \
      ::cppflare::core::MetricRegistry::instance().histogram(name);        \
  ::cppflare::core::ScopedHistogramTimer CF_TRACE_CONCAT(cf_hist_timer_,   \
                                                         __LINE__)(       \
      CF_TRACE_CONCAT(cf_hist_, __LINE__))
#endif

}  // namespace cppflare::core
