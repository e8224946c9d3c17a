#include "core/trace.h"

#include <time.h>

#include <algorithm>
#include <chrono>

namespace cppflare::core {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void copy_capped(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = std::min(src.size(), cap - 1);
  // A default string_view (e.g. a site-less span) has a null data(), which
  // memcpy's nonnull contract forbids even for n == 0.
  if (n > 0) std::memcpy(dst, src.data(), n);
  dst[n] = '\0';
}

std::atomic<std::uint64_t> g_tid_counter{0};
thread_local std::uint64_t tls_tid = 0;
thread_local std::uint64_t tls_parent = 0;

}  // namespace

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::this_thread_id() {
  if (tls_tid == 0) tls_tid = g_tid_counter.fetch_add(1) + 1;
  return tls_tid;
}

std::uint64_t Tracer::current_parent() { return tls_parent; }
void Tracer::set_current_parent(std::uint64_t id) { tls_parent = id; }

void Tracer::start(std::size_t capacity) {
  MutexLock lock(mu_);
  if (capacity == 0) capacity = 1;
  ring_.clear();
  ring_.reserve(capacity);
  capacity_ = capacity;
  head_ = 0;
  dropped_ = 0;
  epoch_ns_.store(steady_ns(), std::memory_order_release);
  enabled_.store(true, std::memory_order_release);
}

void Tracer::stop() { enabled_.store(false, std::memory_order_release); }

void Tracer::clear() {
  MutexLock lock(mu_);
  ring_.clear();
  head_ = 0;
  dropped_ = 0;
}

std::int64_t Tracer::now_ns() const {
  const std::int64_t epoch = epoch_ns_.load(std::memory_order_acquire);
  if (epoch == 0) return 0;
  return steady_ns() - epoch;
}

void Tracer::record(const TraceEvent& e) {
  if (!enabled()) return;
  MutexLock lock(mu_);
  if (capacity_ == 0) return;
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    // Ring full: overwrite the oldest slot and count the loss so exporters
    // can say the timeline is truncated instead of silently lying.
    ring_[head_] = e;
    head_ = (head_ + 1) % capacity_;
    dropped_ += 1;
  }
}

void Tracer::record_complete(const char* name, std::string_view site,
                             std::int64_t round, std::int64_t start_ns,
                             std::int64_t end_ns, std::int64_t cpu_ns) {
  if (!enabled()) return;
  TraceEvent e;
  copy_capped(e.name, TraceEvent::kNameCap, name);
  copy_capped(e.site, TraceEvent::kSiteCap, site);
  e.round = round;
  e.ts_ns = start_ns;
  e.dur_ns = end_ns > start_ns ? end_ns - start_ns : 0;
  e.cpu_ns = cpu_ns;
  e.tid = this_thread_id();
  e.id = next_span_id();
  e.parent = current_parent();
  record(e);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  {
    MutexLock lock(mu_);
    out.reserve(ring_.size());
    // head_..end is the older half once the ring has wrapped.
    for (std::size_t i = head_; i < ring_.size(); ++i) out.push_back(ring_[i]);
    for (std::size_t i = 0; i < head_; ++i) out.push_back(ring_[i]);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::size_t Tracer::size() const {
  MutexLock lock(mu_);
  return ring_.size();
}

std::int64_t Tracer::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

void Tracer::drain(TraceSink& sink) const {
  const std::vector<TraceEvent> snapshot = events();
  sink.begin(dropped());
  for (const TraceEvent& e : snapshot) sink.event(e);
  sink.end();
}

// ---------------------------------------------------------------------------
// ScopedSpan
// ---------------------------------------------------------------------------

ScopedSpan::ScopedSpan(const char* name, std::string_view site,
                       std::int64_t round)
    : name_(name), round_(round) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;  // id_ stays 0: the span never existed
  copy_capped(site_, TraceEvent::kSiteCap, site);
  id_ = tracer.next_span_id();
  parent_ = Tracer::current_parent();
  Tracer::set_current_parent(id_);
  start_ns_ = tracer.now_ns();
  cpu_start_ns_ = thread_cpu_ns();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  Tracer::set_current_parent(parent_);
  Tracer& tracer = Tracer::instance();
  TraceEvent e;
  copy_capped(e.name, TraceEvent::kNameCap, name_);
  std::memcpy(e.site, site_, TraceEvent::kSiteCap);
  e.round = round_;
  e.ts_ns = start_ns_;
  e.dur_ns = tracer.now_ns() - start_ns_;
  e.cpu_ns = thread_cpu_ns() - cpu_start_ns_;
  e.tid = Tracer::this_thread_id();
  e.id = id_;
  e.parent = parent_;
  tracer.record(e);
}

// ---------------------------------------------------------------------------
// ScopedHistogramTimer
// ---------------------------------------------------------------------------

ScopedHistogramTimer::ScopedHistogramTimer(Histogram& hist) {
  const Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  hist_ = &hist;
  start_ns_ = tracer.now_ns();
}

ScopedHistogramTimer::~ScopedHistogramTimer() {
  if (hist_ != nullptr) hist_->record(Tracer::instance().now_ns() - start_ns_);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {

/// Bucket index: floor(log2(v)) + 1, clamped; bucket 0 holds v <= 0.
std::size_t bucket_of(std::int64_t v) {
  if (v <= 0) return 0;
  std::size_t b = 0;
  std::uint64_t u = static_cast<std::uint64_t>(v);
  while (u >>= 1) ++b;
  return std::min<std::size_t>(b + 1, 63);
}

/// Representative value for a bucket (geometric midpoint of its bounds).
double bucket_mid(std::size_t b) {
  if (b == 0) return 0.0;
  const double lo = static_cast<double>(1ull << (b - 1));
  return lo * 1.5;
}

void atomic_min(std::atomic<std::int64_t>& target, std::int64_t v) {
  std::int64_t cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::int64_t>& target, std::int64_t v) {
  std::int64_t cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
}

void Histogram::record(std::int64_t v) {
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

HistogramStats Histogram::stats() const {
  HistogramStats s;
  s.count = count_.load(std::memory_order_relaxed);
  if (s.count == 0) return s;
  s.sum = static_cast<double>(sum_.load(std::memory_order_relaxed));
  s.mean = s.sum / static_cast<double>(s.count);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  std::array<std::int64_t, 64> counts{};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  const auto percentile = [&](double q) {
    const std::int64_t rank =
        static_cast<std::int64_t>(q * static_cast<double>(s.count - 1));
    std::int64_t seen = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
      seen += counts[i];
      if (seen > rank) return bucket_mid(i);
    }
    return bucket_mid(63);
  };
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricRegistry
// ---------------------------------------------------------------------------

MetricRegistry& MetricRegistry::instance() {
  static MetricRegistry registry;
  return registry;
}

Counter& MetricRegistry::counter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& MetricRegistry::gauge(std::string_view name) {
  MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricRegistry::histogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

MetricSnapshot MetricRegistry::snapshot() const {
  MutexLock lock(mu_);
  MetricSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h->stats();
  return snap;
}

void MetricRegistry::reset() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::map<std::string, double> MetricSnapshot::gauges_with_prefix(
    const std::string& prefix) const {
  std::map<std::string, double> out;
  for (const auto& [name, v] : gauges) {
    if (name.rfind(prefix, 0) == 0) out[name] = v;
  }
  return out;
}

std::map<std::string, std::int64_t> MetricSnapshot::counters_with_prefix(
    const std::string& prefix) const {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, v] : counters) {
    if (name.rfind(prefix, 0) == 0) out[name] = v;
  }
  return out;
}

}  // namespace cppflare::core
