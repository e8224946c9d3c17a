#include "measure.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

namespace flbench {

namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

// 1-based nearest rank: ceil(percent * n / 100), at least 1.
std::size_t nearest_rank(std::size_t n, int percent) {
  const std::size_t rank = (static_cast<std::size_t>(percent) * n + 99) / 100;
  return std::max<std::size_t>(rank, 1);
}

}  // namespace

double percentile(std::vector<double> values, int percent) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), percent) - 1];
}

std::size_t samples_beyond(std::size_t n, int percent) {
  if (n == 0) return 0;
  return n - nearest_rank(n, percent);
}

bool percentile_reportable(std::size_t n, int percent) {
  return samples_beyond(n, percent) >= 10;
}

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kRound: return "flare.server.round";
    case SpanName::kCollect: return "flare.server.collect";
    case SpanName::kAggregatePhase: return "flare.server.aggregate";
    case SpanName::kPublish: return "flare.server.publish";
    case SpanName::kTurnaround: return "flare.server.turnaround";
    case SpanName::kLearner: return "train.learner";
    case SpanName::kForwardTrain: return "models.forward_train";
    case SpanName::kForwardEval: return "models.forward_eval";
    case SpanName::kAccept: return "flare.aggregator.accept";
    case SpanName::kAggregate: return "flare.aggregator.aggregate";
    case SpanName::kReset: return "flare.aggregator.reset";
    case SpanName::kRevoke: return "flare.aggregator.revoke";
    case SpanName::kCount: break;
  }
  return "?";
}

std::int64_t SpanLog::open(SpanName name, std::int32_t site, std::int32_t round,
                           std::int64_t start_ns) {
  Span span;
  span.name = name;
  span.site = site;
  span.round = round;
  span.start_ns = start_ns;
  return add(span);
}

void SpanLog::close(std::int64_t id, std::int64_t end_ns, std::int64_t cpu_ns) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = end_ns;
  span.cpu_ns = cpu_ns;
}

std::int64_t SpanLog::add(const Span& span) {
  const std::int64_t id = next_.fetch_add(1, std::memory_order_relaxed);
  if (id >= static_cast<std::int64_t>(spans_.size())) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  spans_[static_cast<std::size_t>(id)] = span;
  return id;
}

std::vector<Span> SpanLog::snapshot() const {
  const std::int64_t n = std::min<std::int64_t>(
      next_.load(std::memory_order_relaxed), static_cast<std::int64_t>(spans_.size()));
  return {spans_.begin(), spans_.begin() + n};
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || !s.closed()) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) continue;
    const Span& parent = spans[p];
    const std::int64_t lo = std::max(s.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) children[p].emplace_back(lo, hi);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

}  // namespace flbench
