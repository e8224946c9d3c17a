// Bounded exponential backoff with deterministic jitter.
//
// Every retry/sleep loop in the runtime goes through this helper (lint rule
// R6 bans naked sleep_for retry loops elsewhere) so that (a) retry behavior
// is capped and configurable in one place, and (b) jitter draws from the
// seeded core::Rng discipline instead of wall-clock entropy, keeping fault
// injection runs reproducible.
#pragma once

#include <cstdint>

#include "core/rng.h"

namespace cppflare::core {

struct BackoffPolicy {
  /// Delay before the first retry.
  std::int64_t initial_ms = 10;
  /// Cap applied after multiplicative growth.
  std::int64_t max_ms = 2000;
  /// Growth factor per retry.
  double multiplier = 2.0;
  /// Retries allowed after the first attempt (-1 = unbounded).
  std::int64_t max_retries = 5;
  /// Jitter fraction: each delay is scaled by uniform(1-jitter, 1+jitter).
  double jitter = 0.0;
  /// Retry immediately (0ms) the first time in an episode, then back off
  /// exponentially from initial_ms. The standard schedule for transient
  /// single-frame losses on fast links: the common case (one lost frame)
  /// costs one round trip instead of a WAN-scaled sleep, while repeated
  /// failures still back off. reset() rearms the free retry.
  bool fast_first_retry = false;
};

/// One retry episode: call `try_again()` after each failure; it sleeps the
/// next (jittered, capped) delay and returns false once retries are spent.
/// `reset()` rearms the episode after a success.
class Backoff {
 public:
  explicit Backoff(BackoffPolicy policy, std::uint64_t seed = 0x5eed);

  /// True when the retry budget is spent (never true for max_retries < 0).
  bool exhausted() const;

  /// Advances the schedule and returns the next delay in ms without
  /// sleeping. Exposed for tests and for callers with their own waiting
  /// primitive (e.g. a condition variable deadline).
  std::int64_t next_delay_ms();

  /// False if exhausted; otherwise counts one retry, sleeps, returns true.
  bool try_again();

  /// try_again() without the sleep, for callers that wait on their own
  /// (the sans-IO client session): -1 once the retry budget is spent,
  /// otherwise counts one retry and returns its delay in ms.
  std::int64_t next_retry_ms();

  /// Rearms the episode: delay back to initial_ms, retry count to zero.
  void reset();

  std::int64_t retries() const { return retries_; }

  /// The single blessed blocking sleep (see lint R6). No-op for ms <= 0.
  static void sleep_ms(std::int64_t ms);

 private:
  BackoffPolicy policy_;
  Rng rng_;
  std::int64_t current_ms_ = 0;
  std::int64_t retries_ = 0;
  bool fast_first_pending_ = false;
};

}  // namespace cppflare::core
