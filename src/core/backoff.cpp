#include "core/backoff.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace cppflare::core {

Backoff::Backoff(BackoffPolicy policy, std::uint64_t seed)
    : policy_(policy), rng_(seed) {
  policy_.initial_ms = std::max<std::int64_t>(0, policy_.initial_ms);
  policy_.max_ms = std::max(policy_.initial_ms, policy_.max_ms);
  policy_.multiplier = std::max(1.0, policy_.multiplier);
  policy_.jitter = std::clamp(policy_.jitter, 0.0, 1.0);
  fast_first_pending_ = policy_.fast_first_retry;
}

bool Backoff::exhausted() const {
  return policy_.max_retries >= 0 && retries_ >= policy_.max_retries;
}

std::int64_t Backoff::next_delay_ms() {
  if (fast_first_pending_) {
    fast_first_pending_ = false;
    return 0;
  }
  if (current_ms_ <= 0) {
    current_ms_ = policy_.initial_ms;
  } else {
    const double grown = static_cast<double>(current_ms_) * policy_.multiplier;
    current_ms_ = std::min(policy_.max_ms,
                           static_cast<std::int64_t>(grown));
  }
  std::int64_t delay = current_ms_;
  if (policy_.jitter > 0.0 && delay > 0) {
    const double scale = rng_.uniform(1.0 - policy_.jitter, 1.0 + policy_.jitter);
    delay = std::max<std::int64_t>(
        0, static_cast<std::int64_t>(static_cast<double>(delay) * scale));
  }
  return delay;
}

bool Backoff::try_again() {
  const std::int64_t delay = next_retry_ms();
  if (delay < 0) return false;
  sleep_ms(delay);
  return true;
}

std::int64_t Backoff::next_retry_ms() {
  if (exhausted()) return -1;
  retries_ += 1;
  return next_delay_ms();
}

void Backoff::reset() {
  current_ms_ = 0;
  retries_ = 0;
  fast_first_pending_ = policy_.fast_first_retry;
}

void Backoff::sleep_ms(std::int64_t ms) {
  if (ms <= 0) return;
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace cppflare::core
