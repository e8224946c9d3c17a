#include "flare/aggregator.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <vector>

#include "core/error.h"
#include "core/logging.h"
#include "core/parallel.h"

#define CPPFLARE_LOG_COMPONENT "DXOAggregator"

namespace cppflare::flare {

void BufferedAggregator::reset(const nn::StateDict& global, std::int64_t round) {
  global_ = global;
  round_kind_.reset();
  pending_.clear();
  metrics_ = RoundMetrics{};
  metrics_.round = round;
}

bool BufferedAggregator::accept(const std::string& site, const Dxo& contribution) {
  if (contribution.kind() == DxoKind::kMetrics) {
    LOG(warn).msg("Rejecting metrics-only contribution from " + site);
    return false;
  }
  if (pending_.count(site) != 0) {
    LOG(warn).msg("Duplicate contribution from " + site + " ignored");
    return false;
  }
  if (round_kind_.has_value() && *round_kind_ != contribution.kind()) {
    LOG(warn).msg("Mixed DXO kinds in one round; rejecting " + site);
    return false;
  }
  if (!contribution.data().congruent_with(global_)) {
    LOG(warn).msg("Incongruent model from " + site + " rejected");
    return false;
  }

  const auto samples = contribution.meta_int(Dxo::kMetaNumSamples, 1);
  const double w = weighted_ ? static_cast<double>(samples) : 1.0;
  if (w <= 0.0) {
    LOG(warn).msg("Non-positive weight from " + site + " rejected");
    return false;
  }

  round_kind_ = contribution.kind();
  pending_.emplace(site, Pending{contribution, w});

  metrics_.num_contributions += 1;
  metrics_.total_samples += samples;
  LOG(info).msg("Contribution from " + site + " ACCEPTED by the aggregator at round " +
                std::to_string(metrics_.round) + ".");
  return true;
}

bool BufferedAggregator::revoke(const std::string& site) {
  auto it = pending_.find(site);
  if (it == pending_.end()) return false;
  metrics_.num_contributions -= 1;
  metrics_.total_samples -= it->second.dxo.meta_int(Dxo::kMetaNumSamples, 1);
  pending_.erase(it);
  if (pending_.empty()) round_kind_.reset();
  LOG(info).msg("Contribution from " + site + " REVOKED at round " +
                std::to_string(metrics_.round) + ".");
  return true;
}

nn::StateDict BufferedAggregator::aggregate() {
  if (pending_.empty() || !round_kind_.has_value()) {
    throw Error(name() + ": no contributions to aggregate");
  }
  LOG(info).msg("aggregating " + std::to_string(metrics_.num_contributions) +
                " update(s) at round " + std::to_string(metrics_.round));
  nn::StateDict out = reduce();
  // Metric means are recomputed from the buffer here, never kept as running
  // sums: a double sum in site-name order is exact under any arrival order
  // and any revocation.
  double train_loss = 0.0;
  double valid_acc = 0.0;
  double valid_loss = 0.0;
  double loss_weight_sum = 0.0;
  for (const auto& [site, p] : pending_) {
    if (p.dxo.has_meta(Dxo::kMetaTrainLoss)) {
      train_loss += p.weight * p.dxo.meta_double(Dxo::kMetaTrainLoss);
      valid_acc += p.weight * p.dxo.meta_double(Dxo::kMetaValidAcc);
      valid_loss += p.weight * p.dxo.meta_double(Dxo::kMetaValidLoss);
      loss_weight_sum += p.weight;
    }
  }
  if (loss_weight_sum > 0.0) {
    metrics_.train_loss = train_loss / loss_weight_sum;
    metrics_.valid_acc = valid_acc / loss_weight_sum;
    metrics_.valid_loss = valid_loss / loss_weight_sum;
  }
  if (*round_kind_ == DxoKind::kWeightDiff) {
    nn::StateDict next = global_;
    next.axpy(1.0f, out);
    return next;
  }
  return out;
}

std::int64_t BufferedAggregator::accepted_count() const {
  return metrics_.num_contributions;
}

RoundMetrics BufferedAggregator::metrics() const { return metrics_; }

float BufferedAggregator::inverse_weight_sum() const {
  double weight_sum = 0.0;
  for (const auto& [site, p] : pending_) weight_sum += p.weight;
  return static_cast<float>(1.0 / weight_sum);
}

namespace {

/// Elements per tree chunk; the chunk's partial stack stays cache-resident.
constexpr std::int64_t kChunk = 4096;

/// One element range of a blob: y[off, off+len) = scale * T(x_0..x_{n-1}).
struct TreeRange {
  const float* const* x;  // n contribution blobs, site-name order
  float* y;
  std::int64_t off;
  std::int64_t len;
};

/// Evaluates the canonical pairwise tree over one range as a binary
/// counter: the stacked partials mirror the binary digits of the leaves
/// seen so far, so each new leaf carries into as many merges as the count
/// has trailing zeros, and the leftovers merge right to left — the same
/// additions, on the same operands, as splitting recursively at the largest
/// power of two below n. Leaves and nodes are written the way
/// StateDict::axpy writes them, so floating-point contraction treats them
/// alike.
void reduce_range(const TreeRange& r, const std::vector<float>& w, float scale,
                  float* stack) {
  std::size_t depth = 0;
  const auto merge_top = [&] {
    float* left = stack + (depth - 2) * kChunk;
    const float* right = stack + (depth - 1) * kChunk;
    for (std::int64_t i = 0; i < r.len; ++i) left[i] += 1.0f * right[i];
    --depth;
  };
  for (std::size_t k = 0; k < w.size(); ++k) {
    float* leaf = stack + depth++ * kChunk;
    const float* x = r.x[k] + r.off;
    const float wk = w[k];
    for (std::int64_t i = 0; i < r.len; ++i) {
      leaf[i] = 0.0f;
      leaf[i] += wk * x[i];
    }
    for (int carry = std::countr_zero(k + 1); carry > 0; --carry) merge_top();
  }
  while (depth >= 2) merge_top();
  float* y = r.y + r.off;
  for (std::int64_t i = 0; i < r.len; ++i) y[i] = stack[i] * scale;
}

}  // namespace

nn::StateDict FedAvgAggregator::reduce() const {
  const std::size_t n = pending_.size();
  std::vector<float> w;
  w.reserve(n);
  for (const auto& [site, p] : pending_) w.push_back(static_cast<float>(p.weight));

  // sources[b * n + k]: blob b of the k-th contribution in site-name order.
  nn::StateDict out = global_.zeros_like();
  const std::size_t num_blobs = out.entries().size();
  std::vector<const float*> sources(num_blobs * n);
  std::size_t k = 0;
  for (const auto& [site, p] : pending_) {
    std::size_t b = 0;
    for (const auto& [name, blob] : p.dxo.data().entries()) {
      sources[b++ * n + k] = blob.values.data();
    }
    ++k;
  }
  std::vector<TreeRange> ranges;
  std::size_t b = 0;
  for (auto& [name, blob] : out.entries()) {
    const std::int64_t size = blob.numel();
    for (std::int64_t off = 0; off < size; off += kChunk) {
      ranges.push_back(TreeRange{&sources[b * n], blob.values.data(), off,
                                 std::min(kChunk, size - off)});
    }
    ++b;
  }

  // Before leaf k is pushed the counter holds popcount(k) partials, so it
  // never stacks more than ceil(log2 n) + 1 = bit_width(n - 1) + 1.
  const std::size_t max_depth = std::bit_width(n - 1) + 1;
  const float scale = inverse_weight_sum();
  core::parallel_for(
      0, static_cast<std::int64_t>(ranges.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        const auto stack =
            std::make_unique_for_overwrite<float[]>(max_depth * kChunk);
        for (std::int64_t i = lo; i < hi; ++i) {
          reduce_range(ranges[static_cast<std::size_t>(i)], w, scale,
                       stack.get());
        }
      });
  return out;
}

}  // namespace cppflare::flare
