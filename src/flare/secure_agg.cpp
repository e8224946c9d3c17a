#include "flare/secure_agg.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/error.h"
#include "core/rng.h"
#include "core/sha256.h"

namespace cppflare::flare {

namespace {

/// Quantize to a signed fixed-point word, saturating so non-finite or
/// out-of-range values cannot trip UB in llround; wrap-around is then
/// confined to the (documented) aggregate-headroom contract.
std::uint32_t quantize(float v, std::int64_t frac_bits) {
  const double scaled = static_cast<double>(v) *
                        static_cast<double>(std::int64_t{1} << frac_bits);
  if (!std::isfinite(scaled)) return 0;
  constexpr double kMax = 2147483647.0;
  const double clamped = std::max(-kMax, std::min(kMax, scaled));
  return static_cast<std::uint32_t>(
      static_cast<std::int32_t>(std::llround(clamped)));
}

float dequantize(std::uint32_t word, std::int64_t frac_bits) {
  const auto q = static_cast<std::int32_t>(word);
  return static_cast<float>(static_cast<double>(q) /
                            static_cast<double>(std::int64_t{1} << frac_bits));
}

/// One pair's deterministic mask stream for a round: both members fold the
/// pairwise key into the same seed and draw identical uint32 words.
core::Rng pair_stream(const std::vector<std::uint8_t>& pair_key,
                      std::int64_t round) {
  std::uint64_t seed = 0x5ec0de;
  for (std::uint8_t b : pair_key) seed = seed * 131 + b;
  seed ^= static_cast<std::uint64_t>(round) * 0x9e3779b97f4a7c15ull;
  return core::Rng(seed);
}

}  // namespace

std::vector<std::uint8_t> SecureAggregationDealer::pair_key(
    const std::string& site_a, const std::string& site_b) const {
  if (site_a == site_b) throw Error("pair_key: a pair needs two distinct sites");
  const std::string lo = std::min(site_a, site_b);
  const std::string hi = std::max(site_a, site_b);
  const core::Digest digest = core::Sha256::hash(
      "pairkey:" + project_name_ + "\x1f" + std::to_string(seed_) + "\x1f" + lo +
      "\x1f" + hi);
  return std::vector<std::uint8_t>(digest.begin(), digest.end());
}

SecureAggMaskFilter::SecureAggMaskFilter(std::string self_site,
                                         std::vector<std::string> all_sites,
                                         const SecureAggregationDealer& dealer,
                                         std::int64_t frac_bits)
    : self_site_(std::move(self_site)), frac_bits_(frac_bits) {
  if (frac_bits_ < 1 || frac_bits_ > 30) {
    throw Error("SecureAggMaskFilter: frac_bits must be in [1, 30]");
  }
  bool found_self = false;
  for (const std::string& site : all_sites) {
    if (site == self_site_) {
      found_self = true;
      continue;
    }
    other_sites_.push_back(site);
    pair_keys_.push_back(dealer.pair_key(self_site_, site));
  }
  if (!found_self) {
    throw Error("SecureAggMaskFilter: self site '" + self_site_ +
                "' not in participant list");
  }
  if (other_sites_.empty()) {
    throw Error("SecureAggMaskFilter: need at least two sites");
  }
}

void SecureAggMaskFilter::process(Dxo& dxo, const FLContext& ctx) {
  if (dxo.kind() == DxoKind::kMetrics) return;
  // Quantize once, then work purely modulo 2^32 in the float bit slots.
  for (auto& [name, blob] : dxo.data().entries()) {
    for (float& v : blob.values) {
      v = std::bit_cast<float>(quantize(v, frac_bits_));
    }
  }
  for (std::size_t p = 0; p < other_sites_.size(); ++p) {
    // Both pair members derive the same stream; the lexicographically
    // smaller site adds each word, the larger subtracts it (mod 2^32).
    const bool add = self_site_ < other_sites_[p];
    core::Rng stream = pair_stream(pair_keys_[p], ctx.current_round);
    // Iterate blobs in map order (deterministic and identical across the
    // pair because the dicts are congruent by protocol).
    for (auto& [name, blob] : dxo.data().entries()) {
      for (float& v : blob.values) {
        const auto mask = static_cast<std::uint32_t>(stream.engine()());
        const std::uint32_t word = std::bit_cast<std::uint32_t>(v);
        v = std::bit_cast<float>(add ? word + mask : word - mask);
      }
    }
  }
  skeleton_ = dxo.data().zeros_like();
}

Dxo SecureAggMaskFilter::unmask_share(const std::vector<std::string>& dropped,
                                      std::int64_t round) const {
  return unmask_share(dropped, round, nn::StateDict{});
}

Dxo SecureAggMaskFilter::unmask_share(
    const std::vector<std::string>& dropped, std::int64_t round,
    const nn::StateDict& fallback_skeleton) const {
  if (skeleton_.empty() && fallback_skeleton.empty()) {
    throw Error("SecureAggMaskFilter: unmask_share before any masked upload");
  }
  // Zeros, in the element order process used; a restarted process that
  // never masked this round falls back to the server-supplied template.
  nn::StateDict sum = skeleton_.empty() ? fallback_skeleton : skeleton_;
  for (std::size_t p = 0; p < other_sites_.size(); ++p) {
    if (std::find(dropped.begin(), dropped.end(), other_sites_[p]) ==
        dropped.end()) {
      continue;
    }
    const bool add = self_site_ < other_sites_[p];
    core::Rng stream = pair_stream(pair_keys_[p], round);
    for (auto& [name, blob] : sum.entries()) {
      for (float& v : blob.values) {
        const auto mask = static_cast<std::uint32_t>(stream.engine()());
        const std::uint32_t word = std::bit_cast<std::uint32_t>(v);
        v = std::bit_cast<float>(add ? word + mask : word - mask);
      }
    }
  }
  return Dxo(DxoKind::kWeights, std::move(sum));
}

MaskedFedAvgAggregator::MaskedFedAvgAggregator(std::int64_t frac_bits)
    : BufferedAggregator(/*weighted=*/false), frac_bits_(frac_bits) {
  if (frac_bits_ < 1 || frac_bits_ > 30) {
    throw Error("MaskedFedAvgAggregator: frac_bits must be in [1, 30]");
  }
}

void MaskedFedAvgAggregator::reset(const nn::StateDict& global,
                                   std::int64_t round) {
  BufferedAggregator::reset(global, round);
  shares_.clear();
}

std::vector<std::string> MaskedFedAvgAggregator::accepted_sites() const {
  std::vector<std::string> sites;
  sites.reserve(pending_.size());
  for (const auto& [site, p] : pending_) sites.push_back(site);
  return sites;
}

bool MaskedFedAvgAggregator::set_unmask_share(const std::string& survivor,
                                              const Dxo& share) {
  if (pending_.count(survivor) == 0) return false;
  if (!share.data().congruent_with(global_)) return false;
  shares_[survivor] = share;
  return true;
}

void MaskedFedAvgAggregator::clear_unmask_shares() { shares_.clear(); }

std::int64_t MaskedFedAvgAggregator::unmask_share_count() const {
  return static_cast<std::int64_t>(shares_.size());
}

nn::StateDict MaskedFedAvgAggregator::reduce() const {
  // Word-wise modular sum of the masked contributions. Order-independent
  // by construction (modular addition commutes), but iterate site-name
  // order anyway to mirror the float path.
  nn::StateDict accum = global_.zeros_like();
  auto fold = [&accum](const nn::StateDict& d, bool add) {
    auto it = accum.entries().begin();
    for (const auto& [name, blob] : d.entries()) {
      auto& out = it->second.values;
      for (std::size_t i = 0; i < blob.values.size(); ++i) {
        const std::uint32_t a = std::bit_cast<std::uint32_t>(out[i]);
        const std::uint32_t b = std::bit_cast<std::uint32_t>(blob.values[i]);
        out[i] = std::bit_cast<float>(add ? a + b : a - b);
      }
      ++it;
    }
  };
  for (const auto& [site, p] : pending_) fold(p.dxo.data(), /*add=*/true);
  // Dropout recovery: strip the survivors' revealed mask sums against the
  // dropped set; masks among the summed contributors already cancelled.
  for (const auto& [site, share] : shares_) fold(share.data(), /*add=*/false);
  const float scale = inverse_weight_sum();
  for (auto& [name, blob] : accum.entries()) {
    for (float& v : blob.values) {
      v = dequantize(std::bit_cast<std::uint32_t>(v), frac_bits_) * scale;
    }
  }
  return accum;
}

std::shared_ptr<SecureAggMaskFilter> make_secure_agg_mask_filter(
    const std::string& project_name, std::uint64_t dealer_seed,
    const std::string& self_site, const std::vector<std::string>& all_sites,
    std::int64_t frac_bits) {
  const SecureAggregationDealer dealer(project_name, dealer_seed);
  return std::make_shared<SecureAggMaskFilter>(self_site, all_sites, dealer,
                                               frac_bits);
}

}  // namespace cppflare::flare
