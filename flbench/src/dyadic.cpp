#include "dyadic.h"

#include <cstring>
#include <vector>

#include "core/rng.h"

namespace flbench {

namespace nn = cppflare::nn;
namespace fl = cppflare::flare;

namespace {

constexpr float kStep = 1.0f / 64.0f;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t site_round_hash(std::uint64_t seed, std::int64_t site, std::int64_t round) {
  return splitmix64(seed ^ splitmix64(static_cast<std::uint64_t>(site) * 0x100000001b3ULL ^
                                      static_cast<std::uint64_t>(round)));
}

float offset_with(std::uint64_t hash, std::int64_t round, std::int64_t index) {
  const auto magnitude =
      static_cast<float>(1 + ((static_cast<std::uint64_t>(index) + hash) & 3));
  return (round % 2 == 0 ? kStep : -kStep) * magnitude;
}

}  // namespace

float dyadic_offset(std::uint64_t seed, std::int64_t site, std::int64_t round,
                    std::int64_t index) {
  return offset_with(site_round_hash(seed, site, round), round, index);
}

nn::StateDict dyadic_weights(nn::StateDict shape, std::uint64_t seed) {
  cppflare::core::Rng rng(seed ^ 0xd1ad1cULL);
  for (auto& [name, blob] : shape.entries()) {
    for (float& v : blob.values) {
      v = static_cast<float>(rng.uniform_int(-64, 64)) * kStep;
    }
  }
  return shape;
}

nn::StateDict dyadic_flat_model(std::int64_t numel, std::uint64_t seed) {
  nn::StateDict d;
  d.insert("w", {{numel}, std::vector<float>(static_cast<std::size_t>(numel), 0.0f)});
  return dyadic_weights(std::move(d), seed);
}

fl::Dxo DyadicLearner::train(const fl::Dxo& global_model, const fl::FLContext& ctx) {
  nn::StateDict updated = global_model.data();
  const std::uint64_t hash = site_round_hash(seed_, site_, ctx.current_round);
  std::int64_t index = 0;
  for (auto& [name, blob] : updated.entries()) {
    for (float& v : blob.values) v += offset_with(hash, ctx.current_round, index++);
  }
  fl::Dxo update(fl::DxoKind::kWeights, std::move(updated));
  update.set_meta_int(fl::Dxo::kMetaNumSamples, 1);
  update.set_meta_int(fl::Dxo::kMetaRound, ctx.current_round);
  return update;
}

ClosedFormCheck check_closed_form(const nn::StateDict& initial,
                                  const nn::StateDict& final_model, std::int64_t sites,
                                  std::int64_t rounds, std::uint64_t seed) {
  if (!final_model.congruent_with(initial)) return {false, "final model shape differs"};
  std::vector<std::uint64_t> hashes;
  for (std::int64_t r = 0; r < rounds; ++r) {
    for (std::int64_t s = 0; s < sites; ++s) hashes.push_back(site_round_hash(seed, s, r));
  }
  std::int64_t index = 0;
  for (const auto& [name, blob] : initial.entries()) {
    const std::vector<float>& got = final_model.at(name).values;
    for (std::size_t k = 0; k < blob.values.size(); ++k, ++index) {
      double expected = blob.values[k];
      for (std::int64_t r = 0; r < rounds; ++r) {
        double sum = 0.0;
        for (std::int64_t s = 0; s < sites; ++s) {
          sum += offset_with(hashes[static_cast<std::size_t>(r * sites + s)], r, index);
        }
        expected += sum / static_cast<double>(sites);
      }
      const auto expected_f = static_cast<float>(expected);
      if (static_cast<double>(expected_f) != expected) {
        return {false, "closed form not exact in float at " + name + "[" +
                           std::to_string(k) + "]"};
      }
      if (std::memcmp(&expected_f, &got[k], sizeof(float)) != 0) {
        return {false, "bits differ at " + name + "[" + std::to_string(k) +
                           "]: expected " + std::to_string(expected_f) + ", got " +
                           std::to_string(got[k])};
      }
    }
  }
  return {true, "bitwise equal to closed form over " + std::to_string(index) + " floats"};
}

}  // namespace flbench
