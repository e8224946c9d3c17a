// Stand-in learners whose FedAvg result has an exact closed form.
//
// A DyadicLearner represents compute done on the site's own hardware: it
// returns the global model plus a site- and round-dependent offset that is
// a small multiple of 2^-6. Initial weights are multiples of 2^-6 in
// [-1, 1] and every site reports the same sample count, so with a power-of-
// two site count every partial sum FedAvg forms is exactly representable in
// float: the final model is the same bits whatever the summation order, and
// a checker can recompute it in double and compare bit for bit.
#pragma once

#include <cstdint>
#include <string>

#include "flare/learner.h"
#include "nn/state_dict.h"

namespace flbench {

/// The offset site `site` adds to flat element `index` in `round`:
/// (-1)^round * (1 + ((index + h(seed, site, round)) & 3)) * 2^-6. The sign
/// alternates by round so the weights stay bounded over long runs.
float dyadic_offset(std::uint64_t seed, std::int64_t site, std::int64_t round,
                    std::int64_t index);

/// Overwrites every value of `shape` with k * 2^-6, k uniform in [-64, 64].
cppflare::nn::StateDict dyadic_weights(cppflare::nn::StateDict shape, std::uint64_t seed);

/// One tensor "w" of `numel` floats with dyadic_weights values.
cppflare::nn::StateDict dyadic_flat_model(std::int64_t numel, std::uint64_t seed);

class DyadicLearner final : public cppflare::flare::Learner {
 public:
  DyadicLearner(std::string site_name, std::int64_t site, std::uint64_t seed)
      : site_name_(std::move(site_name)), site_(site), seed_(seed) {}

  cppflare::flare::Dxo train(const cppflare::flare::Dxo& global_model,
                             const cppflare::flare::FLContext& ctx) override;
  std::string site_name() const override { return site_name_; }

 private:
  std::string site_name_;
  std::int64_t site_;
  std::uint64_t seed_;
};

struct ClosedFormCheck {
  bool ok = false;
  std::string detail;
};

/// Compares `final_model` bit for bit with initial + sum over `rounds` of
/// the mean offset of `sites` sites, computed independently in double.
ClosedFormCheck check_closed_form(const cppflare::nn::StateDict& initial,
                                  const cppflare::nn::StateDict& final_model,
                                  std::int64_t sites, std::int64_t rounds,
                                  std::uint64_t seed);

}  // namespace flbench
