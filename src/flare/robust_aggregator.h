// Byzantine-robust aggregation.
//
// FedAvg is a single faulty or malicious clinic away from a corrupted
// global model. These aggregators bound that influence with classic
// coordinate-wise robust statistics (Yin et al., ICML'18):
//
//  * MedianAggregator      — coordinate-wise median of contributions;
//  * TrimmedMeanAggregator — drop the k largest and k smallest values per
//    coordinate, average the rest.
//
// Both ignore sample weights in the model (robustness and weighting
// conflict: a malicious client could claim a huge sample count); the
// weights only enter the round's metric means. Validation, revocation,
// metrics and the kWeightDiff apply are BufferedAggregator's
// (flare/aggregator.h); memory is O(clients * model size).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "flare/aggregator.h"

namespace cppflare::flare {

/// The column loop the coordinate-wise rules share: every output coordinate
/// is combine() over that coordinate's values in site-name order.
class CoordinateWiseAggregator : public BufferedAggregator {
 protected:
  CoordinateWiseAggregator() : BufferedAggregator(/*weighted=*/true) {}

  nn::StateDict reduce() const override;

  /// Combines one coordinate's values into the aggregate value; may reorder
  /// them.
  virtual float combine(std::vector<float>& values) const = 0;
};

class MedianAggregator : public CoordinateWiseAggregator {
 public:
  std::string name() const override { return "CoordinateMedian"; }

 protected:
  float combine(std::vector<float>& values) const override;
};

class TrimmedMeanAggregator : public CoordinateWiseAggregator {
 public:
  /// Trims `trim` values from each tail per coordinate. Requires
  /// contributions > 2*trim at aggregate time.
  explicit TrimmedMeanAggregator(std::int64_t trim) : trim_(trim) {}
  std::string name() const override {
    return "TrimmedMean(k=" + std::to_string(trim_) + ")";
  }

 protected:
  float combine(std::vector<float>& values) const override;

 private:
  std::int64_t trim_;
};

}  // namespace cppflare::flare
