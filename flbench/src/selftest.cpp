// Self-tests of the benchmark's own logic. Every run executes them first and
// refuses to measure if one fails; `flbench --self-test` runs them alone.
#include "selftest.h"

#include <cmath>
#include <cstdio>
#include <string>

#include "dyadic.h"
#include "measure.h"
#include "workloads.h"

namespace flbench {

namespace fl = cppflare::flare;
namespace nn = cppflare::nn;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "flbench self-test FAILED: %s\n", what.c_str());
  }
}

void test_percentile_rule() {
  expect(!percentile_reportable(99, 90), "99 samples leave 9 beyond p90");
  expect(percentile_reportable(100, 90), "100 samples leave 10 beyond p90");
  expect(samples_beyond(109, 90) == 10, "109 samples: nearest rank 99, 10 beyond");
  expect(!percentile_reportable(999, 99), "999 samples leave 9 beyond p99");
  expect(percentile_reportable(1000, 99), "1000 samples leave 10 beyond p99");
  expect(!percentile_reportable(0, 50), "no samples, nothing reportable");
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  expect(percentile(v, 90) == 90.0, "nearest-rank p90 of 1..100 is 90");
  expect(percentile(v, 100) == 100.0, "p100 is the maximum");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even-count median averages the middle pair");
  expect(std::isnan(median({})), "median of nothing is NaN");
}

Span span(SpanName name, std::int64_t a, std::int64_t b, std::int64_t parent) {
  Span s;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

void test_self_time() {
  // Parent [0,100]; children [10,30] and [20,50] overlap (parallel sites)
  // and [90,120] runs past the parent's end; a grandchild [15,20].
  const std::vector<Span> spans = {
      span(SpanName::kCollect, 0, 100, -1), span(SpanName::kLearner, 10, 30, 0),
      span(SpanName::kLearner, 20, 50, 0),  span(SpanName::kLearner, 90, 120, 0),
      span(SpanName::kForwardTrain, 15, 20, 1),
  };
  const std::vector<std::int64_t> self = self_times(spans);
  expect(self[0] == 50, "parent self = 100 - |[10,50] u [90,100]| = 50");
  expect(self[1] == 15, "child self = 20 - grandchild 5");
  expect(self[2] == 30 && self[3] == 30 && self[4] == 5, "leaf self = duration");
  std::vector<Span> open = spans;
  open[2].end_ns = -1;  // a span that never closed covers nothing
  expect(self_times(open)[0] == 70, "an open child covers nothing");
}

/// Reference FedAvg over `sites` dyadic learners for `rounds`: the site
/// models summed in float in site order, times 1/n. `drop` names a site whose
/// contributions are withheld. Kept apart from flare::FedAvgAggregator so
/// these tests judge the checker alone; the aggregator is judged by the runs.
nn::StateDict dyadic_fedavg(const nn::StateDict& initial, std::int64_t sites,
                            std::int64_t rounds, std::uint64_t seed, std::int64_t drop) {
  nn::StateDict global = initial;
  const float inv = 1.0f / static_cast<float>(drop >= 0 ? sites - 1 : sites);
  for (std::int64_t r = 0; r < rounds; ++r) {
    fl::FLContext ctx;
    ctx.current_round = r;
    nn::StateDict sum = global.zeros_like();
    for (std::int64_t s = 0; s < sites; ++s) {
      if (s == drop) continue;
      DyadicLearner learner("site-" + std::to_string(s + 1), s, seed);
      sum.axpy(1.0f, learner.train(fl::Dxo(fl::DxoKind::kWeights, global), ctx).data());
    }
    sum.scale(inv);
    global = std::move(sum);
  }
  return global;
}

void test_closed_form_checker() {
  const std::uint64_t seed = 17;
  const nn::StateDict initial = dyadic_flat_model(257, seed);
  const nn::StateDict good = dyadic_fedavg(initial, 4, 5, seed, -1);
  expect(check_closed_form(initial, good, 4, 5, seed).ok, "exact FedAvg result accepted");

  nn::StateDict ulp = good;
  float& v = ulp.at("w").values[123];
  v = std::nextafter(v, 10.0f);
  expect(!check_closed_form(initial, ulp, 4, 5, seed).ok, "a one-ulp change is rejected");

  const nn::StateDict dropped = dyadic_fedavg(initial, 4, 5, seed, 2);
  expect(!check_closed_form(initial, dropped, 4, 5, seed).ok, "a dropped site is rejected");
  expect(!check_closed_form(initial, good, 4, 4, seed).ok, "a missing round is rejected");
}

void test_failed_share_counts_abort() {
  fl::SimulationResult aborted;
  aborted.aborted = true;
  fl::RoundMetrics full;
  full.num_contributions = 4;
  fl::RoundMetrics partial;
  partial.num_contributions = 3;
  aborted.history = {full, partial};  // the run died during round 2 of 5
  const ContributionTally tally = tally_contributions(aborted, 4, 5);
  expect(tally.attempted == 20 && tally.accepted == 7,
         "aborted run: 20 attempted, 7 accepted");
  expect(std::abs(tally.failed_share() - 13.0 / 20.0) < 1e-12,
         "aborted run: the three missing rounds count as failed");
  fl::SimulationResult clean;
  clean.history = {full, full};
  expect(tally_contributions(clean, 4, 2).failed_share() == 0.0, "a clean run fails nothing");
}

}  // namespace

int run_self_tests() {
  failures = 0;
  test_percentile_rule();
  test_self_time();
  test_closed_form_checker();
  test_failed_share_counts_abort();
  return failures;
}

}  // namespace flbench
