#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

namespace flbench {

namespace {

constexpr double kNs = 1e-9;

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

std::string count_note(std::size_t n, const char* what) {
  return "n=" + std::to_string(n) + " " + what;
}

/// What one traced episode says about each round, in seconds.
struct LayerSamples {
  std::vector<double> collect, aggregate_phase, publish, turnaround;
  std::vector<double> learner, straggler, collect_other;
  double learner_cpu_ns = 0.0, learner_wall_ns = 0.0;
  std::vector<double> accept, accept_total, first_accept, last_accept;
  std::vector<double> aggregate, reset;
  std::vector<double> forward_train, forward_eval, backward_opt;
  double tiling_remainder = 0.0;  // largest |round - sum of its phases|
};

void collect_layer_samples(const EpisodeResult& ep, LayerSamples& out) {
  const auto rounds = static_cast<std::size_t>(ep.rounds_planned);
  // [round][name] -> spans
  std::vector<std::array<std::vector<const Span*>, static_cast<std::size_t>(SpanName::kCount)>>
      by_round(rounds);
  for (const Span& s : ep.spans) {
    if (s.round < 0 || static_cast<std::size_t>(s.round) >= rounds || !s.closed()) continue;
    by_round[static_cast<std::size_t>(s.round)][static_cast<std::size_t>(s.name)].push_back(&s);
  }
  auto only = [](const std::vector<const Span*>& v) -> const Span* {
    return v.size() == 1 ? v.front() : nullptr;
  };
  for (std::size_t r = 0; r < rounds; ++r) {
    auto& b = by_round[r];
    const Span* round = only(b[static_cast<std::size_t>(SpanName::kRound)]);
    const Span* collect = only(b[static_cast<std::size_t>(SpanName::kCollect)]);
    const Span* agg_phase = only(b[static_cast<std::size_t>(SpanName::kAggregatePhase)]);
    const Span* publish = only(b[static_cast<std::size_t>(SpanName::kPublish)]);
    const Span* turnaround = only(b[static_cast<std::size_t>(SpanName::kTurnaround)]);
    if (!round || !collect || !agg_phase || !publish) continue;
    out.collect.push_back(collect->duration_ns() * kNs);
    out.aggregate_phase.push_back(agg_phase->duration_ns() * kNs);
    out.publish.push_back(publish->duration_ns() * kNs);
    std::int64_t tiled = collect->duration_ns() + agg_phase->duration_ns() + publish->duration_ns();
    if (turnaround) {
      out.turnaround.push_back(turnaround->duration_ns() * kNs);
      tiled += turnaround->duration_ns();
    }
    out.tiling_remainder = std::max(
        out.tiling_remainder, std::abs(static_cast<double>(round->duration_ns() - tiled)) * kNs);

    std::vector<double> learners;
    std::map<std::int32_t, double> learner_by_site;
    for (const Span* s : b[static_cast<std::size_t>(SpanName::kLearner)]) {
      learners.push_back(s->duration_ns() * kNs);
      learner_by_site[s->site] = s->duration_ns() * kNs;
      out.learner_wall_ns += static_cast<double>(s->duration_ns());
      out.learner_cpu_ns += static_cast<double>(std::max<std::int64_t>(s->cpu_ns, 0));
    }
    out.learner.insert(out.learner.end(), learners.begin(), learners.end());
    if (!learners.empty()) {
      const double slowest = *std::max_element(learners.begin(), learners.end());
      const double mid = median(learners);
      if (mid > 0.0) out.straggler.push_back(slowest / mid);
      if (collect->duration_ns() > 0) {
        out.collect_other.push_back(1.0 - slowest / (collect->duration_ns() * kNs));
      }
    }

    double accept_total = 0.0;
    std::int64_t first = std::numeric_limits<std::int64_t>::max(), last = -1;
    for (const Span* s : b[static_cast<std::size_t>(SpanName::kAccept)]) {
      out.accept.push_back(s->duration_ns() * kNs);
      accept_total += s->duration_ns() * kNs;
      first = std::min(first, s->end_ns);
      last = std::max(last, s->end_ns);
    }
    if (last >= 0) {
      out.accept_total.push_back(accept_total);
      out.first_accept.push_back((first - round->start_ns) * kNs);
      out.last_accept.push_back((last - round->start_ns) * kNs);
    }
    for (const Span* s : b[static_cast<std::size_t>(SpanName::kAggregate)]) {
      out.aggregate.push_back(s->duration_ns() * kNs);
    }
    if (r >= 1) {
      for (const Span* s : b[static_cast<std::size_t>(SpanName::kReset)]) {
        out.reset.push_back(s->duration_ns() * kNs);
      }
    }

    std::map<std::int32_t, std::pair<double, double>> forwards;  // site -> (train, eval)
    for (const Span* s : b[static_cast<std::size_t>(SpanName::kForwardTrain)]) {
      forwards[s->site].first += s->duration_ns() * kNs;
    }
    for (const Span* s : b[static_cast<std::size_t>(SpanName::kForwardEval)]) {
      forwards[s->site].second += s->duration_ns() * kNs;
    }
    for (const auto& [site, fwd] : forwards) {
      out.forward_train.push_back(fwd.first);
      out.forward_eval.push_back(fwd.second);
      const auto it = learner_by_site.find(site);
      if (it != learner_by_site.end()) {
        out.backward_opt.push_back(it->second - fwd.first - fwd.second);
      }
    }
  }
}

double median_of(const std::vector<const EpisodeResult*>& eps,
                 double EpisodeResult::*field) {
  std::vector<double> v;
  for (const EpisodeResult* e : eps) v.push_back(e->*field);
  return median(v);
}

}  // namespace

double rounds_per_second(const std::vector<const EpisodeResult*>& episodes) {
  std::vector<double> rates;
  for (const EpisodeResult* e : episodes) {
    if (e->post_setup_wall_s > 0.0) {
      rates.push_back(static_cast<double>(e->round_s.size()) / e->post_setup_wall_s);
    }
  }
  return rates.empty() ? 0.0 : median(rates);
}

std::vector<Metric> end_to_end_metrics(const std::vector<const EpisodeResult*>& episodes,
                                       bool clinical) {
  std::vector<double> rounds, cpu_per_round;
  std::int64_t attempted = 0, accepted = 0;
  for (const EpisodeResult* e : episodes) {
    rounds.insert(rounds.end(), e->round_s.begin(), e->round_s.end());
    if (!e->round_s.empty()) {
      cpu_per_round.push_back(e->post_setup_cpu_s / static_cast<double>(e->round_s.size()));
    }
    attempted += e->contributions_attempted;
    accepted += e->contributions_accepted;
  }
  std::vector<Metric> m;
  m.push_back({"setup_s", median_of(episodes, &EpisodeResult::setup_s), "s", true,
               "median of " + std::to_string(episodes.size()) + " set-ups"});
  m.push_back({"rounds_per_s", rounds_per_second(episodes), "1/s", true,
               "median over episodes; " + std::to_string(rounds.size()) +
                   " rounds after set-up"});
  m.push_back({"round_s.p50", median(rounds), "s", true, count_note(rounds.size(), "rounds")});
  if (percentile_reportable(rounds.size(), 90)) {
    m.push_back({"round_s.p90", percentile(rounds, 90), "s", false,
                 count_note(rounds.size(), "rounds") + ", " +
                     std::to_string(samples_beyond(rounds.size(), 90)) + " beyond"});
  } else {
    m.push_back({"round_s.p90", std::numeric_limits<double>::quiet_NaN(), "s", false,
                 "not reported: " + count_note(rounds.size(), "rounds") +
                     " leaves fewer than 10 beyond p90"});
  }
  m.push_back({"cpu_s_per_round", median(cpu_per_round), "s", true,
               "process user+sys, median over episodes"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB", false, "whole process"});
  const ContributionTally tally{attempted, accepted};
  m.push_back({"failed_share", tally.failed_share(), "ratio", false,
               std::to_string(attempted - accepted) + " of " + std::to_string(attempted) +
                   " site-round contributions"});
  if (clinical) {
    m.push_back({"valid_loss", episodes.back()->valid_loss, "nats", false,
                 "final global model on the validation split"});
  }
  return m;
}

std::vector<Metric> per_layer_metrics(const std::vector<const EpisodeResult*>& traced,
                                      const std::vector<const EpisodeResult*>& untraced,
                                      bool clinical) {
  LayerSamples s;
  double rounds = 0.0, bytes = 0.0, frames = 0.0, rejected = 0.0, late = 0.0;
  double agg_attempted = 0.0, agg_accepted = 0.0;
  std::vector<double> parked;
  for (const EpisodeResult* e : traced) {
    collect_layer_samples(*e, s);
    rounds += static_cast<double>(e->rounds_completed);
    bytes += static_cast<double>(e->tcp_bytes);
    frames += static_cast<double>(e->tcp_frames);
    rejected += static_cast<double>(e->rejected);
    late += static_cast<double>(e->late);
    agg_attempted += static_cast<double>(e->agg_attempted);
    agg_accepted += static_cast<double>(e->agg_accepted);
    for (double p : e->parked_at_close) {
      if (p >= 0.0) parked.push_back(p);
    }
  }
  const double per_round = rounds > 0.0 ? 1.0 / rounds : 0.0;
  std::vector<const EpisodeResult*> all = traced;
  all.insert(all.end(), untraced.begin(), untraced.end());

  std::vector<Metric> m;
  m.push_back({"data.prepare_s", median_of(all, &EpisodeResult::data_prepare_s), "s"});
  m.push_back({"models.init_s", median_of(all, &EpisodeResult::models_init_s), "s"});
  m.push_back({"flare.runner_init_s", median_of(all, &EpisodeResult::runner_init_s), "s"});
  m.push_back({"train.learner_s.p50", median(s.learner), "s", true,
               count_note(s.learner.size(), "site-rounds")});
  m.push_back({"train.learner_cpu_share",
               s.learner_wall_ns > 0.0 ? s.learner_cpu_ns / s.learner_wall_ns : 0.0, "ratio"});
  m.push_back({"train.straggler_ratio", median(s.straggler), "ratio"});
  if (clinical) {
    m.push_back({"models.forward_train_s", median(s.forward_train), "s", false,
                 "per site-round"});
    m.push_back({"models.forward_eval_s", median(s.forward_eval), "s", false,
                 "per site-round"});
    m.push_back({"train.backward_opt_s", median(s.backward_opt), "s", false,
                 "learner minus forwards, per site-round"});
  }
  m.push_back({"flare.server.collect_s", median(s.collect), "s", true,
               count_note(s.collect.size(), "rounds")});
  m.push_back({"flare.server.aggregate_s", median(s.aggregate_phase), "s"});
  m.push_back({"flare.server.publish_s", median(s.publish), "s"});
  m.push_back({"flare.server.turnaround_s", median(s.turnaround), "s"});
  m.push_back({"flare.server.tiling_remainder_s", s.tiling_remainder, "s", false,
               "largest |round - its four phases|"});
  m.push_back({"flare.server.collect_other_share", median(s.collect_other), "ratio"});
  m.push_back({"flare.aggregator.accept_s.p50", median(s.accept), "s", true,
               count_note(s.accept.size(), "accepts")});
  m.push_back({"flare.aggregator.accept_total_s", median(s.accept_total), "s", true,
               "per round"});
  m.push_back({"flare.aggregator.aggregate_s", median(s.aggregate), "s"});
  m.push_back({"flare.aggregator.reset_s", median(s.reset), "s"});
  m.push_back({"flare.aggregator.first_accept_s", median(s.first_accept), "s", true,
               "from kRoundStarted"});
  m.push_back({"flare.aggregator.last_accept_s", median(s.last_accept), "s", true,
               "from kRoundStarted"});
  m.push_back({"flare.aggregator.accept_ratio",
               agg_attempted > 0.0 ? agg_accepted / agg_attempted : 0.0, "ratio"});
  m.push_back({"flare.tcp.bytes_per_round", bytes * per_round, "bytes"});
  m.push_back({"flare.tcp.frames_per_round", frames * per_round, "count"});
  m.push_back({"flare.server.parked_polls_per_round", parked.empty() ? 0.0 : sum(parked) / static_cast<double>(parked.size()),
               "count", true, "parked get_task polls at round close"});
  m.push_back({"flare.server.rejected_per_round", rejected * per_round, "count"});
  m.push_back({"flare.server.late_per_round", late * per_round, "count"});
  const double traced_rps = rounds_per_second(traced);
  m.push_back({"trace.overhead_ratio",
               traced_rps > 0.0 ? rounds_per_second(untraced) / traced_rps : 0.0, "ratio", true,
               "untraced over traced rounds_per_s, same run"});
  return m;
}

std::string self_time_table(const std::vector<const EpisodeResult*>& traced) {
  constexpr auto kNames = static_cast<std::size_t>(SpanName::kCount);
  std::array<std::int64_t, kNames> count{}, wall{}, self{};
  for (const EpisodeResult* e : traced) {
    const std::vector<std::int64_t> st = self_times(e->spans);
    for (std::size_t i = 0; i < e->spans.size(); ++i) {
      const auto k = static_cast<std::size_t>(e->spans[i].name);
      count[k] += 1;
      wall[k] += e->spans[i].duration_ns();
      self[k] += st[i];
    }
  }
  std::string out = "  span                          count     wall_s     self_s\n";
  char line[160];
  for (std::size_t k = 0; k < kNames; ++k) {
    if (count[k] == 0) continue;
    std::snprintf(line, sizeof(line), "  %-28s %6lld %10.4f %10.4f\n",
                  span_name(static_cast<SpanName>(k)), static_cast<long long>(count[k]),
                  wall[k] * kNs, self[k] * kNs);
    out += line;
  }
  return out;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string spans_jsonl(const EpisodeResult& episode) {
  const std::vector<std::int64_t> st = self_times(episode.spans);
  const std::int64_t t0 = episode.spans.empty() ? 0 : std::min_element(
      episode.spans.begin(), episode.spans.end(),
      [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; })->start_ns;
  std::string out;
  char line[320];
  for (std::size_t i = 0; i < episode.spans.size(); ++i) {
    const Span& s = episode.spans[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"site\": %d, \"round\": %d, "
                  "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %lld, "
                  "\"cpu_ns\": %lld, \"self_ns\": %lld}\n",
                  i, span_name(s.name), s.site, s.round,
                  static_cast<long long>(s.start_ns - t0), static_cast<long long>(s.end_ns - t0),
                  static_cast<long long>(s.parent), static_cast<long long>(s.cpu_ns),
                  static_cast<long long>(st[i]));
    out += line;
  }
  return out;
}

}  // namespace flbench
