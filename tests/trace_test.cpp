// Observability suite (DESIGN.md §11).
//
// Covers the core tracing substrate (RAII span nesting, ring-buffer
// overwrite accounting, thread-safety under parallel_for), the metric
// registry (counters/gauges/histograms, stable references, snapshot prefix
// views), and the flare-level glue: the Chrome `about:tracing` exporter, the
// summary sink, and the SimulatorRunner integration. The headline acceptance
// property lives here: a fully traced 8-site federation produces a global
// model memcmp-equal to an untraced run, and its exported timeline carries a
// per-round span for every site.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/logging.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/trace.h"
#include "data/dataset.h"
#include "flare/observability.h"
#include "flare/simulator.h"
#include "models/lstm_classifier.h"
#include "optim/optimizer.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace cppflare {
namespace {

using cppflare::testing::bit_equal;
using cppflare::testing::NudgeLearner;

// Every test leaves the process-wide tracer stopped and empty: it is global
// state, and a leaked enabled tracer would silently record into later tests.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::LogConfig::instance().set_threshold(core::LogLevel::kOff);
    core::Tracer::instance().stop();
    core::Tracer::instance().clear();
  }
  void TearDown() override {
    core::Tracer::instance().stop();
    core::Tracer::instance().clear();
    core::LogConfig::instance().set_threshold(core::LogLevel::kInfo);
  }
};

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

TEST_F(TraceTest, DisabledTracerRecordsNothing) {
  ASSERT_FALSE(core::Tracer::instance().enabled());
  {
    CF_TRACE_SPAN("should.not.appear");
  }
  core::Tracer::instance().record_complete("manual", "", -1, 0, 10);
  EXPECT_EQ(core::Tracer::instance().size(), 0u);
}

TEST_F(TraceTest, SpanRecordsNameSiteRoundAndDuration) {
  if (!core::kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  core::Tracer& tracer = core::Tracer::instance();
  tracer.start();
  {
    CF_TRACE_SPAN_SITE("unit.work", "site-3", 7);
    // Burn a little wall time so dur_ns is strictly positive.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  tracer.stop();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "unit.work");
  EXPECT_STREQ(events[0].site, "site-3");
  EXPECT_EQ(events[0].round, 7);
  EXPECT_GT(events[0].dur_ns, 0);
  EXPECT_GE(events[0].cpu_ns, 0);
  EXPECT_GT(events[0].tid, 0u);
  EXPECT_GT(events[0].id, 0u);
  EXPECT_EQ(events[0].parent, 0u);  // root span
}

TEST_F(TraceTest, NestedSpansLinkParentToChild) {
  if (!core::kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  core::Tracer& tracer = core::Tracer::instance();
  tracer.start();
  {
    CF_TRACE_SPAN("outer");
    {
      CF_TRACE_SPAN("middle");
      {
        CF_TRACE_SPAN("inner");
      }
    }
  }
  tracer.stop();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 3u);
  // events() sorts by start ts: outer opened first, inner closed first.
  const core::TraceEvent* outer = nullptr;
  const core::TraceEvent* middle = nullptr;
  const core::TraceEvent* inner = nullptr;
  for (const auto& e : events) {
    if (std::strcmp(e.name, "outer") == 0) outer = &e;
    if (std::strcmp(e.name, "middle") == 0) middle = &e;
    if (std::strcmp(e.name, "inner") == 0) inner = &e;
  }
  ASSERT_TRUE(outer != nullptr && middle != nullptr && inner != nullptr);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(middle->parent, outer->id);
  EXPECT_EQ(inner->parent, middle->id);
  // A sibling opened after the nest unwinds is rooted again.
  tracer.start();
  {
    CF_TRACE_SPAN("sibling");
  }
  tracer.stop();
  const auto after = tracer.events();
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].parent, 0u);
}

TEST_F(TraceTest, OverlongNamesAreTruncatedNotOverflowed) {
  if (!core::kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  core::Tracer& tracer = core::Tracer::instance();
  tracer.start();
  const std::string long_name(100, 'n');
  const std::string long_site(100, 's');
  tracer.record_complete(long_name.c_str(), long_site, 1, 0, 10);
  tracer.stop();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::strlen(events[0].name), core::TraceEvent::kNameCap - 1);
  EXPECT_EQ(std::strlen(events[0].site), core::TraceEvent::kSiteCap - 1);
}

TEST_F(TraceTest, RingOverwritesOldestAndCountsDropped) {
  core::Tracer& tracer = core::Tracer::instance();
  tracer.start(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    tracer.record_complete("evt", "", i, /*start_ns=*/i, /*end_ns=*/i + 1);
  }
  tracer.stop();
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6);
  // The survivors are the newest four, in chronological order.
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[i].round, 6 + i);
}

TEST_F(TraceTest, StopKeepsEventsReadableClearDiscards) {
  core::Tracer& tracer = core::Tracer::instance();
  tracer.start();
  tracer.record_complete("kept", "", -1, 0, 5);
  tracer.stop();
  EXPECT_EQ(tracer.size(), 1u);          // readable after stop
  tracer.record_complete("late", "", -1, 5, 9);
  EXPECT_EQ(tracer.size(), 1u);          // recording disarmed
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
}

TEST_F(TraceTest, NowNsIsMonotonicAfterStart) {
  core::Tracer& tracer = core::Tracer::instance();
  tracer.start();
  const std::int64_t a = tracer.now_ns();
  const std::int64_t b = tracer.now_ns();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

TEST_F(TraceTest, SpansAreThreadSafeUnderParallelFor) {
  if (!core::kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  core::Tracer& tracer = core::Tracer::instance();
  tracer.start();
  std::atomic<std::int64_t> chunks{0};
  core::parallel_for(0, 512, /*grain=*/8,
                     [&](std::int64_t begin, std::int64_t end) {
                       CF_TRACE_SPAN("par.chunk");
                       for (std::int64_t i = begin; i < end; ++i) {
                         CF_TRACE_SPAN("par.item");
                       }
                       chunks.fetch_add(1, std::memory_order_relaxed);
                     });
  tracer.stop();
  std::int64_t chunk_events = 0;
  std::int64_t item_events = 0;
  for (const auto& e : tracer.events()) {
    if (std::strcmp(e.name, "par.chunk") == 0) ++chunk_events;
    if (std::strcmp(e.name, "par.item") == 0) {
      ++item_events;
      EXPECT_NE(e.parent, 0u);  // nested inside its chunk span
    }
  }
  EXPECT_EQ(chunk_events, chunks.load());
  EXPECT_EQ(item_events, 512);
}

// Per-kernel timing lands in MetricRegistry histograms, not the span ring:
// thousands of GEMM calls per train step would otherwise evict the
// round-level spans. The histograms count every call while the tracer is
// armed and none while it is off.
TEST_F(TraceTest, KernelTimingGoesToHistogramsNotTheRing) {
  if (!core::kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  core::set_compute_threads(4);
  core::Rng rng(9);
  const models::ModelConfig config = models::ModelConfig::bert_mini(400, 32);
  auto model = models::make_classifier(config, rng);
  optim::Adam opt(model->parameters(), 1e-3f);
  constexpr std::int64_t kBatch = 8, kSeq = 32;
  data::Batch batch;
  batch.batch_size = kBatch;
  batch.seq_len = kSeq;
  core::Rng ids_rng(10);
  for (std::int64_t i = 0; i < kBatch; ++i) {
    for (std::int64_t t = 0; t < kSeq; ++t) {
      batch.ids.push_back(ids_rng.uniform_int(5, 399));
    }
    batch.lengths.push_back(kSeq);
    batch.labels.push_back(i % 2);
  }
  core::Rng fw(11);
  const auto train_step = [&] {
    CF_TRACE_SPAN("test.step");
    tensor::Tensor loss =
        tensor::cross_entropy(model->class_logits(batch, fw), batch.labels);
    opt.zero_grad();
    loss.backward();
    opt.step();
  };
  const auto counts = [] {
    const core::MetricSnapshot snap = core::MetricRegistry::instance().snapshot();
    std::map<std::string, std::int64_t> out;
    for (const char* name : {"tensor.gemm_nn_ns", "tensor.gemm_nt_ns",
                             "tensor.gemm_tn_ns", "tensor.parallel_rows_ns"}) {
      const auto it = snap.histograms.find(name);
      out[name] = it == snap.histograms.end() ? 0 : it->second.count;
    }
    return out;
  };

  auto before = counts();
  train_step();  // tracer off: nothing recorded anywhere
  EXPECT_EQ(counts(), before);

  core::Tracer& tracer = core::Tracer::instance();
  tracer.start();  // the default ring
  train_step();
  tracer.stop();
  const auto after = counts();

  const auto events = tracer.events();
  EXPECT_EQ(tracer.dropped(), 0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.step");

  // GEMM calls of one forward + backward: each of the 6 layers has 6
  // linears (q, k, v, out, ffn in, ffn out) plus the classifier's pooler and
  // head; a linear is one NT forward and one NN + one TN backward. Each
  // layer's bmm_nt (scores) and bmm (context) run per batch x head entry:
  // bmm_nt is NT forward, NN + TN backward; bmm is NN forward, NT + TN
  // backward. So every kernel runs layers * (6 + 2 * entries) + 2 times.
  const std::int64_t entries = kBatch * config.heads;
  const std::int64_t per_kernel = config.layers * (6 + 2 * entries) + 2;
  for (const char* name :
       {"tensor.gemm_nn_ns", "tensor.gemm_nt_ns", "tensor.gemm_tn_ns"}) {
    EXPECT_EQ(after.at(name) - before.at(name), per_kernel) << name;
  }
  EXPECT_GT(after.at("tensor.parallel_rows_ns"),
            before.at("tensor.parallel_rows_ns"));
}

TEST_F(TraceTest, DrainFollowsBeginEventEndProtocol) {
  class OrderSink final : public core::TraceSink {
   public:
    void begin(std::int64_t dropped) override {
      log += "B" + std::to_string(dropped);
    }
    void event(const core::TraceEvent&) override { log += "e"; }
    void end() override { log += "E"; }
    std::string log;
  };
  core::Tracer& tracer = core::Tracer::instance();
  tracer.start(2);
  for (int i = 0; i < 3; ++i) tracer.record_complete("x", "", -1, i, i + 1);
  tracer.stop();
  OrderSink sink;
  tracer.drain(sink);
  EXPECT_EQ(sink.log, "B1eeE");
  core::NullTraceSink null_sink;
  tracer.drain(null_sink);  // the no-op sink must also survive a drain
}

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  core::MetricRegistry reg;
  core::Counter& c = reg.counter("a.count");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5);
  core::Gauge& g = reg.gauge("a.gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(MetricsTest, LookupReturnsStableReferences) {
  core::MetricRegistry reg;
  EXPECT_EQ(&reg.counter("same"), &reg.counter("same"));
  EXPECT_EQ(&reg.gauge("same"), &reg.gauge("same"));  // separate namespace
  EXPECT_EQ(&reg.histogram("same"), &reg.histogram("same"));
  EXPECT_NE(&reg.counter("same"), &reg.counter("other"));
}

TEST(MetricsTest, HistogramStatsAndPercentiles) {
  core::MetricRegistry reg;
  core::Histogram& h = reg.histogram("lat");
  EXPECT_EQ(h.stats().count, 0);
  for (const std::int64_t v : {1, 2, 4, 8, 1000}) h.record(v);
  const core::HistogramStats s = h.stats();
  EXPECT_EQ(s.count, 5);
  EXPECT_DOUBLE_EQ(s.sum, 1015.0);
  EXPECT_DOUBLE_EQ(s.mean, 203.0);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 1000);
  // Bucket-resolution nearest-rank estimates (rank = q*(n-1)): with five
  // samples p50 lands in 4's bucket and p99 in 8's bucket ([8,16)).
  EXPECT_GE(s.p50, 2.0);
  EXPECT_LE(s.p50, 8.0);
  EXPECT_GE(s.p99, 8.0);
  EXPECT_LE(s.p99, 16.0);
  // A heavy tail does move p99: 99 fast samples + enough slow ones.
  core::Histogram& tail = reg.histogram("tail");
  for (int i = 0; i < 95; ++i) tail.record(1);
  for (int i = 0; i < 5; ++i) tail.record(1000);
  EXPECT_LE(tail.stats().p90, 2.0);
  EXPECT_GE(tail.stats().p99, 512.0);
}

TEST(MetricsTest, SnapshotAndPrefixViews) {
  core::MetricRegistry reg;
  reg.counter("server.rounds").add(3);
  reg.counter("tcp.bytes").add(100);
  reg.gauge("site.site-1.loss").set(0.5);
  reg.gauge("site.site-2.loss").set(0.25);
  reg.gauge("server.acc").set(0.9);
  reg.histogram("train.ms").record(12);
  const core::MetricSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("server.rounds"), 3);
  EXPECT_EQ(snap.histograms.at("train.ms").count, 1);
  const auto sites = snap.gauges_with_prefix("site.");
  EXPECT_EQ(sites.size(), 2u);
  EXPECT_DOUBLE_EQ(sites.at("site.site-1.loss"), 0.5);
  const auto tcp = snap.counters_with_prefix("tcp.");
  EXPECT_EQ(tcp.size(), 1u);
  EXPECT_EQ(tcp.at("tcp.bytes"), 100);
}

TEST(MetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  core::MetricRegistry reg;
  core::Counter& c = reg.counter("c");
  core::Gauge& g = reg.gauge("g");
  core::Histogram& h = reg.histogram("h");
  c.add(7);
  g.set(7.0);
  h.record(7);
  reg.reset();
  EXPECT_EQ(c.value(), 0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.stats().count, 0);
  EXPECT_EQ(&reg.counter("c"), &c);  // same object, still registered
}

TEST(MetricsTest, ProcessWideInstanceIsSingleton) {
  EXPECT_EQ(&core::MetricRegistry::instance(), &core::MetricRegistry::instance());
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Minimal structural JSON check: balanced brackets/braces outside strings,
/// array-shaped, no trailing garbage. Not a full parser, but catches every
/// way the line-by-line emitter could break (missing commas are caught by
/// the substring assertions in the tests below).
bool looks_like_json_array(const std::string& text) {
  std::size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
  if (i == text.size() || text[i] != '[') return false;
  int depth = 0;
  bool in_string = false;
  for (; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;       // skip the escaped char
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '[' || c == '{') ++depth;
    else if (c == ']' || c == '}') {
      if (--depth < 0) return false;
      if (depth == 0) break;  // array closed
    }
  }
  if (depth != 0 || in_string) return false;
  for (++i; i < text.size(); ++i) {
    if (!std::isspace(static_cast<unsigned char>(text[i]))) return false;
  }
  return true;
}

class ExporterTest : public TraceTest {};

TEST_F(ExporterTest, ChromeTraceSinkEmitsValidJsonArray) {
  core::Tracer& tracer = core::Tracer::instance();
  tracer.start(2);
  tracer.record_complete("alpha", "site-1", 0, 1000, 4000);
  tracer.record_complete("beta \"quoted\"\\", "", -1, 2000, 3000);
  tracer.record_complete("gamma", "site-2", 1, 5000, 9000);  // drops "alpha"
  tracer.stop();

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("cppflare_trace_" + std::to_string(::getpid()) + ".json"))
          .string();
  ASSERT_TRUE(flare::write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::filesystem::remove(path);

  EXPECT_TRUE(looks_like_json_array(text)) << text;
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"beta \\\"quoted\\\"\\\\\""), std::string::npos)
      << "names must be JSON-escaped";
  EXPECT_NE(text.find("site-2"), std::string::npos);
  // One event was lost to the 2-slot ring: the exporter must say so.
  EXPECT_NE(text.find("dropped"), std::string::npos);
  EXPECT_EQ(text.find("alpha"), std::string::npos);
}

TEST_F(ExporterTest, WriteChromeTraceFailsCleanlyOnBadPath) {
  core::Tracer::instance().start();
  core::Tracer::instance().stop();
  EXPECT_FALSE(flare::write_chrome_trace("/nonexistent-dir/x/trace.json"));
}

TEST_F(ExporterTest, SummarySinkAggregatesByName) {
  core::Tracer& tracer = core::Tracer::instance();
  tracer.start();
  tracer.record_complete("agg.step", "", 0, 0, 100, 60);
  tracer.record_complete("agg.step", "", 1, 200, 500, 70);
  tracer.record_complete("other", "", -1, 50, 60);
  tracer.stop();
  flare::TraceSummarySink sink;
  tracer.drain(sink);
  ASSERT_EQ(sink.rows().size(), 2u);
  const flare::SpanSummary& s = sink.rows().at("agg.step");
  EXPECT_EQ(s.count, 2);
  EXPECT_EQ(s.wall_ns, 400);
  EXPECT_EQ(s.cpu_ns, 130);
  EXPECT_EQ(s.max_wall_ns, 300);
  const std::string table = flare::write_trace_summary();
  EXPECT_NE(table.find("agg.step"), std::string::npos);
  EXPECT_NE(table.find("other"), std::string::npos);
}

TEST(ObservabilityNames, SiteMetricNameBuildsCanonicalGaugeName) {
  EXPECT_EQ(flare::site_metric_name("site-3", "train_loss"),
            "site.site-3.train_loss");
}

// ---------------------------------------------------------------------------
// Federation integration
// ---------------------------------------------------------------------------

nn::StateDict tiny_model() {
  nn::StateDict d;
  d.insert("w", {{4}, {5.0f, 5.0f, 5.0f, 5.0f}});
  return d;
}

flare::SimulatorRunner make_runner(flare::SimulatorConfig config) {
  return flare::SimulatorRunner(
      config, tiny_model(), std::make_unique<flare::FedAvgAggregator>(true),
      [](std::int64_t i, const std::string& name) {
        return std::make_shared<NudgeLearner>(name, static_cast<float>(i));
      });
}

class TracedFederationTest : public TraceTest {};

TEST_F(TracedFederationTest, TracedRunIsBitIdenticalToUntracedRun) {
  if (!core::kTracingCompiledIn) GTEST_SKIP() << "tracing compiled out";
  flare::SimulatorConfig config;
  config.job_id = "trace-equal-job";
  config.num_clients = 8;
  config.num_rounds = 3;

  flare::SimulationResult clean = make_runner(config).run();
  ASSERT_FALSE(clean.aborted);

  config.trace = true;
  const std::string json_path =
      (std::filesystem::temp_directory_path() /
       ("cppflare_fed_trace_" + std::to_string(::getpid()) + ".json"))
          .string();
  config.trace_json_path = json_path;
  flare::SimulationResult traced = make_runner(config).run();
  ASSERT_FALSE(traced.aborted);

  // Acceptance line: observation must not perturb the federation.
  EXPECT_TRUE(bit_equal(clean.final_model, traced.final_model));

  // Acceptance line: the exported timeline is valid Chrome-tracing JSON
  // carrying a per-round submit span for every site, plus the round and
  // whole-run spans.
  std::ifstream in(json_path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::filesystem::remove(json_path);
  EXPECT_TRUE(looks_like_json_array(text));
  EXPECT_NE(text.find("simulator.run"), std::string::npos);
  EXPECT_NE(text.find("server.aggregate"), std::string::npos);

  std::set<std::pair<std::string, std::int64_t>> submits;
  std::set<std::int64_t> rounds;
  for (const auto& e : core::Tracer::instance().events()) {
    if (std::strcmp(e.name, "server.submit") == 0) {
      submits.insert({e.site, e.round});
    }
    if (std::strcmp(e.name, "server.round") == 0) rounds.insert(e.round);
  }
  for (std::int64_t r = 0; r < config.num_rounds; ++r) {
    EXPECT_TRUE(rounds.count(r)) << "missing server.round span for round " << r;
    for (std::int64_t i = 1; i <= config.num_clients; ++i) {
      const std::string site = "site-" + std::to_string(i);
      EXPECT_TRUE(submits.count({site, r}))
          << "missing server.submit span for " << site << " round " << r;
    }
  }

  // The registry snapshot consolidates the old ad-hoc result fields.
  EXPECT_EQ(traced.metrics.counters.at(
                flare::metric_names::kServerRoundsCompleted),
            config.num_rounds);
  EXPECT_EQ(traced.metrics.counters.at(
                flare::metric_names::kServerContribAccepted),
            config.num_rounds * config.num_clients);
  EXPECT_EQ(traced.site_metrics().at("site.site-5.num_samples"), 10.0);
  EXPECT_EQ(traced.site_metrics().at("site.site-5.round"),
            static_cast<double>(config.num_rounds - 1));
}

TEST_F(TracedFederationTest, AbortedRunRetainsPerSiteMetrics) {
  // Regression for the pre-consolidation bug: when the validator rejected
  // every contribution and the run aborted mid-round, SimulationResult
  // carried no per-site detail at all. The per-site gauges are recorded
  // before validation, so the abort report still shows what each site sent.
  flare::SimulatorConfig config;
  config.job_id = "trace-abort-job";
  config.num_clients = 2;
  config.num_rounds = 2;
  config.validator.max_sample_count = 1;  // NudgeLearner claims 10 samples
  flare::SimulationResult result = make_runner(config).run();
  ASSERT_TRUE(result.aborted);
  EXPECT_NE(result.abort_reason.find("rejected"), std::string::npos);
  for (const std::string site : {"site-1", "site-2"}) {
    EXPECT_EQ(result.site_metrics().at("site." + site + ".num_samples"), 10.0)
        << "abort lost " << site << "'s last reported state";
    EXPECT_EQ(result.site_metrics().at("site." + site + ".round"), 0.0);
  }
  EXPECT_GE(result.metrics.counters.at("server.rejections.bad_sample_count"), 2);
}

}  // namespace
}  // namespace cppflare
