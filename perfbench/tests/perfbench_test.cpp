// Unit tests of the benchmark's own logic: order statistics, trace
// accounting, failure counting, and the reply/seed checkers.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "check.hpp"
#include "pipeline.hpp"
#include "serve/query_engine.hpp"
#include "serve/sketch_store.hpp"
#include "stats.hpp"
#include "support/stats.hpp"
#include "trace_accounting.hpp"
#include "workloads/registry.hpp"

namespace perfbench {
namespace {

// --- Percentile and quartile helpers ---

TEST(Stats, SummaryPercentilesMatchTheLibraryAndStayInfinite) {
  const std::vector<double> values = {4, 1, 3, 2, 10, 7};
  const LatencySummary s = summarize(values, 0);
  EXPECT_DOUBLE_EQ(s.p50, eimm::median(values));
  EXPECT_DOUBLE_EQ(s.p95, eimm::percentile(values, 95.0));
  EXPECT_DOUBLE_EQ(s.p99, eimm::percentile(values, 99.0));
  EXPECT_DOUBLE_EQ(summarize({0, 10}, 0).p99, 9.9);
  EXPECT_DOUBLE_EQ(summarize({7}, 0).p99, 7.0);
  EXPECT_DOUBLE_EQ(summarize({}, 0).p50, 0.0);
  // {1, 2, +inf}: the median sits exactly on 2, next to the failure.
  // eimm::percentile weighs +inf by 0 there and yields NaN.
  const LatencySummary f = summarize({2, 1}, 1);
  EXPECT_DOUBLE_EQ(f.p50, 2.0);
  EXPECT_TRUE(std::isinf(f.p95));
  EXPECT_TRUE(std::isnan(eimm::percentile(f.sorted, 50.0)));
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // Expected values from statistics.quantiles(data, n=4).
  const auto a = quartiles({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(a[0], 1.25);
  EXPECT_DOUBLE_EQ(a[1], 2.5);
  EXPECT_DOUBLE_EQ(a[2], 3.75);
  const auto b = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(b[0], 2.75);
  EXPECT_DOUBLE_EQ(b[1], 5.5);
  EXPECT_DOUBLE_EQ(b[2], 8.25);
  const auto c = quartiles({5.0, 1.0, 9.0});
  EXPECT_DOUBLE_EQ(c[0], 1.0);
  EXPECT_DOUBLE_EQ(c[1], 5.0);
  EXPECT_DOUBLE_EQ(c[2], 9.0);
  const auto d = quartiles({3.5, 1.25});
  EXPECT_DOUBLE_EQ(d[0], 0.6875);
  EXPECT_DOUBLE_EQ(d[1], 2.375);
  EXPECT_DOUBLE_EQ(d[2], 4.0625);
}

TEST(Stats, TailPercentileKeepsTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
}

TEST(Stats, WindowRatesCountFullWindowsOnly) {
  // 4 events in [0, 0.5), 2 in [0.5, 1.0); 1.2 falls in a partial window.
  const std::vector<double> rates =
      window_rates({0.1, 0.2, 0.3, 0.4, 0.6, 0.9, 1.2}, 0.5, 1.3);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 8.0);
  EXPECT_DOUBLE_EQ(rates[1], 4.0);
}

// --- Failure counting ---

TEST(Stats, RefusedRequestCountsAsMissingTheLimit) {
  std::vector<double> ok(98, 1.0);
  const LatencySummary s = summarize(ok, /*failures=*/2);
  EXPECT_EQ(s.samples, 98u);
  EXPECT_EQ(s.failures, 2u);
  EXPECT_EQ(s.misses(10.0), 2u);  // the two refused requests
  EXPECT_EQ(s.misses(0.5), 100u);
  EXPECT_TRUE(std::isinf(s.p99));  // 2 % failed: p99 is a failure
  EXPECT_DOUBLE_EQ(s.p50, 1.0);
}

TEST(Stats, NoFailuresKeepsTheTailFinite) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  const LatencySummary s = summarize(values, 0);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_NEAR(s.p99, 990.01, 1e-9);
  EXPECT_EQ(s.misses(1000.0), 0u);
}

TEST(Tally, CountsAttemptsAndFailures) {
  Tally tally;
  tally.record(true, "fine");
  tally.record(false, "refused");
  for (int i = 0; i < 30; ++i) tally.record(i % 3 != 0, "timeout");
  EXPECT_EQ(tally.attempted(), 32u);
  EXPECT_EQ(tally.failed(), 11u);
  ASSERT_EQ(tally.failures().size(), 11u);
  EXPECT_EQ(tally.failures()[0], "refused");
  for (int i = 0; i < 30; ++i) tally.record(false, "overload");
  EXPECT_EQ(tally.failed(), 41u);
  EXPECT_EQ(tally.failures().size(), 20u);  // the first few messages only
}

// --- Trace accounting ---

Span span(const char* name, double start, double end, int tid = 1) {
  return Span{name, start, end - start, tid};
}

TEST(TraceAccounting, SelfTimeCountsOverlappingChildrenOnce) {
  const Span parent = span("p", 0, 100);
  // [10,30] and [20,50] overlap; [90,120] sticks out of the parent.
  const std::vector<Span> children = {span("a", 10, 30), span("b", 20, 50),
                                      span("c", 90, 120)};
  EXPECT_DOUBLE_EQ(self_time_us(parent, children), 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(self_time_us(parent, {}), 100.0);
  EXPECT_DOUBLE_EQ(self_time_us(parent, {span("all", -5, 200)}), 0.0);
}

TEST(TraceAccounting, LayersSumToTheIteration) {
  const std::vector<Span> spans = {
      span("bench.iteration", 0, 1000),
      span("workloads.make", 0, 100),
      span("core.build_pool", 100, 700),
      span("martingale.round", 110, 400),
      span("sampling.generate", 120, 300),
      span("sampler.shard", 130, 290, /*tid=*/2),  // another thread
      span("selection.probe", 300, 390),
      span("selection.select", 305, 385),
      span("seedselect.final", 700, 990),
      span("selection.select", 710, 980),
      span("bench.iteration", 2000, 2500),  // a later iteration
  };
  const auto layers = layer_self_seconds(spans[0], spans);
  EXPECT_NEAR(layers.at("workloads.make_s"), 100e-6, 1e-12);
  EXPECT_NEAR(layers.at("core.other_s"), (600 - 290 + 290 - 180 - 90) * 1e-6,
              1e-12);
  EXPECT_NEAR(layers.at("rrr.generate_s"), 180e-6, 1e-12);
  EXPECT_NEAR(layers.at("seedselect.probe_s"), 90e-6, 1e-12);
  EXPECT_NEAR(layers.at("seedselect.final_s"), 290e-6, 1e-12);
  EXPECT_NEAR(layers.at("bench.unaccounted_s"), 10e-6, 1e-12);
  double sum = 0.0;
  for (const auto& [name, seconds] : layers) sum += seconds;
  EXPECT_NEAR(sum, 1000e-6, 1e-12);
}

TEST(TraceAccounting, FindsSpansInsideTheIterationOnly) {
  const std::vector<Span> spans = {
      span("bench.iteration", 0, 1000),
      span("sampling.generate", 120, 300),
      span("selection.probe", 300, 390, /*tid=*/2),  // another thread
      span("selection.select", 1500, 1600),          // after the iteration
  };
  EXPECT_TRUE(encloses_span(spans[0], spans, "sampling.generate"));
  EXPECT_FALSE(encloses_span(spans[0], spans, "selection.probe"));
  EXPECT_FALSE(encloses_span(spans[0], spans, "selection.select"));
  EXPECT_FALSE(encloses_span(spans[0], spans, "martingale.round"));
}

TEST(TraceAccounting, ParsesChromeTraceEvents) {
  const std::vector<Span> spans = parse_trace(
      R"({"displayTimeUnit":"ms","traceEvents":[)"
      R"({"name":"run_imm","cat":"eimm","ph":"X","ts":1.5,"dur":2.25,"pid":7,"tid":3},)"
      R"({"name":"meta","ph":"M","ts":0,"pid":7,"tid":3}]})");
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "run_imm");
  EXPECT_DOUBLE_EQ(spans[0].start_us, 1.5);
  EXPECT_DOUBLE_EQ(spans[0].end_us(), 3.75);
  EXPECT_EQ(spans[0].tid, 3);
}

// --- Checkers ---

class CheckerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    graph_ = new eimm::DiffusionGraph(eimm::make_workload_with_weights(
        "com-Amazon", eimm::DiffusionModel::kIndependentCascade, 0.01, 7));
    eimm::ImmOptions options;
    options.k = 5;
    options.threads = 1;
    store_ = new eimm::SketchStore(eimm::SketchStore::build(*graph_, options));
  }
  static void TearDownTestSuite() {
    delete store_;
    delete graph_;
  }
  static eimm::DiffusionGraph* graph_;
  static eimm::SketchStore* store_;
};
eimm::DiffusionGraph* CheckerTest::graph_ = nullptr;
eimm::SketchStore* CheckerTest::store_ = nullptr;

TEST_F(CheckerTest, FlagsAPerturbedSeedList) {
  const eimm::QueryEngine engine(*store_);
  Request request;
  request.query.k = 3;
  eimm::QueryResult reply = engine.top_k(3);
  ReplyChecker checker(engine);
  EXPECT_TRUE(checker.matches(request, digest(reply)));
  ASSERT_GE(reply.seeds.size(), 2u);
  std::swap(reply.seeds[0], reply.seeds[1]);  // same set, wrong order
  EXPECT_FALSE(checker.matches(request, digest(reply)));
  EXPECT_FALSE(same_seeds(reply.seeds, engine.top_k(3).seeds));
  EXPECT_TRUE(same_seeds(engine.top_k(3).seeds, engine.top_k(3).seeds));
}

TEST_F(CheckerTest, FlagsATamperedReply) {
  const eimm::QueryEngine engine(*store_);
  ReplyChecker checker(engine);
  Request select;
  select.verb = Request::Verb::kSelect;
  select.query.k = 2;
  select.query.forbidden = {store_->default_seeds()[0]};
  eimm::QueryResult reply = engine.answer(select.query);
  checker.prefetch({&select}, 1);
  EXPECT_TRUE(checker.matches(select, digest(reply)));
  reply.covered_sketches += 1;
  EXPECT_FALSE(checker.matches(select, digest(reply)));

  Request evaluate;
  evaluate.verb = Request::Verb::kEvaluate;
  evaluate.seeds = {0, 1, 2};
  eimm::MarginalGainResult gain = engine.evaluate(evaluate.seeds);
  EXPECT_TRUE(checker.matches(evaluate, digest(gain)));
  gain.estimated_spread = std::nextafter(gain.estimated_spread, 1e300);
  EXPECT_FALSE(checker.matches(evaluate, digest(gain)));
}

TEST_F(CheckerTest, RequestKeysAreCanonical) {
  Request a;
  a.verb = Request::Verb::kSelect;
  a.query.k = 4;
  a.query.forbidden = {3, 1, 3};
  Request b = a;
  b.query.forbidden = {1, 3};
  EXPECT_EQ(a.key(), b.key());
  b.query.k = 5;
  EXPECT_NE(a.key(), b.key());
}

TEST_F(CheckerTest, QueryMixIsSeededAndAboutAFifthConstrained) {
  QueryMix first(*store_, 1, 2);
  QueryMix again(*store_, 1, 2);
  QueryMix other(*store_, 1, 3);
  std::size_t selects = 0;
  bool differs = false;
  constexpr int kCount = 5000;
  for (int i = 0; i < kCount; ++i) {
    const Request r = first.next();
    EXPECT_EQ(r.key(), again.next().key());
    differs = differs || r.key() != other.next().key();
    selects += r.verb == Request::Verb::kSelect ? 1 : 0;
  }
  EXPECT_TRUE(differs);
  EXPECT_NEAR(static_cast<double>(selects) / kCount, 0.2, 0.03);
}

}  // namespace
}  // namespace perfbench
