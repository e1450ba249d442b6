// Trace-span coverage: the disabled fast path, per-thread buffering
// with shared tid attribution, Chrome trace-event JSON emission
// (validated with the repo's own JSON parser), and an end-to-end
// run_imm whose span names cover sampling shards, martingale rounds,
// and selection.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "core/imm.hpp"
#include "obs/metrics.hpp"
#include "support/json_parse.hpp"
#include "test_util.hpp"
#include "workloads/registry.hpp"

namespace eimm::obs {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_trace_path("");
    reset_trace_events();
  }
  void TearDown() override {
    set_trace_path("");
    reset_trace_events();
  }
};

JsonValue parse_events(const std::string& text) {
  const JsonValue doc = parse_json(text);
  EXPECT_TRUE(doc.is_object());
  return doc.at("traceEvents");
}

std::set<std::string> event_names(const JsonValue& events) {
  std::set<std::string> names;
  for (const JsonValue& event : events.as_array()) {
    names.insert(event.at("name").as_string());
  }
  return names;
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(trace_enabled());
  {
    TraceSpan span("should.not.appear", "k", 1);
    span.arg("extra", 2);
  }
  EXPECT_EQ(trace_event_count(), 0u);
  EXPECT_EQ(flush_trace(), "");
}

TEST_F(TraceTest, SpanRecordsWhenEnabled) {
  const std::string path = ::testing::TempDir() + "/eimm_trace_basic.json";
  set_trace_path(path);
  ASSERT_TRUE(trace_enabled());
  EXPECT_EQ(trace_path(), path);
  {
    TraceSpan span("unit.span", "shard", 3, "domain", 0);
    span.arg("worker", 7);
  }
  EXPECT_EQ(trace_event_count(), 1u);
}

TEST_F(TraceTest, JsonOutputIsChromeTraceFormat) {
  set_trace_path(::testing::TempDir() + "/eimm_trace_fmt.json");
  { TraceSpan span("fmt.outer", "k", 5); }
  { TraceSpan span("fmt.inner"); }

  std::ostringstream os;
  write_trace_json(os);
  const JsonValue events = parse_events(os.str());
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.as_array().size(), 2u);

  const std::set<std::string> names = event_names(events);
  EXPECT_TRUE(names.count("fmt.outer"));
  EXPECT_TRUE(names.count("fmt.inner"));
  for (const JsonValue& event : events.as_array()) {
    EXPECT_EQ(event.at("ph").as_string(), "X");
    EXPECT_EQ(event.at("cat").as_string(), "eimm");
    EXPECT_TRUE(event.at("ts").is_number());
    EXPECT_TRUE(event.at("dur").is_number());
    EXPECT_GE(event.at("dur").as_number(), 0.0);
    EXPECT_TRUE(event.at("tid").is_number());
    if (event.at("name").as_string() == "fmt.outer") {
      EXPECT_DOUBLE_EQ(event.at("args").at("k").as_number(), 5.0);
    }
  }
}

TEST_F(TraceTest, ThreadsGetDistinctTids) {
  set_trace_path(::testing::TempDir() + "/eimm_trace_tids.json");
  { TraceSpan span("tid.main"); }
  std::thread worker([] { TraceSpan span("tid.worker"); });
  worker.join();

  std::ostringstream os;
  write_trace_json(os);
  const JsonValue events = parse_events(os.str());
  double main_tid = -1.0;
  double worker_tid = -1.0;
  for (const JsonValue& event : events.as_array()) {
    if (event.at("name").as_string() == "tid.main") {
      main_tid = event.at("tid").as_number();
    } else if (event.at("name").as_string() == "tid.worker") {
      worker_tid = event.at("tid").as_number();
    }
  }
  EXPECT_GE(main_tid, 0.0);
  EXPECT_GE(worker_tid, 0.0);
  EXPECT_NE(main_tid, worker_tid);
}

TEST_F(TraceTest, FlushWritesFileAndIsIdempotent) {
  const std::string path = ::testing::TempDir() + "/eimm_trace_flush.json";
  set_trace_path(path);
  { TraceSpan span("flush.one"); }
  EXPECT_EQ(flush_trace(), path);
  { TraceSpan span("flush.two"); }
  EXPECT_EQ(flush_trace(), path);  // rewrites a superset

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const std::set<std::string> names = event_names(parse_events(text.str()));
  EXPECT_TRUE(names.count("flush.one"));
  EXPECT_TRUE(names.count("flush.two"));
}

TEST_F(TraceTest, ResetDiscardsBufferedEvents) {
  set_trace_path(::testing::TempDir() + "/eimm_trace_reset.json");
  { TraceSpan span("reset.victim"); }
  ASSERT_EQ(trace_event_count(), 1u);
  reset_trace_events();
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST_F(TraceTest, RunImmEmitsPhaseSpans) {
  set_trace_path(::testing::TempDir() + "/eimm_trace_e2e.json");
  const DiffusionGraph g = make_workload_with_weights(
      "com-Amazon", DiffusionModel::kIndependentCascade, 0.01);
  ImmOptions options;
  options.k = 4;
  options.max_rrr_sets = 4096;
  options.shards = 2;
  (void)run_efficient_imm(g, options);

  std::ostringstream os;
  write_trace_json(os);
  const std::set<std::string> names = event_names(parse_events(os.str()));
  EXPECT_TRUE(names.count("run_imm"));
  EXPECT_TRUE(names.count("sampling.generate"));
  EXPECT_TRUE(names.count("sampler.shard"));
  EXPECT_TRUE(names.count("martingale.round"));
  EXPECT_TRUE(names.count("selection.select"));
  EXPECT_TRUE(names.count("selection.final"));
}

TEST_F(TraceTest, FinalSelectionSpanSaysWhetherTheLastProbeWasReused) {
  // One input where Set Theta adds no sets after the last probe (IC) and
  // one where it tops the pool up (LT).
  struct Case {
    DiffusionModel model;
    double scale;
    std::size_t k;
  };
  for (const Case c : {Case{DiffusionModel::kIndependentCascade, 0.05, 10},
                       Case{DiffusionModel::kLinearThreshold, 0.02, 6}}) {
    reset_trace_events();
    set_trace_path(::testing::TempDir() + "/eimm_trace_reused.json");
    const DiffusionGraph g = make_workload_with_weights("com-Amazon", c.model,
                                                        c.scale);
    ImmOptions options;
    options.k = c.k;
    options.model = c.model;
    options.max_rrr_sets = 1 << 16;
    options.fused_sampling = FusedSampling::kOff;  // pins the pool contents
    const ImmResult result = run_efficient_imm(g, options);
    EXPECT_EQ(result.final_selection_reused,
              c.model == DiffusionModel::kIndependentCascade);

    std::ostringstream os;
    write_trace_json(os);
    const JsonValue events = parse_events(os.str());
    int finals = 0;
    for (const JsonValue& event : events.as_array()) {
      if (event.at("name").as_string() != "selection.final") continue;
      ++finals;
      EXPECT_DOUBLE_EQ(event.at("args").at("reused").as_number(),
                       result.final_selection_reused ? 1.0 : 0.0);
    }
    EXPECT_EQ(finals, 1);
  }
}

}  // namespace
}  // namespace eimm::obs
