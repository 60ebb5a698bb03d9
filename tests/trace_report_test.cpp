// Both-sides coverage of the trace_report analyzer: a hand-built
// overlapped trace must score a high overlap fraction and a "pipelined"
// verdict; a hand-built serialized trace (stages taking turns, consumer
// starved in between) must score ~0 overlap, attribute the stall time to
// prefetch, and recommend "serial". The traces are written through the
// real exporter or as literal Chrome JSON, so the parser is exercised on
// exactly what tools/trace_report will see.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "obs/trace_analysis.hpp"
#include "util/check.hpp"

namespace {

using namespace ethshard;

// Builds a Chrome-trace JSON string through the real exporter.
std::string export_json(const obs::TraceSnapshot& trace) {
  std::ostringstream os;
  obs::write_trace_json(os, trace);
  return os.str();
}

obs::SpanRecord span(const char* path, double start_ms, double end_ms,
                     std::uint32_t thread) {
  obs::SpanRecord s;
  s.path = path;
  s.start_ms = start_ms;
  s.duration_ms = end_ms - start_ms;
  s.thread = thread;
  return s;
}

// Stage A aggregates windows back-to-back on tid 1 while Stage B applies
// them on tid 0 with ~1ms of skew — the ideal pipeline.
obs::TraceSnapshot overlapped_trace() {
  obs::TraceSnapshot t;
  t.lanes[0] = "Stage B (apply+flush)";
  t.lanes[1] = "Stage A (aggregate)";
  t.spans.push_back(span("pipeline/aggregate", 0.0, 10.0, 1));
  t.spans.push_back(span("pipeline/aggregate", 10.0, 20.0, 1));
  t.spans.push_back(span("pipeline/aggregate", 20.0, 30.0, 1));
  t.spans.push_back(span("pipeline/apply", 1.0, 10.0, 0));
  t.spans.push_back(span("pipeline/apply", 11.0, 20.0, 0));
  t.spans.push_back(span("pipeline/apply", 21.0, 30.0, 0));
  return t;
}

// The stages take turns: every apply waits for its aggregate to finish
// first, and the consumer's waiting shows up as prefetch stalls.
obs::TraceSnapshot serialized_trace() {
  obs::TraceSnapshot t;
  t.lanes[0] = "Stage B (apply+flush)";
  t.lanes[1] = "Stage A (aggregate)";
  t.spans.push_back(span("pipeline/aggregate", 0.0, 10.0, 1));
  t.spans.push_back(span("pipeline/aggregate", 22.0, 32.0, 1));
  t.spans.push_back(span("pipeline/apply", 12.0, 21.0, 0));
  t.spans.push_back(span("pipeline/apply", 34.0, 43.0, 0));
  t.spans.push_back(span("pipeline/prefetch_stall", 0.0, 12.0, 0));
  t.spans.push_back(span("pipeline/prefetch_stall", 21.0, 34.0, 0));
  return t;
}

TEST(TraceReport, OverlappedTraceScoresHighAndRecommendsPipelined) {
  const obs::ParsedTrace parsed =
      obs::parse_chrome_trace(export_json(overlapped_trace()));
  const obs::PipelineReport r = obs::analyze_pipeline_trace(parsed);

  EXPECT_NEAR(r.wall_ms, 30.0, 1e-6);
  EXPECT_NEAR(r.aggregate_ms, 30.0, 1e-6);
  EXPECT_NEAR(r.apply_ms, 27.0, 1e-6);
  // 27 of Stage B's 27 busy ms ran under a live aggregate span.
  EXPECT_NEAR(r.overlap_ms, 27.0, 1e-6);
  EXPECT_GT(r.overlap_fraction, 0.95);
  // No stall spans at all: the stages are balanced.
  EXPECT_EQ(r.bottleneck, "balanced");
  EXPECT_DOUBLE_EQ(r.backpressure_ms, 0.0);
  EXPECT_DOUBLE_EQ(r.prefetch_ms, 0.0);
  // Serial would pay 30 + 27 = 57 ms against the measured 30 ms wall.
  EXPECT_NEAR(r.serial_estimate_ms, 57.0, 1e-6);
  EXPECT_GT(r.speedup, 1.5);
  EXPECT_EQ(r.recommendation, "pipelined");

  // Lane stats: both stage lanes present, named, near-full utilization.
  ASSERT_EQ(r.lanes.size(), 2u);
  for (const obs::LaneStat& lane : r.lanes) {
    EXPECT_TRUE(lane.name == "Stage A (aggregate)" ||
                lane.name == "Stage B (apply+flush)");
    EXPECT_GT(lane.utilization, 0.85);
  }
}

TEST(TraceReport, SerializedTraceScoresLowAndRecommendsSerial) {
  const obs::ParsedTrace parsed =
      obs::parse_chrome_trace(export_json(serialized_trace()));
  const obs::PipelineReport r = obs::analyze_pipeline_trace(parsed);

  EXPECT_NEAR(r.wall_ms, 43.0, 1e-6);
  EXPECT_NEAR(r.aggregate_ms, 20.0, 1e-6);
  EXPECT_NEAR(r.apply_ms, 18.0, 1e-6);
  // The stages never ran concurrently.
  EXPECT_NEAR(r.overlap_ms, 0.0, 1e-6);
  EXPECT_LT(r.overlap_fraction, 0.05);
  // All stall time is the consumer starving on an empty queue.
  EXPECT_NEAR(r.prefetch_ms, 25.0, 1e-6);
  EXPECT_EQ(r.prefetch_count, 2u);
  EXPECT_DOUBLE_EQ(r.backpressure_ms, 0.0);
  EXPECT_EQ(r.bottleneck, "aggregate-bound");
  // Serial would pay 38 ms against the measured 43 ms wall: the pipeline
  // lost, and the verdict says so.
  EXPECT_NEAR(r.serial_estimate_ms, 38.0, 1e-6);
  EXPECT_LT(r.speedup, 0.95);
  EXPECT_EQ(r.recommendation, "serial");

  // Stall spans do not count toward lane busy time.
  for (const obs::LaneStat& lane : r.lanes) {
    if (lane.name == "Stage B (apply+flush)") {
      EXPECT_NEAR(lane.busy_ms, 18.0, 1e-6);
    }
  }
}

TEST(TraceReport, ReportJsonCarriesSchemaAndVerdictFields) {
  const obs::PipelineReport r = obs::analyze_pipeline_trace(
      obs::parse_chrome_trace(export_json(overlapped_trace())));
  std::ostringstream os;
  obs::write_pipeline_report_json(os, r);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"pipeline_report\""), std::string::npos);
  EXPECT_NE(json.find("\"overlap_fraction\""), std::string::npos);
  EXPECT_NE(json.find("\"bottleneck\": \"balanced\""), std::string::npos);
  EXPECT_NE(json.find("\"recommendation\": \"pipelined\""),
            std::string::npos);
  EXPECT_NE(json.find("\"Stage A (aggregate)\""), std::string::npos);
}

TEST(TraceReport, NestedPathsStillMatchStageLeaves) {
  // The simulator's spans nest under sim/run, so the recorded paths are
  // "sim/run/pipeline/apply" etc. — suffix matching must still bucket
  // them.
  obs::TraceSnapshot t;
  t.spans.push_back(span("sim/run/pipeline/aggregate", 0.0, 10.0, 1));
  t.spans.push_back(span("sim/run/pipeline/apply", 1.0, 10.0, 0));
  const obs::PipelineReport r = obs::analyze_pipeline_trace(
      obs::parse_chrome_trace(export_json(t)));
  EXPECT_NEAR(r.aggregate_ms, 10.0, 1e-6);
  EXPECT_NEAR(r.apply_ms, 9.0, 1e-6);
  EXPECT_NE(r.recommendation, "no-pipeline");
  // A name that merely ends with the words must NOT match.
  obs::TraceSnapshot bad;
  bad.spans.push_back(span("notpipeline/apply", 0.0, 10.0, 0));
  const obs::PipelineReport rb = obs::analyze_pipeline_trace(
      obs::parse_chrome_trace(export_json(bad)));
  EXPECT_EQ(rb.recommendation, "no-pipeline");
}

TEST(TraceReport, TraceWithoutPipelineSpansIsNoPipeline) {
  obs::TraceSnapshot t;
  t.spans.push_back(span("sim/run", 0.0, 100.0, 0));
  t.spans.push_back(span("pipeline/flush", 5.0, 6.0, 0));  // serial mode
  const obs::PipelineReport r = obs::analyze_pipeline_trace(
      obs::parse_chrome_trace(export_json(t)));
  EXPECT_EQ(r.bottleneck, "no-pipeline");
  EXPECT_EQ(r.recommendation, "no-pipeline");
  EXPECT_DOUBLE_EQ(r.overlap_fraction, 0.0);
}

TEST(TraceReport, EmptyTraceIsNoPipeline) {
  const obs::PipelineReport r = obs::analyze_pipeline_trace(
      obs::parse_chrome_trace(export_json(obs::TraceSnapshot{})));
  EXPECT_EQ(r.recommendation, "no-pipeline");
  EXPECT_DOUBLE_EQ(r.wall_ms, 0.0);
}

TEST(TraceReport, CounterAndWindowEventsAreCounted) {
  obs::TraceSnapshot t;
  t.spans.push_back(span("pipeline/aggregate", 0.0, 1.0, 1));
  t.spans.push_back(span("pipeline/apply", 1.0, 2.0, 0));
  t.counters.push_back({"pipeline/queue_depth", 0.5, 1.0});
  t.counters.push_back({"pipeline/windows_aggregated", 1.0, 1.0});
  t.counters.push_back({"pipeline/windows_aggregated", 2.0, 2.0});
  t.counters.push_back({"pipeline/windows_applied", 2.5, 1.0});
  const obs::ParsedTrace parsed = obs::parse_chrome_trace(export_json(t));
  // C events survive parsing with their values.
  std::size_t c_events = 0;
  for (const auto& e : parsed.events)
    if (e.ph == 'C') ++c_events;
  EXPECT_EQ(c_events, 4u);
  const obs::PipelineReport r = obs::analyze_pipeline_trace(parsed);
  // Window counts are the stage span counts.
  EXPECT_EQ(r.windows_aggregated, 1u);
  EXPECT_EQ(r.windows_applied, 1u);
}

TEST(TraceReport, TruncationMarkerSurvivesRoundTrip) {
  obs::TraceSnapshot t;
  t.spans.push_back(span("pipeline/aggregate", 0.0, 1.0, 1));
  t.dropped_spans = 7;
  const obs::ParsedTrace parsed = obs::parse_chrome_trace(export_json(t));
  EXPECT_TRUE(parsed.truncated);
  EXPECT_TRUE(obs::analyze_pipeline_trace(parsed).truncated);
}

TEST(TraceReport, MalformedJsonThrows) {
  EXPECT_THROW(obs::parse_chrome_trace("not json at all"),
               util::CheckFailure);
  EXPECT_THROW(obs::parse_chrome_trace("{\"events\": []}"),
               util::CheckFailure);
  // An X event missing its dur must be rejected, not silently zeroed.
  EXPECT_THROW(
      obs::parse_chrome_trace("{\"traceEvents\": [\n"
                              "  {\"name\": \"a\", \"ph\": \"X\", "
                              "\"ts\": 1.0, \"pid\": 0, \"tid\": 0}\n"
                              "]}\n"),
      util::CheckFailure);
}

}  // namespace
