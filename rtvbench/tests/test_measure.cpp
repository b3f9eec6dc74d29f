// Tests of the benchmark's measurement rules (src/measure.hpp).
#include "measure.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rtvbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankOnUnsortedInput) {
  const std::vector<double> v = one_to(100);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(Percentile, SamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(0, 0.9), 0u);
}

TEST(Tail, HighestPercentileWithTenSamplesBeyond) {
  Tail t = tail(one_to(1000));
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.n, 1000u);

  // 999 samples leave only nine beyond p99; p95 leaves 49.
  t = tail(one_to(999));
  EXPECT_DOUBLE_EQ(t.q, 0.95);
  EXPECT_DOUBLE_EQ(t.value, 950.0);

  t = tail(one_to(100));
  EXPECT_DOUBLE_EQ(t.q, 0.9);
  EXPECT_DOUBLE_EQ(t.value, 90.0);
}

TEST(Tail, FewSamplesReportTheMaximum) {
  const Tail t = tail(one_to(99));
  EXPECT_DOUBLE_EQ(t.q, 1.0);
  EXPECT_DOUBLE_EQ(t.value, 99.0);
  EXPECT_EQ(t.n, 99u);
  EXPECT_DOUBLE_EQ(tail({}).value, 0.0);
}

TEST(Passes, LowerQuartileOfThePasses) {
  // Ten passes report the third fastest, four or fewer the fastest.
  EXPECT_DOUBLE_EQ(pass_value(one_to(10)), 3.0);
  EXPECT_DOUBLE_EQ(pass_value({4.0, 1.0, 3.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(pass_value({2.0}), 2.0);
  EXPECT_DOUBLE_EQ(pass_value({}), 0.0);
}

TEST(Passes, ABurstOverMostPassesLeavesTheValue) {
  // Seven of ten passes slowed 2-5x by a burst of host load: the value
  // still comes from the undisturbed passes.
  const std::vector<double> v = {1.0, 2.4, 4.8, 1.1, 3.0,
                                 5.1, 1.05, 2.2, 2.9, 4.0};
  EXPECT_DOUBLE_EQ(pass_value(v), 1.1);
  EXPECT_DOUBLE_EQ(median(v), 2.65);
}

TEST(Ratio, CarriesItsBase) {
  const Ratio r{31.0, 50.0};
  EXPECT_DOUBLE_EQ(r.value(), 0.62);
  EXPECT_EQ(r.str(), "0.6200 (31/50)");
  EXPECT_DOUBLE_EQ((Ratio{0.0, 0.0}).value(), 0.0);
  EXPECT_EQ((Ratio{0.0, 0.0}).str(), "0.0000 (0/0)");
}

Span span(const char* layer, std::uint64_t b, std::uint64_t e,
          std::int64_t parent) {
  return Span{"x", layer, b, e, parent, 1, 0};
}

TEST(Spans, CoveredMergesOverlapsAndClips) {
  EXPECT_EQ(covered_ns({{10, 20}, {15, 30}, {40, 50}}, 0, 100), 30u);
  EXPECT_EQ(covered_ns({{10, 20}, {15, 30}, {40, 50}}, 12, 45), 23u);
  EXPECT_EQ(covered_ns({}, 0, 100), 0u);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  // root [0,100) bench; two overlapping children in suite; a grandchild in
  // zone under the first child.
  const std::vector<Span> spans = {
      span("bench", 0, 100, -1),
      span("suite", 10, 50, 0),
      span("suite", 40, 70, 0),
      span("zone", 20, 30, 1),
  };
  const auto self = self_seconds(spans);
  EXPECT_NEAR(self.at("bench"), 40e-9, 1e-15);  // 100 - |[10,70)|
  EXPECT_NEAR(self.at("suite"), 60e-9, 1e-15);  // (40 - 10) + 30
  EXPECT_NEAR(self.at("zone"), 10e-9, 1e-15);
}

TEST(Spans, EngineSpansEndWithTheirCallAndLeaveItsSelfTime) {
  SpanLog log;
  const std::int64_t call = log.add(span("serve", 100, 200, -1));
  // Two engines side by side inside the call; the refine run reports more
  // time than the call took and is clipped to it.  A zero run adds none.
  add_engine_span(log, call, 100, 200, 1, "zone", 30e-9);
  add_engine_span(log, call, 100, 200, 1, "refine", 500e-9);
  add_engine_span(log, call, 100, 200, 1, "discrete", 0.0);
  const std::vector<Span> spans = log.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].layer, "zone");
  EXPECT_EQ(spans[1].start_ns, 170u);
  EXPECT_EQ(spans[1].end_ns, 200u);
  EXPECT_EQ(spans[2].layer, "verify");
  EXPECT_EQ(spans[2].start_ns, 100u);
  const auto self = self_seconds(spans);
  EXPECT_NEAR(self.at("serve"), 0.0, 1e-15);
  EXPECT_NEAR(self.at("zone"), 30e-9, 1e-15);
  EXPECT_NEAR(self.at("verify"), 100e-9, 1e-15);
}

TEST(Spans, LogKeepsParentsAndOps) {
  SpanLog log;
  {
    Scoped root(log, "root", "bench", -1, 7);
    Scoped child(log, "child", "ts", root.id(), 7);
  }
  const std::vector<Span> spans = log.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[1].op, 7u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].end_ns, spans[1].end_ns);
}

TEST(Ticks, ResetsSplitSegments) {
  TickSegmenter seg;
  // Composition counts 1..3, then two searches restart from 1, the second
  // after a drop that never reads 1 (its first tick was coalesced away).
  for (std::size_t s : {1, 2, 3}) seg.tick(s, 0.1 * static_cast<double>(s));
  for (std::size_t s : {1, 2, 5}) seg.tick(s, 1.0 + 0.1 * static_cast<double>(s));
  for (std::size_t s : {2, 4}) seg.tick(s, 2.0 + 0.1 * static_cast<double>(s));
  const auto& v = seg.segments();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].last, 3u);
  EXPECT_EQ(v[1].first, 1u);
  EXPECT_EQ(v[1].last, 5u);
  EXPECT_EQ(v[1].ticks, 3u);
  EXPECT_EQ(v[2].first, 2u);
  EXPECT_DOUBLE_EQ(v[2].start_s, 2.2);
}

TEST(Ticks, RefinePhasesFromSegments) {
  TickSegmenter seg;
  seg.tick(1, 0.0);   // compose
  seg.tick(9, 0.2);
  seg.tick(1, 0.3);   // search 1
  seg.tick(6, 0.5);
  seg.tick(1, 0.8);   // search 2 after 0.3 s of trace timing
  seg.tick(4, 0.9);
  const RefinePhases p = refine_phases(seg.segments(), 1.0, 2);
  EXPECT_EQ(p.iterations, 2u);
  EXPECT_EQ(p.states, 10u);
  EXPECT_DOUBLE_EQ(p.compose_s, 0.3);
  EXPECT_NEAR(p.search_s, 0.2 + 0.1 + 0.1, 1e-12);  // plus the final tail
  EXPECT_NEAR(p.between_s, 0.3, 1e-12);
}

TEST(Ticks, NoComposeTicksMeansEverySegmentIsASearch) {
  TickSegmenter seg;
  seg.tick(1, 0.1);
  seg.tick(3, 0.2);
  const RefinePhases p = refine_phases(seg.segments(), 0.25, 1);
  EXPECT_EQ(p.iterations, 1u);
  EXPECT_DOUBLE_EQ(p.compose_s, 0.1);
  EXPECT_EQ(refine_phases({}, 0.5, 1).compose_s, 0.5);
}

}  // namespace
}  // namespace rtvbench
