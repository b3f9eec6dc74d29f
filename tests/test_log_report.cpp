#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "rtv/base/log.hpp"
#include "rtv/verify/report.hpp"

namespace rtv {
namespace {

TEST(Log, LevelGating) {
  const LogLevel prev = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold macro bodies are not evaluated.
  int evaluated = 0;
  RTV_DEBUG << "never " << ++evaluated;
  EXPECT_EQ(evaluated, 0);
  set_log_level(LogLevel::kDebug);
  RTV_DEBUG << "yes " << ++evaluated;
  EXPECT_EQ(evaluated, 1);
  set_log_level(prev);
}

TEST(Log, FirstLineOfAProcessShowsANonNegativeUptime) {
  // The threadsafe style re-executes the test binary, so the child's line
  // is the first of its process: the one that initialises the epoch.  An
  // uptime read before that initialisation wraps to +18446744073.710s.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        set_log_level(LogLevel::kWarn);
        log_line(LogLevel::kWarn, "first line");
        std::exit(0);
      },
      ::testing::ExitedWithCode(0),
      "\\[rtv WARN  \\+[0-9]{1,3}\\.[0-9]{3}s .*\\] first line");
}

TEST(Report, TableAlignsColumns) {
  ExperimentRow a;
  a.name = "short";
  a.verdict = Verdict::kVerified;
  a.seconds = 1.5;
  a.refinements = 3;
  a.states = 42;
  ExperimentRow b;
  b.name = "a much longer experiment name here";
  b.verdict = Verdict::kViolated;
  const std::string t = format_table({a, b});
  EXPECT_NE(t.find("VERIFIED"), std::string::npos);
  EXPECT_NE(t.find("VIOLATED"), std::string::npos);
  EXPECT_NE(t.find("1.500 s"), std::string::npos);
  EXPECT_NE(t.find("42"), std::string::npos);
  // Header present.
  EXPECT_NE(t.find("Experiment"), std::string::npos);
}

TEST(Report, TableNameColumnFitsLongNames) {
  // A name past the old fixed 44-character column must not run into the
  // verdict: the column sizes to its content, like the suite table.
  ExperimentRow r;
  r.name = "4. Ain || I || Aout <= Ain (fixed point) [discrete]";
  r.verdict = Verdict::kVerified;
  ExperimentRow other;
  other.name = "1. Ain || Aout |= S [refine]";
  other.verdict = Verdict::kVerified;
  const std::string t = format_table({r, other});
  EXPECT_NE(t.find(r.name + "  VERIFIED"), std::string::npos) << t;
  EXPECT_EQ(t.find("]VERIFIED"), std::string::npos) << t;
  // Every row starts its verdict in the header's column.
  std::istringstream lines(t);
  std::string header, rule, row;
  std::getline(lines, header);
  std::getline(lines, rule);
  const std::size_t column = header.find("Verdict");
  while (std::getline(lines, row))
    EXPECT_EQ(row.compare(column, 8, "VERIFIED"), 0) << t;
}

TEST(Report, TableRendersInconclusiveRows) {
  ExperimentRow r;
  r.name = "budget-limited run";
  r.verdict = Verdict::kInconclusive;
  r.seconds = 0.25;
  const std::string t = format_table({r});
  EXPECT_NE(t.find("INCONCLUSIVE"), std::string::npos);
  EXPECT_NE(t.find("budget-limited run"), std::string::npos);
  EXPECT_NE(t.find("0.250 s"), std::string::npos);
}

TEST(Report, TableWithNoRowsIsHeaderOnly) {
  const std::string t = format_table(std::vector<ExperimentRow>{});
  EXPECT_NE(t.find("Experiment"), std::string::npos);
  EXPECT_NE(t.find("Verdict"), std::string::npos);
  EXPECT_EQ(t.find("VERIFIED"), std::string::npos);
  EXPECT_EQ(t.find("INCONCLUSIVE"), std::string::npos);
  // Exactly the header line and its rule.
  EXPECT_EQ(std::count(t.begin(), t.end(), '\n'), 2);
}

TEST(Report, SummarizeEngineResultPullsRefineStats) {
  EngineResult r;
  r.verdict = Verdict::kVerified;
  r.seconds = 0.5;
  r.states_explored = 999;
  RefineEngineStats st;
  st.refinements = 4;
  st.composed_states = 123;
  r.stats = st;
  const ExperimentRow row = summarize("refined", r);
  EXPECT_EQ(row.refinements, 4);
  EXPECT_EQ(row.states, 123u);

  EngineResult zone;
  zone.verdict = Verdict::kInconclusive;
  zone.states_explored = 55;
  zone.stats = ZoneEngineStats{11};
  const ExperimentRow zrow = summarize("zoned", zone);
  EXPECT_EQ(zrow.refinements, 0);
  EXPECT_EQ(zrow.states, 55u);
  EXPECT_EQ(zrow.verdict, Verdict::kInconclusive);
}

TEST(Report, SuiteReportTableHandlesEmptyAndInconclusive) {
  SuiteReport empty;
  const std::string t0 = format_table(empty);
  EXPECT_NE(t0.find("Obligation"), std::string::npos);
  EXPECT_NE(t0.find("overall: VERIFIED"), std::string::npos);

  SuiteReport report;
  SuiteRecord rec;
  rec.obligation = "stuck";
  rec.engine = "discrete";
  rec.result.verdict = Verdict::kInconclusive;
  rec.result.truncated_reason = stop_reason::kDeadline;
  report.records.push_back(rec);
  const std::string t1 = format_table(report);
  EXPECT_NE(t1.find("INCONCLUSIVE"), std::string::npos);
  EXPECT_NE(t1.find(stop_reason::kDeadline), std::string::npos);
  EXPECT_NE(t1.find("overall: INCONCLUSIVE"), std::string::npos);
}

TEST(Report, EmptyResultFormats) {
  const EngineResult r;
  const std::string s = format_report("empty", r);
  EXPECT_NE(s.find("INCONCLUSIVE"), std::string::npos);
  EXPECT_TRUE(format_constraints(r).empty());
}

TEST(Report, RefineDetailFormats) {
  EngineResult r;
  r.verdict = Verdict::kVerified;
  RefineEngineStats st;
  st.refinements = 1;
  st.composed_states = 17;
  RefinementRecord rec;
  rec.iteration = 1;
  rec.failure = "deadlock";
  rec.orderings = {{"a", "b"}, {"a", "b"}};
  st.records.push_back(rec);
  r.stats = st;
  const std::string s = format_report("refined", r);
  EXPECT_NE(s.find("refinements:  1"), std::string::npos) << s;
  EXPECT_NE(s.find("composed:     17 states"), std::string::npos) << s;
  EXPECT_NE(s.find("constraint: a before b"), std::string::npos) << s;
  // The constraints are deduplicated.
  EXPECT_EQ(format_constraints(r), "a before b\n");
}

TEST(Report, VerdictNames) {
  EXPECT_STREQ(to_string(Verdict::kVerified), "VERIFIED");
  EXPECT_STREQ(to_string(Verdict::kViolated), "VIOLATED");
  EXPECT_STREQ(to_string(Verdict::kInconclusive), "INCONCLUSIVE");
}

TEST(Report, EventKindNames) {
  EXPECT_STREQ(to_string(EventKind::kInput), "input");
  EXPECT_STREQ(to_string(EventKind::kOutput), "output");
  EXPECT_STREQ(to_string(EventKind::kInternal), "internal");
}

}  // namespace
}  // namespace rtv
