#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>

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

TEST(Report, TableAlignsColumnsAndFitsLongNames) {
  // Columns size to their content, so a long name cannot run into the
  // engine or the verdict.  States is states_explored for every engine
  // (the JSON `states`), never the refine engine's composed-state count;
  // Refinements is `-` without RefineEngineStats.
  SuiteRecord refined;
  refined.obligation = "4. Ain || I || Aout <= Ain (fixed point)";
  refined.engine = "refine";
  refined.result.verdict = Verdict::kVerified;
  refined.result.seconds = 1.5;
  refined.result.states_explored = 42;
  RefineEngineStats st;
  st.refinements = 3;
  st.composed_states = 123;
  refined.result.stats = st;
  SuiteRecord zoned;
  zoned.obligation = "1. Ain || Aout |= S";
  zoned.engine = "zone";
  zoned.result.verdict = Verdict::kViolated;
  zoned.result.states_explored = 55;
  zoned.result.discrete_states = 11;
  SuiteReport report;
  report.records = {refined, zoned};

  const std::string t = format_table(report);
  EXPECT_NE(t.find(refined.obligation + "  refine"), std::string::npos) << t;
  EXPECT_NE(t.find("1.500 s"), std::string::npos) << t;
  EXPECT_EQ(t.find("123"), std::string::npos) << t;
  std::istringstream lines(t);
  std::string header, rule, first, second;
  std::getline(lines, header);
  std::getline(lines, rule);
  std::getline(lines, first);
  std::getline(lines, second);
  const std::size_t verdict = header.find("Verdict");
  const std::size_t states = header.find("States");
  const std::size_t refinements = header.find("Refinements");
  ASSERT_NE(refinements, std::string::npos) << t;
  EXPECT_EQ(header.rfind("Obligation", 0), 0u) << t;
  EXPECT_EQ(first.compare(verdict, 8, "VERIFIED"), 0) << t;
  EXPECT_EQ(second.compare(verdict, 8, "VIOLATED"), 0) << t;
  EXPECT_EQ(first.compare(states, 3, "42 "), 0) << t;
  EXPECT_EQ(second.compare(states, 3, "55 "), 0) << t;
  EXPECT_EQ(first.compare(refinements, 2, "3 "), 0) << t;
  EXPECT_EQ(second.compare(refinements, 2, "- "), 0) << t;
}

TEST(Report, SuiteReportTableHandlesEmptyAndInconclusive) {
  SuiteReport empty;
  const std::string t0 = format_table(empty);
  EXPECT_NE(t0.find("Obligation"), std::string::npos);
  EXPECT_NE(t0.find("Verdict"), std::string::npos);
  EXPECT_NE(t0.find("overall: VERIFIED"), std::string::npos);
  EXPECT_EQ(t0.find("INCONCLUSIVE"), std::string::npos);
  // Exactly the header line, its rule and the roll-up.
  EXPECT_EQ(std::count(t0.begin(), t0.end(), '\n'), 3);

  SuiteReport report;
  SuiteRecord rec;
  rec.obligation = "budget-limited run";
  rec.engine = "discrete";
  rec.result.verdict = Verdict::kInconclusive;
  rec.result.seconds = 0.25;
  rec.result.truncated_reason = stop_reason::kDeadline;
  report.records.push_back(rec);
  const std::string t1 = format_table(report);
  EXPECT_NE(t1.find("budget-limited run"), std::string::npos);
  EXPECT_NE(t1.find("INCONCLUSIVE"), std::string::npos);
  EXPECT_NE(t1.find("0.250 s"), std::string::npos);
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
  st.refinements = 2;
  st.composed_states = 17;
  // Iteration 1 banned a window; iteration 2 only activated orderings, so
  // it must not print a ban line.
  RefinementRecord banned;
  banned.iteration = 1;
  banned.failure = "persistency violated: x disabled by y";
  banned.used_window = true;
  banned.window_labels = {"u", "x"};
  banned.anchor = "state s3";
  st.records.push_back(banned);
  RefinementRecord rec;
  rec.iteration = 2;
  rec.failure = "deadlock";
  rec.orderings = {{"a", "b"}, {"a", "b"}};
  st.records.push_back(rec);
  r.stats = st;
  const std::string s = format_report("refined", r);
  EXPECT_NE(s.find("refinements:  2"), std::string::npos) << s;
  EXPECT_NE(s.find("composed:     17 states"), std::string::npos) << s;
  EXPECT_NE(s.find("constraint: a before b"), std::string::npos) << s;
  const std::size_t first = s.find("banned [u x] anchored at state s3");
  ASSERT_NE(first, std::string::npos) << s;
  EXPECT_LT(first, s.find("iter   2")) << s;
  EXPECT_EQ(s.find("banned", first + 1), std::string::npos) << s;
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
