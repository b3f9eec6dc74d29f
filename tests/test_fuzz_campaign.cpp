// Differential campaign end-to-end: a deliberately lying engine must be
// caught and auto-minimized, broken counterexample traces, throwing
// engines and verdicts that flip under slicing must surface as failures,
// and case-limited campaigns must be bit-reproducible (fingerprint
// contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtv/base/json.hpp"
#include "rtv/fuzz/campaign.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/verify/engine.hpp"
#include "rtv/verify/suite.hpp"

namespace rtv::fuzz {
namespace {

/// An engine that always claims kVerified — a stand-in for a soundness bug
/// that misses violations.  The campaign oracle must flag it the first
/// time an honest engine proves a violation.
class AlwaysVerifiedEngine : public Engine {
 public:
  std::string_view name() const override { return "liar_verified"; }
  std::string_view description() const override {
    return "test double: claims every obligation verified";
  }
  EngineResult run(const EngineRequest&) const override {
    EngineResult r;
    r.verdict = Verdict::kVerified;
    r.message = "liar";
    return r;
  }
};

/// An engine that claims kViolated with a counterexample that cannot
/// replay (unknown label).  Exercises the trace-replay oracle.
class BogusTraceEngine : public Engine {
 public:
  std::string_view name() const override { return "liar_trace"; }
  std::string_view description() const override {
    return "test double: fabricates non-replayable counterexamples";
  }
  EngineResult run(const EngineRequest&) const override {
    EngineResult r;
    r.verdict = Verdict::kViolated;
    r.trace_labels = {"no_such_event"};
    return r;
  }
};

class ThrowingEngine : public Engine {
 public:
  std::string_view name() const override { return "liar_throw"; }
  std::string_view description() const override {
    return "test double: raises instead of answering";
  }
  EngineResult run(const EngineRequest&) const override {
    throw std::runtime_error("injected engine defect");
  }
};

/// An engine whose verdict depends on whether the first padding toggler
/// is in its composition: kVerified when the slice dropped it, kViolated
/// (no trace) when it is composed in — a stand-in for a slicer that drops
/// a module the verdict depends on.
class PaddingSensitiveEngine : public Engine {
 public:
  std::string_view name() const override { return "liar_padding"; }
  std::string_view description() const override {
    return "test double: violated exactly when padding is composed in";
  }
  EngineResult run(const EngineRequest& req) const override {
    EngineResult r;
    r.verdict = req.composition->ts.event_by_label("pad0_a").valid()
                    ? Verdict::kViolated
                    : Verdict::kVerified;
    return r;
  }
};

/// Labels of a shortest path from the initial state to the first state,
/// in BFS order, where an output is refused, followed by that refused
/// label; nullopt when the composition refuses nothing.
std::optional<std::vector<std::string>> trace_to_refusal(
    const Composition& comp) {
  const TransitionSystem& ts = comp.ts;
  std::vector<std::int64_t> parent(ts.num_states(), -2);
  std::vector<EventId> via(ts.num_states());
  std::deque<StateId> queue{ts.initial()};
  parent[ts.initial().value()] = -1;
  while (!queue.empty()) {
    const StateId s = queue.front();
    queue.pop_front();
    const auto chokes = comp.index().chokes_at(s);
    if (!chokes.empty()) {
      std::vector<std::string> labels{ts.label(chokes.front().event)};
      for (std::int64_t cur = s.value(); parent[cur] >= 0;
           cur = parent[cur])
        labels.insert(labels.begin(), ts.label(via[cur]));
      return labels;
    }
    for (const Transition& t : ts.transitions_from(s)) {
      if (parent[t.target.value()] != -2) continue;
      parent[t.target.value()] = s.value();
      via[t.target.value()] = t.event;
      queue.push_back(t.target);
    }
  }
  return std::nullopt;
}

/// An engine that claims kViolated with a trace into a refusal: a path to
/// a state where one module offers an output a partner refuses, then that
/// output.  Ending there is a genuine choke counterexample and replays;
/// `keep_going` fires the refused label once more, so the trace names a
/// synchronised label its modules cannot fire together mid-trace.
/// kInconclusive when the composition refuses nothing.
class RefusalTraceEngine : public Engine {
 public:
  RefusalTraceEngine(std::string_view name, bool keep_going)
      : name_(name), keep_going_(keep_going) {}
  std::string_view name() const override { return name_; }
  std::string_view description() const override {
    return "test double: counterexamples that end on a refused output";
  }
  EngineResult run(const EngineRequest& req) const override {
    EngineResult r;
    auto labels = trace_to_refusal(*req.composition);
    if (!labels) return r;
    if (keep_going_) labels->push_back(labels->back());
    r.verdict = Verdict::kViolated;
    r.trace_labels = std::move(*labels);
    return r;
  }

 private:
  std::string_view name_;
  bool keep_going_;
};

class FuzzCampaign : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    register_engine(std::make_unique<AlwaysVerifiedEngine>());
    register_engine(std::make_unique<BogusTraceEngine>());
    register_engine(std::make_unique<ThrowingEngine>());
    register_engine(std::make_unique<PaddingSensitiveEngine>());
    register_engine(
        std::make_unique<RefusalTraceEngine>("liar_refusal", false));
    register_engine(
        std::make_unique<RefusalTraceEngine>("liar_past_refusal", true));
  }
};

/// Run cases of campaign seed 3 with `engine` alone until one gets a
/// definitive verdict (the engine found a refusal to trace into).
std::optional<CaseResult> first_definitive_case(const std::string& engine) {
  CampaignOptions opt;
  opt.engines = {engine};
  opt.minimize = false;
  GeneratorConfig config;
  config.share_p = 0.8;  // shared labels make refusals common
  for (std::size_t i = 0; i < 50; ++i) {
    CaseResult res = run_case(case_seed(3, i), config, opt);
    if (res.definitive > 0) return res;
  }
  return std::nullopt;
}

TEST_F(FuzzCampaign, InjectedUnsoundEngineIsCaughtAndMinimized) {
  CampaignOptions opt;
  opt.seed = 1;
  opt.cases = 40;
  opt.engines = {"zone", "liar_verified"};
  opt.minimize = true;

  const CampaignReport report = run_campaign(opt);
  ASSERT_FALSE(report.ok())
      << "an engine that never reports violations must disagree within "
      << opt.cases << " default-config cases";
  const CampaignFailure& f = report.failures.front();
  EXPECT_EQ(f.kind, FailureKind::kDisagreement);
  EXPECT_EQ(f.verdicts.size(), 2u);

  // The minimizer may only shrink, and the reproducer it emits must still
  // fail when replayed standalone from (seed, minimized config).
  EXPECT_LE(config_size(f.minimized), config_size(f.config));
  CampaignOptions replay = opt;
  replay.minimize = false;
  const CaseResult again = run_case(f.seed, f.minimized, replay);
  ASSERT_TRUE(again.failure.has_value());
  EXPECT_EQ(again.failure->kind, FailureKind::kDisagreement);
}

TEST_F(FuzzCampaign, NonReplayableTraceIsAFailure) {
  CampaignOptions opt;
  opt.engines = {"liar_trace"};
  opt.minimize = false;
  const CaseResult res = run_case(case_seed(3, 0), GeneratorConfig{}, opt);
  ASSERT_TRUE(res.failure.has_value());
  EXPECT_EQ(res.failure->kind, FailureKind::kBadTrace);
  EXPECT_NE(res.failure->detail.find("no_such_event"), std::string::npos);
}

TEST_F(FuzzCampaign, TraceThroughARefusedSynchronisedLabelIsABadTrace) {
  const std::optional<CaseResult> res =
      first_definitive_case("liar_past_refusal");
  ASSERT_TRUE(res.has_value()) << "no generated case refuses an output";
  ASSERT_TRUE(res->failure.has_value());
  EXPECT_EQ(res->failure->kind, FailureKind::kBadTrace);
  EXPECT_NE(res->failure->detail.find("trace breaks at step"),
            std::string::npos)
      << res->failure->detail;
}

TEST_F(FuzzCampaign, TraceEndingOnARefusedOutputReplays) {
  const std::optional<CaseResult> res = first_definitive_case("liar_refusal");
  ASSERT_TRUE(res.has_value()) << "no generated case refuses an output";
  EXPECT_FALSE(res->failure.has_value()) << res->failure->detail;
  EXPECT_EQ(res->traces_replayed, 1u);
}

/// The reference replay: the walk through compose()'s product that the
/// module walk stands in for, with the same verdicts and messages.
bool replays_composed(const Composition& comp,
                      const std::vector<std::string>& labels,
                      std::string& why) {
  StateId cur = comp.ts.initial();
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const EventId e = comp.ts.event_by_label(labels[i]);
    if (!e.valid()) {
      why = "trace step " + std::to_string(i) + " names unknown label '" +
            labels[i] + "'";
      return false;
    }
    const auto succ = comp.ts.successor(cur, e);
    if (!succ) {
      if (i + 1 == labels.size()) return true;
      why = "trace breaks at step " + std::to_string(i) + " ('" + labels[i] +
            "' has no composed transition)";
      return false;
    }
    cur = *succ;
  }
  return true;
}

TEST(FuzzReplay, ModuleWalkAgreesWithComposedWalk) {
  // Every counterexample the three engines report on generated scenarios,
  // and every one-label substitution of it (each composed label and one
  // unknown label at each step), replays the same way through the modules
  // as through their composition: same verdict, same message.
  GeneratorConfig config;
  config.properties = 2;
  config.share_p = 0.5;
  std::size_t traces = 0, mutants = 0, broken = 0;
  for (std::size_t i = 0; i < 40; ++i) {
    const Scenario sc = generate(case_seed(17, i), config);
    const std::vector<const Module*> modules = sc.module_ptrs();
    ComposeOptions co;
    co.track_chokes = true;
    const Composition comp = compose(modules, co);
    std::vector<std::string> alphabet{"no_such_label"};
    for (std::size_t e = 0; e < comp.ts.num_events(); ++e)
      alphabet.push_back(
          comp.ts.label(EventId(static_cast<EventId::underlying_type>(e))));

    Suite suite;
    suite.add(sc.name, modules, sc.property_ptrs());
    SuiteOptions so;
    so.mode = SuiteMode::kBatch;
    so.engines = {"refine", "zone", "discrete"};
    so.budget.max_states = 20'000;
    for (const SuiteRecord& rec : run_suite(suite, so).records) {
      if (!rec.result.violated() || rec.result.trace_labels.empty()) continue;
      ++traces;
      const std::vector<std::string>& trace = rec.result.trace_labels;
      const auto agree = [&](const std::vector<std::string>& labels) {
        std::string why_modules, why_composed;
        const bool a = replays(modules, labels, why_modules);
        const bool b = replays_composed(comp, labels, why_composed);
        EXPECT_EQ(a, b) << sc.describe();
        EXPECT_EQ(why_modules, why_composed) << sc.describe();
        return a;
      };
      EXPECT_TRUE(agree(trace)) << rec.engine << " on " << sc.describe();
      for (std::size_t k = 0; k < trace.size(); ++k) {
        for (const std::string& label : alphabet) {
          if (label == trace[k]) continue;
          std::vector<std::string> mutant = trace;
          mutant[k] = label;
          ++mutants;
          if (!agree(mutant)) ++broken;
        }
      }
    }
  }
  // The sweep must exercise both outcomes.
  EXPECT_GT(traces, 10u);
  EXPECT_GT(broken, 0u);
  EXPECT_LT(broken, mutants);
}

TEST_F(FuzzCampaign, ThrowingEngineIsAFailure) {
  CampaignOptions opt;
  opt.engines = {"discrete", "liar_throw"};
  opt.minimize = false;
  const CaseResult res = run_case(case_seed(3, 1), GeneratorConfig{}, opt);
  ASSERT_TRUE(res.failure.has_value());
  EXPECT_EQ(res.failure->kind, FailureKind::kEngineError);
}

TEST_F(FuzzCampaign, VerdictThatFlipsUnslicedIsASliceMismatch) {
  // The padding is outside every cone, so the suite slices it away and the
  // engine answers kVerified; the unsliced rerun composes it back in and
  // gets kViolated.  A rerun that reused the sliced front end would verify
  // the sliced modules again and never see the flip.
  CampaignOptions opt;
  opt.seed = 5;
  opt.cases = 10;
  opt.config.padding_modules = 1;
  opt.engines = {"liar_padding"};
  opt.minimize = false;
  const CampaignReport report = run_campaign(opt);
  ASSERT_FALSE(report.ok()) << report.to_json();
  for (const CampaignFailure& f : report.failures) {
    EXPECT_EQ(to_string(f.kind), std::string("slice-mismatch")) << f.detail;
    EXPECT_NE(f.detail.find("liar_padding flips VERIFIED (sliced) to "
                            "VIOLATED (unsliced)"),
              std::string::npos)
        << f.detail;
  }
}

TEST_F(FuzzCampaign, CleanCampaignAgreesAcrossAllThreeEngines) {
  CampaignOptions opt;
  opt.seed = 2026;
  opt.cases = 60;
  opt.config.modules = 3;
  opt.config.properties = 2;
  opt.jobs = 2;
  const CampaignReport report = run_campaign(opt);
  EXPECT_TRUE(report.ok()) << report.to_json();
  EXPECT_EQ(report.cases, 60u);
  EXPECT_GT(report.definitive_verdicts, 0u);
}

TEST_F(FuzzCampaign, CaseLimitedCampaignsAreReproducible) {
  CampaignOptions opt;
  opt.seed = 11;
  opt.cases = 30;
  const CampaignReport a = run_campaign(opt);
  const CampaignReport b = run_campaign(opt);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());

  CampaignOptions other = opt;
  other.seed = 12;
  EXPECT_NE(run_campaign(other).fingerprint(), a.fingerprint());

  // Reports parse as JSON and carry the schema header.
  const json::Value parsed = json::parse(a.to_json(), "campaign report");
  EXPECT_EQ(json::require(parsed, "schema", json::Value::Kind::kString,
                          "schema tag", "campaign report")
                .string,
            CampaignReport::kSchemaName);
}

// Minimized reproducers banked from the first real campaigns: each caught
// a genuine refinement-engine soundness bug, fixed in the commit that
// added it here.  All three engines must agree (and replay) forever after.
struct BankedFinding {
  const char* what;
  std::uint64_t seed;
  const char* config_json;
};

TEST_F(FuzzCampaign, BankedFindingsStayFixed) {
  static const BankedFinding kFindings[] = {
      {// Self-loop pending deadlines charged against interned traces +
       // choked outputs anchored at the refusal point (trace_timing.cpp):
       // refine claimed VERIFIED on a reachable refusal.
       "self-loop deadline / choke anchoring", 15632277821397755268ULL,
       R"({"schema":"rtv-fuzz-config","modules":2,"events":1,"max_delay":16,)"
       R"("properties":0,"unbounded_p":0,"share_p":0.3,"point_delays":true,)"
       R"("gates":true,"deadlock_check":false,"persistency_check":false})"},
      {// A [0,0] self-loop pins time at its enabling instant; the blanket
       // self-loop exemption made refine claim a VIOLATED that dense time
       // forbids.
       "zero-deadline self-loop pins time", 1454460304657522376ULL,
       R"({"schema":"rtv-fuzz-config","modules":3,"events":2,"max_delay":1,)"
       R"("properties":0,"unbounded_p":0.1,"share_p":0.3,"point_delays":false,)"
       R"("gates":true,"deadlock_check":false,"persistency_check":false})"},
      {// blocked_by_age substituted -cap_ for an extrapolated (kGapInf)
       // wave gap — unsound for events whose lower bound exceeds the cap
       // (refined_system.cpp): refine pruned a reachable refusal.
       "age-rule gap extrapolation past the cap", 3138098403129281633ULL,
       R"({"schema":"rtv-fuzz-config","modules":2,"events":4,"max_delay":16,)"
       R"("properties":0,"unbounded_p":0.1,"share_p":0.3,"point_delays":false,)"
       R"("gates":false,"deadlock_check":false,"persistency_check":false})"},
  };
  CampaignOptions opt;
  opt.minimize = false;
  for (const BankedFinding& f : kFindings) {
    const GeneratorConfig config = GeneratorConfig::from_json(f.config_json);
    const CaseResult res = run_case(f.seed, config, opt);
    EXPECT_FALSE(res.failure.has_value())
        << f.what << " (seed " << f.seed
        << "): " << (res.failure ? res.failure->detail : "");
    EXPECT_EQ(res.definitive, opt.engines.size()) << f.what;
  }
}

TEST_F(FuzzCampaign, RejectsUnboundedOrUnknownCampaigns) {
  CampaignOptions no_limit;
  no_limit.cases = 0;
  no_limit.seconds = 0.0;
  EXPECT_THROW(run_campaign(no_limit), std::invalid_argument);

  CampaignOptions unknown;
  unknown.cases = 1;
  unknown.engines = {"zone", "no_such_engine"};
  EXPECT_THROW(run_campaign(unknown), std::invalid_argument);
}

}  // namespace
}  // namespace rtv::fuzz
