#include "rtv/ipcmos/experiments.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine_support.hpp"
#include "rtv/circuit/invariants.hpp"

namespace rtv::ipcmos {
namespace {

TEST(IpcmosStage, TransistorBudgetMatchesPaperFormula) {
  // The paper: N = 21 + 7*N_in + 4*N_out; a linear stage has 32.
  const Netlist nl = make_stage_netlist("I1", linear_channels(1));
  EXPECT_EQ(nl.transistor_count(), expected_transistors(1, 1));
  EXPECT_EQ(nl.transistor_count(), 32);

  StageChannels wide;
  wide.valid_in = {"Va", "Vb"};
  wide.ack_out = "A";
  wide.valid_out = {"Vo1", "Vo2", "Vo3"};
  wide.ack_in = {"Ai1", "Ai2", "Ai3"};
  const Netlist nw = make_stage_netlist("W", wide);
  EXPECT_EQ(nw.transistor_count(), expected_transistors(2, 3));
}

TEST(IpcmosStage, InitialStateMatchesPaper) {
  // "Initially the pipeline is empty: all VALID high, CLKE high, ACK low."
  const Module stage = make_stage(1);
  const TransitionSystem& ts = stage.ts();
  const BitVec& v = ts.valuation(ts.initial());
  EXPECT_TRUE(v.test(ts.signal_index("V1")));
  EXPECT_TRUE(v.test(ts.signal_index("V2")));
  EXPECT_TRUE(v.test(ts.signal_index("I1.CLKE")));
  EXPECT_FALSE(v.test(ts.signal_index("A1")));
  EXPECT_FALSE(v.test(ts.signal_index("A2")));
  EXPECT_TRUE(v.test(ts.signal_index("I1.Vint")));
  EXPECT_TRUE(v.test(ts.signal_index("I1.Y")));
}

TEST(IpcmosStage, InterfaceKinds) {
  const Module stage = make_stage(1);
  EXPECT_EQ(stage.kind_of("V1-"), EventKind::kInput);
  EXPECT_EQ(stage.kind_of("A2+"), EventKind::kInput);
  EXPECT_EQ(stage.kind_of("A1+"), EventKind::kOutput);
  EXPECT_EQ(stage.kind_of("V2-"), EventKind::kOutput);
  EXPECT_EQ(stage.kind_of("I1.X+"), EventKind::kInternal);
}

TEST(IpcmosStage, ShortCircuitCandidatesIncludePaperInvariants) {
  const Netlist nl = make_stage_netlist("I1", linear_channels(1));
  const auto candidates = nl.short_circuit_candidates();
  bool y = false, vint = false;
  for (NodeId n : candidates) {
    if (nl.node_name(n) == "I1.Y") y = true;
    if (nl.node_name(n) == "I1.Vint") vint = true;
  }
  EXPECT_TRUE(y) << "invariant (1): short circuit at Y";
  EXPECT_TRUE(vint) << "invariant (2): short circuit at Vint";
}

TEST(IpcmosStage, StrobeSwitchEnablingConditions) {
  // Paper Section 5.1: En(Y+) = !Y & !Z, En(Y-) = Y & ACK.
  const Module stage = make_stage(1);
  const TransitionSystem& ts = stage.ts();
  // From the initial state Y is high and ACK low: no Y event enabled.
  for (EventId e : ts.enabled_events(ts.initial())) {
    EXPECT_NE(ts.label(e), "I1.Y-");
    EXPECT_NE(ts.label(e), "I1.Y+");
  }
}

TEST(IpcmosExperiments, Experiment1NoRefinements) {
  const EngineResult r = experiment(1);
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_EQ(test::refine_stats(r).refinements, 0);
  // Obligations are numbered 1..5, as in Table 1.
  EXPECT_THROW(experiment(0), std::out_of_range);
  EXPECT_THROW(experiment(6), std::out_of_range);
}

TEST(IpcmosExperiments, Experiment2GuaranteesAout) {
  const EngineResult r = experiment(2);
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_GT(test::refine_stats(r).refinements, 0);
}

TEST(IpcmosExperiments, Experiment4FixedPoint) {
  const EngineResult r = experiment(4);
  EXPECT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_GT(test::refine_stats(r).refinements, 0);
}

TEST(IpcmosExperiments, Experiment5BackAnnotatesPaperOrderings) {
  const EngineResult r = experiment(5);
  ASSERT_EQ(r.verdict, Verdict::kVerified);
  EXPECT_GT(test::refine_stats(r).refinements, 0);
  const auto cs = test::refine_stats(r).constraints();
  auto has = [&](const std::string& b, const std::string& a) {
    for (const DerivedOrdering& o : cs)
      if (o.before == b && o.after == a) return true;
    return false;
  };
  // Fig. 13(b): Z+ must be faster than ACK+ (invariant 1).
  EXPECT_TRUE(has("I1.Z+", "A1+"));
  // Fig. 13(c): Y- turns off the pass transistor before CLKE resets Vint.
  EXPECT_TRUE(has("I1.Y-", "I1.CLKE-"));
}

TEST(IpcmosExperiments, ZoneEngineConfirmsExperiment5) {
  const ExperimentConfig cfg;
  const ModuleSet set = flat_pipeline(1, cfg.timing);
  const Netlist nl = make_stage_netlist("I1", linear_channels(1), cfg.timing.stage);
  const auto scs = short_circuit_properties(nl);
  const DeadlockFreedom dead;
  const PersistencyProperty pers;
  std::vector<const SafetyProperty*> props{&dead, &pers};
  for (const auto& p : scs) props.push_back(p.get());
  const EngineResult z = test::decide("zone", set.ptrs, props);
  EXPECT_EQ(z.verdict, Verdict::kVerified) << z.message;
}

TEST(IpcmosExperiments, BrokenTimingIsRejected) {
  // Slowing Y's fall (the isolation after ACK+) breaks invariant (2):
  // CLKE precharges Vint while the pass transistor still conducts.
  ExperimentConfig slow_y;
  slow_y.timing.stage.y_fall = DelayInterval::units(6, 8);
  // Slowing Z's rise past ACK+ breaks invariant (1): the short circuit at
  // Y that Fig. 13(b)'s Z+ before ACK+ avoids.
  ExperimentConfig slow_z;
  slow_z.timing.stage.z_rise = DelayInterval::units(9, 12);
  for (const ExperimentConfig* broken : {&slow_y, &slow_z}) {
    SCOPED_TRACE(broken == &slow_y ? "slow Y-" : "slow Z+");
    const ExperimentConfig& cfg = *broken;
    const EngineResult r = experiment(5, cfg);
    EXPECT_EQ(r.verdict, Verdict::kViolated);

    const ModuleSet set = flat_pipeline(1, cfg.timing);
    const Netlist nl =
        make_stage_netlist("I1", linear_channels(1), cfg.timing.stage);
    const auto scs = short_circuit_properties(nl);
    const DeadlockFreedom dead;
    const PersistencyProperty pers;
    std::vector<const SafetyProperty*> props{&dead, &pers};
    for (const auto& p : scs) props.push_back(p.get());
    const EngineResult z = test::decide("zone", set.ptrs, props);
    EXPECT_TRUE(z.violated());
  }
  // The induction over replicated stages (obligations 3 and 4: base and
  // fixed-point step) must not go through with the slow Z+ either.
  for (const std::size_t n : {3, 4}) {
    SCOPED_TRACE(n);
    const EngineResult r = experiment(n, slow_z);
    EXPECT_EQ(r.verdict, Verdict::kViolated);
    EXPECT_NE(r.message.find("short-circuit at I1.Y"), std::string::npos)
        << r.message;
  }
}

TEST(IpcmosExperiments, SlackBoundariesMatchBackAnnotatedOrderings) {
  // Section 5.3: the back-annotated constraints give the slack a delay may
  // drift by.  Raising one stage delay's upper bound at a time, experiment
  // 5 flips from VERIFIED to VIOLATED where an ordering stops holding:
  //   * Y- [1,hi] must beat CLKE- (lo 3): Fig. 13(c) Y- before CLKE-;
  //   * Z+ [0,hi] must beat ACK+ (lo 8): Fig. 13(b) Z+ before ACK+;
  //   * R- [1,hi] must finish before CLKE+ disables it (persistency).
  struct Boundary {
    DelayInterval StageTiming::*delay;
    double lo, last_ok, first_bad;
    const char* failure;
  };
  const Boundary boundaries[] = {
      {&StageTiming::y_fall, 1, 2.5, 3, "short-circuit at I1.Vint"},
      {&StageTiming::z_rise, 0, 8, 9, "short-circuit at I1.Y"},
      {&StageTiming::r_fall, 1, 4, 5, "persistency violated: I1.R-"},
  };
  for (const Boundary& b : boundaries) {
    SCOPED_TRACE(b.failure);
    ExperimentConfig ok;
    ok.timing.stage.*b.delay = DelayInterval::units(b.lo, b.last_ok);
    EXPECT_EQ(experiment(5, ok).verdict, Verdict::kVerified);

    ExperimentConfig bad;
    bad.timing.stage.*b.delay = DelayInterval::units(b.lo, b.first_bad);
    const EngineResult r = experiment(5, bad);
    EXPECT_EQ(r.verdict, Verdict::kViolated);
    EXPECT_NE(r.message.find(b.failure), std::string::npos) << r.message;
  }
}

TEST(IpcmosExperiments, RunAllProducesFiveRows) {
  const auto rows = run_all_experiments();
  ASSERT_EQ(rows.size(), 5u);
  for (const auto& row : rows) {
    EXPECT_EQ(row.result.verdict, Verdict::kVerified) << row.name;
  }
  // Experiment 1 needs no refinement, the containment and flat checks
  // need tens — the shape of the paper's Table 1, pinned exactly, with the
  // states the last failure search kept and every back-annotated
  // relative timing constraint ("before < after", sorted).
  const int expected[] = {0, 19, 26, 19, 25};
  const std::size_t expected_states[] = {6, 3963, 7757, 3952, 9453};
  const std::vector<std::vector<std::string>> expected_constraints = {
      {},
      {
        "A1- < A2+", "A1- < I1.Z-", "A2- < I1.CLKE-", "I1.A2+ < I1.CLKE-",
        "I1.A2+ < I1.Z-", "I1.A2- < I1.Y+", "I1.CLKE+ < A2-",
        "I1.CLKE+ < I1.Y+", "I1.CLKE- < A1-", "I1.D+ < A2+",
        "I1.D+ < I1.CLKE-", "I1.D- < I1.CLKE+", "I1.D- < I1.Z-", "I1.R+ < A2-",
        "I1.R- < I1.CLKE+", "I1.R- < I1.D-", "I1.R- < I1.Z-", "I1.Vint+ < A2+",
        "I1.Vint+ < A2-", "I1.Vint+ < I1.CLKE+", "I1.X- < I1.D+",
        "I1.X- < I1.Z-", "I1.Y+ < A2-", "I1.Y- < I1.A2+", "I1.Y- < I1.CLKE-",
        "I1.Z+ < A1+", "I1.Z- < A2+", "V1+ < I1.CLKE+", "V1+ < I1.CLKE-",
        "V2+ < I1.CLKE-", "V2- < I1.D+", "V2- < I1.Y+", "V2- < I1.Z-",
      },
      {
        "A1- < I1.Z-", "A1- < V1+", "A2+ < V1+", "A2- < A1+", "A2- < I1.A2+",
        "A2- < V1+", "I1.A2+ < I1.Z-", "I1.A2- < I1.Y+", "I1.CLKE+ < A2-",
        "I1.CLKE+ < I1.Y+", "I1.CLKE+ < V1+", "I1.CLKE+ < V1-",
        "I1.CLKE- < A1-", "I1.CLKE- < V1+", "I1.D+ < A1+", "I1.D+ < V1+",
        "I1.D- < I1.CLKE+", "I1.D- < I1.Z-", "I1.R+ < A2-", "I1.R- < I1.CLKE+",
        "I1.R- < I1.D-", "I1.R- < I1.Z-", "I1.Vint+ < A2-",
        "I1.Vint+ < I1.CLKE+", "I1.Vint+ < V1+", "I1.Vint+ < V1-",
        "I1.Vint- < V1+", "I1.X+ < V1+", "I1.X- < I1.D+", "I1.X- < I1.Z-",
        "I1.Y+ < A2-", "I1.Y+ < V1+", "I1.Y- < I1.A2+", "I1.Y- < I1.CLKE-",
        "I1.Z+ < A1+", "I1.Z+ < V1+", "I1.Z- < A2-", "I1.Z- < V1+",
        "V1+ < A1+", "V1+ < A2-", "V2+ < A2-", "V2+ < I1.A2+", "V2+ < I1.D-",
        "V2+ < V1+", "V2- < I1.D+", "V2- < I1.Y+", "V2- < I1.Z-", "V2- < V1+",
        "V2- < V1-",
      },
      {
        "A1- < A2+", "A1- < I1.Z-", "A2- < I1.CLKE-", "I1.A2+ < I1.CLKE-",
        "I1.A2+ < I1.Z-", "I1.A2- < I1.Y+", "I1.CLKE+ < A2-",
        "I1.CLKE+ < I1.Y+", "I1.CLKE- < A1-", "I1.D+ < A2+",
        "I1.D+ < I1.CLKE-", "I1.D- < I1.CLKE+", "I1.D- < I1.Z-", "I1.R+ < A2-",
        "I1.R- < I1.CLKE+", "I1.R- < I1.D-", "I1.R- < I1.Z-", "I1.Vint+ < A2+",
        "I1.Vint+ < A2-", "I1.Vint+ < I1.CLKE+", "I1.X- < I1.D+",
        "I1.X- < I1.Z-", "I1.Y+ < A2-", "I1.Y- < I1.A2+", "I1.Y- < I1.CLKE-",
        "I1.Z+ < A1+", "I1.Z- < A2+", "V1+ < I1.CLKE+", "V1+ < I1.CLKE-",
        "V2+ < I1.CLKE-", "V2- < I1.D+", "V2- < I1.Y+", "V2- < I1.Z-",
      },
      {
        "A1- < I1.Z-", "A1- < V1+", "A2+ < V1+", "A2- < A1+", "A2- < I1.CLKE-",
        "A2- < V1+", "I1.A2+ < I1.Z-", "I1.A2- < I1.Y+", "I1.CLKE+ < A2-",
        "I1.CLKE+ < I1.Y+", "I1.CLKE+ < V1+", "I1.CLKE- < A1-",
        "I1.CLKE- < V1+", "I1.D+ < A1+", "I1.D+ < V1+", "I1.D- < I1.CLKE+",
        "I1.D- < I1.Z-", "I1.R+ < A2-", "I1.R- < I1.CLKE+", "I1.R- < I1.D-",
        "I1.R- < I1.Z-", "I1.Vint+ < A2-", "I1.Vint+ < I1.CLKE+",
        "I1.Vint+ < V1+", "I1.Vint- < V1+", "I1.X+ < V1+", "I1.X- < I1.D+",
        "I1.X- < I1.Z-", "I1.Y+ < A2-", "I1.Y+ < V1+", "I1.Y- < I1.A2+",
        "I1.Y- < I1.CLKE-", "I1.Z+ < A1+", "I1.Z+ < V1+", "I1.Z- < A2-",
        "I1.Z- < V1+", "V1+ < A1+", "V1+ < A2-", "V2+ < A2-", "V2+ < I1.CLKE-",
        "V2+ < I1.D-", "V2+ < V1+", "V2- < I1.D+", "V2- < I1.Y+",
        "V2- < I1.Z-", "V2- < V1+",
      },
  };
  // The work behind them: queue heads the resumed failure searches
  // expanded over all iterations (a search from scratch every iteration
  // expands 268,179).
  std::size_t heads_expanded = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RefineEngineStats& st = test::refine_stats(rows[i].result);
    heads_expanded += st.heads_expanded;
    EXPECT_EQ(st.refinements, expected[i]) << rows[i].name;
    EXPECT_EQ(rows[i].result.states_explored, expected_states[i])
        << rows[i].name;
    std::vector<std::string> constraints;
    for (const DerivedOrdering& o : st.constraints())
      constraints.push_back(o.before + " < " + o.after);
    EXPECT_EQ(constraints, expected_constraints[i]) << rows[i].name;
  }
  EXPECT_EQ(heads_expanded, 177'901u);
}

TEST(IpcmosExperiments, Table1SharesOneStage) {
  // Obligations 2-5 compose the one elaborated stage I1; obligation 5 keeps
  // flat_pipeline(1)'s module order IN, I1, OUT.
  const Suite suite = table1_suite();
  const std::deque<Obligation>& obs = suite.obligations();
  ASSERT_EQ(obs.size(), 5u);
  const Module* stage = obs[1].modules[1];
  EXPECT_EQ(stage->name(), "I1");
  for (std::size_t i = 1; i < obs.size(); ++i)
    EXPECT_EQ(obs[i].modules[1], stage) << obs[i].name;
  const ModuleSet flat = flat_pipeline(1);
  ASSERT_EQ(obs[4].modules.size(), flat.ptrs.size());
  for (std::size_t i = 0; i < flat.ptrs.size(); ++i)
    EXPECT_EQ(obs[4].modules[i]->name(), flat.ptrs[i]->name());
}

TEST(IpcmosPipeline, TwoStageCompositionIsFiniteAndAlive) {
  // Restrict to a budget: the flat 2-stage product is large but its
  // reachable prefix must show live handshake activity.
  const ModuleSet set = flat_pipeline(2);
  ComposeOptions opts;
  opts.max_states = 30000;
  const Composition c = compose(set.ptrs, opts);
  EXPECT_TRUE(c.truncated);  // the paper: flat verification blows up
  EXPECT_GT(c.ts.num_states(), 10000u);
}

}  // namespace
}  // namespace rtv::ipcmos
