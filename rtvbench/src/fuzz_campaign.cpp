// fuzz-campaign: a fixed-seed differential campaign, one fuzz::run_case
// per case on refine/zone/discrete, minimisation off, with one suite
// worker on one CPU (pin_to_one_cpu).
//
// A pass is the first kCases cases of the campaign seeded by --seed.  The
// scenarios are small and padded, so per-case fixed cost (suite pool,
// lint, slice, three compositions, trace replay) dominates.  Oracle:
// CampaignReport::ok(), and every pass reproduces the same fingerprint.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"
#include "rtv/analysis/slice.hpp"
#include "rtv/fuzz/campaign.hpp"
#include "rtv/lint/lint.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/verify/engine.hpp"

namespace rtvbench {
namespace {

constexpr std::size_t kCases = 2000;
/// Per-engine state budget.  The sliced runs stay far below it; it cuts
/// the heavy tail of the unsliced cross-checks that padding triggers,
/// where one case could otherwise take a tenth of a pass.  A state budget
/// (unlike a time budget) keeps every pass's fingerprint identical.
constexpr std::size_t kMaxStates = 5000;

rtv::fuzz::GeneratorConfig campaign_config() {
  rtv::fuzz::GeneratorConfig c;
  c.modules = 2;
  c.events = 4;
  c.max_delay = 12;
  c.properties = 2;
  c.padding_modules = 1;
  // Fork-join pairs occasionally need hundreds of refinements (one case in
  // a few thousand ran for 19 s), so a single case could outweigh a pass.
  c.gates = false;
  return c;
}

class FuzzCampaign final : public Workload {
 public:
  explicit FuzzCampaign(const Args& args)
      : seed_(args.seed), config_json_(campaign_config().to_json()) {}

  /// What `rtv fuzz --config` does before its first case: parse the
  /// config, resolve the engines, derive the case seeds.
  double setup() override {
    const std::uint64_t t0 = now_ns();
    opts_ = rtv::fuzz::CampaignOptions{};
    opts_.seed = seed_;
    opts_.config = rtv::fuzz::GeneratorConfig::from_json(config_json_);
    opts_.engines = {"refine", "zone", "discrete"};
    for (const std::string& e : opts_.engines)
      if (!rtv::engine_registry().find(e))
        throw std::runtime_error("unknown engine " + e);
    opts_.jobs = 1;
    opts_.minimize = false;
    opts_.cases = kCases;
    opts_.max_states = kMaxStates;
    seeds_.resize(kCases);
    for (std::size_t i = 0; i < kCases; ++i)
      seeds_[i] = rtv::fuzz::case_seed(seed_, i);
    return (now_ns() - t0) * 1e-9;
  }

  void pass(Pass& out) override {
    report_ = fresh_report();
    for (std::size_t i = 0; i < kCases; ++i) {
      const std::uint64_t t0 = now_ns();
      rtv::fuzz::CaseResult r = rtv::fuzz::run_case(seeds_[i], opts_.config, opts_);
      out.latency_ms.push_back((now_ns() - t0) * 1e-6);
      record(i, std::move(r));
    }
    finish(out);
  }

  void counts(Layers& l) override {
    l["fuzz.definitive"] = static_cast<double>(report_.definitive_verdicts);
    l["fuzz.traces_replayed"] = static_cast<double>(report_.traces_replayed);
  }

  void traced_pass(Pass& out, SpanLog& log, Layers& l) override {
    report_ = fresh_report();
    rtv::lint::LintOptions lo;
    lo.engines = opts_.engines;
    lo.max_states = opts_.max_states;
    rtv::ComposeOptions co;
    co.track_chokes = true;
    co.jobs = 1;
    for (std::size_t i = 0; i < kCases; ++i) {
      const std::uint64_t op = i + 1;
      Scoped root(log, "case " + std::to_string(i), "bench", -1, op);
      // Generation, pre-flight, slice, compositions and the suite run
      // happen inside run_case; they are repeated from outside to time
      // each one, so the traced pass does this work twice.
      rtv::fuzz::Scenario sc;
      {
        Scoped s(log, "generate()", "fuzz", root.id(), op);
        sc = rtv::fuzz::generate(seeds_[i], opts_.config);
      }
      {
        Scoped s(log, "lint()", "lint", root.id(), op);
        (void)rtv::lint::lint_modules(sc.module_ptrs(), sc.property_ptrs(), lo);
      }
      rtv::analysis::SliceResult sl;
      {
        Scoped s(log, "slice()", "analysis", root.id(), op);
        sl = rtv::analysis::slice(sc.module_ptrs(), sc.property_ptrs());
      }
      l["analysis.dropped_modules"] += static_cast<double>(sl.dropped_modules);
      for (std::size_t e = 0; e < opts_.engines.size() && !sl.modules.empty();
           ++e) {
        Scoped s(log, "compose()", "ts", root.id(), op);
        try {
          (void)rtv::compose(sl.modules, co);
        } catch (const std::exception&) {
          // run_case reports a contradictory scenario as an engine error.
        }
      }
      {
        // run_case's first run_suite, with its options; its report stays
        // inside run_case, so the suite's own cost is timed on this copy.
        rtv::Suite suite;
        suite.add(sc.name, sc.module_ptrs(), sc.property_ptrs());
        rtv::SuiteOptions so;
        so.mode = rtv::SuiteMode::kBatch;
        so.jobs = opts_.jobs;
        so.engines = opts_.engines;
        so.budget.max_states = opts_.max_states;
        so.budget.max_seconds = opts_.max_seconds;
        l["suite.overhead_s"] +=
            suite_overhead(traced_run_suite(log, root.id(), op, suite, so));
      }
      // Engine time inside run_case (its suite run and, for a non-identity
      // slice, the unsliced rerun) comes from the registry's run-seconds.
      const rtv::obs::MetricsSnapshot before = rtv::obs::snapshot();
      const std::uint64_t t0 = now_ns();
      rtv::fuzz::CaseResult r = rtv::fuzz::run_case(seeds_[i], opts_.config, opts_);
      const std::uint64_t t1 = now_ns();
      const rtv::obs::MetricsSnapshot after = rtv::obs::snapshot();
      out.latency_ms.push_back((t1 - t0) * 1e-6);
      const std::int64_t run =
          log.add(Span{"run_case", "fuzz", t0, t1, root.id(), op, thread_slot()});
      for (const std::string& e : opts_.engines) {
        const std::string label = "engine=\"" + e + "\"";
        add_engine_span(log, run, t0, t1, op, e,
                        obs_value(after, "rtv_engine_run_seconds", label) -
                            obs_value(before, "rtv_engine_run_seconds", label));
      }
      record(i, std::move(r));
    }
    finish(out);
  }

 private:
  rtv::fuzz::CampaignReport fresh_report() const {
    rtv::fuzz::CampaignReport r;
    r.seed = opts_.seed;
    r.config = opts_.config;
    r.engines = opts_.engines;
    return r;
  }

  void record(std::size_t index, rtv::fuzz::CaseResult r) {
    ++report_.cases;
    report_.definitive_verdicts += r.definitive;
    report_.traces_replayed += r.traces_replayed;
    if (!r.failure) return;
    r.failure->case_index = index;
    std::fprintf(stderr, "campaign failure: case %zu: %s — %s\n", index,
                 rtv::fuzz::to_string(r.failure->kind),
                 r.failure->detail.c_str());
    report_.failures.push_back(std::move(*r.failure));
  }

  void finish(Pass& out) {
    out.ops += report_.cases;
    out.failed += report_.failures.size();
    const std::string fp = report_.fingerprint();
    if (fingerprint_.empty()) {
      fingerprint_ = fp;
      std::printf("campaign seed %llu: %zu cases, %zu definitive verdicts, "
                  "%zu traces replayed, ok %s, fingerprint %s\n",
                  static_cast<unsigned long long>(seed_), report_.cases,
                  report_.definitive_verdicts, report_.traces_replayed,
                  report_.ok() ? "yes" : "NO", fp.c_str());
    } else if (fp != fingerprint_) {
      ++out.failed;
      std::fprintf(stderr, "campaign fingerprint changed: %s then %s\n",
                   fingerprint_.c_str(), fp.c_str());
    }
  }

  std::uint64_t seed_;
  std::string config_json_;
  rtv::fuzz::CampaignOptions opts_;
  std::vector<std::uint64_t> seeds_;
  rtv::fuzz::CampaignReport report_;
  std::string fingerprint_;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz_campaign(const Args& args) {
  return std::make_unique<FuzzCampaign>(args);
}

}  // namespace rtvbench
