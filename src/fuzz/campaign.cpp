#include "rtv/fuzz/campaign.hpp"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "rtv/base/hash.hpp"
#include "rtv/base/json.hpp"
#include "rtv/lint/lint.hpp"
#include "rtv/obs/trace.hpp"
#include "rtv/ts/delay_bounds.hpp"
#include "rtv/verify/suite.hpp"

namespace rtv::fuzz {

namespace {

std::string join_trace(const std::vector<std::string>& labels) {
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ",";
    out += labels[i];
  }
  return out;
}

void append_verdicts(std::string& out,
                     const std::vector<EngineVerdict>& verdicts) {
  out += "[";
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (i > 0) out += ",";
    out += "{\"engine\":";
    json::append_string(out, verdicts[i].engine);
    out += ",\"verdict\":";
    json::append_string(out, to_string(verdicts[i].verdict));
    out += ",\"stop_reason\":";
    json::append_string(out, verdicts[i].stop_reason);
    out += "}";
  }
  out += "]";
}

void append_failure(std::string& out, const CampaignFailure& f) {
  out += "{\"kind\":";
  json::append_string(out, to_string(f.kind));
  out += ",\"case\":" + std::to_string(f.case_index);
  out += ",\"seed\":\"" + std::to_string(f.seed) + "\"";
  out += ",\"config\":" + f.config.to_json();
  out += ",\"minimized\":" + f.minimized.to_json();
  out += ",\"verdicts\":";
  append_verdicts(out, f.verdicts);
  out += ",\"detail\":";
  json::append_string(out, f.detail);
  out += "}";
}

}  // namespace

const char* to_string(FailureKind kind) {
  switch (kind) {
    case FailureKind::kDisagreement: return "disagreement";
    case FailureKind::kBadTrace: return "bad-trace";
    case FailureKind::kEngineError: return "engine-error";
    case FailureKind::kLintMismatch: return "lint-mismatch";
    case FailureKind::kSliceMismatch: return "slice-mismatch";
  }
  return "?";
}

CaseResult run_case(std::uint64_t seed, const GeneratorConfig& config,
                    const CampaignOptions& options) {
  CaseResult out;
  const Scenario sc = generate(seed, config);

  Suite suite;
  Obligation& ob = suite.add(sc.name, sc.module_ptrs(), sc.property_ptrs());
  SuiteOptions sopt;
  sopt.mode = SuiteMode::kBatch;
  sopt.jobs = options.jobs;
  sopt.engines = options.engines;
  sopt.budget.max_states = options.max_states;
  sopt.budget.max_seconds = options.max_seconds;
  const FrontEnd fe = front_end(ob, sopt);
  ob.front_end = &fe;
  const SuiteReport report = run_suite(suite, sopt);

  std::vector<EngineVerdict> verdicts;
  const SuiteRecord* verified = nullptr;
  const SuiteRecord* violated = nullptr;
  const SuiteRecord* errored = nullptr;
  for (const SuiteRecord& rec : report.records) {
    verdicts.push_back(
        {rec.engine, rec.result.verdict, rec.result.truncated_reason});
    if (rec.result.truncated_reason == stop_reason::kEngineError && !errored)
      errored = &rec;
    if (rec.result.verified()) {
      ++out.definitive;
      if (!verified) verified = &rec;
    } else if (rec.result.violated()) {
      ++out.definitive;
      if (!violated) violated = &rec;
    }
  }

  const auto fail = [&](FailureKind kind, std::string detail) {
    CampaignFailure f;
    f.kind = kind;
    f.seed = seed;
    f.config = config;
    f.minimized = sanitized(config);
    f.verdicts = verdicts;
    f.detail = sc.describe() + ": " + std::move(detail);
    out.failure = std::move(f);
  };

  // Lint cross-check, both directions: the standalone analyzer and the
  // suite's pre-flight must agree on every generated scenario.  The
  // generator only builds well-formed scenarios, so direction one is the
  // interesting oracle: a lint-clean scenario dying with kLintError means
  // the pre-flight and the analyzer drifted apart.
  {
    const obs::Span span("fuzz:lint-oracle", "fuzz");
    lint::LintOptions lo;
    lo.engines = options.engines;
    lo.max_states = options.max_states;
    const lint::LintReport pre =
        lint::lint_modules(sc.module_ptrs(), sc.property_ptrs(), lo);
    bool suite_rejected = false;
    for (const SuiteRecord& rec : report.records)
      if (rec.result.truncated_reason == stop_reason::kLintError)
        suite_rejected = true;
    if (!pre.has_errors() && suite_rejected) {
      fail(FailureKind::kLintMismatch,
           "suite pre-flight rejected a lint-clean scenario");
      return out;
    }
    if (pre.has_errors() && out.definitive > 0) {
      fail(FailureKind::kLintMismatch,
           "lint reports errors yet engines returned definitive verdicts "
           "(first error: " +
               pre.diagnostics.front().format() + ")");
      return out;
    }
  }

  if (errored) {
    fail(FailureKind::kEngineError,
         errored->engine + " raised: " + errored->result.message);
    return out;
  }
  if (verified && violated) {
    fail(FailureKind::kDisagreement,
         "engines disagree (" + verified->engine + "=verified vs " +
             violated->engine + "=violated)");
    return out;
  }

  // Re-validate every violation trace against the full modules' product —
  // the cross-check test_parallel applies to the discrete engine, promoted
  // to a campaign-wide invariant.  The walk composes nothing, so it checks
  // first what compose() would have refused: contradictory delay bounds
  // (the slice may have dropped the module declaring them).
  if (violated) {
    const obs::Span span("fuzz:replay", "fuzz");
    const std::vector<const Module*> modules = sc.module_ptrs();
    const std::vector<DelayContradiction> contradictions =
        find_delay_contradictions(modules);
    if (!contradictions.empty()) {
      fail(FailureKind::kEngineError,
           "compose() raised during replay: " +
               describe_delay_contradiction(contradictions.front()));
      return out;
    }
    for (const SuiteRecord& rec : report.records) {
      if (!rec.result.violated() || rec.result.trace_labels.empty()) continue;
      std::string why;
      if (replays(modules, rec.result.trace_labels, why)) {
        ++out.traces_replayed;
      } else {
        fail(FailureKind::kBadTrace,
             rec.engine + " counterexample is not replayable: " + why +
                 " (trace: " + join_trace(rec.result.trace_labels) + ")");
        return out;
      }
    }
  }

  // Slicing oracle: run_suite slices by default, so whenever the slice is
  // not the identity the whole case above verified a *reduced* obligation.
  // Rerun unsliced and require every engine to stand by its own verdict —
  // contradictory definitive verdicts mean the slicer dropped something
  // that mattered.  kInconclusive never counts (the unsliced run explores
  // more states, so it may hit the budget where the sliced run did not).
  if (!fe.slice.identity) {
    const obs::Span span("fuzz:unsliced-rerun", "fuzz");
    // The rerun's front end is the case's with the identity slice:
    // front_end() under SuiteOptions::slice = false would rebuild the same
    // depgraph, slice and lint, then swap the slice for the identity.  It
    // is built field by field because fe.slice owns the pruned module
    // rebuilds, which the rerun does not need.
    FrontEnd unsliced;
    unsliced.engines = fe.engines;
    unsliced.budget = fe.budget;
    unsliced.max_refinements = fe.max_refinements;
    unsliced.lint = fe.lint;
    unsliced.slice = analysis::identity_slice(ob.modules);
    ob.front_end = &unsliced;
    const SuiteReport full = run_suite(suite, sopt);
    for (const SuiteRecord& a : report.records) {
      for (const SuiteRecord& b : full.records) {
        if (a.engine != b.engine) continue;
        const bool contradictory =
            (a.result.verified() && b.result.violated()) ||
            (a.result.violated() && b.result.verified());
        if (contradictory) {
          fail(FailureKind::kSliceMismatch,
               a.engine + " flips " + to_string(a.result.verdict) +
                   " (sliced) to " + to_string(b.result.verdict) +
                   " (unsliced) — the slicer is unsound on this case");
          return out;
        }
      }
    }
  }
  return out;
}

bool replays(const std::vector<const Module*>& modules,
             const std::vector<std::string>& labels, std::string& why) {
  std::vector<StateId> cur, next;
  for (const Module* m : modules) cur.push_back(m->ts().initial());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    next = cur;
    bool known = false, fires = true;
    for (std::size_t k = 0; k < modules.size() && fires; ++k) {
      const TransitionSystem& ts = modules[k]->ts();
      const EventId e = ts.event_by_label(labels[i]);
      if (!e.valid()) continue;  // not in this module's alphabet
      known = true;
      const auto succ = ts.successor(cur[k], e);
      if (succ)
        next[k] = *succ;
      else
        fires = false;
    }
    if (!known) {
      why = "trace step " + std::to_string(i) + " names unknown label '" +
            labels[i] + "'";
      return false;
    }
    if (!fires) {
      if (i + 1 == labels.size()) return true;  // final refused label
      why = "trace breaks at step " + std::to_string(i) + " ('" + labels[i] +
            "' has no composed transition)";
      return false;
    }
    std::swap(cur, next);
  }
  return true;
}

CampaignReport run_campaign(const CampaignOptions& options) {
  if (options.cases == 0 && options.seconds <= 0)
    throw std::invalid_argument(
        "fuzz campaign needs a case limit or a time limit");

  CampaignReport report;
  report.seed = options.seed;
  report.config = options.config;
  report.engines = options.engines;

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  for (std::size_t i = 0; options.cases == 0 || i < options.cases; ++i) {
    if (options.seconds > 0 && elapsed() >= options.seconds) break;
    const std::uint64_t cs = case_seed(options.seed, i);
    CaseResult r = run_case(cs, options.config, options);
    ++report.cases;
    report.definitive_verdicts += r.definitive;
    report.traces_replayed += r.traces_replayed;
    if (!r.failure) continue;

    CampaignFailure f = std::move(*r.failure);
    f.case_index = i;
    if (options.log)
      options.log("case " + std::to_string(i) + " (seed " +
                  std::to_string(cs) + "): " + to_string(f.kind) + " — " +
                  f.detail);
    if (options.minimize) {
      const FailureKind kind = f.kind;
      const FailureOracle oracle = [&](std::uint64_t s,
                                       const GeneratorConfig& cfg) {
        CampaignOptions probe = options;
        probe.log = nullptr;
        probe.minimize = false;
        const CaseResult pr = run_case(s, cfg, probe);
        return pr.failure && pr.failure->kind == kind;
      };
      const MinimizeResult m =
          minimize(cs, f.config, oracle, options.minimize_budget);
      f.minimized = m.config;
      if (options.log && m.steps > 0)
        options.log("  minimized in " + std::to_string(m.steps) +
                    " step(s) to " + m.config.to_json());
    }
    report.failures.push_back(std::move(f));
  }
  report.wall_seconds = elapsed();
  return report;
}

std::string CampaignReport::to_json() const {
  std::string out = "{\"schema\":\"";
  out += kSchemaName;
  out += "\",\"version\":" + std::to_string(kSchemaVersion);
  out += ",\"seed\":\"" + std::to_string(seed) + "\"";
  out += ",\"config\":" + config.to_json();
  out += ",\"engines\":[";
  for (std::size_t i = 0; i < engines.size(); ++i) {
    if (i > 0) out += ",";
    json::append_string(out, engines[i]);
  }
  out += "],\"cases\":" + std::to_string(cases);
  out += ",\"definitive_verdicts\":" + std::to_string(definitive_verdicts);
  out += ",\"traces_replayed\":" + std::to_string(traces_replayed);
  out += ",\"wall_seconds\":";
  json::append_double(out, wall_seconds);
  out += ",\"ok\":";
  out += ok() ? "true" : "false";
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) out += ",";
    append_failure(out, failures[i]);
  }
  out += "]}";
  return out;
}

std::string CampaignReport::fingerprint() const {
  // The library-wide FNV-1a idiom (rtv/base/hash.hpp): every field is
  // length- or width-delimited, so the digest is platform-stable and free
  // of concatenation ambiguity.
  Fnv1a h(0x7274762d66757a7aull);  // "rtv-fuzz" domain tag
  h.u64(static_cast<std::uint64_t>(kSchemaVersion));
  h.u64(seed);
  h.str(config.to_json());
  h.u64(engines.size());
  for (const std::string& e : engines) h.str(e);
  h.u64(cases).u64(definitive_verdicts).u64(traces_replayed);
  h.u64(failures.size());
  for (const CampaignFailure& f : failures) {
    h.str(to_string(f.kind));
    h.u64(f.case_index);
    h.u64(f.seed);
    h.str(f.minimized.to_json());
    std::string verdicts;
    append_verdicts(verdicts, f.verdicts);
    h.str(verdicts);
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h.digest()));
  return buf;
}

}  // namespace rtv::fuzz
