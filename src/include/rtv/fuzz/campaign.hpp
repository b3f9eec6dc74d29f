// Differential fuzzing campaign: generated scenarios, engine agreement as
// the oracle.
//
// Each case generates one scenario (rtv/fuzz/generator.hpp) and runs it
// through every selected engine via the Suite scheduler.  A case fails
// when
//
//   * two engines return contradictory *definitive* verdicts (one
//     kVerified, one kViolated) — kInconclusive never counts, so budget
//     truncation can't fake or mask a disagreement;
//   * a violated verdict's counterexample trace does not replay through
//     the modules' product, walked tuple by tuple without composing it
//     (every step must have a composed transition, except a final refused
//     label);
//   * an engine throws instead of returning a result; or
//   * the static analyzer (rtv/lint) and the suite scheduler disagree
//     about the scenario: a lint-clean scenario dies with a lint
//     pre-flight rejection, or a scenario lint calls broken still gets
//     definitive verdicts from the engines; or
//   * the cone-of-influence slicer (rtv/analysis/slice.hpp) changes a
//     verdict: whenever the slice is not the identity the case reruns
//     with slicing disabled, and any engine contradicting its own sliced
//     verdict is a kSliceMismatch (GeneratorConfig::padding_modules
//     appends provably-out-of-cone modules to keep this oracle busy).
//
// Failures carry a self-contained reproducer — the case seed plus the
// generator config, delta-debugged down to a minimal failing config when
// minimization is enabled (rtv/fuzz/minimize.hpp) — and the campaign
// report serializes to stable JSON for scripted/CI consumers.
//
// Reproducibility: with a case limit and no per-engine wall-clock deadline
// (the defaults), a campaign is a pure function of (seed, config, engines)
// and two runs emit identical reports up to wall-clock fields —
// CampaignReport::fingerprint() is the exact invariant.  Wall-clock
// cutoffs (`seconds`, `max_seconds`) trade that determinism for bounded
// runtime, as the nightly CI job does.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "rtv/fuzz/generator.hpp"
#include "rtv/fuzz/minimize.hpp"
#include "rtv/verify/engine.hpp"

namespace rtv::fuzz {

struct CampaignOptions {
  std::uint64_t seed = 1;
  /// Generator config for every case (case variety comes from per-case
  /// seeds, see case_seed()).
  GeneratorConfig config;
  /// Stop after this many cases; 0 = no case limit (then `seconds` must be
  /// positive).
  std::size_t cases = 100;
  /// Stop once the campaign has run this long in seconds; 0 = no deadline.
  double seconds = 0.0;
  /// Engines compared per case; at least two are needed for disagreements
  /// to be observable.  run_campaign throws std::invalid_argument on an
  /// unregistered name.
  std::vector<std::string> engines = {"refine", "zone", "discrete"};
  /// Worker budget of the per-case Suite scheduler (0 = hardware
  /// concurrency).  Case i+1 starts only after case i finished, so reports
  /// are job-count independent.
  std::size_t jobs = 1;
  /// Per-engine state budget; exhaustion is kInconclusive and never a
  /// disagreement.
  std::size_t max_states = 200'000;
  /// Per-engine wall-clock deadline in seconds; 0 (default) keeps the
  /// campaign deterministic.
  double max_seconds = 0.0;
  /// Delta-debug every failure down to a minimal config.
  bool minimize = true;
  /// Oracle invocations per minimization.
  std::size_t minimize_budget = 160;
  /// Optional sink for human-readable progress lines (failures, mostly).
  std::function<void(const std::string&)> log;
};

enum class FailureKind {
  kDisagreement,  ///< contradictory definitive verdicts
  kBadTrace,      ///< a violation trace that does not replay
  kEngineError,   ///< an engine threw
  kLintMismatch,  ///< lint and the suite scheduler disagree on the scenario
  kSliceMismatch, ///< sliced and unsliced runs return contradictory verdicts
};

const char* to_string(FailureKind kind);

/// One engine's verdict on a case (stop_reason empty unless truncated).
struct EngineVerdict {
  std::string engine;
  Verdict verdict = Verdict::kInconclusive;
  std::string stop_reason;
};

/// One failing case with its self-contained reproducer.
struct CampaignFailure {
  FailureKind kind = FailureKind::kDisagreement;
  std::size_t case_index = 0;
  /// The case seed: generate(seed, config) rebuilds the failing scenario.
  std::uint64_t seed = 0;
  GeneratorConfig config;
  /// Delta-debugged config; equals `config` when minimization is off or
  /// found nothing smaller.
  GeneratorConfig minimized;
  std::vector<EngineVerdict> verdicts;
  /// Human-readable summary (scenario shape, offending engines/trace).
  std::string detail;
};

/// Differential outcome of a single (seed, config) case.
struct CaseResult {
  /// Engines returning a definitive verdict (kVerified or kViolated).
  std::size_t definitive = 0;
  /// Violation traces successfully replayed through the modules' product.
  std::size_t traces_replayed = 0;
  /// Engaged when the case failed; case_index and minimized are left for
  /// the campaign driver to fill in.
  std::optional<CampaignFailure> failure;
};

/// Run one scenario through options.engines and compare.  This is the
/// campaign's unit of work, exposed for tests (inject a deliberately lying
/// engine, check it is caught) and for replaying minimized reproducers.
CaseResult run_case(std::uint64_t seed, const GeneratorConfig& config,
                    const CampaignOptions& options);

/// The replay oracle: walk `labels` through the product of `modules`
/// without building it, by the rule compose() implements.  A label fires
/// when every module whose alphabet holds it has a successor on it, each
/// stepping to its first such successor.  Every label must be in some
/// alphabet, and every step must fire except the final one, which may be
/// a refusal (choke counterexamples end on the refused output).  Returns
/// false with a description of the first broken step in `why`.
bool replays(const std::vector<const Module*>& modules,
             const std::vector<std::string>& labels, std::string& why);

struct CampaignReport {
  /// Bumped whenever the JSON layout changes incompatibly.
  static constexpr int kSchemaVersion = 1;
  static constexpr const char* kSchemaName = "rtv-fuzz-report";

  std::uint64_t seed = 0;
  GeneratorConfig config;
  std::vector<std::string> engines;
  std::size_t cases = 0;
  std::size_t definitive_verdicts = 0;
  std::size_t traces_replayed = 0;
  double wall_seconds = 0.0;
  std::vector<CampaignFailure> failures;

  bool ok() const { return failures.empty(); }

  /// Stable machine-readable serialization (see docs/FUZZING.md for the
  /// schema).  Seeds are emitted as decimal *strings*: 64-bit values do
  /// not survive a double round-trip.
  std::string to_json() const;

  /// Wall-clock-free FNV-1a digest (rtv/base/hash.hpp) of everything
  /// else, as a 16-hex-digit string: two runs with identical (seed,
  /// config, engines, cases) produce identical fingerprints — the
  /// reproducibility contract `rtv fuzz` and the campaign tests check.
  std::string fingerprint() const;
};

/// Run the campaign: cases keyed off case_seed(options.seed, i), failures
/// minimized per options, stopping at the case or time limit.
CampaignReport run_campaign(const CampaignOptions& options);

}  // namespace rtv::fuzz
