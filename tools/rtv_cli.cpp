// rtv — command-line front end.
//
//   rtv verify    a.g b.g ...  [--engine NAME] [--jobs N] [--timeout S]
//                              [--max-states N] [--no-deadlock]
//                              [--no-persistency] [--max-ref N] [--progress]
//                              (--jobs shards the engine's own frontier;
//                              0 = one worker per hardware thread)
//
// Observability flags accepted by every run-something subcommand (verify,
// suite, portfolio, fuzz, ipcmos, serve, client — see docs/OBSERVABILITY.md):
//   --trace FILE      write a Chrome trace-event / Perfetto JSON timeline of
//                     the whole command (one track per worker thread)
//   --progress-json   emit progress as JSON lines (with a metrics snapshot)
//                     on stderr instead of the human form
//   rtv suite     a.g b.g ...  [--engine NAME[,NAME...]] [--jobs N] [--json F]
//                              (each file is one obligation; batch-parallel)
//   rtv portfolio a.g b.g ...  [--engines NAME,NAME] [--jobs N] [--json F]
//                              (one obligation; engines race, first verdict wins)
//   rtv engines                (list the registered verification engines)
//   rtv lint      a.g b.g ...  [--engine NAME[,NAME...]] [--max-states N]
//                              [--no-deadlock] [--no-persistency] [--json F|-]
//                              (static model analysis, no engine runs; the
//                              files form one composed obligation; exit 0 =
//                              clean, 1 = warnings, 2 = errors)
//   rtv slice     a.g b.g ...  [--no-deadlock] [--no-persistency] [--json F|-]
//                              (cone-of-influence slice of the composed
//                              obligation: what the suite's slicer would
//                              drop, with full provenance; no engine runs)
//   rtv fuzz                   [--seed S] [--cases N] [--seconds S] [--jobs N]
//                              [--engines NAME,NAME] [--modules N] [--events N]
//                              [--max-delay T] [--properties N] [--config F]
//                              [--max-states N] [--timeout S] [--no-minimize]
//                              [--replay] [--json F]
//                              (differential fuzzing: every generated scenario
//                              runs through all selected engines; exit 1 iff a
//                              disagreement / bad trace / engine error is found)
//   rtv ipcmos                 [--engine NAME] [--jobs N] [--json F]
//   rtv serve                  --socket PATH [--cache F] [--jobs N]
//                              [--max-cache-entries N] [--heartbeat S]
//                              (persistent verification daemon with a
//                              content-addressed verdict cache; stop it with
//                              `rtv client --shutdown`, SIGINT or SIGTERM)
//   rtv client   a.g b.g ...   --socket PATH [--engines NAME,NAME] [--portfolio]
//                              [--timeout S] [--max-states N] [--max-ref N]
//                              [--no-deadlock] [--no-persistency] [--json F]
//   rtv client                 --socket PATH (--ping | --stats [--json F|-]
//                              | --metrics | --shutdown)
//                              (--metrics prints the daemon's registry in
//                              Prometheus text form; --stats --json - prints
//                              one JSON document with the stats counters and
//                              the daemon's metrics snapshot)
//   rtv simulate a.g b.g ...   [--events N] [--seed S] [--vcd out.vcd] [--signals s1,s2]
//   rtv dot      a.g           (marking graph as graphviz)
//   rtv minimize a.g           (bisimulation quotient statistics)
//
// All .g inputs use the astg format with the library's `.delay` / `.initial`
// extensions (see rtv/stg/astg.hpp).  For `verify` and `portfolio`, multiple
// files compose over their shared signal alphabets; for `suite`, every file
// is an independent obligation.
//
// Exit codes (stable, for scripted/CI callers — see docs/CLI.md):
//   0 = verified, 1 = violated, 2 = inconclusive,
//   64 = usage error (bad flags, unknown engine, no input),
//   70 = runtime failure (unreadable input, I/O error).
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "rtv/analysis/slice.hpp"
#include "rtv/base/json.hpp"
#include "rtv/fuzz/campaign.hpp"
#include "rtv/ipcmos/experiments.hpp"
#include "rtv/lint/lint.hpp"
#include "rtv/obs/metrics.hpp"
#include "rtv/obs/trace.hpp"
#include "rtv/serve/client.hpp"
#include "rtv/serve/server.hpp"
#include "rtv/sim/simulator.hpp"
#include "rtv/sim/waveform.hpp"
#include "rtv/stg/astg.hpp"
#include "rtv/stg/elaborate.hpp"
#include "rtv/ts/dot.hpp"
#include "rtv/ts/minimize.hpp"
#include "rtv/verify/engine.hpp"
#include "rtv/verify/report.hpp"
#include "rtv/verify/suite.hpp"

using namespace rtv;

namespace {

/// BSD sysexits-style codes for the non-verdict outcomes, so 0/1/2 stay
/// reserved for verdicts.
constexpr int kExitUsage = 64;
constexpr int kExitRuntime = 70;

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  rtv verify    <stg.g>... [--engine NAME] [--jobs N] [--timeout S]\n"
      "                           [--max-states N] [--no-deadlock]\n"
      "                           [--no-persistency] [--max-ref N] [--progress]\n"
      "                           [--progress-json] [--trace FILE]\n"
      "  rtv suite     <stg.g>... [--engine NAME[,NAME...]] [--jobs N] [--json FILE]\n"
      "                           [--timeout S] [--max-states N] [--no-deadlock]\n"
      "                           [--no-persistency] [--max-ref N] [--progress]\n"
      "  rtv portfolio <stg.g>... [--engines NAME,NAME...] [--jobs N] [--json FILE]\n"
      "                           [--timeout S] [--max-states N] [--no-deadlock]\n"
      "                           [--no-persistency] [--max-ref N] [--progress]\n"
      "  rtv engines\n"
      "  rtv lint      <stg.g>... [--engine NAME[,NAME...]] [--max-states N]\n"
      "                           [--no-deadlock] [--no-persistency] [--json FILE|-]\n"
      "                           (exit: 0 clean, 1 warnings, 2 errors)\n"
      "  rtv slice     <stg.g>... [--no-deadlock] [--no-persistency] [--json FILE|-]\n"
      "                           (cone-of-influence slice of the composed\n"
      "                           obligation; exit 0 = sliced/identity)\n"
      "  rtv fuzz                 [--seed S] [--cases N] [--seconds S] [--jobs N]\n"
      "                           [--engines NAME,NAME...] [--modules N] [--events N]\n"
      "                           [--max-delay TICKS] [--properties N] [--config FILE]\n"
      "                           [--padding-modules N] [--max-states N] [--timeout S]\n"
      "                           [--no-minimize] [--replay] [--json FILE]\n"
      "  rtv ipcmos               [--engine NAME[,NAME...]] [--jobs N] [--json FILE]\n"
      "  rtv serve                --socket PATH [--cache FILE] [--jobs N]\n"
      "                           [--max-cache-entries N] [--heartbeat S]\n"
      "  rtv client    <stg.g>... --socket PATH [--engines NAME,NAME...] [--portfolio]\n"
      "                           [--compose] [--timeout S] [--max-states N]\n"
      "                           [--max-ref N] [--no-deadlock] [--no-persistency]\n"
      "                           [--json FILE]\n"
      "  rtv client               --socket PATH (--ping | --stats [--json FILE|-]\n"
      "                           | --metrics | --shutdown)\n"
      "  (all run subcommands also accept --trace FILE and --progress-json)\n"
      "  rtv simulate  <stg.g>... [--events N] [--seed S] [--vcd FILE] [--signals a,b]\n"
      "  rtv dot       <stg.g>\n"
      "  rtv minimize  <stg.g>\n"
      "exit codes: 0 verified, 1 violated, 2 inconclusive, 64 usage, 70 failure\n");
  return kExitUsage;
}

void list_engines(std::FILE* out) {
  for (const Engine* e : engine_registry().engines()) {
    std::fprintf(out, "  %-10s %s\n",
                 std::string(e->name()).c_str(),
                 std::string(e->description()).c_str());
  }
}

int cmd_engines() {
  std::printf("registered verification engines:\n");
  list_engines(stdout);
  return 0;
}

Stg load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return parse_astg(in);
}

/// Numeric flag values; a malformed or negative value is a usage error
/// (exit 64), not an uncaught exception or a silent 2^64 wrap-around.
std::size_t parse_size(const std::string& flag, const std::string& value) {
  if (!value.empty() &&
      value.find_first_not_of("0123456789") == std::string::npos) {
    try {
      return static_cast<std::size_t>(std::stoull(value));
    } catch (const std::exception&) {
    }
  }
  std::fprintf(stderr, "invalid value '%s' for %s\n", value.c_str(),
               flag.c_str());
  std::exit(kExitUsage);
}

double parse_double(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos == value.size() && v >= 0.0) return v;
  } catch (const std::exception&) {
  }
  std::fprintf(stderr, "invalid value '%s' for %s\n", value.c_str(),
               flag.c_str());
  std::exit(kExitUsage);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    const std::size_t end = comma == std::string::npos ? s.size() : comma;
    if (end > start) out.push_back(s.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

struct LoadedModules {
  std::vector<std::unique_ptr<Module>> owned;
  std::vector<const Module*> ptrs;
};

LoadedModules load_all(const std::vector<std::string>& files) {
  LoadedModules out;
  for (const std::string& f : files) {
    out.owned.push_back(std::make_unique<Module>(elaborate(load(f))));
    out.ptrs.push_back(out.owned.back().get());
    std::fprintf(stderr, "loaded %s: %zu states, %zu events\n",
                 out.owned.back()->name().c_str(),
                 out.owned.back()->ts().num_states(),
                 out.owned.back()->ts().num_events());
  }
  return out;
}

struct VerifyCliOptions {
  /// Engine selection (CSV accepted); empty keeps the subcommand default.
  std::vector<std::string> engines;
  bool deadlock = true;
  bool persistency = true;
  std::size_t max_ref = 500;
  std::size_t max_states = 0;  // 0 = the engine's native default
  double timeout_seconds = 0.0;
  bool progress = false;
  bool progress_json = false;  ///< progress as JSON lines (implies --progress)
  std::size_t jobs = 0;  // 0 = hardware concurrency
  std::string json_path;
  std::string trace_path;  ///< Chrome trace-event JSON destination; "" = off
};

/// Resolve the requested engine names, or print the registry and fail with
/// a usage error — scripted callers distinguish this (64) from verdicts.
bool engines_exist(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (!engine_registry().find(name)) {
      std::fprintf(stderr, "unknown engine '%s'; registered engines:\n",
                   name.c_str());
      list_engines(stderr);
      return false;
    }
  }
  return true;
}

/// Human progress lines, or (`--progress-json`) one JSON object per fire
/// with the metrics snapshot spliced in — scrapeable mid-run telemetry
/// without waiting for the final report.  Both write to stderr so stdout
/// stays the report channel.
ProgressFn progress_printer(bool json_lines) {
  if (!json_lines) {
    return [](const EngineProgress& p) {
      std::fprintf(stderr, "[%.*s] %zu states, %.1f s\n",
                   static_cast<int>(p.engine.size()), p.engine.data(),
                   p.states_explored, p.seconds);
    };
  }
  return [](const EngineProgress& p) {
    std::string line = "{\"engine\":\"";
    line.append(p.engine);
    line += "\",\"states_explored\":";
    line += std::to_string(p.states_explored);
    char sec[32];
    std::snprintf(sec, sizeof sec, "%.3f", p.seconds);
    line += ",\"seconds\":";
    line += sec;
    if (p.metrics) {
      line += ",\"metrics\":";
      obs::append_json(line, *p.metrics);
    }
    line += "}";
    std::fprintf(stderr, "%s\n", line.c_str());
  };
}

/// Write a JSON document; I/O failures are runtime errors (70), not
/// verdicts.
bool write_text(const std::string& json, const std::string& path) {
  std::ofstream out(path);
  out << json;
  out.flush();  // surface buffered write errors (disk full) before testing
  if (!out) {
    std::fprintf(stderr, "error: cannot write JSON report to %s\n",
                 path.c_str());
    return false;
  }
  std::fprintf(stderr, "JSON report written to %s\n", path.c_str());
  return true;
}

SuiteOptions suite_options(const VerifyCliOptions& cli, SuiteMode mode) {
  SuiteOptions opts;
  opts.mode = mode;
  opts.jobs = cli.jobs;
  opts.engines = cli.engines;
  opts.budget.max_states = cli.max_states;
  opts.budget.max_seconds = cli.timeout_seconds;
  opts.max_refinements = cli.max_ref;
  if (cli.progress || cli.progress_json)
    opts.progress = progress_printer(cli.progress_json);
  return opts;
}

int finish_suite(const SuiteReport& report, const VerifyCliOptions& cli) {
  std::printf("%s", format_table(report).c_str());
  if (!cli.json_path.empty() && !write_text(report.to_json(), cli.json_path))
    return kExitRuntime;
  return exit_code(report.overall());
}

int cmd_verify(const std::vector<std::string>& files,
               const VerifyCliOptions& cli) {
  if (cli.engines.size() > 1) {
    std::fprintf(stderr,
                 "verify runs a single engine; use 'suite' or 'portfolio' "
                 "for several\n");
    return kExitUsage;
  }
  const std::string name = cli.engines.empty() ? "refine" : cli.engines[0];
  if (!engines_exist({name})) return kExitUsage;

  const LoadedModules mods = load_all(files);
  DeadlockFreedom dead;
  PersistencyProperty pers;
  std::vector<const SafetyProperty*> props;
  if (cli.deadlock) props.push_back(&dead);
  if (cli.persistency) props.push_back(&pers);

  // One obligation, composed and then decided on the one engine, as given:
  // no lint pre-flight, no slicing.
  Suite suite;
  suite.add("verify", mods.ptrs, props);
  SuiteOptions opts = suite_options(cli, SuiteMode::kBatch);
  opts.engines = {name};
  opts.preflight = false;
  opts.slice = false;
  const EngineResult r = run_suite(suite, opts).records.front().result;
  if (r.truncated_reason == stop_reason::kEngineError)
    throw std::runtime_error(r.message);
  std::printf("== verify (engine: %s) ==\n", name.c_str());
  std::printf("verdict:      %s\n", to_string(r.verdict));
  // Each engine counts its own exploration unit.
  const char* unit = name == "zone"       ? "zones"
                     : name == "discrete" ? "configs"
                                          : "states";
  std::printf("explored:     %zu %s", r.states_explored, unit);
  if (r.discrete_states)
    std::printf(" (%zu discrete states)", r.discrete_states);
  std::printf("\n");
  std::printf("time:         %.3f s\n", r.seconds);
  if (!r.message.empty() && r.message != r.truncated_reason)
    std::printf("note:         %s\n", r.message.c_str());
  if (!r.truncated_reason.empty())
    std::printf("truncated:    %s\n", r.truncated_reason.c_str());
  if (!r.trace_labels.empty()) {
    std::printf("trace:       ");
    for (const std::string& l : r.trace_labels) std::printf(" %s", l.c_str());
    std::printf("\n");
  }
  if (const auto* st = std::get_if<RefineEngineStats>(&r.stats)) {
    std::printf("refinements:  %d\n", st->refinements);
    std::printf("composed:     %zu states\n", st->composed_states);
    const std::vector<DerivedOrdering> constraints = st->constraints();
    if (r.verified() && !constraints.empty()) {
      std::printf("\nrelative timing constraints:\n");
      for (const DerivedOrdering& c : constraints)
        std::printf("%s before %s\n", c.before.c_str(), c.after.c_str());
    }
  }
  return exit_code(r.verdict);
}

int cmd_suite(const std::vector<std::string>& files,
              const VerifyCliOptions& cli) {
  if (!engines_exist(cli.engines)) return kExitUsage;

  // Every input file is one independent (closed-system) obligation, named
  // by its path so scripted callers can key the JSON records.
  Suite suite;
  const SafetyProperty* dead =
      cli.deadlock ? suite.own(std::make_unique<DeadlockFreedom>()) : nullptr;
  const SafetyProperty* pers =
      cli.persistency ? suite.own(std::make_unique<PersistencyProperty>())
                      : nullptr;
  for (const std::string& f : files) {
    const Module* m = suite.own(elaborate(load(f)));
    std::fprintf(stderr, "loaded %s: %zu states, %zu events\n",
                 m->name().c_str(), m->ts().num_states(),
                 m->ts().num_events());
    std::vector<const SafetyProperty*> props;
    if (dead) props.push_back(dead);
    if (pers) props.push_back(pers);
    Obligation& ob = suite.add(f, {m}, props);
    ob.max_refinements = cli.max_ref;
  }

  const SuiteReport report =
      run_suite(suite, suite_options(cli, SuiteMode::kBatch));
  return finish_suite(report, cli);
}

int cmd_portfolio(const std::vector<std::string>& files,
                  const VerifyCliOptions& cli) {
  if (!engines_exist(cli.engines)) return kExitUsage;

  // One obligation: the composition of every input file, raced by the
  // selected engines (all registered engines by default).
  Suite suite;
  std::vector<const Module*> modules;
  std::string name;
  for (const std::string& f : files) {
    const Module* m = suite.own(elaborate(load(f)));
    std::fprintf(stderr, "loaded %s: %zu states, %zu events\n",
                 m->name().c_str(), m->ts().num_states(),
                 m->ts().num_events());
    modules.push_back(m);
    if (!name.empty()) name += " || ";
    name += m->name();
  }
  std::vector<const SafetyProperty*> props;
  if (cli.deadlock) props.push_back(suite.own(std::make_unique<DeadlockFreedom>()));
  if (cli.persistency)
    props.push_back(suite.own(std::make_unique<PersistencyProperty>()));
  Obligation& ob = suite.add(std::move(name), std::move(modules), props);
  ob.max_refinements = cli.max_ref;

  const SuiteReport report =
      run_suite(suite, suite_options(cli, SuiteMode::kPortfolio));
  return finish_suite(report, cli);
}

int cmd_lint(const std::vector<std::string>& files,
             const VerifyCliOptions& cli) {
  if (!engines_exist(cli.engines)) return kExitUsage;

  // The files form one composed obligation, mirroring `rtv verify` /
  // `rtv portfolio`: shared labels synchronise, and the same default
  // properties apply.  No engine runs — the exit code reports the lint
  // verdict, not a verification verdict.
  const LoadedModules mods = load_all(files);
  DeadlockFreedom dead;
  PersistencyProperty pers;
  std::vector<const SafetyProperty*> props;
  if (cli.deadlock) props.push_back(&dead);
  if (cli.persistency) props.push_back(&pers);

  lint::LintOptions opts;
  opts.engines = cli.engines;  // empty = every engine-specific check armed
  opts.max_states = cli.max_states;
  const lint::LintReport report = lint::lint_modules(mods.ptrs, props, opts);

  if (cli.json_path == "-") {
    std::printf("%s\n", report.to_json().c_str());
  } else {
    std::printf("%s", report.format().c_str());
    if (!cli.json_path.empty() &&
        !write_text(report.to_json(), cli.json_path))
      return kExitRuntime;
  }
  return report.exit_code();
}

/// Machine-readable slice report; schema mirrors the library's other JSON
/// documents (stable tag + version, see docs/CLI.md).
std::string slice_to_json(const analysis::SliceResult& sl,
                          std::size_t total_modules) {
  std::string out = "{\"schema\":";
  json::append_string(out, "rtv-slice-report");
  out += ",\"schema_version\":1";
  out += ",\"modules\":" + std::to_string(total_modules);
  out += ",\"kept\":[";
  for (std::size_t i = 0; i < sl.modules.size(); ++i) {
    if (i) out += ",";
    json::append_string(out, sl.modules[i]->name());
  }
  out += "],\"identity\":";
  out += sl.identity ? "true" : "false";
  out += ",\"dropped_modules\":" + std::to_string(sl.dropped_modules);
  out += ",\"dropped_events\":" + std::to_string(sl.dropped_events);
  out += ",\"pruned_states\":" + std::to_string(sl.pruned_states);
  if (!sl.bailout.empty()) {
    out += ",\"bailout\":";
    json::append_string(out, sl.bailout);
  }
  out += ",\"notes\":[";
  for (std::size_t i = 0; i < sl.notes.size(); ++i) {
    if (i) out += ",";
    const analysis::SliceNote& n = sl.notes[i];
    out += "{\"kind\":";
    json::append_string(out, n.kind);
    out += ",\"module\":";
    json::append_string(out, n.module);
    out += ",\"object\":";
    json::append_string(out, n.object);
    out += ",\"reason\":";
    json::append_string(out, n.reason);
    out += "}";
  }
  out += "]}";
  return out;
}

int cmd_slice(const std::vector<std::string>& files,
              const VerifyCliOptions& cli) {
  // Like `rtv lint`, the files form one composed obligation with the
  // default properties; the output is what `run_suite` would hand the
  // engines after slicing, plus the provenance of everything removed.
  const LoadedModules mods = load_all(files);
  DeadlockFreedom dead;
  PersistencyProperty pers;
  std::vector<const SafetyProperty*> props;
  if (cli.deadlock) props.push_back(&dead);
  if (cli.persistency) props.push_back(&pers);

  const analysis::SliceResult sl = analysis::slice(mods.ptrs, props);

  if (cli.json_path == "-") {
    std::printf("%s\n", slice_to_json(sl, mods.ptrs.size()).c_str());
    return 0;
  }
  std::printf("== slice ==\n");
  if (!sl.bailout.empty()) {
    std::printf("identity (bailout): %s\n", sl.bailout.c_str());
  } else if (sl.identity) {
    std::printf("identity: nothing is provably outside the cone\n");
  } else {
    std::printf("kept:          %zu of %zu module(s)\n", sl.modules.size(),
                mods.ptrs.size());
    std::printf("dropped:       %zu module(s), %zu event(s)\n",
                sl.dropped_modules, sl.dropped_events);
    std::printf("pruned:        %zu unreachable state(s)\n",
                sl.pruned_states);
  }
  for (const analysis::SliceNote& n : sl.notes) {
    if (n.kind == "bailout") continue;  // already printed above
    if (n.module.empty()) {
      std::printf("  [%s] %s\n", n.kind.c_str(), n.reason.c_str());
    } else if (n.object.empty()) {
      std::printf("  [%s] %s: %s\n", n.kind.c_str(), n.module.c_str(),
                  n.reason.c_str());
    } else {
      std::printf("  [%s] %s/%s: %s\n", n.kind.c_str(), n.module.c_str(),
                  n.object.c_str(), n.reason.c_str());
    }
  }
  if (!cli.json_path.empty() &&
      !write_text(slice_to_json(sl, mods.ptrs.size()), cli.json_path))
    return kExitRuntime;
  return 0;
}

int cmd_simulate(const std::vector<std::string>& files, std::size_t events,
                 std::uint64_t seed, const std::string& vcd,
                 const std::vector<std::string>& signals) {
  const LoadedModules mods = load_all(files);
  SimOptions opts;
  opts.max_events = events;
  opts.seed = seed;
  const SimTrace t = simulate_modules(mods.ptrs, opts);
  std::printf("%zu events over %.2f units%s\n", t.events.size(),
              units_from_ticks(t.end_time), t.deadlocked ? " (deadlock)" : "");
  for (const SimEvent& e : t.events) {
    std::printf("  %10.2f  %s\n", units_from_ticks(e.time), e.label.c_str());
  }
  TransitionSystem table;
  table.set_signal_names(t.signal_names);
  const std::vector<std::string> shown =
      signals.empty() ? t.signal_names : signals;
  std::printf("\n%s", ascii_waveform(table, t, shown).c_str());
  if (!vcd.empty()) {
    std::ofstream out(vcd);
    out << to_vcd(table, t, shown);
    std::printf("VCD written to %s\n", vcd.c_str());
  }
  return 0;
}

int cmd_dot(const std::string& file) {
  const Module m = elaborate(load(file));
  std::printf("%s", to_dot(m.ts()).c_str());
  return 0;
}

int cmd_minimize(const std::string& file) {
  const Module m = elaborate(load(file));
  const MinimizeResult r = minimize(m.ts());
  std::printf("%s: %zu reachable states -> %zu bisimulation classes\n",
              m.name().c_str(), m.ts().num_reachable_states(), r.num_blocks);
  std::printf("%s", to_dot(r.ts).c_str());
  return 0;
}

int cmd_ipcmos(const VerifyCliOptions& cli) {
  if (!engines_exist(cli.engines)) return kExitUsage;
  const Suite suite = ipcmos::table1_suite();
  const SuiteReport report =
      run_suite(suite, suite_options(cli, SuiteMode::kBatch));
  std::printf("%s", format_table(report).c_str());
  if (!cli.json_path.empty() && !write_text(report.to_json(), cli.json_path))
    return kExitRuntime;
  return exit_code(report.overall());
}

// ---------------------------------------------------------------------------
// serve / client — the persistent verification service (rtv/serve/)
// ---------------------------------------------------------------------------

struct ServeCliOptions {
  std::string socket_path;
  std::string cache_path;
  std::size_t max_cache_entries = 4096;
  double heartbeat_seconds = 0.0;
  bool portfolio = false;
  /// Compose every input file into ONE obligation (the `rtv verify` /
  /// `rtv portfolio` shape) instead of one obligation per file.
  bool compose = false;
  bool ping = false;
  bool stats = false;
  bool metrics = false;
  bool shutdown = false;
};

volatile std::sig_atomic_t g_stop_signal = 0;
void on_stop_signal(int) { g_stop_signal = 1; }

int cmd_serve(const ServeCliOptions& scli, const VerifyCliOptions& cli) {
  if (scli.socket_path.empty()) {
    std::fprintf(stderr, "serve requires --socket PATH\n");
    return kExitUsage;
  }
  serve::ServerOptions opts;
  opts.socket_path = scli.socket_path;
  opts.cache_path = scli.cache_path;
  opts.jobs = cli.jobs;
  opts.max_cache_entries = scli.max_cache_entries;
  opts.heartbeat_seconds = scli.heartbeat_seconds;
  opts.log = [](const std::string& line) {
    std::fprintf(stderr, "rtv serve: %s\n", line.c_str());
  };
  serve::Server server(opts);
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  server.start();
  while (!server.wait_for(0.25) && !g_stop_signal) {
  }
  server.stop();
  const serve::ServeStats s = server.stats();
  std::fprintf(stderr,
               "rtv serve: stopped after %.1f s — %llu request(s), "
               "%llu obligation(s): %llu cache hit(s), %llu deduped, "
               "%llu computed\n",
               s.uptime_seconds, static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.obligations),
               static_cast<unsigned long long>(s.cache_hits),
               static_cast<unsigned long long>(s.deduped),
               static_cast<unsigned long long>(s.computed));
  return 0;
}

int cmd_client(const std::vector<std::string>& files,
               const ServeCliOptions& scli, const VerifyCliOptions& cli) {
  if (scli.socket_path.empty()) {
    std::fprintf(stderr, "client requires --socket PATH\n");
    return kExitUsage;
  }
  serve::Client client;
  client.connect(scli.socket_path);

  if (scli.ping) {
    const bool ok = client.ping();
    std::printf("%s\n", ok ? "pong" : "ping failed");
    return ok ? 0 : kExitRuntime;
  }
  if (scli.metrics) {
    std::printf("%s", client.get_metrics().c_str());
    return 0;
  }
  if (scli.stats) {
    // Fetch via call() rather than get_stats() so the optional metrics_json
    // payload survives for --json output.
    serve::ServeRequest sreq;
    sreq.kind = serve::RequestKind::kStats;
    const serve::ServeResponse sresp = client.call(sreq);
    if (!sresp.ok || !sresp.has_stats) {
      std::fprintf(stderr, "error from daemon: %s\n", sresp.error.c_str());
      return kExitRuntime;
    }
    const serve::ServeStats& s = sresp.stats;
    if (!cli.json_path.empty()) {
      // One machine-readable document: the wire stats counters plus the
      // daemon's full metrics snapshot when it has metrics enabled.
      std::string out = "{\"stats\":";
      serve::stats_to_json(out, s);
      if (!sresp.metrics_json.empty()) {
        out += ",\"metrics\":";
        out += sresp.metrics_json;
      }
      out += "}\n";
      if (cli.json_path == "-") {
        std::fputs(out.c_str(), stdout);
      } else if (!write_text(out, cli.json_path)) {
        return kExitRuntime;
      }
      return 0;
    }
    std::printf("uptime:          %.1f s\n", s.uptime_seconds);
    std::printf("jobs:            %llu\n",
                static_cast<unsigned long long>(s.jobs));
    std::printf("requests:        %llu\n",
                static_cast<unsigned long long>(s.requests));
    std::printf("obligations:     %llu\n",
                static_cast<unsigned long long>(s.obligations));
    std::printf("cache hits:      %llu\n",
                static_cast<unsigned long long>(s.cache_hits));
    std::printf("deduped:         %llu\n",
                static_cast<unsigned long long>(s.deduped));
    std::printf("computed:        %llu\n",
                static_cast<unsigned long long>(s.computed));
    std::printf("lint rejected:   %llu\n",
                static_cast<unsigned long long>(s.lint_rejected));
    std::printf("errors:          %llu\n",
                static_cast<unsigned long long>(s.errors));
    std::printf("cache entries:   %llu\n",
                static_cast<unsigned long long>(s.cache_entries));
    std::printf("cache evictions: %llu\n",
                static_cast<unsigned long long>(s.cache_evictions));
    return 0;
  }
  if (scli.shutdown) {
    client.request_shutdown();
    std::printf("shutdown requested\n");
    return 0;
  }

  if (files.empty()) return usage();
  serve::ServeRequest req;
  req.kind = serve::RequestKind::kVerify;
  req.mode = scli.portfolio ? SuiteMode::kPortfolio : SuiteMode::kBatch;
  req.engines = cli.engines;
  req.max_states = cli.max_states;
  req.max_seconds = cli.timeout_seconds;
  req.max_refinements = cli.max_ref;
  if (scli.compose) {
    // One obligation composing every file over shared labels — the same
    // shape `rtv verify`/`rtv portfolio` check locally.  Because the
    // daemon keys its cache on the *sliced* canonical form, two composed
    // requests differing only in out-of-cone padding share one entry.
    serve::WireObligation ob;
    for (const std::string& f : files) {
      ob.modules.push_back(elaborate(load(f)));
      if (!ob.name.empty()) ob.name += " || ";
      ob.name += ob.modules.back().name();
    }
    if (cli.deadlock) ob.properties.push_back(serve::PropertySpec::deadlock());
    if (cli.persistency)
      ob.properties.push_back(serve::PropertySpec::persistency());
    req.obligations.push_back(std::move(ob));
  } else {
    for (const std::string& f : files) {
      serve::WireObligation ob;
      ob.name = f;
      ob.modules.push_back(elaborate(load(f)));
      if (cli.deadlock)
        ob.properties.push_back(serve::PropertySpec::deadlock());
      if (cli.persistency)
        ob.properties.push_back(serve::PropertySpec::persistency());
      req.obligations.push_back(std::move(ob));
    }
  }

  const serve::ServeResponse resp = client.call(req);
  if (!resp.ok) {
    std::fprintf(stderr, "error from daemon: %s\n", resp.error.c_str());
    return kExitRuntime;
  }
  if (!resp.has_report) {
    std::fprintf(stderr, "error: verify response carries no report\n");
    return kExitRuntime;
  }
  std::size_t hits = 0;
  for (const SuiteRecord& rec : resp.report.records)
    if (rec.cached) ++hits;
  std::fprintf(stderr, "%zu of %zu record(s) served from cache\n", hits,
               resp.report.records.size());
  return finish_suite(resp.report, cli);
}

// ---------------------------------------------------------------------------
// fuzz — the differential campaign (rtv/fuzz/campaign.hpp)
// ---------------------------------------------------------------------------

int cmd_fuzz(fuzz::CampaignOptions opt, bool replay,
             const std::string& json_path) {
  if (!engines_exist(opt.engines)) return kExitUsage;
  if (opt.engines.size() < 2 && !replay) {
    std::fprintf(stderr,
                 "fuzz compares engine verdicts; select at least two with "
                 "--engines\n");
    return kExitUsage;
  }
  opt.log = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };

  if (replay) {
    // --seed is the *case* seed here (as printed in a failure's
    // reproducer line), not a campaign seed.
    const fuzz::CaseResult r = fuzz::run_case(opt.seed, opt.config, opt);
    std::printf("== fuzz replay (seed %llu) ==\n",
                static_cast<unsigned long long>(opt.seed));
    std::printf("config:   %s\n", opt.config.to_json().c_str());
    if (!r.failure) {
      std::printf(
          "agreed:   %zu definitive verdict(s), %zu trace(s) replayed\n",
          r.definitive, r.traces_replayed);
      return 0;
    }
    std::printf("FAILURE:  %s — %s\n", fuzz::to_string(r.failure->kind),
                r.failure->detail.c_str());
    return 1;
  }

  const fuzz::CampaignReport report = fuzz::run_campaign(opt);
  std::printf("== fuzz campaign ==\n");
  std::printf("seed:       %llu\n",
              static_cast<unsigned long long>(report.seed));
  std::printf("config:     %s\n", report.config.to_json().c_str());
  std::printf("cases:      %zu (%zu definitive verdicts, %zu traces replayed)\n",
              report.cases, report.definitive_verdicts,
              report.traces_replayed);
  std::printf("time:       %.1f s\n", report.wall_seconds);
  std::printf("failures:   %zu\n", report.failures.size());
  for (const fuzz::CampaignFailure& f : report.failures) {
    std::printf("  case %zu: %s — %s\n", f.case_index,
                fuzz::to_string(f.kind), f.detail.c_str());
    std::printf("    replay: rtv fuzz --replay --seed %llu --config <file "
                "holding: %s>\n",
                static_cast<unsigned long long>(f.seed),
                f.minimized.to_json().c_str());
  }
  if (!json_path.empty() && !write_text(report.to_json(), json_path))
    return kExitRuntime;
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> files;
  VerifyCliOptions vopts;
  std::size_t events = 200;
  std::uint64_t seed = 1;
  std::string vcd;
  std::vector<std::string> signals;
  fuzz::CampaignOptions fuzz_opt;
  fuzz_opt.jobs = 0;  // CLI default: one worker per hardware thread
  bool fuzz_replay = false;
  bool fuzz_cases_set = false;
  ServeCliOptions serve_opt;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(kExitUsage);
      }
      return argv[++i];
    };
    if (arg == "--no-deadlock") {
      vopts.deadlock = false;
    } else if (arg == "--no-persistency") {
      vopts.persistency = false;
    } else if (arg == "--max-ref") {
      vopts.max_ref = parse_size(arg, next());
    } else if (arg == "--engine" || arg == "--engines") {
      for (std::string& name : split_csv(next()))
        vopts.engines.push_back(std::move(name));
    } else if (arg == "--timeout") {
      vopts.timeout_seconds = parse_double(arg, next());
    } else if (arg == "--max-states") {
      vopts.max_states = parse_size(arg, next());
    } else if (arg == "--progress") {
      vopts.progress = true;
    } else if (arg == "--progress-json") {
      vopts.progress_json = true;
    } else if (arg == "--trace") {
      vopts.trace_path = next();
    } else if (arg == "--jobs") {
      vopts.jobs = parse_size(arg, next());
    } else if (arg == "--json") {
      vopts.json_path = next();
    } else if (arg == "--events") {
      events = parse_size(arg, next());
      fuzz_opt.config.events = static_cast<std::uint32_t>(events);
    } else if (arg == "--seed") {
      seed = parse_size(arg, next());
    } else if (arg == "--cases") {
      fuzz_opt.cases = parse_size(arg, next());
      fuzz_cases_set = true;
    } else if (arg == "--seconds") {
      fuzz_opt.seconds = parse_double(arg, next());
      // A time-bounded campaign runs until the deadline unless the user
      // also capped the cases explicitly.
      if (!fuzz_cases_set) fuzz_opt.cases = 0;
    } else if (arg == "--modules") {
      fuzz_opt.config.modules =
          static_cast<std::uint32_t>(parse_size(arg, next()));
    } else if (arg == "--max-delay") {
      fuzz_opt.config.max_delay = static_cast<Time>(parse_size(arg, next()));
    } else if (arg == "--properties") {
      fuzz_opt.config.properties =
          static_cast<std::uint32_t>(parse_size(arg, next()));
    } else if (arg == "--padding-modules") {
      fuzz_opt.config.padding_modules =
          static_cast<std::uint32_t>(parse_size(arg, next()));
    } else if (arg == "--config") {
      const std::string path = next();
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
        return kExitRuntime;
      }
      std::string text((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
      try {
        fuzz_opt.config = fuzz::GeneratorConfig::from_json(text);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitUsage;
      }
    } else if (arg == "--no-minimize") {
      fuzz_opt.minimize = false;
    } else if (arg == "--replay") {
      fuzz_replay = true;
    } else if (arg == "--socket") {
      serve_opt.socket_path = next();
    } else if (arg == "--cache") {
      serve_opt.cache_path = next();
    } else if (arg == "--max-cache-entries") {
      serve_opt.max_cache_entries = parse_size(arg, next());
    } else if (arg == "--heartbeat") {
      serve_opt.heartbeat_seconds = parse_double(arg, next());
    } else if (arg == "--portfolio") {
      serve_opt.portfolio = true;
    } else if (arg == "--compose") {
      serve_opt.compose = true;
    } else if (arg == "--ping") {
      serve_opt.ping = true;
    } else if (arg == "--stats") {
      serve_opt.stats = true;
    } else if (arg == "--metrics") {
      serve_opt.metrics = true;
    } else if (arg == "--shutdown") {
      serve_opt.shutdown = true;
    } else if (arg == "--vcd") {
      vcd = next();
    } else if (arg == "--signals") {
      signals = split_csv(next());
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return usage();
    } else {
      files.push_back(arg);
    }
  }

  // --trace wraps the whole command: every worker thread created after
  // start_tracing() records spans, and the file is written even when the
  // command exits with a verdict or failure code.
  const bool tracing = !vopts.trace_path.empty();
  if (tracing) {
    obs::start_tracing();
    obs::set_thread_name("main");
  }

  auto dispatch = [&]() -> int {
    if (cmd == "verify" && !files.empty()) return cmd_verify(files, vopts);
    if (cmd == "suite" && !files.empty()) return cmd_suite(files, vopts);
    if (cmd == "portfolio" && !files.empty())
      return cmd_portfolio(files, vopts);
    if (cmd == "engines") return cmd_engines();
    if (cmd == "lint" && !files.empty()) return cmd_lint(files, vopts);
    if (cmd == "slice" && !files.empty()) return cmd_slice(files, vopts);
    if (cmd == "fuzz" && files.empty()) {
      fuzz_opt.seed = seed;
      if (!vopts.engines.empty()) fuzz_opt.engines = vopts.engines;
      if (vopts.jobs != 0) fuzz_opt.jobs = vopts.jobs;
      if (vopts.max_states != 0) fuzz_opt.max_states = vopts.max_states;
      fuzz_opt.max_seconds = vopts.timeout_seconds;
      return cmd_fuzz(std::move(fuzz_opt), fuzz_replay, vopts.json_path);
    }
    if (cmd == "simulate" && !files.empty())
      return cmd_simulate(files, events, seed, vcd, signals);
    if (cmd == "dot" && files.size() == 1) return cmd_dot(files[0]);
    if (cmd == "minimize" && files.size() == 1) return cmd_minimize(files[0]);
    if (cmd == "ipcmos") return cmd_ipcmos(vopts);
    if (cmd == "serve" && files.empty()) return cmd_serve(serve_opt, vopts);
    if (cmd == "client") return cmd_client(files, serve_opt, vopts);
    return usage();
  };

  int rc;
  try {
    rc = dispatch();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = kExitRuntime;
  }
  if (tracing) {
    if (obs::write_trace(vopts.trace_path))
      std::fprintf(stderr, "trace written to %s\n", vopts.trace_path.c_str());
    else
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   vopts.trace_path.c_str());
  }
  return rc;
}
