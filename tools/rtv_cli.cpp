// rtv — command-line front end.
//
// Every flag is one row of kFlags and every subcommand one row of
// kSubcommands; parsing, `rtv help`, `rtv <cmd> --help` and the usage error
// are generated from those two tables.  `rtv help` prints the synopsis, and
// docs/CLI.md carries the same lines (a ctest keeps the two equal) plus the
// exit codes: 0 verified, 1 violated, 2 inconclusive, 64 usage error,
// 70 runtime failure.
#include <algorithm>
#include <array>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
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

// --- The flag table ---------------------------------------------------------

/// Every option of every subcommand.  Flags write here in argv order, so a
/// later flag overrides an earlier one (`--config` then `--events`).
struct CliOptions {
  std::vector<std::string> files;
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
  /// simulate: the RNG seed; fuzz: the campaign seed, or with --replay the
  /// case seed a failure's reproducer line prints.
  std::uint64_t seed = 1;
  std::size_t events = 200;  ///< simulate's event count
  std::string vcd;
  std::vector<std::string> signals;
  /// The generator shape and case limits; cmd_fuzz merges the shared
  /// flags (seed, engines, jobs, budgets) in.
  fuzz::CampaignOptions fuzz;
  bool cases_set = false;
  bool replay = false;
  std::string socket_path;
  std::string cache_path;
  std::size_t max_cache_entries = 4096;
  double heartbeat_seconds = 0.0;
  /// Client switches; `compose` sends every file as ONE obligation (the
  /// `rtv verify` / `rtv portfolio` shape) instead of one per file.
  bool portfolio = false, compose = false;
  bool ping = false, stats = false, metrics = false, shutdown = false;
};

/// One bit per subcommand; a flag row names the subcommands that read it.
constexpr unsigned kVerify = 1u << 0, kSuite = 1u << 1, kPortfolio = 1u << 2,
                   kEngines = 1u << 3, kLint = 1u << 4, kSlice = 1u << 5, kFuzz = 1u << 6,
                   kIpcmos = 1u << 7, kServe = 1u << 8, kClient = 1u << 9,
                   kSimulate = 1u << 10, kDot = 1u << 11, kMinimize = 1u << 12;
constexpr unsigned kAll = (1u << 13) - 1;
constexpr unsigned kRun = kVerify | kSuite | kPortfolio;  ///< the local engine runners

/// A malformed flag value; the parser reports it as a usage error.
struct BadValue {};

/// A value that fits `T`; a sign, a fraction or an overflow is a usage
/// error (exit 64), never a silent wrap-around.
template <typename T = std::size_t>
T parse_uint(const std::string& value) {
  T v{};
  const char* end = value.data() + value.size();
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos ||
      std::from_chars(value.data(), end, v).ec != std::errc())
    throw BadValue{};
  return v;
}
constexpr auto parse_u32 = parse_uint<std::uint32_t>;

double parse_double(const std::string& value) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(value, &pos);
    if (pos == value.size() && v >= 0.0) return v;
  } catch (const std::exception&) {
  }
  throw BadValue{};
}

/// The non-empty items of a comma-separated list.
std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream in(s);
  for (std::string item; std::getline(in, item, ',');)
    if (!item.empty()) out.push_back(item);
  return out;
}

void list_engines(std::FILE* out) {
  for (const Engine* e : engine_registry().engines()) {
    std::fprintf(out, "  %-10s %s\n", std::string(e->name()).c_str(),
                 std::string(e->description()).c_str());
  }
}

/// `--engine` names must be registered; an unknown one prints the registry
/// and is a usage error — scripted callers distinguish this (64) from
/// verdicts.
void add_engines(CliOptions& o, const std::string& csv) {
  for (std::string& name : split_csv(csv)) {
    if (!engine_registry().find(name)) {
      std::fprintf(stderr, "unknown engine '%s'; registered engines:\n", name.c_str());
      list_engines(stderr);
      std::exit(kExitUsage);
    }
    o.engines.push_back(std::move(name));
  }
}

void load_fuzz_config(CliOptions& o, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(kExitRuntime);
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  try {
    o.fuzz.config = fuzz::GeneratorConfig::from_json(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(kExitUsage);
  }
}

struct Flag {
  std::array<const char*, 2> names;  ///< the first one is shown in synopses
  const char* value;                 ///< placeholder; nullptr for a switch
  unsigned cmds;                     ///< bits of the subcommands that read it
  const char* help;
  void (*set)(CliOptions&, const std::string& value);
  unsigned required = 0;  ///< bits of the subcommands that need it
};

/// A setter's argument: the flag's value, or "" for a switch.
using V = const std::string&;

const Flag kFlags[] = {
    {{"--socket"}, "PATH", kServe | kClient, "the daemon's Unix-domain socket",
     [](CliOptions& o, V v) { o.socket_path = v; }, kServe | kClient},
    {{"--engine", "--engines"}, "NAME[,NAME...]",
     kRun | kLint | kFuzz | kIpcmos | kClient,
     "engines by name (rtv engines); verify takes one", add_engines},
    {{"--jobs"}, "N", kRun | kFuzz | kIpcmos | kServe,
     "worker threads; 0 (default) = one per hardware thread",
     [](CliOptions& o, V v) { o.jobs = parse_uint(v); }},
    {{"--timeout"}, "S", kRun | kFuzz | kIpcmos | kClient,
     "wall-clock deadline per engine run, in seconds",
     [](CliOptions& o, V v) { o.timeout_seconds = parse_double(v); }},
    {{"--max-states"}, "N", kRun | kLint | kFuzz | kIpcmos | kClient,
     "state budget per engine run; 0 = the engine's default",
     [](CliOptions& o, V v) { o.max_states = parse_uint(v); }},
    {{"--max-ref"}, "N", kRun | kIpcmos | kClient, "refine engine's iteration cap (500)",
     [](CliOptions& o, V v) { o.max_ref = parse_uint(v); }},
    {{"--no-deadlock"}, nullptr, kRun | kLint | kSlice | kClient,
     "drop the deadlock-freedom property", [](CliOptions& o, V) { o.deadlock = false; }},
    {{"--no-persistency"}, nullptr, kRun | kLint | kSlice | kClient,
     "drop the persistency property", [](CliOptions& o, V) { o.persistency = false; }},
    {{"--progress"}, nullptr, kRun | kIpcmos, "print engine progress lines on stderr",
     [](CliOptions& o, V) { o.progress = true; }},
    {{"--progress-json"}, nullptr, kRun | kIpcmos,
     "progress as JSON lines with a metrics snapshot",
     [](CliOptions& o, V) { o.progress_json = true; }},
    {{"--seed"}, "S", kFuzz | kSimulate, "the RNG seed; fuzz --replay: the case seed",
     [](CliOptions& o, V v) { o.seed = parse_uint<std::uint64_t>(v); }},
    {{"--cases"}, "N", kFuzz, "stop after N cases (default 100; 0 = no limit)",
     [](CliOptions& o, V v) {
       o.fuzz.cases = parse_uint(v);
       o.cases_set = true;
     }},
    {{"--seconds"}, "S", kFuzz, "stop after S seconds (lifts the default case limit)",
     [](CliOptions& o, V v) {
       o.fuzz.seconds = parse_double(v);
       if (!o.cases_set) o.fuzz.cases = 0;
     }},
    {{"--modules"}, "N", kFuzz, "generated modules per case",
     [](CliOptions& o, V v) { o.fuzz.config.modules = parse_u32(v); }},
    {{"--events"}, "N", kFuzz | kSimulate,
     "simulate: events to fire (200); fuzz: per module",
     [](CliOptions& o, V v) { o.events = o.fuzz.config.events = parse_u32(v); }},
    {{"--max-delay"}, "TICKS", kFuzz, "largest generated delay constant",
     [](CliOptions& o, V v) { o.fuzz.config.max_delay = parse_uint<Time>(v); }},
    {{"--properties"}, "N", kFuzz, "generated ordering properties per case",
     [](CliOptions& o, V v) { o.fuzz.config.properties = parse_u32(v); }},
    {{"--padding-modules"}, "N", kFuzz, "out-of-cone padding togglers per case",
     [](CliOptions& o, V v) { o.fuzz.config.padding_modules = parse_u32(v); }},
    {{"--config"}, "FILE", kFuzz, "an rtv-fuzz-config JSON generator config",
     load_fuzz_config},
    {{"--no-minimize"}, nullptr, kFuzz, "do not delta-debug failures",
     [](CliOptions& o, V) { o.fuzz.minimize = false; }},
    {{"--replay"}, nullptr, kFuzz, "run the one case that --seed names",
     [](CliOptions& o, V) { o.replay = true; }},
    {{"--cache"}, "FILE", kServe, "load the verdict cache at start, save it on shutdown",
     [](CliOptions& o, V v) { o.cache_path = v; }},
    {{"--max-cache-entries"}, "N", kServe, "LRU cap of the cache (4096)",
     [](CliOptions& o, V v) { o.max_cache_entries = parse_uint(v); }},
    {{"--heartbeat"}, "S", kServe, "log the stats counters every S seconds",
     [](CliOptions& o, V v) { o.heartbeat_seconds = parse_double(v); }},
    {{"--portfolio"}, nullptr, kClient, "race the engines on each obligation",
     [](CliOptions& o, V) { o.portfolio = true; }},
    {{"--compose"}, nullptr, kClient, "send the files as one obligation",
     [](CliOptions& o, V) { o.compose = true; }},
    {{"--ping"}, nullptr, kClient, "liveness probe",
     [](CliOptions& o, V) { o.ping = true; }},
    {{"--stats"}, nullptr, kClient, "print the daemon's counters",
     [](CliOptions& o, V) { o.stats = true; }},
    {{"--metrics"}, nullptr, kClient, "print the daemon's metrics as Prometheus text",
     [](CliOptions& o, V) { o.metrics = true; }},
    {{"--shutdown"}, nullptr, kClient, "ask the daemon to save and stop",
     [](CliOptions& o, V) { o.shutdown = true; }},
    {{"--vcd"}, "FILE", kSimulate, "also write the waveform as VCD",
     [](CliOptions& o, V v) { o.vcd = v; }},
    {{"--signals"}, "a,b", kSimulate, "signals to show (default: all)",
     [](CliOptions& o, V v) { o.signals = split_csv(v); }},
    {{"--json"}, "FILE",
     kSuite | kPortfolio | kLint | kSlice | kFuzz | kIpcmos | kClient,
     "write the JSON report to FILE; - = stdout, without the text",
     [](CliOptions& o, V v) { o.json_path = v; }},
    {{"--trace"}, "FILE", kAll, "write a Perfetto trace of the whole command",
     [](CliOptions& o, V v) { o.trace_path = v; }},
};

const Flag* find_flag(std::string_view name) {
  for (const Flag& f : kFlags)
    for (const char* n : f.names)
      if (n && name == n) return &f;
  return nullptr;
}

// --- Text generated from the tables -----------------------------------------

/// The `.g` operands a subcommand takes: none, exactly one, one or more, any.
enum class Arity { kNone, kOne, kSome, kAny };
constexpr const char* kOperands[] = {"", "<stg.g>", "<stg.g>...", "[<stg.g>...]"};

struct Subcommand {
  const char* name;
  unsigned cmd;  ///< its bit
  Arity files;
  int (*run)(const CliOptions&);
  const char* summary;
};

/// `rtv NAME OPERANDS [--flag VALUE]...`, wrapped before column 80 with
/// the continuation lines aligned under the first flag.
std::string synopsis(const Subcommand& sub) {
  char head[64];
  std::snprintf(head, sizeof head, "rtv %-9s %-12s", sub.name,
                kOperands[static_cast<int>(sub.files)]);
  const std::string indent(std::strlen(head), ' ');
  std::string out, line = head;
  for (const Flag& f : kFlags) {
    if (!(f.cmds & sub.cmd)) continue;
    std::string item = f.names[0];
    if (f.value) item.append(" ").append(f.value);
    if (!(f.required & sub.cmd)) item = std::string("[").append(item).append("]");
    if (line.size() > indent.size() && line.size() + 1 + item.size() > 79) {
      out += line + "\n";
      line = indent;
    }
    line += " " + item;
  }
  return out + line + "\n";
}

/// `rtv <cmd> --help`: the synopsis, the summary and one line per flag.
std::string subcommand_help(const Subcommand& sub) {
  std::string out = "usage:\n" + synopsis(sub) + "\n" + sub.summary + "\n\n";
  for (const Flag& f : kFlags) {
    if (!(f.cmds & sub.cmd)) continue;
    std::string left = std::string("  ") + f.names[0];
    if (f.names[1]) left.append(", ").append(f.names[1]);
    if (f.value) left.append(" ").append(f.value);
    left += left.size() < 24 ? std::string(24 - left.size(), ' ')
                             : "\n" + std::string(24, ' ');
    out.append(left).append(f.help).append("\n");
  }
  return out;
}

const Subcommand* find_subcommand(std::string_view name);

/// Prints `message` and the subcommand's synopsis to stderr; returns 64.
int usage_error(std::string_view cmd, const std::string& message) {
  const Subcommand& sub = *find_subcommand(cmd);
  std::fprintf(stderr, "rtv %s: %s\nusage:\n%s", sub.name, message.c_str(),
               synopsis(sub).c_str());
  return kExitUsage;
}

// --- Shared pieces of the subcommands ---------------------------------------

Stg load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return parse_astg(in);
}

/// Elaborates every file into `suite`, logging one line per module.
std::vector<const Module*> load_all(Suite& suite, const std::vector<std::string>& files) {
  std::vector<const Module*> mods;
  for (const std::string& f : files) {
    const Module* m = suite.own(elaborate(load(f)));
    std::fprintf(stderr, "loaded %s: %zu states, %zu events\n",
                 m->name().c_str(), m->ts().num_states(), m->ts().num_events());
    mods.push_back(m);
  }
  return mods;
}

/// The default properties, less those --no-deadlock and --no-persistency
/// drop, as the specs `rtv client` sends.
std::vector<serve::PropertySpec> property_specs(const CliOptions& cli) {
  std::vector<serve::PropertySpec> specs;
  if (cli.deadlock) specs.push_back(serve::PropertySpec::deadlock());
  if (cli.persistency) specs.push_back(serve::PropertySpec::persistency());
  return specs;
}

/// The same properties, instantiated into `suite` for the local commands.
std::vector<const SafetyProperty*> default_properties(Suite& suite,
                                                      const CliOptions& cli) {
  std::vector<const SafetyProperty*> props;
  for (const serve::PropertySpec& spec : property_specs(cli))
    props.push_back(suite.own(spec.instantiate()));
  return props;
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

/// `--json -`: the JSON document goes to stdout, which then carries
/// nothing else.
bool json_to_stdout(const CliOptions& cli) { return cli.json_path == "-"; }

/// Writes the --json document, if one was asked for: to stdout for "-",
/// else to the file.  I/O failures are runtime errors (70), not verdicts.
bool write_json(const std::string& json, const CliOptions& cli) {
  if (cli.json_path.empty()) return true;
  if (json_to_stdout(cli)) {
    std::fputs(json.c_str(), stdout);
    if (json.empty() || json.back() != '\n') std::fputc('\n', stdout);
    return true;
  }
  const std::string& path = cli.json_path;
  std::ofstream out(path);
  out << json;
  out.flush();  // surface buffered write errors (disk full) before testing
  if (!out) {
    std::fprintf(stderr, "error: cannot write JSON report to %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "JSON report written to %s\n", path.c_str());
  return true;
}

SuiteOptions suite_options(const CliOptions& cli, SuiteMode mode) {
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

int finish_suite(const SuiteReport& report, const CliOptions& cli) {
  if (!json_to_stdout(cli)) std::printf("%s", format_table(report).c_str());
  if (!write_json(report.to_json(), cli)) return kExitRuntime;
  return exit_code(report.overall());
}

// --- The subcommands -------------------------------------------------------

int cmd_engines(const CliOptions&) {
  std::printf("registered verification engines:\n");
  list_engines(stdout);
  return 0;
}

int cmd_verify(const CliOptions& cli) {
  if (cli.engines.size() > 1) {
    std::fprintf(stderr,
                 "verify runs a single engine; use 'suite' or 'portfolio' for several\n");
    return kExitUsage;
  }
  const std::string name = cli.engines.empty() ? "refine" : cli.engines[0];

  // One obligation, composed and then decided on the one engine, as given:
  // no lint pre-flight, no slicing.
  Suite suite;
  std::vector<const Module*> mods = load_all(suite, cli.files);
  suite.add("verify", std::move(mods), default_properties(suite, cli));
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

int cmd_suite(const CliOptions& cli) {
  // Every input file is one independent (closed-system) obligation, named
  // by its path so scripted callers can key the JSON records.
  Suite suite;
  const std::vector<const SafetyProperty*> props =
      default_properties(suite, cli);
  const std::vector<const Module*> mods = load_all(suite, cli.files);
  for (std::size_t i = 0; i < mods.size(); ++i)
    suite.add(cli.files[i], {mods[i]}, props).max_refinements = cli.max_ref;

  const SuiteReport report =
      run_suite(suite, suite_options(cli, SuiteMode::kBatch));
  return finish_suite(report, cli);
}

int cmd_portfolio(const CliOptions& cli) {
  // One obligation: the composition of every input file, raced by the
  // selected engines (all registered engines by default).
  Suite suite;
  std::vector<const Module*> mods = load_all(suite, cli.files);
  std::string name;
  for (const Module* m : mods) {
    if (!name.empty()) name += " || ";
    name += m->name();
  }
  Obligation& ob = suite.add(std::move(name), std::move(mods),
                             default_properties(suite, cli));
  ob.max_refinements = cli.max_ref;

  const SuiteReport report =
      run_suite(suite, suite_options(cli, SuiteMode::kPortfolio));
  return finish_suite(report, cli);
}

int cmd_lint(const CliOptions& cli) {
  // The files form one composed obligation, mirroring `rtv verify` /
  // `rtv portfolio`: shared labels synchronise, and the same default
  // properties apply.  No engine runs — the exit code reports the lint
  // verdict, not a verification verdict.
  Suite owner;
  const std::vector<const Module*> mods = load_all(owner, cli.files);
  lint::LintOptions opts;
  opts.engines = cli.engines;  // empty = every engine-specific check armed
  opts.max_states = cli.max_states;
  const lint::LintReport report =
      lint::lint_modules(mods, default_properties(owner, cli), opts);

  if (!json_to_stdout(cli)) std::printf("%s", report.format().c_str());
  if (!write_json(report.to_json(), cli)) return kExitRuntime;
  return report.exit_code();
}

/// Machine-readable slice report; schema mirrors the library's other JSON
/// documents (stable tag + version, see docs/CLI.md).
std::string slice_to_json(const analysis::SliceResult& sl, std::size_t total_modules) {
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

void print_slice(const analysis::SliceResult& sl, std::size_t total_modules) {
  std::printf("== slice ==\n");
  if (!sl.bailout.empty()) {
    std::printf("identity (bailout): %s\n", sl.bailout.c_str());
  } else if (sl.identity) {
    std::printf("identity: nothing is provably outside the cone\n");
  } else {
    std::printf("kept:          %zu of %zu module(s)\n", sl.modules.size(),
                total_modules);
    std::printf("dropped:       %zu module(s), %zu event(s)\n",
                sl.dropped_modules, sl.dropped_events);
    std::printf("pruned:        %zu unreachable state(s)\n", sl.pruned_states);
  }
  for (const analysis::SliceNote& n : sl.notes) {
    if (n.kind == "bailout") continue;  // already printed above
    if (n.module.empty()) {
      std::printf("  [%s] %s\n", n.kind.c_str(), n.reason.c_str());
    } else if (n.object.empty()) {
      std::printf("  [%s] %s: %s\n", n.kind.c_str(), n.module.c_str(), n.reason.c_str());
    } else {
      std::printf("  [%s] %s/%s: %s\n", n.kind.c_str(), n.module.c_str(),
                  n.object.c_str(), n.reason.c_str());
    }
  }
}

int cmd_slice(const CliOptions& cli) {
  // Like `rtv lint`, the files form one composed obligation with the
  // default properties; the output is what `run_suite` would hand the
  // engines after slicing, plus the provenance of everything removed.
  Suite owner;
  const std::vector<const Module*> mods = load_all(owner, cli.files);
  const analysis::SliceResult sl =
      analysis::slice(mods, default_properties(owner, cli));

  if (!json_to_stdout(cli)) print_slice(sl, mods.size());
  return write_json(slice_to_json(sl, mods.size()), cli) ? 0 : kExitRuntime;
}

int cmd_simulate(const CliOptions& cli) {
  Suite owner;
  SimOptions opts;
  opts.max_events = cli.events;
  opts.seed = cli.seed;
  const SimTrace t = simulate_modules(load_all(owner, cli.files), opts);
  std::printf("%zu events over %.2f units%s\n", t.events.size(),
              units_from_ticks(t.end_time), t.deadlocked ? " (deadlock)" : "");
  for (const SimEvent& e : t.events) {
    std::printf("  %10.2f  %s\n", units_from_ticks(e.time), e.label.c_str());
  }
  TransitionSystem table;
  table.set_signal_names(t.signal_names);
  const std::vector<std::string> shown =
      cli.signals.empty() ? t.signal_names : cli.signals;
  std::printf("\n%s", ascii_waveform(table, t, shown).c_str());
  if (!cli.vcd.empty()) {
    std::ofstream out(cli.vcd);
    out << to_vcd(table, t, shown);
    std::printf("VCD written to %s\n", cli.vcd.c_str());
  }
  return 0;
}

int cmd_dot(const CliOptions& cli) {
  const Module m = elaborate(load(cli.files[0]));
  std::printf("%s", to_dot(m.ts()).c_str());
  return 0;
}

int cmd_minimize(const CliOptions& cli) {
  const Module m = elaborate(load(cli.files[0]));
  const MinimizeResult r = minimize(m.ts());
  std::printf("%s: %zu reachable states -> %zu bisimulation classes\n",
              m.name().c_str(), m.ts().num_reachable_states(), r.num_blocks);
  std::printf("%s", to_dot(r.ts).c_str());
  return 0;
}

int cmd_ipcmos(const CliOptions& cli) {
  const Suite suite = ipcmos::table1_suite();
  const SuiteReport report =
      run_suite(suite, suite_options(cli, SuiteMode::kBatch));
  return finish_suite(report, cli);
}

// serve / client — the persistent verification service (rtv/serve/)

volatile std::sig_atomic_t g_stop_signal = 0;
void on_stop_signal(int) { g_stop_signal = 1; }

int cmd_serve(const CliOptions& cli) {
  serve::ServerOptions opts;
  opts.socket_path = cli.socket_path;
  opts.cache_path = cli.cache_path;
  opts.jobs = cli.jobs;
  opts.max_cache_entries = cli.max_cache_entries;
  opts.heartbeat_seconds = cli.heartbeat_seconds;
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
               "%llu obligation(s): %llu cache hit(s), %llu deduped, %llu computed\n",
               s.uptime_seconds, static_cast<unsigned long long>(s.requests),
               static_cast<unsigned long long>(s.obligations),
               static_cast<unsigned long long>(s.cache_hits),
               static_cast<unsigned long long>(s.deduped),
               static_cast<unsigned long long>(s.computed));
  return 0;
}

int cmd_client(const CliOptions& cli) {
  if (cli.files.empty() && !cli.ping && !cli.metrics && !cli.stats && !cli.shutdown)
    return usage_error("client",
                       "needs <stg.g> files or one of --ping, --stats, "
                       "--metrics, --shutdown");
  serve::Client client;
  client.connect(cli.socket_path);

  if (cli.ping) {
    const bool ok = client.ping();
    std::printf("%s\n", ok ? "pong" : "ping failed");
    return ok ? 0 : kExitRuntime;
  }
  if (cli.metrics) {
    std::printf("%s", client.get_metrics().c_str());
    return 0;
  }
  if (cli.stats) {
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
      return write_json(out, cli) ? 0 : kExitRuntime;
    }
    const std::pair<const char*, std::uint64_t> counters[] = {
        {"jobs:", s.jobs}, {"requests:", s.requests},
        {"obligations:", s.obligations}, {"cache hits:", s.cache_hits},
        {"deduped:", s.deduped}, {"computed:", s.computed},
        {"lint rejected:", s.lint_rejected}, {"errors:", s.errors},
        {"cache entries:", s.cache_entries}, {"cache evictions:", s.cache_evictions}};
    std::printf("uptime:          %.1f s\n", s.uptime_seconds);
    for (const auto& [label, value] : counters)
      std::printf("%-17s%llu\n", label, static_cast<unsigned long long>(value));
    return 0;
  }
  if (cli.shutdown) {
    client.request_shutdown();
    std::printf("shutdown requested\n");
    return 0;
  }

  serve::ServeRequest req;
  req.kind = serve::RequestKind::kVerify;
  req.mode = cli.portfolio ? SuiteMode::kPortfolio : SuiteMode::kBatch;
  req.engines = cli.engines;
  req.max_states = cli.max_states;
  req.max_seconds = cli.timeout_seconds;
  req.max_refinements = cli.max_ref;
  const std::vector<serve::PropertySpec> props = property_specs(cli);
  if (cli.compose) {
    // One obligation composing every file over shared labels — the same
    // shape `rtv verify`/`rtv portfolio` check locally.  Because the
    // daemon keys its cache on the *sliced* canonical form, two composed
    // requests differing only in out-of-cone padding share one entry.
    serve::WireObligation ob;
    for (const std::string& f : cli.files) {
      ob.modules.push_back(elaborate(load(f)));
      if (!ob.name.empty()) ob.name += " || ";
      ob.name += ob.modules.back().name();
    }
    ob.properties = props;
    req.obligations.push_back(std::move(ob));
  } else {
    for (const std::string& f : cli.files) {
      serve::WireObligation ob;
      ob.name = f;
      ob.modules.push_back(elaborate(load(f)));
      ob.properties = props;
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

// fuzz — the differential campaign (rtv/fuzz/campaign.hpp)

void print_campaign(const fuzz::CampaignReport& report) {
  std::printf("== fuzz campaign ==\n");
  std::printf("seed:       %llu\n", static_cast<unsigned long long>(report.seed));
  std::printf("config:     %s\n", report.config.to_json().c_str());
  std::printf("cases:      %zu (%zu definitive verdicts, %zu traces replayed)\n",
              report.cases, report.definitive_verdicts, report.traces_replayed);
  std::printf("time:       %.1f s\n", report.wall_seconds);
  std::printf("failures:   %zu\n", report.failures.size());
  for (const fuzz::CampaignFailure& f : report.failures) {
    std::printf("  case %zu: %s — %s\n", f.case_index,
                fuzz::to_string(f.kind), f.detail.c_str());
    std::printf("    replay: rtv fuzz --replay --seed %llu --config <file "
                "holding: %s>\n", static_cast<unsigned long long>(f.seed),
                f.minimized.to_json().c_str());
  }
}

int cmd_fuzz(const CliOptions& cli) {
  fuzz::CampaignOptions opt = cli.fuzz;
  opt.seed = cli.seed;
  if (!cli.engines.empty()) opt.engines = cli.engines;
  opt.jobs = cli.jobs;
  if (cli.max_states != 0) opt.max_states = cli.max_states;
  opt.max_seconds = cli.timeout_seconds;
  if (opt.engines.size() < 2 && !cli.replay) {
    std::fprintf(stderr,
                 "fuzz compares engine verdicts; select at least two with --engines\n");
    return kExitUsage;
  }
  if (!cli.replay && opt.cases == 0 && opt.seconds <= 0)
    return usage_error("fuzz", "needs --cases N or --seconds S above 0");
  opt.log = [](const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
  };

  if (cli.replay) {
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
  if (!json_to_stdout(cli)) print_campaign(report);
  if (!write_json(report.to_json(), cli)) return kExitRuntime;
  return report.ok() ? 0 : 1;
}

// --- The subcommand table and the parser -----------------------------------

const Subcommand kSubcommands[] = {
    {"verify", kVerify, Arity::kSome, cmd_verify,
     "Compose the files into one obligation and decide it on one engine."},
    {"suite", kSuite, Arity::kSome, cmd_suite,
     "Verify every file as its own obligation, as a parallel batch."},
    {"portfolio", kPortfolio, Arity::kSome, cmd_portfolio,
     "Compose the files into one obligation and race the engines on it."},
    {"engines", kEngines, Arity::kNone, cmd_engines,
     "List the registered verification engines."},
    {"lint", kLint, Arity::kSome, cmd_lint,
     "Static analysis of the composed files; exit 0 clean, 1 warnings, 2 errors."},
    {"slice", kSlice, Arity::kSome, cmd_slice,
     "The cone-of-influence slice of the composed files; no engine runs."},
    {"fuzz", kFuzz, Arity::kNone, cmd_fuzz,
     "Differential fuzzing of the engines; exit 1 iff a case fails."},
    {"ipcmos", kIpcmos, Arity::kNone, cmd_ipcmos,
     "The paper's five Table 1 obligations, run as one suite."},
    {"serve", kServe, Arity::kNone, cmd_serve,
     "The verification daemon with a verdict cache; stop it with client --shutdown."},
    {"client", kClient, Arity::kAny, cmd_client,
     "Send files to the daemon to verify, or ping, stats, metrics, shutdown."},
    {"simulate", kSimulate, Arity::kSome, cmd_simulate,
     "Timed simulation of the composed files: event log, waveform, VCD."},
    {"dot", kDot, Arity::kOne, cmd_dot, "The file's marking graph as Graphviz."},
    {"minimize", kMinimize, Arity::kOne, cmd_minimize,
     "Bisimulation quotient statistics and the quotient as Graphviz."},
};

const Subcommand* find_subcommand(std::string_view name) {
  for (const Subcommand& s : kSubcommands)
    if (name == s.name) return &s;
  return nullptr;
}

std::string help_text() {
  std::string out = "usage:\n";
  for (const Subcommand& s : kSubcommands) out += synopsis(s);
  return out +
         "\nexit codes: 0 verified, 1 violated, 2 inconclusive, 64 usage, 70 failure\n"
         "'rtv help SUBCOMMAND' or 'rtv SUBCOMMAND --help' lists its flags\n";
}

/// Fills `cli` from the arguments after the subcommand name; returns 0, or
/// the exit code of a usage error.
int parse(const Subcommand& sub, const std::vector<std::string>& args, CliOptions& cli) {
  unsigned long long seen = 0;  // bit i: kFlags[i] was given
  static_assert(std::size(kFlags) <= 64);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty() || arg[0] != '-') {
      cli.files.push_back(arg);
      continue;
    }
    const Flag* f = find_flag(arg);
    if (!f || !(f->cmds & sub.cmd))
      return usage_error(sub.name, "unexpected flag " + arg);
    std::string value;
    if (f->value) {
      if (i + 1 == args.size()) return usage_error(sub.name, "missing value for " + arg);
      value = args[++i];
    }
    try {
      f->set(cli, value);
    } catch (const BadValue&) {
      std::fprintf(stderr, "invalid value '%s' for %s\n", value.c_str(), arg.c_str());
      return kExitUsage;
    }
    seen |= 1ull << (f - kFlags);
  }
  for (const Flag& f : kFlags)
    if ((f.required & sub.cmd) && !(seen & (1ull << (&f - kFlags))))
      return usage_error(sub.name, std::string("missing ") + f.names[0]);
  const std::size_t n = cli.files.size();
  if (sub.files == Arity::kNone && n)
    return usage_error(sub.name, "unexpected operand " + cli.files[0]);
  if (sub.files == Arity::kOne && n != 1)
    return usage_error(sub.name, "takes exactly one <stg.g>");
  if (sub.files == Arity::kSome && !n)
    return usage_error(sub.name, "needs at least one <stg.g>");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // `rtv help`, `rtv --help`, `rtv help CMD` and `rtv CMD ... --help`.
  const std::vector<std::string> args(argv + 1, argv + argc);
  const bool help = !args.empty() && (args[0] == "help" || args[0] == "--help");
  const std::size_t at = help ? 1 : 0;  // where the subcommand name is
  if (help && args.size() == 1) {
    std::fputs(help_text().c_str(), stdout);
    return 0;
  }
  const Subcommand* sub = args.size() > at ? find_subcommand(args[at]) : nullptr;
  if (!sub) {
    if (args.size() > at)
      std::fprintf(stderr, "rtv: unknown subcommand '%s'\n", args[at].c_str());
    std::fputs(help_text().c_str(), stderr);
    return kExitUsage;
  }
  const std::vector<std::string> rest(args.begin() + at + 1, args.end());
  if (help || std::find(rest.begin(), rest.end(), "--help") != rest.end()) {
    std::fputs(subcommand_help(*sub).c_str(), stdout);
    return 0;
  }
  CliOptions cli;
  if (const int rc = parse(*sub, rest, cli)) return rc;

  // --trace wraps the whole command: every worker thread created after
  // start_tracing() records spans, and the file is written even when the
  // command exits with a verdict or failure code.
  const bool tracing = !cli.trace_path.empty();
  if (tracing) {
    obs::start_tracing();
    obs::set_thread_name("main");
  }
  int rc;
  try {
    rc = sub->run(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = kExitRuntime;
  }
  if (tracing) {
    if (obs::write_trace(cli.trace_path))
      std::fprintf(stderr, "trace written to %s\n", cli.trace_path.c_str());
    else
      std::fprintf(stderr, "error: cannot write trace to %s\n", cli.trace_path.c_str());
  }
  return rc;
}
