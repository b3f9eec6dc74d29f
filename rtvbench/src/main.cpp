// rtvbench — the rtv benchmark's entry point.
//
//   rtvbench --workload NAME --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// Workloads: table1-refine, table1-exact, serve-mixed, fuzz-campaign.
// With --trace 0 the last stdout line is a JSON object with the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics, taken from the
// same untraced passes plus one extra traced pass.  Any wrong answer makes
// `correct` false and the exit code 1.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "rtv/base/log.hpp"

namespace rtvbench {

std::size_t bench_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

void pin_to_one_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

double suite_overhead(const rtv::SuiteReport& report) {
  double longest = 0.0;
  for (const rtv::SuiteRecord& rec : report.records)
    longest = std::max(longest, rec.result.seconds);
  return report.wall_seconds - longest;
}

rtv::SuiteReport traced_run_suite(SpanLog& log, std::int64_t parent,
                                  std::uint64_t op, const rtv::Suite& suite,
                                  const rtv::SuiteOptions& options) {
  const std::uint64_t t0 = now_ns();
  rtv::SuiteReport r = rtv::run_suite(suite, options);
  const std::uint64_t t1 = now_ns();
  const std::int64_t id =
      log.add(Span{"run_suite", "suite", t0, t1, parent, op, thread_slot()});
  for (const rtv::SuiteRecord& rec : r.records)
    add_engine_span(log, id, t0, t1, op, rec.engine, rec.result.seconds);
  return r;
}

double obs_value(const rtv::obs::MetricsSnapshot& snap, std::string_view name,
                 std::string_view labels) {
  double sum = 0.0;
  for (const rtv::obs::MetricPoint& p : snap.points)
    if (p.name == name && (labels.empty() || p.labels == labels))
      sum += p.value;
  return sum;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},        {"wall_s", "s"},
    {"cpu_s", "s"},          {"peak_rss_mb", "MB"},
    {"latency_ms.p50", "ms"}, {"latency_ms.p99", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"verify.refine_s", "s"},
    {"verify.refine_iterations", "count"},
    {"verify.refine_states", "count"},
    {"verify.refine_states_per_s", "1/s"},
    {"verify.refine_search_s", "s"},
    {"timing.between_iterations_s", "s"},
    {"zone.zone_s", "s"},
    {"zone.zones", "count"},
    {"zone.discrete_s", "s"},
    {"zone.discrete_configs", "count"},
    {"zone.discrete_configs_per_s", "1/s"},
    {"parallel.barrier_wait_s", "s"},
    {"parallel.steals", "count"},
    {"ts.compose_s", "s"},
    {"ts.compose_states", "count"},
    {"suite.overhead_s", "s"},
    {"suite.queue_wait_s", "s"},
    {"lint.s", "s"},
    {"lint.rejected", "count"},
    {"analysis.slice_s", "s"},
    {"analysis.dropped_modules", "count"},
    {"serve.hit_ratio", "ratio"},
    {"serve.hit_ratio.base", "count"},
    {"serve.computed", "count"},
    {"serve.deduped", "count"},
    {"serve.evictions", "count"},
    {"serve.hit_latency_ms.p50", "ms"},
    {"serve.miss_latency_ms.p50", "ms"},
    {"serve.wire_us", "us"},
    {"serve.cache_key_us", "us"},
    {"serve.cache_load_s", "s"},
    {"serve.cache_save_s", "s"},
    {"fuzz.generate_s", "s"},
    {"fuzz.definitive", "count"},
    {"fuzz.traces_replayed", "count"},
    {"bench.trace_overhead", "ratio"},
    // Self time of the spans of each layer (a span's time minus what its
    // child spans cover) over the traced pass.
    {"self.bench_s", "s"},
    {"self.suite_s", "s"},
    {"self.verify_s", "s"},
    {"self.timing_s", "s"},
    {"self.ts_s", "s"},
    {"self.zone_s", "s"},
    {"self.lint_s", "s"},
    {"self.analysis_s", "s"},
    {"self.serve_s", "s"},
    {"self.fuzz_s", "s"},
};

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Give freed heap back to the system and restart the kernel's peak-RSS
/// mark, so the next peak_rss_mb() covers one pass.  Without it the peak is
/// the lifetime maximum, which depends on which allocator arenas earlier
/// passes happened to leave populated.  If the mark cannot be reset the
/// peak stays the lifetime peak.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set (VmHWM) since the last reset_peak_rss(), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

void usage() {
  std::fprintf(stderr,
               "usage: rtvbench --workload "
               "table1-refine|table1-exact|serve-mixed|fuzz-campaign\n"
               "                --seed N --seconds S --trace 0|1 "
               "[--workdir DIR]\n");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

/// Per-layer values that come straight from metric-registry deltas over
/// one untraced pass.
void layers_from_counters(const rtv::obs::MetricsSnapshot& before,
                          const rtv::obs::MetricsSnapshot& after,
                          Layers& l) {
  const auto delta = [&](std::string_view name, std::string_view labels = {}) {
    return obs_value(after, name, labels) - obs_value(before, name, labels);
  };
  l["verify.refine_s"] =
      delta("rtv_engine_run_seconds", "engine=\"refine\"");
  l["verify.refine_iterations"] =
      delta("rtv_engine_refinement_iterations_total");
  l["zone.zone_s"] = delta("rtv_engine_run_seconds", "engine=\"zone\"");
  l["zone.zones"] =
      delta("rtv_engine_states_explored_total", "engine=\"zone\"");
  l["zone.discrete_s"] =
      delta("rtv_engine_run_seconds", "engine=\"discrete\"");
  l["zone.discrete_configs"] =
      delta("rtv_engine_states_explored_total", "engine=\"discrete\"");
  l["parallel.barrier_wait_s"] = delta("rtv_parallel_barrier_wait_seconds");
  l["parallel.steals"] = delta("rtv_parallel_steals_total");
  l["ts.compose_states"] = delta("rtv_compose_states_total");
  l["suite.queue_wait_s"] = delta("rtv_suite_queue_wait_seconds");
  l["lint.rejected"] = delta("rtv_suite_lint_rejected_total") +
                       delta("rtv_serve_lint_rejected_total");
}

/// Per-layer values read off the traced pass's spans.
void layers_from_spans(const std::vector<Span>& spans, Layers& l) {
  for (const Span& s : spans) {
    if (s.name == "lint()") l["lint.s"] += s.seconds();
    if (s.name == "slice()") l["analysis.slice_s"] += s.seconds();
    if (s.name == "compose()") l["ts.compose_s"] += s.seconds();
    if (s.name == "generate()") l["fuzz.generate_s"] += s.seconds();
  }
  for (const auto& [layer, seconds] : self_seconds(spans))
    l["self." + layer + "_s"] = seconds;
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].second);
    out += i ? ", " : "";
    out += std::string("\"") + metrics[i].first.name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + metrics[i].first.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run(const Args& args) {
  std::unique_ptr<Workload> w;
  if (args.workload == "table1-refine") {
    pin_to_one_cpu();
    w = make_table1(false);
  } else if (args.workload == "table1-exact") {
    w = make_table1(true);
  } else if (args.workload == "serve-mixed") {
    pin_to_one_cpu();
    w = make_serve_mixed(args);
  } else if (args.workload == "fuzz-campaign") {
    pin_to_one_cpu();
    w = make_fuzz_campaign(args);
  } else {
    std::fprintf(stderr, "rtvbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 64;
  }

  // Set-up is timed right after each pass, with the caches holding that
  // pass's work, as when a user sets the system up after other work.  The
  // first set-up in the process also pays one-time initialisation and is
  // not timed.  Set-ups made back to back run on warm caches and read up to
  // twice as fast, with wide swings from run to run, so none are made.
  std::vector<double> setups;
  w->setup();

  Pass all;
  // Per-pass values; each end-to-end metric is their pass_value().
  std::vector<double> walls, cpus, rss, p50s, tails;
  Tail pass_tail;
  rtv::obs::MetricsSnapshot before, after;
  const auto t_start = std::chrono::steady_clock::now();
  for (;;) {
    if (args.trace) before = rtv::obs::snapshot();
    Pass p;
    reset_peak_rss();
    const double cpu0 = cpu_seconds();
    const auto t0 = std::chrono::steady_clock::now();
    w->pass(p);
    walls.push_back(seconds_since(t0));
    std::fprintf(stderr, "pass %zu: %.4f s\n", walls.size(), walls.back());
    cpus.push_back(cpu_seconds() - cpu0);
    rss.push_back(peak_rss_mb());
    p50s.push_back(median(p.latency_ms));
    pass_tail = tail(p.latency_ms);
    tails.push_back(pass_tail.value);
    if (args.trace) after = rtv::obs::snapshot();
    all.ops += p.ops;
    all.failed += p.failed;
    for (std::vector<double> Pass::*v : {&Pass::hit_latency_ms, &Pass::miss_latency_ms})
      (all.*v).insert((all.*v).end(), (p.*v).begin(), (p.*v).end());
    setups.push_back(w->setup());
    // Passes run until the time is spent, so a run of long passes measures
    // as long as one of short passes; the last pass may run past it.
    if (walls.size() >= 2 && seconds_since(t_start) >= args.seconds) break;
  }
  w->final_check(all);

  const double wall = pass_value(walls);
  const std::vector<std::pair<MetricDef, double>> e2e = {
      {kEndToEnd[0], median(setups)},
      {kEndToEnd[1], wall},
      {kEndToEnd[2], pass_value(cpus)},
      {kEndToEnd[3], pass_value(rss)},
      {kEndToEnd[4], pass_value(p50s)},
      {kEndToEnd[5], pass_value(tails)},
  };
  std::printf("workload %s  seed %llu  passes %zu (lower quartile "
              "reported)  set-ups %zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), walls.size(),
              setups.size());
  for (const auto& [def, v] : e2e)
    std::printf("  %-28s %14.6f %s\n", def.name, v, def.unit);
  std::printf("  latency tail reported at p%g over %zu samples per pass\n",
              pass_tail.q * 100.0, pass_tail.n);
  const Ratio fail{static_cast<double>(all.failed),
                   static_cast<double>(all.ops)};
  std::printf("  fail_ratio                   %s ops\n", fail.str().c_str());

  std::vector<std::pair<MetricDef, double>> out = e2e;
  if (args.trace) {
    Layers layers;
    for (const MetricDef& d : kPerLayer) layers[d.name] = 0.0;
    layers_from_counters(before, after, layers);
    layers["serve.hit_latency_ms.p50"] = median(all.hit_latency_ms);
    layers["serve.miss_latency_ms.p50"] = median(all.miss_latency_ms);
    w->counts(layers);

    SpanLog log;
    Pass traced;
    const auto t0 = std::chrono::steady_clock::now();
    w->traced_pass(traced, log, layers);
    layers["bench.trace_overhead"] = seconds_since(t0) / wall - 1.0;
    all.ops += traced.ops;
    all.failed += traced.failed;
    const std::vector<Span> spans = log.spans();
    layers_from_spans(spans, layers);
    if (layers["verify.refine_search_s"] > 0.0)
      layers["verify.refine_states_per_s"] =
          layers["verify.refine_states"] / layers["verify.refine_search_s"];
    if (layers["zone.discrete_s"] > 0.0)
      layers["zone.discrete_configs_per_s"] =
          layers["zone.discrete_configs"] / layers["zone.discrete_s"];

    const std::string trace_path =
        args.workdir + "/trace-" + args.workload + ".json";
    if (log.write_chrome_trace(trace_path))
      std::printf("trace: %zu spans written to %s\n", spans.size(),
                  trace_path.c_str());

    std::printf("per-layer (one pass):\n");
    out.clear();
    for (const MetricDef& d : kPerLayer) out.push_back({d, layers[d.name]});
    for (const auto& [def, v] : out)
      std::printf("  %-28s %14.6f %s\n", def.name, v, def.unit);
  }

  const bool correct = all.failed == 0;
  print_json(correct, all.ops, all.failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rtvbench

int main(int argc, char** argv) {
  rtvbench::Args args;
  if (!rtvbench::parse_args(argc, argv, args)) {
    rtvbench::usage();
    return 64;
  }
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  rtv::set_log_level(rtv::LogLevel::kError);
  try {
    return rtvbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtvbench: %s\n", e.what());
    return 70;
  }
}
