// The rtv benchmark's workload contract and the pieces main.cpp shares.
//
// A workload prepares its seeded inputs once; main.cpp then alternates
// set-up and passes.  It times each pass (wall, process CPU, peak
// memory) and the workload fills in operations, failures and latencies.  A
// traced run adds one pass with spans around every call the benchmark
// makes into a layer; nothing inside the program is traced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "measure.hpp"
#include "rtv/obs/metrics.hpp"
#include "rtv/verify/suite.hpp"

namespace rtvbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for sockets, cache files and the trace file.
  std::string workdir = ".";
};

/// One pass over a workload's fixed input.
struct Pass {
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::vector<double> latency_ms;
  /// Split of latency_ms by whether the answer came from a cache
  /// (serve-mixed only).
  std::vector<double> hit_latency_ms;
  std::vector<double> miss_latency_ms;
};

/// Per-layer metric values of a traced run, keyed by BENCHMARK.json name.
using Layers = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the system and make it ready to take work; returns the seconds
  /// that took.  Called once before the first pass and after every pass;
  /// each set-up serves the next pass.
  virtual double setup() = 0;
  /// One untraced pass.
  virtual void pass(Pass& out) = 0;
  /// The same pass with spans in `log`, and the layer values only spans
  /// or progress ticks can give.  Prints the workload's traced report.
  virtual void traced_pass(Pass& out, SpanLog& log, Layers& layers) = 0;
  /// Oracle run after the timed phase; adds its checks to `out`.
  virtual void final_check(Pass& out) { (void)out; }
  /// Counts read from public results of the last untraced pass.
  virtual void counts(Layers& layers) { (void)layers; }
};

std::unique_ptr<Workload> make_table1(bool exact);
std::unique_ptr<Workload> make_serve_mixed(const Args& args);
std::unique_ptr<Workload> make_fuzz_campaign(const Args& args);

/// Worker budget of table1-exact: the hardware threads, at most 4.
std::size_t bench_jobs();

/// Confine this process, and every thread it starts afterwards, to the CPU
/// it runs on now.  table1-refine, serve-mixed and fuzz-campaign run this
/// way, with one suite worker each.  On a shared host the hypervisor
/// preempts single CPUs for milliseconds at a time; a handoff to a thread
/// on a preempted CPU waits the whole preemption out, so a workload whose
/// threads hand work back and forth across CPUs slows several times more
/// than the CPU time it loses (the 4-client daemon on 4 CPUs ran 5x slower
/// at 35% steal).  On one CPU the threads still interleave, but a handoff
/// is a local context switch, and the workload slows only by the share of
/// time its CPU is taken.
void pin_to_one_cpu();

/// run_suite's own cost in one report: its wall time minus its longest
/// record (the records of one batch run side by side).
double suite_overhead(const rtv::SuiteReport& report);

/// run_suite inside a "run_suite" span, with one engine span per record.
rtv::SuiteReport traced_run_suite(SpanLog& log, std::int64_t parent,
                                  std::uint64_t op, const rtv::Suite& suite,
                                  const rtv::SuiteOptions& options);

/// Sum of every point named `name` (all label sets, or exactly `labels`
/// when given).  Histograms contribute their sum.
double obs_value(const rtv::obs::MetricsSnapshot& snap, std::string_view name,
                 std::string_view labels = {});

}  // namespace rtvbench
