// table1-refine / table1-exact: the paper's five IPCMOS obligations.
//
// Obligations are decided one at a time, each as its own run_suite batch:
// on "refine" (the paper's method) with one worker on one CPU
// (pin_to_one_cpu), or on the exact engines "zone" and "discrete"
// together with jobs = bench_jobs(), in the paper's order.  The
// input is the paper's, so the seed draws nothing here.  Oracle: every
// record is VERIFIED.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "rtv/analysis/slice.hpp"
#include "rtv/ipcmos/experiments.hpp"
#include "rtv/lint/lint.hpp"
#include "rtv/ts/compose.hpp"
#include "rtv/verify/suite.hpp"

namespace rtvbench {
namespace {

using rtv::SuiteRecord;
using rtv::SuiteReport;

/// One engine run's progress ticks, anchored to the steady clock.
struct EngineTicks {
  TickSegmenter segments;
  std::uint64_t start_ns = 0;
  bool seen = false;
};

struct MatrixRow {
  std::string obligation;
  std::string engine;
  std::string verdict;
  double seconds = 0.0;
  std::size_t states = 0;
  int refinements = 0;
  RefinePhases phases;
};

class Table1 final : public Workload {
 public:
  explicit Table1(bool exact)
      : engines_(exact ? std::vector<std::string>{"zone", "discrete"}
                       : std::vector<std::string>{"refine"}),
        jobs_(exact ? bench_jobs() : 1) {}

  double setup() override {
    const std::uint64_t t0 = now_ns();
    suite_.emplace(rtv::ipcmos::table1_suite());
    const double s = (now_ns() - t0) * 1e-9;
    singles_.clear();
    for (const rtv::Obligation& ob : suite_->obligations()) {
      rtv::Obligation& one =
          singles_.emplace_back().add(ob.name, ob.modules, ob.properties);
      one.budget = ob.budget;
      one.max_refinements = ob.max_refinements;
      one.track_chokes = ob.track_chokes;
    }
    return s;
  }

  void pass(Pass& out) override {
    last_.clear();
    for (const rtv::Suite& one : singles_) {
      const std::uint64_t t0 = now_ns();
      SuiteReport r = rtv::run_suite(one, options());
      out.latency_ms.push_back((now_ns() - t0) * 1e-6);
      check(r, out);
      last_.push_back(std::move(r));
    }
  }

  void counts(Layers& l) override {
    for (const SuiteReport& r : last_) l["suite.overhead_s"] += suite_overhead(r);
  }

  void traced_pass(Pass& out, SpanLog& log, Layers& l) override {
    std::vector<MatrixRow> matrix;
    std::uint64_t op = 0;
    for (const rtv::Suite& one : singles_) {
      ++op;
      const rtv::Obligation& ob = one.obligations().front();
      rtv::SuiteOptions opts = options();
      Scoped root(log, ob.name, "bench", -1, op);

      // The pre-flight, slice and compositions run_suite performs inside,
      // called once more from outside so each can be timed on its own.
      {
        Scoped s(log, "lint()", "lint", root.id(), op);
        (void)rtv::lint::lint_obligation(ob, opts);
      }
      rtv::analysis::SliceResult sl;
      {
        Scoped s(log, "slice()", "analysis", root.id(), op);
        rtv::analysis::SliceOptions so;
        so.track_chokes = ob.track_chokes;
        sl = rtv::analysis::slice(ob.modules, ob.properties, so);
      }
      l["analysis.dropped_modules"] += static_cast<double>(sl.dropped_modules);
      rtv::ComposeOptions co;
      co.track_chokes = ob.track_chokes;
      co.jobs = std::max<std::size_t>(1, jobs_ / engines_.size());
      for (std::size_t e = 0; e < engines_.size() && !sl.modules.empty(); ++e) {
        Scoped s(log, "compose()", "ts", root.id(), op);
        (void)rtv::compose(sl.modules, co);
      }

      // The run itself, with progress at every explored state.  Metrics
      // are off so no tick takes a registry snapshot.
      std::map<std::string, EngineTicks> ticks;
      opts.progress_interval = 1;
      opts.progress = [&ticks](const rtv::EngineProgress& p) {
        EngineTicks& t = ticks[std::string(p.engine)];
        if (!t.seen) {
          t.seen = true;
          t.start_ns = now_ns() - static_cast<std::uint64_t>(p.seconds * 1e9);
        }
        t.segments.tick(p.states_explored, p.seconds);
      };
      rtv::obs::set_metrics_enabled(false);
      const std::int64_t suite_span =
          log.begin("run_suite", "suite", root.id(), op);
      const std::uint64_t t0 = now_ns();
      const SuiteReport r = rtv::run_suite(one, opts);
      out.latency_ms.push_back((now_ns() - t0) * 1e-6);
      log.end(suite_span);
      rtv::obs::set_metrics_enabled(true);
      check(r, out);

      for (const SuiteRecord& rec : r.records) {
        MatrixRow row;
        row.obligation = rec.obligation;
        row.engine = rec.engine;
        row.verdict = rtv::to_string(rec.result.verdict);
        row.seconds = rec.result.seconds;
        row.states = rec.result.states_explored;
        if (const auto* st =
                std::get_if<rtv::RefineEngineStats>(&rec.result.stats))
          row.refinements = st->refinements;
        const auto it = ticks.find(rec.engine);
        const std::uint64_t start =
            it != ticks.end() ? it->second.start_ns : t0;
        const auto at = [start](double s) {
          return start + static_cast<std::uint64_t>(s * 1e9);
        };
        const bool refine = rec.engine == "refine";
        Span engine{"engine:" + rec.engine, engine_layer(rec.engine),
                    start, at(rec.result.seconds), suite_span, op,
                    thread_slot()};
        const std::int64_t eid = log.add(engine);
        const std::vector<TickSegment> none;
        const std::vector<TickSegment>& segs =
            it != ticks.end() ? it->second.segments.segments() : none;
        const auto child = [&](const char* name, const char* layer, double b,
                               double e) {
          log.add(Span{name, layer, at(b), at(e), eid, op, engine.thread});
        };
        if (refine) {
          row.phases = refine_phases(segs, rec.result.seconds,
                                     static_cast<std::size_t>(row.refinements) + 1);
          if (row.phases.iterations !=
              static_cast<std::size_t>(row.refinements) + 1)
            std::printf("note: %s: %zu search segments seen, %d refinements\n",
                        rec.obligation.c_str(), row.phases.iterations,
                        row.refinements);
          const std::size_t lead =
              segs.size() > row.phases.iterations ? segs.size() - row.phases.iterations : 0;
          child("compose phase", "ts", 0.0, row.phases.compose_s);
          for (std::size_t k = lead; k < segs.size(); ++k) {
            const double end = k + 1 < segs.size() ? segs[k].end_s
                                                   : rec.result.seconds;
            child("failure search", "verify", segs[k].start_s, end);
            if (k + 1 < segs.size())
              child("trace timing", "timing", segs[k].end_s,
                    segs[k + 1].start_s);
          }
          l["verify.refine_states"] += static_cast<double>(row.phases.states);
          l["verify.refine_search_s"] += row.phases.search_s;
          l["timing.between_iterations_s"] += row.phases.between_s;
        } else if (segs.size() >= 2) {
          child("compose phase", "ts", 0.0, segs[1].start_s);
          child("explore", "zone", segs[1].start_s, rec.result.seconds);
        } else {
          child("explore", "zone", 0.0, rec.result.seconds);
        }
        matrix.push_back(std::move(row));
      }
    }
    print_matrix(matrix);
  }

 private:
  rtv::SuiteOptions options() const {
    rtv::SuiteOptions o;
    o.mode = rtv::SuiteMode::kBatch;
    o.jobs = jobs_;
    o.engines = engines_;
    return o;
  }

  static void check(const SuiteReport& r, Pass& out) {
    for (const SuiteRecord& rec : r.records) {
      ++out.ops;
      if (rec.result.verified()) continue;
      ++out.failed;
      std::fprintf(stderr, "wrong verdict: %s [%s] is %s (%s)\n",
                   rec.obligation.c_str(), rec.engine.c_str(),
                   rtv::to_string(rec.result.verdict),
                   rec.result.message.c_str());
    }
  }

  void print_matrix(std::vector<MatrixRow> rows) const {
    std::sort(rows.begin(), rows.end(), [](const MatrixRow& a, const MatrixRow& b) {
      return a.obligation != b.obligation ? a.obligation < b.obligation
                                          : a.engine > b.engine;
    });
    std::printf("\nTable 1 (traced pass; jobs %zu)\n", jobs_);
    std::printf("%-44s %-9s %-9s %9s %9s %5s %9s %9s %9s\n", "obligation",
                "engine", "verdict", "seconds", "states", "iter",
                "compose_s", "search_s", "between_s");
    for (const MatrixRow& r : rows) {
      std::printf("%-44s %-9s %-9s %9.4f %9zu", r.obligation.c_str(),
                  r.engine.c_str(), r.verdict.c_str(), r.seconds, r.states);
      if (r.engine == "refine")
        std::printf(" %5d %9.4f %9.4f %9.4f\n", r.refinements,
                    r.phases.compose_s, r.phases.search_s, r.phases.between_s);
      else
        std::printf("\n");
    }
    // The exact counts, in obligation order.
    std::map<std::string, std::string> counts;
    const auto append = [&counts](const std::string& key, std::size_t v) {
      std::string& c = counts[key];
      c += (c.empty() ? "" : "/") + std::to_string(v);
    };
    for (const MatrixRow& r : rows) {
      if (r.engine == "refine") {
        append("refine iterations", static_cast<std::size_t>(r.refinements));
        append("refine states, all iterations", r.phases.states);
      } else {
        append(r.engine == "zone" ? "zones" : r.engine + " configs", r.states);
      }
    }
    for (const auto& [key, c] : counts)
      std::printf("exact counts: %-30s %s\n", key.c_str(), c.c_str());
  }

  std::vector<std::string> engines_;
  std::size_t jobs_;
  std::optional<rtv::Suite> suite_;
  std::deque<rtv::Suite> singles_;  // deque: Suite is move-only
  std::vector<SuiteReport> last_;
};

}  // namespace

std::unique_ptr<Workload> make_table1(bool exact) {
  return std::make_unique<Table1>(exact);
}

}  // namespace rtvbench
