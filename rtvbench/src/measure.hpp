// Measurement helpers of the rtv benchmark: percentiles, ratios with their
// base, spans with self time, and refine-phase detection from progress
// ticks.  Everything here is plain data and arithmetic so the rules can be
// unit-tested without running a workload (tests/test_measure.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rtvbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Median of `v` (mean of the two middle values for an even count); 0 for
/// an empty vector.
double median(std::vector<double> v);

/// Nearest-rank percentile of `v` at q in (0, 1]: the ceil(q*n)-th
/// smallest value.  0 for an empty vector.
double percentile(std::vector<double> v, double q);

/// Samples strictly above the nearest-rank position of q: n - ceil(q*n).
std::size_t samples_beyond(std::size_t n, double q);

/// A tail latency together with the percentile it was taken at and the
/// sample count it rests on.
struct Tail {
  double q = 1.0;  ///< percentile actually reported (1.0 = the maximum)
  double value = 0.0;
  std::size_t n = 0;
};

/// The highest of p99, p95 and p90 that leaves at least ten samples beyond
/// it.  With fewer than 110 samples none qualifies and the maximum is
/// reported (q = 1): a tail taken nearer the median would no longer be a
/// tail, and Table 1's five obligations per pass never reach 110.
Tail tail(const std::vector<double>& samples);

/// Percentile of the per-pass values a run reports for each pass metric.
/// On a shared host, other guests only ever add time to a pass (stolen
/// CPU, evicted caches), in bursts of seconds to minutes.  The lower
/// quartile reads the program's own cost as long as a quarter of the
/// passes ran undisturbed, where the median needs half.
constexpr double kPassQuantile = 0.25;

/// The value a run reports for one pass metric: percentile(per_pass,
/// kPassQuantile).
double pass_value(const std::vector<double>& per_pass);

// ---------------------------------------------------------------------------
// Ratios
// ---------------------------------------------------------------------------

/// A ratio that always travels with its base.
struct Ratio {
  double part = 0.0;
  double base = 0.0;

  /// part / base, or 0 when the base is 0.
  double value() const;
  /// "0.6200 (31/50)".
  std::string str() const;
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed call into a layer.  Times are steady-clock nanoseconds.
struct Span {
  std::string name;
  std::string layer;  ///< module of src/ the call belongs to, or "bench"
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index of the causing span, -1 for a root
  std::uint64_t op = 0;      ///< operation id shared by one op's spans
  std::uint32_t thread = 0;

  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

/// Length of the union of [begin, end) intervals clipped to [lo, hi).
std::uint64_t covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                         std::uint64_t lo, std::uint64_t hi);

/// Per-layer self time in seconds: each span's duration minus the part of
/// it its child spans cover, summed by layer.
std::map<std::string, double> self_seconds(const std::vector<Span>& spans);

/// In-memory span store, safe to append to from several threads.  Spans
/// are written out once, after the traced pass (write_chrome_trace).
class SpanLog {
 public:
  /// Open a span now; returns its index for end() and as a parent id.
  std::int64_t begin(std::string name, std::string layer, std::int64_t parent,
                     std::uint64_t op);
  void end(std::int64_t id);
  /// Record a span whose times were measured elsewhere.
  std::int64_t add(Span span);

  std::vector<Span> spans() const;

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  bool write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanLog& log, std::string name, std::string layer,
         std::int64_t parent, std::uint64_t op);
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::int64_t id_;
};

std::uint64_t now_ns();
std::uint32_t thread_slot();

/// Layer of an engine's runs: refine belongs to verify (with lazy and
/// timing), zone and discrete to zone.
const char* engine_layer(std::string_view engine);

/// Records that `engine` ran for `seconds` inside a call the benchmark
/// timed from outside (span `parent`, start_ns..end_ns): a child span that
/// ends with the call and is clipped to its start.  Self time then moves
/// the engine's share out of the calling layer.
void add_engine_span(SpanLog& log, std::int64_t parent, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t op,
                     const std::string& engine, double seconds);

// ---------------------------------------------------------------------------
// Progress ticks
// ---------------------------------------------------------------------------

/// A run of progress ticks whose state counts never restart.
struct TickSegment {
  double start_s = 0.0;  ///< engine-relative time of the first tick
  double end_s = 0.0;    ///< engine-relative time of the last tick
  std::size_t first = 0;
  std::size_t last = 0;  ///< state count at the last tick
  std::size_t ticks = 0;
};

/// Splits one engine run's progress ticks (interval 1) into segments.  An
/// engine composes first and then searches, and the refine engine restarts
/// its search every iteration; each phase counts states from 1 again.  A
/// new segment starts when the count drops, or when it reads 1 after any
/// earlier tick (a search's first tick always sees only the initial
/// state).  For refine, segment 0 is composition and segment k >= 1 is
/// iteration k-1's failure search.
class TickSegmenter {
 public:
  void tick(std::size_t states, double seconds);
  const std::vector<TickSegment>& segments() const { return segments_; }

 private:
  std::vector<TickSegment> segments_;
};

/// Phase split of one refine run derived from its tick segments.
struct RefinePhases {
  double compose_s = 0.0;  ///< run start to the first search tick
  double search_s = 0.0;   ///< inside search segments, plus the final tail
  double between_s = 0.0;  ///< gaps between search segments (trace timing)
  std::size_t iterations = 0;  ///< search segments seen
  std::size_t states = 0;      ///< states interned, summed over iterations
};

/// `total_s` is the run's own wall time (EngineResult::seconds) and
/// `searches` the failure searches it ran (refinements + 1).  Segments
/// beyond `searches` lead the run and are composition; a parallel compose
/// may tick on no layer at all, and then every segment is a search.
RefinePhases refine_phases(const std::vector<TickSegment>& segments,
                           double total_s, std::size_t searches);

}  // namespace rtvbench
