// Low-overhead metrics registry: named counters, gauges, and histograms
// with Prometheus text-exposition and JSON snapshot serialization.
//
// Design constraints, in order:
//
//   1. Near-zero cost when disabled.  Every mutation starts with one
//      relaxed atomic load (`metrics_enabled()`).
//   2. Cheap when enabled.  Counters are sharded across cache lines and
//      bumped with relaxed fetch_add; hot loops are still expected to
//      aggregate locally and flush at chunk/layer/run boundaries rather
//      than per state (see docs/OBSERVABILITY.md).
//   3. Snapshotable while concurrently mutated.  `snapshot()` reads with
//      relaxed loads — each point is individually coherent; the snapshot
//      as a whole is not a cross-metric atomic cut, which is fine for
//      telemetry.
//
// Metric identity is (name, labels) where `labels` is a pre-rendered
// Prometheus label body such as `engine="zone"` (no braces).  Lookups take
// a mutex — cache the returned reference when instrumenting anything
// hotter than once-per-run.  References stay valid for the registry's
// lifetime (deque storage, metrics are never unregistered).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rtv::obs {

// ---- runtime switch --------------------------------------------------------

namespace detail {
inline std::atomic<bool> g_metrics_enabled{true};
}  // namespace detail

/// Global runtime switch.  Mutations are dropped while disabled; already
/// accumulated values are kept (reset separately via Registry::reset()).
inline void set_metrics_enabled(bool on) {
  detail::g_metrics_enabled.store(on, std::memory_order_relaxed);
}

inline bool metrics_enabled() {
  return detail::g_metrics_enabled.load(std::memory_order_relaxed);
}

// ---- thread identity -------------------------------------------------------

/// Small dense id for the calling thread: 0 for the first thread that asks,
/// 1 for the second, and so on for the life of the process.  Shared by the
/// logger (thread ids in log lines), the tracer (one track per thread) and
/// the counter shard selector.
std::uint32_t thread_index();

// ---- metric primitives -----------------------------------------------------

/// Monotonically increasing u64, sharded across cache lines so concurrent
/// writers from different threads rarely contend.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::uint64_t n) {
    if (!metrics_enabled() || n == 0) return;
    shards_[thread_index() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  std::uint64_t value() const {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Last-writer-wins signed value (queue depths, occupancy).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!metrics_enabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) {
    if (!metrics_enabled()) return;
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram with Prometheus `le` semantics: an observation
/// lands in the first bucket whose upper bound is >= the value, or the
/// implicit +Inf bucket.  Bounds are set at registration and immutable.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  /// Upper bounds, ascending, excluding the implicit +Inf bucket.
  const std::vector<double>& bounds() const { return bounds_; }
  /// Non-cumulative per-bucket counts; size() == bounds().size() + 1, the
  /// last entry being the +Inf bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

  void reset();

  /// Default bounds for latencies/durations in seconds: 1us .. ~100s.
  static std::vector<double> time_buckets();
  /// Default bounds for small cardinalities (batch sizes, iterations).
  static std::vector<double> count_buckets();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_bits_{0};  // CAS-accumulated double
};

// ---- snapshots -------------------------------------------------------------

enum class MetricType { kCounter, kGauge, kHistogram };

/// One metric's point-in-time value.  For histograms `value` is the sum,
/// `count` the observation count, and `bucket_bounds`/`bucket_counts` the
/// (non-cumulative) bucket table.
struct MetricPoint {
  std::string name;    // Prometheus base name, e.g. "rtv_engine_runs_total"
  std::string labels;  // pre-rendered label body, e.g. engine="zone"; may be ""
  std::string help;
  MetricType type = MetricType::kCounter;
  double value = 0.0;
  std::uint64_t count = 0;  // histograms only
  std::vector<double> bucket_bounds;
  std::vector<std::uint64_t> bucket_counts;
};

struct MetricsSnapshot {
  std::vector<MetricPoint> points;  // registration order

  /// Point with this exact (name, labels), or null.
  const MetricPoint* find(std::string_view name,
                          std::string_view labels = "") const;
};

/// Prometheus text exposition (one # HELP / # TYPE block per base name,
/// cumulative `le` buckets, `_sum`/`_count` series for histograms).
std::string to_prometheus(const MetricsSnapshot& snap);

/// Flat JSON object: {"name{labels}": value, ...} with histograms expanded
/// to name_sum / name_count members.  Shared by `--progress-json`, the
/// daemon stats op and the overhead bench.
void append_json(std::string& out, const MetricsSnapshot& snap);

// ---- registry --------------------------------------------------------------

/// Process-wide named-metric table.  Registration and lookup are
/// mutex-guarded; returned references live as long as the registry.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name, std::string_view labels = "",
                   std::string_view help = "");
  Gauge& gauge(std::string_view name, std::string_view labels = "",
               std::string_view help = "");
  /// `bounds` apply on first registration only; later lookups of the same
  /// (name, labels) return the existing histogram unchanged.
  Histogram& histogram(std::string_view name, std::vector<double> bounds,
                       std::string_view labels = "",
                       std::string_view help = "");

  MetricsSnapshot snapshot() const;

  /// Zero every registered metric (tests and benches; metrics stay
  /// registered so cached references remain valid).
  void reset();

  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

 private:
  struct Impl;
  Impl& impl() const;
};

/// Snapshot of the global registry.
MetricsSnapshot snapshot();

// ---- scoped timers ---------------------------------------------------------

/// RAII stopwatch: observes elapsed seconds into `h` on destruction.
/// No-op (never reads the clock) while metrics are disabled at
/// construction time.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* h_;
  std::uint64_t start_ns_;
};

/// Monotonic nanoseconds since an arbitrary process-local epoch.  The one
/// steady-clock read shared by metrics timers, trace timestamps, and log
/// uptime stamps.
std::uint64_t monotonic_ns();

}  // namespace rtv::obs
