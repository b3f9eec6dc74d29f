#include "rtv/obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "rtv/base/json.hpp"

namespace rtv::obs {

// ---- thread identity -------------------------------------------------------

namespace {
std::atomic<std::uint32_t> g_next_thread{0};
}  // namespace

std::uint32_t thread_index() {
  thread_local const std::uint32_t id =
      g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- Histogram -------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_ = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
}

void Histogram::observe(double v) {
  if (!metrics_enabled()) return;
  const std::size_t idx =
      static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(),
                                                v) -
                               bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t old = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double s;
    std::memcpy(&s, &old, sizeof(s));
    s += v;
    std::uint64_t bits;
    std::memcpy(&bits, &s, sizeof(bits));
    if (sum_bits_.compare_exchange_weak(old, bits, std::memory_order_relaxed))
      return;
  }
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::sum() const {
  const std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double s;
  std::memcpy(&s, &bits, sizeof(s));
  return s;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

std::vector<double> Histogram::time_buckets() {
  return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 10, 30, 100};
}

std::vector<double> Histogram::count_buckets() {
  return {1, 2, 4, 8, 16, 32, 64, 128, 256, 1024};
}

// ---- Registry --------------------------------------------------------------

namespace {

struct Entry {
  std::string name;
  std::string labels;
  std::string help;
  MetricType type;
  Counter* counter = nullptr;
  Gauge* gauge = nullptr;
  Histogram* histogram = nullptr;
};

std::string full_key(std::string_view name, std::string_view labels) {
  std::string key(name);
  key += '{';
  key += labels;
  key += '}';
  return key;
}

}  // namespace

struct Registry::Impl {
  mutable std::mutex mu;
  std::deque<Counter> counters;
  std::deque<Gauge> gauges;
  std::deque<Histogram> histograms;
  std::vector<Entry> entries;  // registration order
  std::unordered_map<std::string, std::size_t> index;  // full_key -> entries
};

Registry::Impl& Registry::impl() const {
  static Impl instance;
  return instance;
}

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name, std::string_view labels,
                           std::string_view help) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const std::string key = full_key(name, labels);
  auto it = im.index.find(key);
  if (it != im.index.end()) return *im.entries[it->second].counter;
  im.counters.emplace_back();
  Entry e{std::string(name), std::string(labels), std::string(help),
          MetricType::kCounter, &im.counters.back(), nullptr, nullptr};
  im.index.emplace(key, im.entries.size());
  im.entries.push_back(std::move(e));
  return im.counters.back();
}

Gauge& Registry::gauge(std::string_view name, std::string_view labels,
                       std::string_view help) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const std::string key = full_key(name, labels);
  auto it = im.index.find(key);
  if (it != im.index.end()) return *im.entries[it->second].gauge;
  im.gauges.emplace_back();
  Entry e{std::string(name), std::string(labels), std::string(help),
          MetricType::kGauge, nullptr, &im.gauges.back(), nullptr};
  im.index.emplace(key, im.entries.size());
  im.entries.push_back(std::move(e));
  return im.gauges.back();
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds,
                               std::string_view labels,
                               std::string_view help) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const std::string key = full_key(name, labels);
  auto it = im.index.find(key);
  if (it != im.index.end()) return *im.entries[it->second].histogram;
  im.histograms.emplace_back(std::move(bounds));
  Entry e{std::string(name), std::string(labels), std::string(help),
          MetricType::kHistogram, nullptr, nullptr, &im.histograms.back()};
  im.index.emplace(key, im.entries.size());
  im.entries.push_back(std::move(e));
  return im.histograms.back();
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  snap.points.reserve(im.entries.size());
  for (const Entry& e : im.entries) {
    MetricPoint p;
    p.name = e.name;
    p.labels = e.labels;
    p.help = e.help;
    p.type = e.type;
    switch (e.type) {
      case MetricType::kCounter:
        p.value = static_cast<double>(e.counter->value());
        break;
      case MetricType::kGauge:
        p.value = static_cast<double>(e.gauge->value());
        break;
      case MetricType::kHistogram:
        p.value = e.histogram->sum();
        p.count = e.histogram->count();
        p.bucket_bounds = e.histogram->bounds();
        p.bucket_counts = e.histogram->bucket_counts();
        break;
    }
    snap.points.push_back(std::move(p));
  }
  return snap;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (Counter& c : im.counters) c.reset();
  for (Gauge& g : im.gauges) g.reset();
  for (Histogram& h : im.histograms) h.reset();
}

MetricsSnapshot snapshot() { return Registry::global().snapshot(); }

// ---- snapshots -------------------------------------------------------------

const MetricPoint* MetricsSnapshot::find(std::string_view name,
                                         std::string_view labels) const {
  for (const MetricPoint& p : points)
    if (p.name == name && p.labels == labels) return &p;
  return nullptr;
}

namespace {

void append_number(std::string& out, double v) {
  // Counters/gauges are integral in practice; emit them without
  // floating-point noise so the exposition stays human-readable.
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    out += std::to_string(static_cast<std::int64_t>(v));
    return;
  }
  // Shortest representation that round-trips: a 0.1 bucket bound must read
  // back as le="0.1", not le="0.10000000000000001".
  char buf[32];
  for (int prec = 1; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  out += buf;
}

void append_series(std::string& out, const std::string& name,
                   const std::string& labels, const char* extra_label,
                   const std::string& extra_value, double v) {
  out += name;
  const bool has_extra = extra_label != nullptr;
  if (!labels.empty() || has_extra) {
    out += '{';
    out += labels;
    if (has_extra) {
      if (!labels.empty()) out += ',';
      out += extra_label;
      out += "=\"";
      out += extra_value;
      out += '"';
    }
    out += '}';
  }
  out += ' ';
  append_number(out, v);
  out += '\n';
}

std::string bound_repr(double b) {
  std::string s;
  append_number(s, b);
  return s;
}

const char* type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "counter";
}

}  // namespace

std::string to_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  std::string last_name;
  for (const MetricPoint& p : snap.points) {
    if (p.name != last_name) {
      if (!p.help.empty()) out += "# HELP " + p.name + " " + p.help + "\n";
      out += "# TYPE " + p.name + " " + type_name(p.type) + "\n";
      last_name = p.name;
    }
    if (p.type != MetricType::kHistogram) {
      append_series(out, p.name, p.labels, nullptr, "", p.value);
      continue;
    }
    // Prometheus buckets are cumulative and end with le="+Inf".
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < p.bucket_bounds.size(); ++i) {
      cum += p.bucket_counts[i];
      append_series(out, p.name + "_bucket", p.labels, "le",
                    bound_repr(p.bucket_bounds[i]),
                    static_cast<double>(cum));
    }
    append_series(out, p.name + "_bucket", p.labels, "le", "+Inf",
                  static_cast<double>(p.count));
    append_series(out, p.name + "_sum", p.labels, nullptr, "", p.value);
    append_series(out, p.name + "_count", p.labels, nullptr, "",
                  static_cast<double>(p.count));
  }
  return out;
}

void append_json(std::string& out, const MetricsSnapshot& snap) {
  out += '{';
  bool first = true;
  auto emit = [&](const std::string& key, double v) {
    if (!first) out += ',';
    first = false;
    json::append_string(out, key);
    out += ':';
    append_number(out, v);
  };
  for (const MetricPoint& p : snap.points) {
    const std::string key =
        p.labels.empty() ? p.name : p.name + '{' + p.labels + '}';
    if (p.type == MetricType::kHistogram) {
      emit(key + "_sum", p.value);
      emit(key + "_count", static_cast<double>(p.count));
    } else {
      emit(key, p.value);
    }
  }
  out += '}';
}

// ---- ScopedTimer -----------------------------------------------------------

ScopedTimer::ScopedTimer(Histogram& h)
    : h_(metrics_enabled() ? &h : nullptr),
      start_ns_(h_ ? monotonic_ns() : 0) {}

ScopedTimer::~ScopedTimer() {
  if (!h_) return;
  h_->observe(static_cast<double>(monotonic_ns() - start_ns_) * 1e-9);
}

}  // namespace rtv::obs
