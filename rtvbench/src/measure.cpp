#include "measure.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "rtv/base/json.hpp"

namespace rtvbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::size_t rank_of(std::size_t n, double q) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[rank_of(v.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

Tail tail(const std::vector<double>& samples) {
  Tail t;
  t.n = samples.size();
  for (double q : {0.99, 0.95, 0.9}) {
    if (samples_beyond(t.n, q) >= 10) {
      t.q = q;
      t.value = percentile(samples, q);
      return t;
    }
  }
  t.q = 1.0;
  t.value = samples.empty() ? 0.0
                            : *std::max_element(samples.begin(), samples.end());
  return t;
}

double pass_value(const std::vector<double>& per_pass) {
  return percentile(per_pass, kPassQuantile);
}

double Ratio::value() const { return base > 0.0 ? part / base : 0.0; }

std::string Ratio::str() const {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.4f (%.0f/%.0f)", value(), part, base);
  return buf;
}

std::uint64_t covered_ns(
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv, std::uint64_t lo,
    std::uint64_t hi) {
  for (auto& [b, e] : iv) {
    b = std::clamp(b, lo, hi);
    e = std::clamp(e, lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t cur_b = 0, cur_e = 0;
  bool open = false;
  for (const auto& [b, e] : iv) {
    if (e <= b) continue;
    if (open && b <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) total += cur_e - cur_b;
    cur_b = b;
    cur_e = e;
    open = true;
  }
  if (open) total += cur_e - cur_b;
  return total;
}

std::map<std::string, double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    const std::uint64_t kids = covered_ns(children[i], s.start_ns, s.end_ns);
    out[s.layer] += static_cast<double>(dur - kids) * 1e-9;
  }
  return out;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t thread_slot() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot = next.fetch_add(1);
  return slot;
}

const char* engine_layer(std::string_view engine) {
  return engine == "refine" ? "verify" : "zone";
}

void add_engine_span(SpanLog& log, std::int64_t parent, std::uint64_t start_ns,
                     std::uint64_t end_ns, std::uint64_t op,
                     const std::string& engine, double seconds) {
  if (seconds <= 0.0) return;
  const auto ns = static_cast<std::uint64_t>(std::llround(seconds * 1e9));
  const std::uint64_t begin = end_ns - std::min(ns, end_ns - start_ns);
  log.add(Span{"engine:" + engine, engine_layer(engine), begin, end_ns, parent,
               op, thread_slot()});
}

std::int64_t SpanLog::begin(std::string name, std::string layer,
                            std::int64_t parent, std::uint64_t op) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = parent;
  s.op = op;
  s.thread = thread_slot();
  s.start_ns = now_ns();
  s.end_ns = s.start_ns;
  return add(std::move(s));
}

void SpanLog::end(std::int64_t id) {
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::int64_t SpanLog::add(Span span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::uint64_t t0 = UINT64_MAX;
  for (const Span& s : all) t0 = std::min(t0, s.start_ns);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  s.thread, (s.start_ns - t0) * 1e-3,
                  (s.end_ns - s.start_ns) * 1e-3);
    std::string name;
    rtv::json::append_string(name, s.name);
    out << (i ? ",\n" : "\n") << "{\"name\":" << name << ",\"cat\":\""
        << s.layer << "\"," << buf << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Scoped::Scoped(SpanLog& log, std::string name, std::string layer,
               std::int64_t parent, std::uint64_t op)
    : log_(log), id_(log.begin(std::move(name), std::move(layer), parent, op)) {}

Scoped::~Scoped() { log_.end(id_); }

void TickSegmenter::tick(std::size_t states, double seconds) {
  const bool restart =
      !segments_.empty() &&
      (states < segments_.back().last || states == 1);
  if (segments_.empty() || restart) {
    TickSegment s;
    s.start_s = seconds;
    s.first = states;
    segments_.push_back(s);
  }
  TickSegment& s = segments_.back();
  s.end_s = seconds;
  s.last = states;
  ++s.ticks;
}

RefinePhases refine_phases(const std::vector<TickSegment>& segments,
                           double total_s, std::size_t searches) {
  RefinePhases p;
  const std::size_t lead =
      segments.size() > searches ? segments.size() - searches : 0;
  if (lead == segments.size()) {
    p.compose_s = total_s;
    return p;
  }
  p.compose_s = segments[lead].start_s;
  for (std::size_t k = lead; k < segments.size(); ++k) {
    const TickSegment& s = segments[k];
    p.search_s += s.end_s - s.start_s;
    p.states += s.last;
    ++p.iterations;
    if (k + 1 < segments.size()) p.between_s += segments[k + 1].start_s - s.end_s;
  }
  p.search_s += std::max(0.0, total_s - segments.back().end_s);
  return p;
}

}  // namespace rtvbench
