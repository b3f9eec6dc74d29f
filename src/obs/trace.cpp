#include "rtv/obs/trace.hpp"

#include <cstdio>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "rtv/base/json.hpp"
#include "rtv/obs/metrics.hpp"

namespace rtv::obs {

namespace {

struct TraceEvent {
  std::string name;
  std::string category;
  char phase;  // 'B', 'E', 'i'
  std::uint64_t ts_ns;
  std::uint32_t tid;
};

struct Session {
  std::mutex mu;
  bool active = false;
  std::uint32_t generation = 0;
  std::uint64_t epoch_ns = 0;
  std::vector<TraceEvent> events;
  std::map<std::uint32_t, std::string> thread_names;  // survives sessions
};

Session& session() {
  static Session s;
  return s;
}

void append_event_json(std::string& out, const TraceEvent& e,
                       std::uint64_t epoch_ns) {
  out += "{\"name\":";
  json::append_string(out, e.name);
  out += ",\"cat\":";
  json::append_string(out, e.category);
  out += ",\"ph\":\"";
  out += e.phase;
  out += "\",\"ts\":";
  json::append_double(out, static_cast<double>(e.ts_ns - epoch_ns) * 1e-3);
  out += ",\"pid\":1,\"tid\":" + std::to_string(e.tid);
  if (e.phase == 'i') out += ",\"s\":\"t\"";
  out += "}";
}

/// Drain the session into a Chrome trace-event document.  Unmatched begin
/// events are closed with synthetic ends at the stop timestamp (innermost
/// first per thread) so every track carries matched B/E pairs.
std::string serialize_locked(Session& s) {
  const std::uint64_t stop_ns = monotonic_ns();
  std::map<std::uint32_t, std::vector<const TraceEvent*>> open;
  for (const TraceEvent& e : s.events) {
    if (e.phase == 'B') {
      open[e.tid].push_back(&e);
    } else if (e.phase == 'E' && !open[e.tid].empty()) {
      open[e.tid].pop_back();
    }
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",";
    first = false;
  };
  sep();
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
         "\"args\":{\"name\":\"rtv\"}}";

  std::map<std::uint32_t, bool> seen_tids;
  for (const TraceEvent& e : s.events) seen_tids[e.tid] = true;
  for (const auto& [tid, _] : seen_tids) {
    auto it = s.thread_names.find(tid);
    const std::string name =
        it != s.thread_names.end() ? it->second
                                   : "thread " + std::to_string(tid);
    sep();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":";
    json::append_string(out, name);
    out += "}}";
  }

  for (const TraceEvent& e : s.events) {
    sep();
    append_event_json(out, e, s.epoch_ns);
  }
  for (auto& [tid, stack] : open) {
    while (!stack.empty()) {
      const TraceEvent* b = stack.back();
      stack.pop_back();
      TraceEvent end{b->name, b->category, 'E', stop_ns, tid};
      sep();
      append_event_json(out, end, s.epoch_ns);
    }
  }
  out += "],\"displayTimeUnit\":\"ms\"}";

  s.events.clear();
  return out;
}

}  // namespace

void start_tracing() {
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.active) return;
  s.active = true;
  ++s.generation;
  s.epoch_ns = monotonic_ns();
  s.events.clear();
  detail::g_tracing_active.store(true, std::memory_order_relaxed);
}

std::string stop_tracing_json() {
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.active) return "";
  detail::g_tracing_active.store(false, std::memory_order_relaxed);
  s.active = false;
  return serialize_locked(s);
}

bool write_trace(const std::string& path) {
  const std::string doc = stop_tracing_json();
  if (doc.empty()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

void set_thread_name(std::string_view name) {
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  s.thread_names[thread_index()] = std::string(name);
}

void trace_instant(std::string_view name, std::string_view category) {
  if (!tracing_active()) return;
  const std::uint64_t now = monotonic_ns();
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.active) return;
  s.events.push_back(
      {std::string(name), std::string(category), 'i', now, thread_index()});
}

namespace detail {

std::uint64_t span_begin(std::string_view name, std::string_view category) {
  const std::uint64_t now = monotonic_ns();
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.active) return 0;
  s.events.push_back(
      {std::string(name), std::string(category), 'B', now, thread_index()});
  // The ticket carries the session generation so an end outliving its
  // session (or landing in a newer one) is dropped instead of emitting an
  // unmatched E; the serializer closes such spans synthetically.
  return (static_cast<std::uint64_t>(s.generation) << 32) | 1u;
}

void span_end(std::uint64_t ticket) {
  const std::uint64_t now = monotonic_ns();
  Session& s = session();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.active || (ticket >> 32) != s.generation) return;
  s.events.push_back({std::string(), std::string(), 'E', now, thread_index()});
}

}  // namespace detail

}  // namespace rtv::obs
