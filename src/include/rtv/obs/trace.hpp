// Scoped-span tracing with Chrome trace-event / Perfetto-compatible JSON
// output.
//
// A single process-wide session collects begin/end (ph "B"/"E") events;
// `Span` is the RAII emitter.  When no session is active a span costs one
// relaxed atomic load at construction and nothing else — hot code can keep
// spans unconditionally around layer/merge/request boundaries.  Spans are
// expected at *coarse* granularity (per layer, per merge, per request),
// never per state.
//
// Tracks: each OS thread that emits events becomes one track (tid is the
// dense `obs::thread_index()`), named via `set_thread_name()` which emits
// the usual thread_name metadata record.  Timestamps are microseconds from
// the session start on the shared monotonic clock.
//
// Lifecycle: `start_tracing()` begins collection, `stop_tracing_json()` /
// `write_trace(path)` ends it and serializes.  A span that straddles
// stop still records its end event: spans register their begin index and
// the session keeps events until every open span has closed or the
// serializer patches unmatched begins with synthetic ends — so the output
// always contains matched B/E pairs per thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace rtv::obs {

namespace detail {
inline std::atomic<bool> g_tracing_active{false};
}  // namespace detail

inline bool tracing_active() {
  return detail::g_tracing_active.load(std::memory_order_relaxed);
}

/// Begin collecting trace events (idempotent; a second start while active
/// is ignored).  Resets the session clock to "now".
void start_tracing();

/// Stop collecting and return the full Chrome trace-event JSON document
/// ({"traceEvents":[...]}).  Returns "" if tracing was never started.
std::string stop_tracing_json();

/// Stop collecting and write the JSON document to `path`.  Returns false
/// (and writes nothing) if tracing was never started or the file cannot
/// be opened.
bool write_trace(const std::string& path);

/// Name the calling thread's track ("worker 3", "suite worker 1", ...).
/// Effective for the whole session regardless of when it is called.
void set_thread_name(std::string_view name);

/// Single instantaneous event (ph "i"), for marking moments like
/// "portfolio winner" or "cache hit" on a track.
void trace_instant(std::string_view name, std::string_view category = "rtv");

namespace detail {
/// Returns an opaque begin ticket (0 when inactive / dropped).
std::uint64_t span_begin(std::string_view name, std::string_view category);
void span_end(std::uint64_t ticket);
}  // namespace detail

/// RAII scoped span: emits ph "B" at construction and the matching ph "E"
/// at destruction on the same thread.  Safe (and free) when tracing is
/// inactive.
class Span {
 public:
  explicit Span(std::string_view name, std::string_view category = "rtv")
      : ticket_(tracing_active() ? detail::span_begin(name, category) : 0) {}
  ~Span() {
    if (ticket_) detail::span_end(ticket_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t ticket_;
};

}  // namespace rtv::obs
