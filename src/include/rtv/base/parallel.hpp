// Intra-obligation concurrency substrate.
//
// PR 3's suite scheduler parallelizes *across* obligations; this header is
// the substrate for parallelizing *inside* one: the BFS hot loops of
// compose() (src/ts/compose.cpp) and the discrete engine
// (src/zone/discrete.cpp) are built on it so N workers expand disjoint
// slices of one frontier.
//
// The building blocks:
//
//   * resolve_jobs()  — the one "0 = all hardware threads" rule;
//   * LayeredRunner   — a persistent worker pool around layer-synchronous
//                       BFS: the layer is cut into fixed chunks whose
//                       ordinals one atomic cursor deals to whichever
//                       worker asks next, a barrier, then the caller
//                       merges results and names the next layer's width.
//                       Chunk ordinals do not depend on who ran them, so
//                       per-chunk output buckets merge in deterministic
//                       order; a caller pads its buckets to a cache line
//                       (alignas(64)) so adjacent chunks' writers do not
//                       share one.
//
// Both loops intern states in one RecordTable (rtv/base/open_table.hpp),
// which workers probe read-only while they expand a layer into per-chunk
// buckets.  Determinism contract
// (docs/ARCHITECTURE.md has the long form): the merge interns the buckets
// in chunk order, which is the sequential BFS order, so state numbering,
// the state budget's cut and the violation reported never depend on the
// worker count.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "rtv/obs/metrics.hpp"
#include "rtv/obs/trace.hpp"

namespace rtv {

/// The library-wide jobs convention: 0 = one worker per hardware thread,
/// otherwise exactly `jobs` workers (never less than one).
inline std::size_t resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<std::size_t>(hw) : 1;
}

/// Reusable barrier (mutex + condvar; portable and TSan-clean).
class CyclicBarrier {
 public:
  explicit CyclicBarrier(std::size_t parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    const std::uint64_t phase = phase_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++phase_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return phase_ != phase; });
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
  std::uint64_t phase_ = 0;
};

/// Layer-synchronous execution.  run(width, process, merge) expands layers
/// of items: a layer of `width` items is cut into num_chunks(width) chunks,
/// chunk `c` covering items [c * size, min((c + 1) * size, width)), and one
/// atomic cursor deals the ordinals, so every chunk runs exactly once, as
/// process(worker, chunk) on whichever worker takes it (the calling thread
/// is worker 0).  Then the calling thread runs merge() alone; it returns
/// the next layer's width, and 0 ends the run.  With one job no threads are
/// spawned, each layer is one chunk and the loop runs inline — the
/// sequential and parallel paths are the same code.
///
/// A worker exception is captured, the run winds down at the next barrier,
/// and the exception is rethrown on the calling thread.
class LayeredRunner {
 public:
  struct Chunk {
    std::size_t ordinal;  ///< chunk index (stable bucket id)
    std::size_t begin;    ///< first item index
    std::size_t end;      ///< one past the last item index
  };
  using Process = std::function<void(std::size_t worker, Chunk)>;

  explicit LayeredRunner(std::size_t jobs) : jobs_(jobs ? jobs : 1) {}

  /// The chunks a layer of `width` items is cut into: size the per-chunk
  /// buckets by it before returning the width from merge().
  std::size_t num_chunks(std::size_t width) const {
    const std::size_t size = chunk_size(width);
    return (width + size - 1) / size;
  }

  void run(std::size_t width, const Process& process,
           const std::function<std::size_t()>& merge) {
    if (width == 0) return;
    // The current layer, written by the calling thread between layers only
    // (the barriers publish it), and the cursor dealing its chunks.
    std::size_t size = 0, chunks = 0;
    std::atomic<std::size_t> cursor{0};
    const auto publish = [&](std::size_t next) {
      width = next;
      size = chunk_size(width);
      chunks = num_chunks(width);
      cursor.store(0, std::memory_order_relaxed);
    };
    const auto deal = [&](std::size_t worker) {
      for (std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
           c < chunks; c = cursor.fetch_add(1, std::memory_order_relaxed)) {
        const std::size_t begin = c * size;
        process(worker, Chunk{c, begin, std::min(begin + size, width)});
      }
    };
    publish(width);

    if (jobs_ <= 1) {
      for (;;) {
        {
          obs::Span span("layer", "parallel");
          deal(0);
        }
        obs::Span span("merge", "parallel");
        const std::size_t next = merge();
        if (next == 0) return;
        publish(next);
      }
    }

    CyclicBarrier start(jobs_), end(jobs_);
    std::atomic<bool> done{false};
    std::mutex error_mutex;
    std::exception_ptr error;

    const auto guarded = [&](std::size_t worker) {
      obs::Span span("layer", "parallel");
      try {
        deal(worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    };

    // Per-worker barrier wait, accumulated locally and flushed once per
    // run — the steady_clock reads happen at layer boundaries only.
    const bool timing = obs::metrics_enabled();
    const auto timed_wait = [timing](CyclicBarrier& b,
                                     std::uint64_t& wait_ns) {
      if (!timing) {
        b.arrive_and_wait();
        return;
      }
      const std::uint64_t t0 = obs::monotonic_ns();
      b.arrive_and_wait();
      wait_ns += obs::monotonic_ns() - t0;
    };
    const auto flush_wait = [timing](std::uint64_t wait_ns) {
      if (!timing) return;
      obs::Registry::global()
          .histogram("rtv_parallel_barrier_wait_seconds",
                     obs::Histogram::time_buckets(), "",
                     "Per-worker total barrier wait per run")
          .observe(static_cast<double>(wait_ns) * 1e-9);
    };

    std::vector<std::thread> pool;
    pool.reserve(jobs_ - 1);
    for (std::size_t id = 1; id < jobs_; ++id) {
      pool.emplace_back([&, id] {
        if (obs::tracing_active())
          obs::set_thread_name("worker " + std::to_string(id));
        std::uint64_t wait_ns = 0;
        for (;;) {
          timed_wait(start, wait_ns);
          if (done.load(std::memory_order_acquire)) {
            flush_wait(wait_ns);
            return;
          }
          guarded(id);
          timed_wait(end, wait_ns);
        }
      });
    }

    std::uint64_t wait_ns = 0;
    bool more = true;
    while (more) {
      timed_wait(start, wait_ns);
      guarded(0);
      timed_wait(end, wait_ns);
      bool failed;
      {
        std::lock_guard<std::mutex> lock(error_mutex);
        failed = static_cast<bool>(error);
      }
      if (failed) {
        more = false;
      } else {
        // merge() may throw (e.g. bad_alloc interning a huge layer); the
        // exception must not escape before the shutdown handshake below,
        // or the parked workers would be destroyed while joinable.
        try {
          obs::Span span("merge", "parallel");
          const std::size_t next = merge();
          more = next != 0;
          if (more) publish(next);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
          more = false;
        }
      }
    }
    done.store(true, std::memory_order_release);
    start.arrive_and_wait();
    flush_wait(wait_ns);
    for (std::thread& t : pool) t.join();
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (error) std::rethrow_exception(error);
    }
  }

 private:
  /// One chunk for a single worker (no dealing overhead), else ~8 chunks
  /// per worker bounded away from degenerate sizes.
  std::size_t chunk_size(std::size_t width) const {
    if (jobs_ <= 1 || width == 0) return width ? width : 1;
    const std::size_t target = width / (jobs_ * 8) + 1;
    return std::clamp<std::size_t>(target, 16, 1024);
  }

  std::size_t jobs_;
};

}  // namespace rtv
