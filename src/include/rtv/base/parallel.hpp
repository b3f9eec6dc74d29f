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
//   * resolve_jobs()       — the one "0 = all hardware threads" rule;
//   * LayeredRunner        — a persistent worker pool around
//                            layer-synchronous BFS: every worker processes
//                            the current frontier, a barrier, then the
//                            caller merges results and publishes the next
//                            layer;
//   * WorkStealingRanges   — the frontier scheduler: the layer is cut into
//                            fixed chunks, each worker owns a contiguous
//                            chunk range and steals the tail half of the
//                            largest victim when its own range drains.
//                            Chunk ordinals are stable, so per-chunk output
//                            buckets can be merged in deterministic order
//                            no matter which worker ran them.
//
// Both loops intern states the same way: a packed arena behind an OpenTable
// (rtv/base/open_table.hpp) that workers probe read-only while they expand
// a layer into per-chunk buckets.  Determinism contract
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
#include <optional>
#include <thread>
#include <utility>
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

/// Chunk granularity for splitting a frontier of `items` across `jobs`
/// workers: one chunk for a single worker (no scheduling overhead), else
/// ~8 chunks per worker bounded away from degenerate sizes.
inline std::size_t frontier_chunk_size(std::size_t items, std::size_t jobs) {
  if (jobs <= 1 || items == 0) return items ? items : 1;
  const std::size_t target = items / (jobs * 8) + 1;
  const std::size_t lo = 16, hi = 1024;
  return target < lo ? lo : (target > hi ? hi : target);
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

/// Layer-synchronous execution: `process(worker)` runs on every worker
/// (the calling thread is worker 0), then the calling thread runs `merge()`
/// alone; a false return from merge() ends the run.  With one job no
/// threads are spawned and the loop runs inline — the sequential and
/// parallel paths are the same code.
///
/// A worker exception is captured, the run winds down at the next barrier,
/// and the exception is rethrown on the calling thread.
class LayeredRunner {
 public:
  explicit LayeredRunner(std::size_t jobs) : jobs_(jobs ? jobs : 1) {}

  std::size_t jobs() const { return jobs_; }

  void run(const std::function<void(std::size_t)>& process,
           const std::function<bool()>& merge) {
    if (jobs_ <= 1) {
      for (;;) {
        {
          obs::Span span("layer", "parallel");
          process(0);
        }
        obs::Span span("merge", "parallel");
        if (!merge()) return;
      }
    }

    CyclicBarrier start(jobs_), end(jobs_);
    std::atomic<bool> done{false};
    std::mutex error_mutex;
    std::exception_ptr error;

    const auto guarded = [&](std::size_t worker) {
      obs::Span span("layer", "parallel");
      try {
        process(worker);
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
          more = merge();
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
  std::size_t jobs_;
};

/// Work-stealing partition of one BFS layer.  The layer's item indices
/// [0, items) are cut into fixed chunks; reset() deals the chunk ordinals
/// [0, num_chunks) to the workers as contiguous ranges.  next(w) pops the
/// front chunk of w's range; a drained worker steals the tail half of the
/// victim with the most chunks left.  Every chunk is returned exactly once;
/// chunk `c` always covers items [c*chunk, min((c+1)*chunk, items)), so
/// per-chunk output buckets line up deterministically.
class WorkStealingRanges {
 public:
  void reset(std::size_t items, std::size_t chunk, std::size_t workers) {
    items_ = items;
    chunk_ = chunk ? chunk : 1;
    num_chunks_ = items_ ? (items_ + chunk_ - 1) / chunk_ : 0;
    if (slots_.size() < workers) {
      slots_ = std::vector<Slot>(workers);
    }
    workers_ = workers;
    // Deal contiguous, balanced chunk ranges.
    const std::size_t base = workers ? num_chunks_ / workers : 0;
    const std::size_t extra = workers ? num_chunks_ % workers : 0;
    std::size_t lo = 0;
    for (std::size_t w = 0; w < workers; ++w) {
      const std::size_t take = base + (w < extra ? 1 : 0);
      slots_[w].range.store(pack(static_cast<std::uint32_t>(lo),
                                 static_cast<std::uint32_t>(lo + take)),
                            std::memory_order_relaxed);
      lo += take;
    }
  }

  struct Chunk {
    std::size_t ordinal;  ///< chunk index (stable bucket id)
    std::size_t begin;    ///< first item index
    std::size_t end;      ///< one past the last item index
  };

  std::size_t num_chunks() const { return num_chunks_; }

  /// The next chunk for this worker, or nullopt when the layer is drained.
  std::optional<Chunk> next(std::size_t worker) {
    for (;;) {
      // Pop the front chunk of our own range.
      std::uint64_t cur = slots_[worker].range.load(std::memory_order_relaxed);
      for (;;) {
        const std::uint32_t lo = unpack_lo(cur), hi = unpack_hi(cur);
        if (lo >= hi) break;
        if (slots_[worker].range.compare_exchange_weak(
                cur, pack(lo + 1, hi), std::memory_order_acq_rel,
                std::memory_order_relaxed)) {
          return make_chunk(lo);
        }
      }
      // Empty: steal the tail half of the fullest victim.
      steal_attempts_.fetch_add(1, std::memory_order_relaxed);
      std::size_t victim = workers_;
      std::uint32_t best = 0;
      for (std::size_t v = 0; v < workers_; ++v) {
        if (v == worker) continue;
        const std::uint64_t r = slots_[v].range.load(std::memory_order_relaxed);
        const std::uint32_t size = unpack_hi(r) - std::min(unpack_lo(r), unpack_hi(r));
        if (size > best) {
          best = size;
          victim = v;
        }
      }
      if (victim == workers_) return std::nullopt;  // nothing left anywhere
      std::uint64_t r = slots_[victim].range.load(std::memory_order_relaxed);
      const std::uint32_t lo = unpack_lo(r), hi = unpack_hi(r);
      if (lo >= hi) continue;  // drained meanwhile; rescan
      const std::uint32_t mid = lo + (hi - lo) / 2;  // victim keeps [lo, mid)
      if (slots_[victim].range.compare_exchange_strong(
              r, pack(lo, mid), std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        slots_[worker].range.store(pack(mid, hi), std::memory_order_release);
        steals_.fetch_add(1, std::memory_order_relaxed);
      }
      // Either way, loop back and retry from our own range.
    }
  }

  /// Cumulative steal activity since construction (reset() keeps the
  /// tallies: a run spans many layers).  Attempts count every entry into
  /// the steal path; steals count the successful CAS handoffs.
  std::uint64_t steal_attempts() const {
    return steal_attempts_.load(std::memory_order_relaxed);
  }
  std::uint64_t steals() const {
    return steals_.load(std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> range{0};
  };

  static std::uint64_t pack(std::uint32_t lo, std::uint32_t hi) {
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }
  static std::uint32_t unpack_lo(std::uint64_t r) {
    return static_cast<std::uint32_t>(r >> 32);
  }
  static std::uint32_t unpack_hi(std::uint64_t r) {
    return static_cast<std::uint32_t>(r);
  }

  Chunk make_chunk(std::size_t ordinal) const {
    const std::size_t begin = ordinal * chunk_;
    const std::size_t end = std::min(begin + chunk_, items_);
    return Chunk{ordinal, begin, end};
  }

  std::vector<Slot> slots_;
  std::size_t workers_ = 0;
  std::size_t items_ = 0;
  std::size_t chunk_ = 1;
  std::size_t num_chunks_ = 0;
  std::atomic<std::uint64_t> steal_attempts_{0};
  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace rtv
