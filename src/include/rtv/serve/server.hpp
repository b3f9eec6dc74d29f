// The `rtv serve` daemon: a persistent verification service.
//
// Architecture (two layers, one process):
//
//   * connection layer — a Unix-domain stream listener whose accept loop
//     also logs the heartbeat; one thread per client connection,
//     line-delimited JSON requests/responses (rtv/serve/wire.hpp);
//   * dispatch layer — every verify obligation is content-hashed
//     (rtv/serve/cache.hpp).  A hit answers in O(1) from the verdict
//     cache.  A request with misses computes them itself, in one
//     run_suite call with the daemon's global --jobs budget, under a
//     lock that lets one computation run at a time — so total worker
//     concurrency is capped no matter how many clients are connected.
//     Under that lock each miss is looked up again, so N clients asking
//     the same question trigger exactly ONE computation: the twins that
//     waited find its verdict cached (one the cache refuses to keep, an
//     engine error say, is computed again).  A key repeated within one
//     request is computed once as well.
//     Incremental re-verification falls out of the same mechanism: an
//     edited suite re-runs only the obligations whose content hash
//     changed, the rest are served from cache with `cached: true`.
//
// Lifecycle: construct (binds the socket; loads the verdict cache,
// refusing corrupt or version-skewed files), start(), then wait_for() /
// shutdown_requested() until a shutdown request or an external signal,
// then stop() — which persists the cache when a cache path is configured.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "rtv/serve/cache.hpp"
#include "rtv/serve/wire.hpp"

namespace rtv::serve {

struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket (required).  An
  /// existing socket file is replaced.
  std::string socket_path;
  /// Verdict-cache persistence file; empty = in-memory only.  Loaded at
  /// construction (a missing file starts empty; a corrupt or
  /// version-skewed file throws) and saved by stop() and shutdown
  /// requests.
  std::string cache_path;
  /// Global worker budget handed to run_suite (0 = hardware concurrency).
  std::size_t jobs = 0;
  /// Verdict-cache entry cap (LRU eviction past it).
  std::size_t max_cache_entries = 4096;
  /// Optional sink for human-readable log lines.
  std::function<void(const std::string&)> log;
  /// Heartbeat period in seconds; > 0 makes the accept loop log one
  /// structured line ("heartbeat {...}" with the stats counters as JSON)
  /// per period through the log sink.  A period too large for any clock
  /// duration (1e300, inf) never fires.
  double heartbeat_seconds = 0.0;
};

class Server {
 public:
  /// Binds + listens and loads the cache; throws std::runtime_error on
  /// socket failure or a rejected cache file.
  explicit Server(ServerOptions options);
  /// stop()s if still running.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawn the accept loop, the daemon's one thread until clients connect.
  void start();

  /// Block up to `seconds` (1e300 and inf included) or until a shutdown
  /// request arrives; returns true once shutdown was requested.  Poll
  /// this from the owning thread (which also watches its own signals),
  /// then call stop().
  bool wait_for(double seconds);
  bool shutdown_requested() const;

  /// Stop accepting, cancel the computation in progress, join every
  /// thread, persist the cache (when configured).  Idempotent.  Must not
  /// be called from a connection thread — shutdown *requests* only flag,
  /// the owner stops.
  void stop();

  /// Persist the cache now; false (with a log line) on I/O failure.
  bool save_cache();

  const std::string& socket_path() const;
  ServeStats stats() const;
  VerdictCache& cache();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rtv::serve
