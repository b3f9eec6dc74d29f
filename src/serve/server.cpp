#include "rtv/serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rtv/base/parallel.hpp"
#include "rtv/obs/metrics.hpp"
#include "rtv/obs/trace.hpp"
#include "rtv/verify/engine.hpp"

namespace rtv::serve {

namespace {

/// Write the whole buffer, riding out partial writes; MSG_NOSIGNAL keeps a
/// client that hung up from killing the daemon with SIGPIPE.
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR)) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Impl
// ---------------------------------------------------------------------------

struct Server::Impl {
  /// One request obligation, prepared once.  The lint fast-reject, the
  /// key, the records' lint/slice fields and a miss's run_suite all read
  /// its one front end.
  struct Pending {
    WireObligation wire;
    std::vector<std::unique_ptr<SafetyProperty>> properties;
    Obligation ob;  ///< ob.front_end points at fe
    FrontEnd fe;
    CacheKey key;
    bool cached = false;  ///< answered without computing for this request
    /// An earlier obligation of the same request with the same key.
    const Pending* twin = nullptr;
    CachedOutcome outcome;
  };

  explicit Impl(ServerOptions opts)
      : options(std::move(opts)), cache(options.max_cache_entries) {
    if (options.socket_path.empty())
      throw std::runtime_error("rtv serve: socket path is required");
    if (!options.cache_path.empty()) {
      // A missing file is a cold start; anything unreadable or
      // version-skewed refuses loudly — a stale cache must never be
      // half-trusted.
      std::ifstream probe(options.cache_path);
      if (probe) {
        probe.close();
        cache.load(options.cache_path);
        log_line("loaded " + std::to_string(cache.size()) +
                 " cached verdict(s) from " + options.cache_path);
      }
    }
    bind_and_listen();
  }

  ~Impl() { stop(); }

  void log_line(const std::string& line) {
    if (options.log) options.log(line);
  }

  void bind_and_listen() {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options.socket_path.size() >= sizeof(addr.sun_path))
      throw std::runtime_error("rtv serve: socket path too long: " +
                               options.socket_path);
    std::memcpy(addr.sun_path, options.socket_path.c_str(),
                options.socket_path.size() + 1);

    listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0)
      throw std::runtime_error("rtv serve: socket() failed: " +
                               std::string(std::strerror(errno)));
    ::unlink(options.socket_path.c_str());
    if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const int err = errno;
      ::close(listen_fd);
      listen_fd = -1;
      throw std::runtime_error("rtv serve: cannot bind " +
                               options.socket_path + ": " +
                               std::strerror(err));
    }
    if (::listen(listen_fd, 64) < 0) {
      const int err = errno;
      ::close(listen_fd);
      listen_fd = -1;
      throw std::runtime_error("rtv serve: listen() failed: " +
                               std::string(std::strerror(err)));
    }
  }

  // ---- lifecycle ----------------------------------------------------------

  void start() {
    started = true;
    start_time = std::chrono::steady_clock::now();
    acceptor = std::thread([this] { accept_loop(); });
    log_line("listening on " + options.socket_path);
  }

  /// Seconds since start(), as a double: periods and waits are compared
  /// in this unit, never cast to a clock duration, so a huge one (1e300,
  /// inf) cannot overflow.
  double uptime() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_time)
        .count();
  }

  void stop() {
    bool expected = false;
    if (!stopping.compare_exchange_strong(expected, true)) {
      join_all();
      return;
    }
    // Abort any run_suite in progress; its handler answers and returns.
    cancel.cancel();
    join_all();
    if (listen_fd >= 0) {
      ::close(listen_fd);
      listen_fd = -1;
      ::unlink(options.socket_path.c_str());
    }
    if (!options.cache_path.empty()) save_cache();
    request_shutdown();  // release any wait_for() caller
  }

  void join_all() {
    // Unblock connection threads stuck in recv().
    {
      std::lock_guard<std::mutex> lock(conn_mutex);
      for (int fd : conn_fds) ::shutdown(fd, SHUT_RDWR);
    }
    // Wake the accept loop's poll at once (POLLHUP) instead of waiting out
    // its period.
    if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
    if (acceptor.joinable()) acceptor.join();
    decltype(conn_threads) threads;
    {
      std::lock_guard<std::mutex> lock(conn_mutex);
      threads.swap(conn_threads);
      finished_conns.clear();
    }
    for (auto& [id, t] : threads) t.join();
  }

  bool save_cache() {
    if (options.cache_path.empty()) return false;
    try {
      cache.save(options.cache_path);
      log_line("persisted " + std::to_string(cache.size()) +
               " cached verdict(s) to " + options.cache_path);
      return true;
    } catch (const std::exception& e) {
      log_line(std::string("cache save failed: ") + e.what());
      return false;
    }
  }

  void request_shutdown() {
    {
      std::lock_guard<std::mutex> lock(shutdown_mutex);
      shutdown_flag = true;
    }
    shutdown_cv.notify_all();
  }

  bool wait_for(double seconds) {
    const double deadline = uptime() + seconds;
    std::unique_lock<std::mutex> lock(shutdown_mutex);
    for (;;) {
      if (shutdown_flag) return true;
      const double left = deadline - uptime();
      if (!(left > 0.0)) return false;
      // An hour at most per wait keeps the clock conversion in range.
      shutdown_cv.wait_for(lock,
                           std::chrono::duration<double>(std::min(left, 3600.0)));
    }
  }

  // ---- connection layer ---------------------------------------------------

  /// Join the connection threads that have returned, so a long-lived
  /// daemon holds a thread (and its stack) only per open connection.
  void reap_connections() {
    std::vector<std::thread> done;
    {
      std::lock_guard<std::mutex> lock(conn_mutex);
      for (const std::thread::id id : finished_conns)
        if (auto node = conn_threads.extract(id))
          done.push_back(std::move(node.mapped()));
      finished_conns.clear();
    }
    for (std::thread& t : done) t.join();
  }

  /// Accept connections, one thread each, and log the heartbeat: one
  /// structured line per period, "heartbeat {<stats counters>}", so an
  /// operator tailing the daemon log sees liveness and the cache ratio
  /// drifting without having to poll the stats op.
  void accept_loop() {
    const double period = options.heartbeat_seconds;
    double next_beat = period > 0.0
                           ? uptime() + period
                           : std::numeric_limits<double>::infinity();
    while (!stopping.load(std::memory_order_relaxed)) {
      reap_connections();
      const double wait = std::max(0.0, std::min(0.2, next_beat - uptime()));
      pollfd pfd{listen_fd, POLLIN, 0};
      const int r = ::poll(&pfd, 1, static_cast<int>(std::ceil(wait * 1000)));
      if (r < 0 && errno != EINTR) break;
      if (uptime() >= next_beat) {
        std::string line = "heartbeat ";
        stats_to_json(line, stats());
        log_line(line);
        next_beat = uptime() + period;
      }
      if (r <= 0 || !(pfd.revents & POLLIN)) continue;
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      std::lock_guard<std::mutex> lock(conn_mutex);
      if (stopping.load(std::memory_order_relaxed)) {
        ::close(fd);
        return;
      }
      conn_fds.insert(fd);
      // Under conn_mutex, so the thread is registered before it can
      // report itself finished.
      std::thread t([this, fd] { connection_loop(fd); });
      const std::thread::id id = t.get_id();
      conn_threads.emplace(id, std::move(t));
    }
  }

  void connection_loop(int fd) {
    std::string buf;
    // Leading bytes of buf known to hold no '\n': each byte is searched
    // once, not once per recv, so a line near the limit stays linear.
    std::size_t scanned = 0;
    char chunk[4096];
    while (!stopping.load(std::memory_order_relaxed)) {
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      bool hang_up = false;
      for (;;) {
        const std::size_t pos = buf.find('\n', scanned);
        if ((pos == std::string::npos ? buf.size() : pos) >
            kMaxRequestLineBytes) {
          // The rest of an over-long line cannot be told apart from the
          // next request, so the connection closes after the answer.
          send_all(fd, line_too_long() + '\n');
          hang_up = true;
          break;
        }
        if (pos == std::string::npos) {
          scanned = buf.size();
          break;
        }
        std::string line = buf.substr(0, pos);
        buf.erase(0, pos + 1);
        scanned = 0;
        if (line.empty()) continue;
        bool shutdown = false;
        std::string response = handle_line(line, shutdown);
        response += '\n';
        const bool sent = send_all(fd, response);
        // Flag the owner only once the acknowledgement is out: its stop()
        // closes every connection, this one included.
        if (shutdown) request_shutdown();
        if (!sent) {
          hang_up = true;
          break;
        }
      }
      if (hang_up) break;
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(conn_mutex);
    conn_fds.erase(fd);
    finished_conns.push_back(std::this_thread::get_id());
  }

  // ---- protocol -----------------------------------------------------------

  /// Count a failed request and answer it ok:false.
  std::string failed(std::string error) {
    errors.fetch_add(1, std::memory_order_relaxed);
    m_errors.inc();
    ServeResponse resp;
    resp.ok = false;
    resp.error = std::move(error);
    return resp.to_json();
  }

  /// The answer to a request line past kMaxRequestLineBytes.
  std::string line_too_long() {
    requests.fetch_add(1, std::memory_order_relaxed);
    m_requests.inc();
    return failed("serve request line exceeds the limit of " +
                  std::to_string(kMaxRequestLineBytes) + " bytes");
  }

  /// Answer one line; `shutdown` asks to flag the owner after the reply.
  std::string handle_line(const std::string& line, bool& shutdown) {
    requests.fetch_add(1, std::memory_order_relaxed);
    m_requests.inc();
    obs::ScopedTimer timer(m_request_seconds);
    ServeResponse resp;
    try {
      ServeRequest req = ServeRequest::parse(line);
      switch (req.kind) {
        case RequestKind::kPing:
          resp.ok = true;
          break;
        case RequestKind::kStats:
          resp.ok = true;
          resp.has_stats = true;
          resp.stats = stats();
          if (obs::metrics_enabled())
            obs::append_json(resp.metrics_json, obs::snapshot());
          break;
        case RequestKind::kMetrics:
          resp.ok = true;
          resp.metrics_text = obs::to_prometheus(obs::snapshot());
          break;
        case RequestKind::kShutdown:
          // Persist immediately, acknowledge, and flag the owner; the
          // owning thread (CLI main / test) performs the actual stop() —
          // a connection thread cannot join itself.
          if (!options.cache_path.empty()) save_cache();
          resp.ok = true;
          shutdown = true;
          break;
        case RequestKind::kVerify:
          return handle_verify(std::move(req));
      }
    } catch (const std::exception& e) {
      return failed(e.what());
    }
    return resp.to_json();
  }

  std::string handle_verify(ServeRequest req) {
    const auto t0 = std::chrono::steady_clock::now();

    ServeResponse resp;
    // Sized once and never grown: each ob.front_end points into its own
    // element.
    std::vector<Pending> pending(req.obligations.size());
    try {
      if (req.obligations.empty())
        throw std::runtime_error("verify request carries no obligations");
      SuiteOptions so;
      so.mode = req.mode;
      so.engines = req.engines;
      so.budget.max_states = req.max_states;
      so.budget.max_seconds = req.max_seconds;
      so.max_refinements = req.max_refinements;
      // Every front end and key before any computation: a request that
      // fails here (an unregistered engine, say) starts nothing.
      for (std::size_t i = 0; i < pending.size(); ++i) {
        Pending& p = pending[i];
        p.wire = std::move(req.obligations[i]);
        p.ob = p.wire.obligation(p.properties);
        p.fe = front_end(p.ob, so);
        p.ob.front_end = &p.fe;
        obligations.fetch_add(1, std::memory_order_relaxed);
        if (!p.fe.rejected())
          p.key = obligation_cache_key(p.wire, req.mode, p.fe);
      }

      std::vector<Pending*> misses;
      for (Pending& p : pending) {
        // Lint fast-reject: an obligation whose pre-flight has errors is
        // answered right here — no key, no computation, and the verdict
        // cache never sees it (a broken model must not displace
        // computable entries).
        if (p.fe.rejected()) {
          lint_rejected.fetch_add(1, std::memory_order_relaxed);
          m_lint_rejected.inc();
          for (const std::string& engine : p.fe.engines) {
            SuiteRecord& r = p.outcome.records.emplace_back();
            r.engine = engine;
            r.result.truncated_reason = stop_reason::kLintError;
            r.result.message = p.fe.lint.diagnostics.front().format();
          }
        } else if (cache.get(p.key, &p.outcome)) {
          p.cached = true;
          cache_hits.fetch_add(1, std::memory_order_relaxed);
          m_cache_hits.inc();
        } else {
          misses.push_back(&p);
        }
      }
      if (!misses.empty()) compute(misses, req.mode);
    } catch (const std::exception& e) {
      return failed(e.what());
    }

    resp.ok = true;
    resp.has_report = true;
    resp.report.mode = req.mode;
    resp.report.jobs = resolve_jobs(options.jobs);
    for (Pending& p : pending) {
      for (SuiteRecord& rec : p.outcome.records) {
        rec.obligation = p.ob.name;
        rec.cached = p.cached;
        // The request's own facts, as a direct run_suite would report
        // them: a hit may come from a differently padded twin.
        p.fe.annotate(rec);
        resp.report.records.push_back(std::move(rec));
      }
    }
    resp.report.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    return resp.to_json();
  }

  // ---- compute layer ------------------------------------------------------

  /// Compute one request's cache misses as one Suite.  One computation at
  /// a time daemon-wide, so the --jobs budget caps total concurrency.
  /// Under that lock each miss is looked up again: a twin that another
  /// request computed while this one waited is cached by now.  A key the
  /// request repeats runs once.  Should run_suite throw, only this request
  /// fails; a waiting twin finds no entry and computes the key itself.
  void compute(const std::vector<Pending*>& misses, SuiteMode mode) {
    std::lock_guard<std::mutex> compute_lock(compute_mutex);
    // The first miss of each key; a single miss has nothing to repeat.
    std::unordered_map<CacheKey, const Pending*, CacheKeyHash> first;
    // Each obligation carries the front end its request computed, so
    // run_suite neither resolves, lints nor slices it again.
    Suite suite;
    for (Pending* p : misses) {
      p->cached = cache.get(p->key, &p->outcome);
      if (!p->cached && misses.size() > 1) {
        const auto [it, fresh] = first.try_emplace(p->key, p);
        if (!fresh) {
          p->twin = it->second;
          p->cached = true;
        }
      }
      if (p->cached) {
        deduped.fetch_add(1, std::memory_order_relaxed);
        m_deduped.inc();
      } else {
        suite.obligations().push_back(p->ob);
        computed.fetch_add(1, std::memory_order_relaxed);
        m_computed.inc();
      }
    }

    if (!suite.empty()) {
      const obs::Span span(obs::tracing_active()
                               ? "compute:" + std::to_string(suite.size()) +
                                     " obligation(s)"
                               : std::string(),
                           "serve");
      SuiteOptions opts;
      opts.mode = mode;
      opts.jobs = options.jobs;
      opts.budget.cancel = &cancel;
      SuiteReport report = run_suite(suite, opts);

      // Slice the obligation-major records back onto their obligations:
      // each produced one record per engine of its own selection.
      auto rec = report.records.begin();
      for (Pending* p : misses) {
        if (p->cached) continue;
        for (std::size_t k = p->fe.engines.size();
             k > 0 && rec != report.records.end(); --k, ++rec) {
          SuiteRecord& r = p->outcome.records.emplace_back(std::move(*rec));
          // Keep only content (see CachedOutcome).
          r.obligation.clear();
          r.lint.clear();
          r.sliced_modules = r.sliced_events = 0;
          r.result.stats = std::monostate{};
          r.result.discrete_states = 0;
        }
        if (cacheable(p->outcome)) cache.put(p->key, p->outcome);
      }
    }
    for (Pending* p : misses)
      if (p->twin) p->outcome = p->twin->outcome;
  }

  // ---- stats --------------------------------------------------------------

  ServeStats stats() const {
    ServeStats s;
    s.requests = requests.load(std::memory_order_relaxed);
    s.obligations = obligations.load(std::memory_order_relaxed);
    s.cache_hits = cache_hits.load(std::memory_order_relaxed);
    s.deduped = deduped.load(std::memory_order_relaxed);
    s.computed = computed.load(std::memory_order_relaxed);
    s.lint_rejected = lint_rejected.load(std::memory_order_relaxed);
    s.errors = errors.load(std::memory_order_relaxed);
    s.cache_entries = cache.size();
    s.cache_evictions = cache.stats().evictions;
    s.jobs = resolve_jobs(options.jobs);
    if (started) s.uptime_seconds = uptime();
    return s;
  }

  // ---- state --------------------------------------------------------------

  ServerOptions options;
  VerdictCache cache;
  int listen_fd = -1;
  bool started = false;
  std::chrono::steady_clock::time_point start_time{};

  std::atomic<bool> stopping{false};
  CancelToken cancel;

  std::thread acceptor;

  std::mutex conn_mutex;
  std::set<int> conn_fds;
  std::unordered_map<std::thread::id, std::thread> conn_threads;
  /// Connection threads that have returned and wait for reap_connections().
  std::vector<std::thread::id> finished_conns;

  /// Held for a miss's second lookup and its run_suite: one computation
  /// at a time.
  std::mutex compute_mutex;

  std::mutex shutdown_mutex;
  std::condition_variable shutdown_cv;
  bool shutdown_flag = false;

  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> obligations{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> deduped{0};
  std::atomic<std::uint64_t> computed{0};
  std::atomic<std::uint64_t> lint_rejected{0};
  std::atomic<std::uint64_t> errors{0};

  // Registry mirrors of the wire-visible counters, registered eagerly so
  // the metrics op exposes zeroed series before the first request.  The
  // atomics above stay authoritative for the stats op (they survive a
  // Registry::reset()); these feed the Prometheus exposition.
  obs::Counter& m_requests = obs::Registry::global().counter(
      "rtv_serve_requests_total", "", "Protocol messages handled");
  obs::Counter& m_cache_hits = obs::Registry::global().counter(
      "rtv_serve_cache_hits_total", "",
      "Obligations answered straight from the verdict cache");
  obs::Counter& m_deduped = obs::Registry::global().counter(
      "rtv_serve_deduped_total", "",
      "Obligations a twin computed after their cache lookup missed");
  obs::Counter& m_computed = obs::Registry::global().counter(
      "rtv_serve_computed_total", "",
      "Obligations actually dispatched to run_suite");
  obs::Counter& m_lint_rejected = obs::Registry::global().counter(
      "rtv_serve_lint_rejected_total", "",
      "Obligations fast-rejected by the lint pre-flight");
  obs::Counter& m_errors = obs::Registry::global().counter(
      "rtv_serve_errors_total", "", "Requests answered ok:false");
  obs::Histogram& m_request_seconds = obs::Registry::global().histogram(
      "rtv_serve_request_seconds", obs::Histogram::time_buckets(), "",
      "Wire request handling latency (parse to serialized response)");
};

// ---------------------------------------------------------------------------
// Public surface
// ---------------------------------------------------------------------------

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() {
  if (impl_) impl_->stop();
}

void Server::start() { impl_->start(); }
bool Server::wait_for(double seconds) { return impl_->wait_for(seconds); }

bool Server::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(impl_->shutdown_mutex);
  return impl_->shutdown_flag;
}

void Server::stop() { impl_->stop(); }
bool Server::save_cache() { return impl_->save_cache(); }

const std::string& Server::socket_path() const {
  return impl_->options.socket_path;
}

ServeStats Server::stats() const { return impl_->stats(); }
VerdictCache& Server::cache() { return impl_->cache; }

}  // namespace rtv::serve
