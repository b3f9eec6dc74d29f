// serve-mixed: an in-process `rtv serve` daemon (one suite worker) fed by
// two closed-loop clients, all on one CPU (pin_to_one_cpu).
//
// The request stream is drawn from --seed.  Every request carries one
// obligation: fuzz-generated system modules with a persistency (and, for
// odd bases, deadlock) spec, verified on the zone engine.  The mix is
// synthetic; no recorded daemon traffic exists.  Its shares copy the one
// client session the repository runs, the CI service job: of its nine
// obligation records four are exact repeats, two are padded variants
// answered through the sliced key and three are fresh.  So, per request:
//
//   * 4 in 9 of 95%: exact repeats of recently sent obligations (hits);
//   * 2 in 9 of 95%: padded or module-permuted variants of recent
//     obligations (hits through the sliced canonical cache key);
//   * 3 in 9 of 95%: fresh obligations (misses: lint, slice, run_suite,
//     cache insert);
//   * 5%: an invariant over an undeclared signal, which the lint pre-flight
//     rejects.  The CI job sends none; a small share keeps the fast-reject
//     path in the mix without letting it carry the pass.
//
// More distinct obligations flow through a pass than the cache holds, so
// LRU eviction runs.  Each pass starts a fresh daemon from the same cache
// file, persisted before the first pass, as the CI job restarts its daemon
// on the persisted cache.  Oracle: every response is ok, each distinct
// obligation is always served the same verdict, and after the timed phase
// that verdict equals a direct run_suite verdict.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "rtv/analysis/slice.hpp"
#include "rtv/fuzz/generator.hpp"
#include "rtv/lint/lint.hpp"
#include "rtv/serve/cache.hpp"
#include "rtv/serve/client.hpp"
#include "rtv/serve/server.hpp"
#include "rtv/ts/compose.hpp"

namespace rtvbench {
namespace {

using rtv::serve::PropertySpec;
using rtv::serve::ServeRequest;
using rtv::serve::ServeResponse;
using rtv::serve::WireObligation;

/// Repeats and variants reach back over the last kRecent requests, as
/// bench/serve_throughput's warm pass replays its 64-obligation pool.  The
/// cache file holds one such pool, and the cache cap is twice the window:
/// every repeat is still cached, so the hit share is the designed one, and
/// evictions fall on obligations no longer repeated.
constexpr std::size_t kRecent = 64;
constexpr std::size_t kHistoric = 64;    ///< in the cache file beforehand
constexpr std::size_t kCacheCap = 128;   ///< daemon max_cache_entries
constexpr std::size_t kRequests = 4000;  ///< requests per pass
/// Closed-loop connections.  Two keep requests arriving while another is
/// in flight (hits beside misses, in-flight dedup) on the one CPU.
constexpr std::size_t kClients = 2;
/// The daemon's suite workers: one per CPU the workload has.
constexpr std::size_t kJobs = 1;

enum class Kind { kPlain, kPadded, kPermuted, kLintReject };

/// One distinct obligation of the stream.
struct Distinct {
  std::size_t base = 0;
  Kind kind = Kind::kPlain;
  WireObligation ob;
  /// Verdict served for it so far ("" until first served).
  std::string served;
};

/// What one request came back with.
struct Answer {
  bool ok = false;
  bool cached = false;
  std::string verdict;
  std::string stop_reason;
  double ms = 0.0;
};

/// Two modules keep the zone engine's cost per miss small and light-tailed
/// (at three, a few obligations per thousand take 10-100x the median), so
/// the daemon's own code carries the load.
rtv::fuzz::GeneratorConfig base_config(std::uint32_t padding) {
  rtv::fuzz::GeneratorConfig c;
  c.modules = 2;
  c.events = 4;
  c.max_delay = 16;
  c.properties = 0;
  c.padding_modules = padding;
  return c;
}

class ServeMixed final : public Workload {
 public:
  explicit ServeMixed(const Args& args)
      : seed_(args.seed),
        socket_(args.workdir + "/serve.sock"),
        cache_file_(args.workdir + "/serve-cache.json") {
    build_stream();
    persist_history();
  }

  ~ServeMixed() override { stop_server(); }

  double setup() override {
    stop_server();
    {
      std::ofstream f(cache_file_, std::ios::binary | std::ios::trunc);
      f << cache_bytes_;
    }
    const std::uint64_t t0 = now_ns();
    server_ = std::make_unique<rtv::serve::Server>(server_options());
    server_->start();
    return (now_ns() - t0) * 1e-9;
  }

  void pass(Pass& out) override { drive(out, nullptr, nullptr); }

  void counts(Layers& l) override {
    const Ratio hits{static_cast<double>(last_.cache_hits),
                     static_cast<double>(last_.obligations)};
    l["serve.hit_ratio"] = hits.value();
    l["serve.hit_ratio.base"] = hits.base;
    l["serve.computed"] = static_cast<double>(last_.computed);
    l["serve.deduped"] = static_cast<double>(last_.deduped);
    l["serve.evictions"] = static_cast<double>(last_.cache_evictions);
    std::printf("serve: hit ratio %s obligations, computed %llu, deduped "
                "%llu, evictions %llu, lint-rejected %llu\n",
                hits.str().c_str(),
                static_cast<unsigned long long>(last_.computed),
                static_cast<unsigned long long>(last_.deduped),
                static_cast<unsigned long long>(last_.cache_evictions),
                static_cast<unsigned long long>(last_.lint_rejected));
  }

  void traced_pass(Pass& out, SpanLog& log, Layers& l) override {
    {
      Scoped s(log, "VerdictCache::load()", "serve", -1, 0);
      rtv::serve::VerdictCache c(kCacheCap);
      c.load(cache_file_);
    }
    drive(out, &log, &l);
    {
      Scoped s(log, "Server::save_cache()", "serve", -1, 0);
      server_->save_cache();
    }
    double wire = 0.0, key = 0.0;
    for (const Span& s : log.spans()) {
      if (s.name == "wire()") wire += s.seconds();
      if (s.name == "obligation_cache_key()") key += s.seconds();
      if (s.name == "VerdictCache::load()") l["serve.cache_load_s"] = s.seconds();
      if (s.name == "Server::save_cache()") l["serve.cache_save_s"] = s.seconds();
    }
    l["serve.wire_us"] = wire / kRequests * 1e6;
    l["serve.cache_key_us"] = key / kRequests * 1e6;
  }

  void final_check(Pass& out) override {
    // Decide every distinct obligation that was served, directly.
    rtv::Suite suite;
    std::vector<std::size_t> ids;
    for (std::size_t i = 0; i < distinct_.size(); ++i) {
      const Distinct& d = distinct_[i];
      if (d.served.empty()) continue;
      std::vector<const rtv::SafetyProperty*> props;
      for (const PropertySpec& p : d.ob.properties)
        props.push_back(suite.own(p.instantiate()));
      suite.add(d.ob.name, d.ob.module_ptrs(), props);
      ids.push_back(i);
    }
    rtv::SuiteOptions o;
    o.jobs = kJobs;
    o.engines = {"zone"};
    const rtv::SuiteReport r = rtv::run_suite(suite, o);
    std::size_t wrong = 0;
    for (std::size_t k = 0; k < ids.size(); ++k) {
      const Distinct& d = distinct_[ids[k]];
      const rtv::EngineResult& res = r.records[k].result;
      const std::string direct = verdict_key(rtv::to_string(res.verdict),
                                             res.truncated_reason);
      ++out.ops;
      if (direct != d.served) {
        ++wrong;
        std::fprintf(stderr, "served %s but run_suite says %s for %s\n",
                     d.served.c_str(), direct.c_str(), d.ob.name.c_str());
      }
    }
    out.failed += wrong;
    std::printf("serve oracle: %zu distinct obligations re-decided by "
                "run_suite, %zu disagree\n",
                ids.size(), wrong);
  }

 private:
  static std::string verdict_key(const std::string& verdict,
                                 const std::string& stop_reason) {
    return stop_reason.empty() ? verdict : verdict + " (" + stop_reason + ")";
  }

  rtv::serve::ServerOptions server_options() const {
    rtv::serve::ServerOptions o;
    o.socket_path = socket_;
    o.cache_path = cache_file_;
    o.jobs = kJobs;
    o.max_cache_entries = kCacheCap;
    return o;
  }

  void stop_server() {
    if (!server_) return;
    server_->stop();
    server_.reset();
  }

  WireObligation make(std::size_t base, Kind kind) const {
    const std::uint64_t s = rtv::fuzz::case_seed(seed_, base);
    const rtv::fuzz::Scenario sc =
        rtv::fuzz::generate(s, base_config(kind == Kind::kPadded ? 2 : 0));
    WireObligation ob;
    ob.name = "b" + std::to_string(base);
    for (const rtv::Module& m : sc.modules) ob.modules.push_back(m);
    if (kind == Kind::kPermuted)
      std::reverse(ob.modules.begin(), ob.modules.end());
    ob.properties.push_back(PropertySpec::persistency());
    if (base % 2) ob.properties.push_back(PropertySpec::deadlock());
    if (kind == Kind::kLintReject)
      ob.properties.push_back(
          PropertySpec::invariant("ghost", {{"undeclared_signal", true}}));
    static const char* const suffix[] = {"", "+pad", "+perm", "+ghost"};
    ob.name += suffix[static_cast<int>(kind)];
    return ob;
  }

  std::size_t intern(std::size_t base, Kind kind) {
    const auto key = std::make_pair(base, kind);
    const auto it = index_.find(key);
    if (it != index_.end()) return it->second;
    Distinct d;
    d.base = base;
    d.kind = kind;
    d.ob = make(base, kind);
    distinct_.push_back(std::move(d));
    index_.emplace(key, distinct_.size() - 1);
    return distinct_.size() - 1;
  }

  /// The seeded request stream: which distinct obligation each request
  /// carries.
  void build_stream() {
    std::mt19937_64 rng(seed_ ^ 0x5e7e5e7eull);
    std::vector<std::size_t> recent;  // recently sent distinct ids
    for (std::size_t b = 0; b < kHistoric; ++b)
      recent.push_back(intern(b, Kind::kPlain));
    std::size_t next_fresh = kHistoric;
    const auto pick_recent = [&] {
      const std::size_t w = std::min(recent.size(), kRecent);
      return recent[recent.size() - 1 - rng() % w];
    };
    for (std::size_t r = 0; r < kRequests; ++r) {
      const bool lint_reject = rng() % 20 == 0;
      const unsigned u = static_cast<unsigned>(rng() % 9);
      std::size_t id;
      if (lint_reject) {
        id = intern(distinct_[pick_recent()].base, Kind::kLintReject);
      } else if (u < 4) {
        id = pick_recent();
      } else if (u < 6) {
        // Deadlock-freedom keeps the always-live padding modules in the
        // cone (they mask deadlocks), so only persistency-only bases get
        // padded variants.
        const std::size_t base = distinct_[pick_recent()].base;
        const bool pad = rng() % 2 && base % 2 == 0;
        id = intern(base, pad ? Kind::kPadded : Kind::kPermuted);
      } else {
        id = intern(next_fresh++, Kind::kPlain);
      }
      if (distinct_[id].kind != Kind::kLintReject) recent.push_back(id);
      stream_.push_back(id);
    }
    for (std::size_t id : stream_) {
      ServeRequest req;
      req.engines = {"zone"};
      req.obligations.push_back(distinct_[id].ob);
      requests_.push_back(std::move(req));
    }
    std::printf("serve stream seed %llu: %zu requests over %zu distinct "
                "obligations, cache cap %zu, %zu historic entries\n",
                static_cast<unsigned long long>(seed_), kRequests,
                distinct_.size(), kCacheCap, kHistoric);
  }

  /// Warm a daemon with the historic obligations and keep the cache file
  /// it persists; every pass's daemon starts from those bytes.
  void persist_history() {
    std::remove(cache_file_.c_str());
    {
      rtv::serve::Server warm(server_options());
      warm.start();
      rtv::serve::Client c;
      c.connect(socket_);
      ServeRequest req;
      req.engines = {"zone"};
      for (std::size_t b = 0; b < kHistoric; ++b)
        req.obligations.push_back(distinct_[index_.at({b, Kind::kPlain})].ob);
      const ServeResponse resp = c.call(req);
      if (!resp.ok) throw std::runtime_error("warm-up failed: " + resp.error);
      c.close();
      warm.stop();
    }
    std::ifstream f(cache_file_, std::ios::binary);
    std::ostringstream ss;
    ss << f.rdbuf();
    cache_bytes_ = ss.str();
    if (cache_bytes_.empty())
      throw std::runtime_error("the warm daemon persisted no cache file");
  }

  /// One pass of kRequests over kClients closed-loop connections.  With
  /// `log`, every request gets spans and the layer calls the daemon makes
  /// are repeated from the client side to time them.
  void drive(Pass& out, SpanLog* log, Layers* layers) {
    std::vector<Answer> answers(kRequests);
    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> dropped{0};
    // A client that throws stops; the request it held stays unanswered and
    // counts as failed, and the other clients take the rest.
    const auto client = [&] {
      try {
        rtv::serve::Client c;
        c.connect(socket_);
        for (;;) {
          const std::size_t i = cursor.fetch_add(1);
          if (i >= kRequests) break;
          const ServeRequest& req = requests_[i];
          Answer& a = answers[i];
          std::int64_t root = -1;
          if (log) {
            root = log->begin("request " + std::to_string(i), "bench", -1, i + 1);
            client_side_calls(*log, root, i + 1, req, dropped);
          }
          const std::uint64_t t0 = now_ns();
          ServeResponse resp;
          try {
            resp = c.call(req);
          } catch (const std::exception& e) {
            resp.ok = false;
            resp.error = e.what();
          }
          const std::uint64_t t1 = now_ns();
          a.ms = (t1 - t0) * 1e-6;
          if (log) {
            // The daemon ran the engines inside this round trip; their
            // time comes from the uncached records.
            const std::int64_t call = log->add(
                Span{"Client::call", "serve", t0, t1, root, i + 1, thread_slot()});
            for (const rtv::SuiteRecord& rec : resp.report.records)
              if (!rec.cached)
                add_engine_span(*log, call, t0, t1, i + 1, rec.engine,
                                rec.result.seconds);
          }
          a.ok = resp.ok && resp.has_report && resp.report.records.size() == 1;
          if (a.ok) {
            const rtv::SuiteRecord& rec = resp.report.records.front();
            a.cached = rec.cached;
            a.verdict = rtv::to_string(rec.result.verdict);
            a.stop_reason = rec.result.truncated_reason;
          } else {
            std::fprintf(stderr, "request %zu failed: %s\n", i,
                         resp.error.c_str());
          }
          if (log) {
            {
              Scoped s(*log, "wire()", "serve", root, i + 1);
              (void)ServeResponse::parse(resp.to_json());
            }
            if (a.ok && !a.cached) miss_side_calls(*log, root, i + 1, req, *layers);
            log->end(root);
          }
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "client stopped: %s\n", e.what());
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < kClients; ++k) threads.emplace_back(client);
    for (std::thread& t : threads) t.join();
    last_ = server_->stats();
    if (layers)
      (*layers)["analysis.dropped_modules"] += static_cast<double>(dropped);

    for (std::size_t i = 0; i < kRequests; ++i) {
      const Answer& a = answers[i];
      Distinct& d = distinct_[stream_[i]];
      ++out.ops;
      out.latency_ms.push_back(a.ms);
      if (!a.ok) {
        ++out.failed;
        continue;
      }
      const bool lint = d.kind == Kind::kLintReject;
      if (!lint) (a.cached ? out.hit_latency_ms : out.miss_latency_ms).push_back(a.ms);
      const bool expected_shape =
          lint ? a.stop_reason == rtv::stop_reason::kLintError
               : a.stop_reason.empty() && a.verdict != "INCONCLUSIVE";
      const std::string v = verdict_key(a.verdict, a.stop_reason);
      if (d.served.empty()) d.served = v;
      if (!expected_shape || v != d.served) {
        ++out.failed;
        std::fprintf(stderr, "request %zu (%s): served %s, earlier %s\n", i,
                     d.ob.name.c_str(), v.c_str(), d.served.c_str());
      }
    }
  }

  /// The wire, key, lint and slice work the daemon does per request,
  /// repeated on the client thread.
  void client_side_calls(SpanLog& log, std::int64_t root, std::uint64_t op,
                         const ServeRequest& req,
                         std::atomic<std::size_t>& dropped) const {
    {
      Scoped s(log, "wire()", "serve", root, op);
      (void)ServeRequest::parse(req.to_json());
    }
    const WireObligation& ob = req.obligations.front();
    {
      Scoped s(log, "obligation_cache_key()", "serve", root, op);
      (void)rtv::serve::obligation_cache_key(ob, req.mode, req.engines,
                                             req.max_states, req.max_seconds,
                                             req.max_refinements);
    }
    std::vector<std::unique_ptr<rtv::SafetyProperty>> owned;
    std::vector<const rtv::SafetyProperty*> props;
    for (const PropertySpec& p : ob.properties) {
      owned.push_back(p.instantiate());
      props.push_back(owned.back().get());
    }
    {
      Scoped s(log, "lint()", "lint", root, op);
      rtv::lint::LintOptions lo;
      lo.engines = req.engines;
      (void)rtv::lint::lint_modules(ob.module_ptrs(), props, lo);
    }
    {
      Scoped s(log, "slice()", "analysis", root, op);
      dropped += rtv::analysis::slice(ob.module_ptrs(), props).dropped_modules;
    }
  }

  /// The composition and suite run the daemon did for a miss, repeated
  /// on the client thread.
  void miss_side_calls(SpanLog& log, std::int64_t root, std::uint64_t op,
                       const ServeRequest& req, Layers& layers) const {
    const WireObligation& ob = req.obligations.front();
    rtv::Suite suite;
    std::vector<const rtv::SafetyProperty*> props;
    for (const PropertySpec& p : ob.properties)
      props.push_back(suite.own(p.instantiate()));
    const rtv::analysis::SliceResult sl =
        rtv::analysis::slice(ob.module_ptrs(), props);
    if (!sl.modules.empty()) {
      Scoped s(log, "compose()", "ts", root, op);
      rtv::ComposeOptions co;
      co.track_chokes = true;
      (void)rtv::compose(sl.modules, co);
    }
    suite.add(ob.name, ob.module_ptrs(), props);
    rtv::SuiteOptions so;
    so.mode = rtv::SuiteMode::kBatch;
    so.jobs = 1;
    so.engines = req.engines;
    const double overhead =
        suite_overhead(traced_run_suite(log, root, op, suite, so));
    std::lock_guard<std::mutex> lock(layers_mutex_);
    layers["suite.overhead_s"] += overhead;
  }

  std::uint64_t seed_;
  std::string socket_;
  std::string cache_file_;
  std::string cache_bytes_;
  std::vector<Distinct> distinct_;
  std::map<std::pair<std::size_t, Kind>, std::size_t> index_;
  std::vector<std::size_t> stream_;
  std::vector<ServeRequest> requests_;
  std::unique_ptr<rtv::serve::Server> server_;
  rtv::serve::ServeStats last_;
  /// Guards the layer map while client threads add to it.
  mutable std::mutex layers_mutex_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mixed(const Args& args) {
  return std::make_unique<ServeMixed>(args);
}

}  // namespace rtvbench
