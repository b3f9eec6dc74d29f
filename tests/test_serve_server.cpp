// The `rtv serve` daemon end to end, over real Unix-domain sockets: the
// protocol, cold/warm cache behaviour, incremental re-verification,
// twin deduplication within and across requests, budget-key soundness,
// restart persistence, the heartbeat and the daemon's thread count.
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "rtv/base/json.hpp"
#include "rtv/serve/client.hpp"
#include "rtv/serve/server.hpp"
#include "rtv/ts/gallery.hpp"
#include "rtv/verify/engine.hpp"

using namespace rtv;
using namespace rtv::serve;

namespace {

/// Per-test unique socket path (tests may run in parallel processes).
std::string unique_socket() {
  static std::atomic<int> counter{0};
  return "/tmp/rtv-test-serve-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

struct TempFile {
  std::string path;
  explicit TempFile(const char* tag)
      : path("/tmp/rtv-test-serve-" + std::to_string(::getpid()) + "-" + tag +
             ".json") {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

/// The Fig. 1 gallery obligation: intro system + "g before d" order
/// monitor, invariant !fail — kVerified in every timed run.
WireObligation intro_obligation(const std::string& name = "intro") {
  WireObligation ob;
  ob.name = name;
  ob.modules.push_back(gallery::intro_example());
  ob.modules.push_back(gallery::order_monitor("g", "d"));
  ob.properties.push_back(
      PropertySpec::invariant("g before d", {{"fail", true}}));
  return ob;
}

ServeRequest verify_request(std::vector<WireObligation> obs) {
  ServeRequest req;
  req.kind = RequestKind::kVerify;
  req.obligations = std::move(obs);
  return req;
}

std::unique_ptr<Server> start_server(const std::string& socket,
                                     const std::string& cache_path = "",
                                     std::size_t max_cache_entries = 4096) {
  ServerOptions opts;
  opts.socket_path = socket;
  opts.cache_path = cache_path;
  opts.jobs = 2;
  opts.max_cache_entries = max_cache_entries;
  auto server = std::make_unique<Server>(std::move(opts));
  server->start();
  return server;
}

/// A counting engine: wraps "refine" and counts run() invocations, so the
/// dedup test can prove N concurrent identical requests -> 1 computation.
class CountingEngine final : public Engine {
 public:
  static std::atomic<int>& runs() {
    static std::atomic<int> count{0};
    return count;
  }
  std::string_view name() const override { return "counting"; }
  std::string_view description() const override {
    return "test engine counting run() calls";
  }
  EngineResult run(const EngineRequest& request) const override {
    runs().fetch_add(1);
    // Linger so every concurrent client's first lookup misses while this
    // computation runs (the window the lookup under the compute lock must
    // cover).
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return engine_registry().find("refine")->run(request);
  }
};

/// Send `bytes` raw and read one response line, bypassing the client's
/// serializer so the daemon sees exactly `bytes`.  With `closed`, also
/// report whether the daemon closed the connection after that line.
std::string raw_call(const std::string& socket, const std::string& bytes,
                     bool* closed = nullptr) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", socket.c_str());
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return "";
  }
  // A daemon that never answers fails the test instead of hanging it.
  const timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string resp;
  char c;
  while (::recv(fd, &c, 1, 0) == 1 && c != '\n') resp += c;
  if (closed) *closed = ::recv(fd, &c, 1, 0) == 0;
  ::close(fd);
  return resp;
}

/// The intro obligation padded with a disconnected always-live toggler:
/// outside the invariant's cone, so it slices to the unpadded key.
WireObligation padded_intro(const std::string& name = "padded") {
  WireObligation ob = intro_obligation(name);
  Module pad = gallery::ring({{"pad_a", DelayInterval(1, 2)},
                              {"pad_b", DelayInterval(1, 2)}});
  for (std::size_t ei = 0; ei < pad.ts().num_events(); ++ei)
    pad.ts().set_event_kind(EventId(static_cast<std::uint32_t>(ei)),
                            EventKind::kInternal);
  pad.set_name("pad_toggler");
  ob.modules.push_back(std::move(pad));
  return ob;
}

/// A direct run_suite of one wire obligation under default options: the
/// reference for the lint and slice facts a daemon record must carry.
SuiteRecord direct_record(const WireObligation& wire) {
  std::vector<std::unique_ptr<SafetyProperty>> props;
  Suite suite;
  suite.obligations().push_back(wire.obligation(props));
  const SuiteReport report = run_suite(suite);
  EXPECT_EQ(report.records.size(), 1u);
  return report.records.front();
}

std::vector<std::string> formatted(const std::vector<lint::Diagnostic>& ds) {
  std::vector<std::string> out;
  for (const lint::Diagnostic& d : ds) out.push_back(d.format());
  return out;
}

}  // namespace

TEST(ServeProtocol, DeeplyNestedRequestIsAnErrorNotACrash) {
  const std::string socket = unique_socket();
  auto server = start_server(socket);

  const std::string resp = raw_call(socket, std::string(2000000, '[') + '\n');
  ASSERT_FALSE(resp.empty()) << "the daemon dropped the connection";
  const json::Value v = json::parse(resp, "response");
  const json::Value* ok = v.find("ok");
  ASSERT_NE(ok, nullptr);
  EXPECT_FALSE(ok->boolean);

  // The daemon keeps serving.
  Client client;
  client.connect(socket);
  EXPECT_TRUE(client.ping());
  const ServeResponse verify = client.call(verify_request({intro_obligation()}));
  ASSERT_TRUE(verify.ok) << verify.error;
  EXPECT_EQ(verify.report.records[0].result.verdict, Verdict::kVerified);
  EXPECT_EQ(client.get_stats().errors, 1u);
  server->stop();
}

TEST(ServeProtocol, OverlongRequestLineIsAnErrorAndTheDaemonKeepsServing) {
  const std::string socket = unique_socket();
  auto server = start_server(socket);
  Client other;
  other.connect(socket);

  // One byte past the limit and no newline: the daemon answers as soon as
  // the limit is passed instead of buffering on, then hangs up.
  bool closed = false;
  const ServeResponse answer = ServeResponse::parse(
      raw_call(socket, std::string(kMaxRequestLineBytes + 1, 'x'), &closed));
  EXPECT_FALSE(answer.ok);
  EXPECT_NE(answer.error.find(std::to_string(kMaxRequestLineBytes)),
            std::string::npos)
      << answer.error;
  EXPECT_TRUE(closed);

  // The other client, connected all along, and a new one are still served.
  const ServeResponse verify = other.call(verify_request({intro_obligation()}));
  ASSERT_TRUE(verify.ok) << verify.error;
  EXPECT_EQ(verify.report.records[0].result.verdict, Verdict::kVerified);
  Client late;
  late.connect(socket);
  EXPECT_TRUE(late.ping());
  EXPECT_EQ(late.get_stats().errors, 1u);
  server->stop();
}

/// Threads alive in this process: the entries of /proc/self/task.
std::size_t live_threads() {
  std::size_t n = 0;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* e = ::readdir(dir))
      if (e->d_name[0] != '.') ++n;
    ::closedir(dir);
  }
  return n;
}

/// One-page inaccessible mappings in this process: the guard page below
/// every thread stack that is mapped, whether its thread is live, returned
/// but unjoined, or joined and its stack cached for reuse.
std::size_t guard_pages() {
  const unsigned long page = static_cast<unsigned long>(::sysconf(_SC_PAGESIZE));
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) {
    unsigned long lo = 0, hi = 0;
    char perms[5] = {};
    if (std::sscanf(line.c_str(), "%lx-%lx %4s", &lo, &hi, perms) == 3 &&
        std::string(perms) == "---p" && hi - lo == page)
      ++n;
  }
  return n;
}

TEST(ServeProtocol, SequentialConnectionsDoNotAccumulateThreads) {
  const std::string socket = unique_socket();
  auto server = start_server(socket);
  const std::size_t threads_before = live_threads();
  const std::size_t guards_before = guard_pages();
  for (int i = 0; i < 200; ++i) {
    Client client;
    client.connect(socket);
    ASSERT_TRUE(client.ping());
  }
  // Each connection thread returns once its client hangs up, and the
  // accept loop joins it within one poll period.  A returned but unjoined
  // thread leaves /proc/self/task yet keeps its stack mapped, so the guard
  // pages tell the leak apart; a few joined stacks stay cached for reuse.
  const auto settled = [&] {
    return live_threads() <= threads_before &&
           guard_pages() <= guards_before + 8;
  };
  for (int waited_ms = 0; !settled() && waited_ms < 10000; waited_ms += 20)
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_LE(live_threads(), threads_before);
  EXPECT_LE(guard_pages(), guards_before + 8);
  server->stop();
}

TEST(ServeVerify, RecordsCarryTheRequestsOwnLintAndSliceFacts) {
  // A miss, an exact hit and a padded hit through the sliced key: each
  // record reports the lint and slice of the obligation it answers, as a
  // direct run_suite of that obligation would.
  const std::string socket = unique_socket();
  auto server = start_server(socket);
  Client client;
  client.connect(socket);

  const std::vector<std::pair<WireObligation, bool>> rounds = {
      {intro_obligation(), false},
      {intro_obligation(), true},
      {padded_intro(), true}};
  for (const auto& [ob, cached] : rounds) {
    const ServeResponse resp = client.call(verify_request({ob}));
    ASSERT_TRUE(resp.ok) << resp.error;
    ASSERT_EQ(resp.report.records.size(), 1u);
    const SuiteRecord& served = resp.report.records[0];
    EXPECT_EQ(served.cached, cached) << ob.name;
    const SuiteRecord direct = direct_record(ob);
    EXPECT_EQ(formatted(served.lint), formatted(direct.lint)) << ob.name;
    EXPECT_EQ(served.sliced_modules, direct.sliced_modules) << ob.name;
    EXPECT_EQ(served.sliced_events, direct.sliced_events) << ob.name;
    EXPECT_EQ(served.result.verdict, direct.result.verdict) << ob.name;
  }
  // The padded request is the one that drops a module and says so.
  const SuiteRecord padded = direct_record(padded_intro());
  EXPECT_EQ(padded.sliced_modules, 1u);
  EXPECT_FALSE(padded.lint.empty());
  EXPECT_EQ(client.get_stats().computed, 1u);
  server->stop();
}

TEST(ServeProtocol, PingStatsAndUnknownEngineError) {
  const std::string socket = unique_socket();
  auto server = start_server(socket);

  Client client;
  client.connect(socket);
  EXPECT_TRUE(client.ping());

  ServeRequest bad = verify_request({intro_obligation()});
  bad.engines = {"no-such-engine"};
  const ServeResponse resp = client.call(bad);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("no-such-engine"), std::string::npos);

  // An empty verify request is a protocol error, not a crash.
  EXPECT_FALSE(client.call(verify_request({})).ok);

  const ServeStats stats = client.get_stats();
  EXPECT_EQ(stats.requests, 4u);  // ping + 2 failed verifies + this stats
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.jobs, 2u);
  server->stop();
}

TEST(ServeVerify, ColdMissThenWarmHitSameVerdict) {
  const std::string socket = unique_socket();
  auto server = start_server(socket);
  Client client;
  client.connect(socket);

  const ServeResponse cold = client.call(verify_request({intro_obligation()}));
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_TRUE(cold.has_report);
  ASSERT_EQ(cold.report.records.size(), 1u);
  EXPECT_EQ(cold.report.records[0].obligation, "intro");
  EXPECT_EQ(cold.report.records[0].engine, "refine");
  EXPECT_EQ(cold.report.records[0].result.verdict, Verdict::kVerified);
  EXPECT_FALSE(cold.report.records[0].cached);

  const ServeResponse warm = client.call(verify_request({intro_obligation()}));
  ASSERT_TRUE(warm.ok);
  ASSERT_EQ(warm.report.records.size(), 1u);
  EXPECT_TRUE(warm.report.records[0].cached);
  EXPECT_EQ(warm.report.records[0].result.verdict, Verdict::kVerified);

  // A renamed obligation is the same content: still a hit.
  const ServeResponse renamed =
      client.call(verify_request({intro_obligation("other-name")}));
  ASSERT_TRUE(renamed.ok);
  EXPECT_TRUE(renamed.report.records[0].cached);
  EXPECT_EQ(renamed.report.records[0].obligation, "other-name");

  const ServeStats stats = client.get_stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  server->stop();
}

TEST(ServeVerify, IncrementalReverificationRecomputesOnlyChangedHashes) {
  const std::string socket = unique_socket();
  auto server = start_server(socket);
  Client client;
  client.connect(socket);

  const DelayInterval d12 = DelayInterval::units(1, 2);
  WireObligation stable;
  stable.name = "stable";
  stable.modules.push_back(gallery::diamond("x", d12, "y", d12));
  stable.properties.push_back(PropertySpec::deadlock());
  WireObligation edited = intro_obligation("edited");

  const ServeResponse first = client.call(verify_request({stable, edited}));
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_EQ(first.report.records.size(), 2u);
  EXPECT_FALSE(first.report.records[0].cached);
  EXPECT_FALSE(first.report.records[1].cached);

  // Edit one obligation's content (a delay bound); resubmit the suite.
  edited.modules.front().ts().set_event_delay(
      EventId{0}, DelayInterval::units(1.0, 2.75));
  const ServeResponse second = client.call(verify_request({stable, edited}));
  ASSERT_TRUE(second.ok) << second.error;
  ASSERT_EQ(second.report.records.size(), 2u);
  // Only the edited obligation recomputed; records stay request-ordered.
  EXPECT_EQ(second.report.records[0].obligation, "stable");
  EXPECT_TRUE(second.report.records[0].cached);
  EXPECT_EQ(second.report.records[1].obligation, "edited");
  EXPECT_FALSE(second.report.records[1].cached);

  const ServeStats stats = client.get_stats();
  EXPECT_EQ(stats.computed, 3u);  // 2 cold + 1 re-verified
  EXPECT_EQ(stats.cache_hits, 1u);
  server->stop();
}

// Regression: a budget change must be a cache miss — a verdict computed
// under max_states=N must never answer a request with a different budget.
TEST(ServeVerify, BudgetChangeMissesTheCache) {
  const std::string socket = unique_socket();
  auto server = start_server(socket);
  Client client;
  client.connect(socket);

  ServeRequest small = verify_request({intro_obligation()});
  small.max_states = 100000;
  ASSERT_TRUE(client.call(small).ok);

  ServeRequest larger = verify_request({intro_obligation()});
  larger.max_states = 200000;
  const ServeResponse resp = client.call(larger);
  ASSERT_TRUE(resp.ok);
  EXPECT_FALSE(resp.report.records[0].cached);

  ServeRequest timed = verify_request({intro_obligation()});
  timed.max_states = 200000;
  timed.max_seconds = 30.0;
  EXPECT_FALSE(client.call(timed).report.records[0].cached);

  // Same budget spelled per-obligation inherits identically: a hit.
  ServeRequest inherited = verify_request({intro_obligation()});
  inherited.obligations[0].max_states = 200000;
  inherited.obligations[0].max_seconds = 30.0;
  EXPECT_TRUE(client.call(inherited).report.records[0].cached);

  const ServeStats stats = client.get_stats();
  EXPECT_EQ(stats.computed, 3u);
  EXPECT_EQ(stats.cache_hits, 1u);
  server->stop();
}

TEST(ServeDedup, ConcurrentIdenticalRequestsComputeOnce) {
  static bool registered = [] {
    register_engine(std::make_unique<CountingEngine>());
    return true;
  }();
  (void)registered;
  CountingEngine::runs().store(0);

  const std::string socket = unique_socket();
  auto server = start_server(socket);

  constexpr int kClients = 8;
  std::atomic<int> ok_count{0};
  std::atomic<int> computed_count{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      Client client;
      client.connect(socket);
      ServeRequest req = verify_request({intro_obligation()});
      req.engines = {"counting"};
      const ServeResponse resp = client.call(req);
      if (resp.ok && resp.has_report && resp.report.records.size() == 1 &&
          resp.report.records[0].result.verdict == Verdict::kVerified)
        ok_count.fetch_add(1);
      // Exactly one requester computes (cached == false); twins found by
      // the lookup under the compute lock and late hits see cached == true.
      if (resp.ok && !resp.report.records[0].cached)
        computed_count.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok_count.load(), kClients);
  EXPECT_EQ(computed_count.load(), 1);
  // The engine itself ran exactly once: N clients -> 1 computation.
  EXPECT_EQ(CountingEngine::runs().load(), 1);

  const ServeStats stats = server->stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.deduped + stats.cache_hits,
            static_cast<std::uint64_t>(kClients - 1));
  server->stop();
}

TEST(ServeDedup, RepeatedObligationInOneRequestComputesOnce) {
  const std::string socket = unique_socket();
  auto server = start_server(socket);
  Client client;
  client.connect(socket);

  const ServeResponse resp = client.call(
      verify_request({intro_obligation("first"), intro_obligation("second")}));
  ASSERT_TRUE(resp.ok) << resp.error;
  ASSERT_EQ(resp.report.records.size(), 2u);
  const SuiteRecord& first = resp.report.records[0];
  const SuiteRecord& second = resp.report.records[1];
  EXPECT_EQ(first.obligation, "first");
  EXPECT_EQ(second.obligation, "second");
  EXPECT_EQ(first.result.verdict, Verdict::kVerified);
  EXPECT_EQ(second.result.verdict, first.result.verdict);
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(second.cached);

  const ServeStats stats = client.get_stats();
  EXPECT_EQ(stats.computed, 1u);
  EXPECT_EQ(stats.deduped, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  server->stop();
}

TEST(ServePersistence, CacheSurvivesDaemonRestart) {
  const std::string socket = unique_socket();
  TempFile cache_file("restart");

  {
    auto server = start_server(socket, cache_file.path);
    Client client;
    client.connect(socket);
    const ServeResponse resp =
        client.call(verify_request({intro_obligation()}));
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.report.records[0].cached);
    server->stop();  // persists the cache
  }

  {
    auto server = start_server(socket, cache_file.path);
    Client client;
    client.connect(socket);
    const ServeResponse resp =
        client.call(verify_request({intro_obligation()}));
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_TRUE(resp.report.records[0].cached);
    EXPECT_EQ(resp.report.records[0].result.verdict, Verdict::kVerified);
    const ServeStats stats = server->stats();
    EXPECT_EQ(stats.computed, 0u);
    EXPECT_EQ(stats.cache_hits, 1u);
    server->stop();
  }
}

TEST(ServePersistence, PaddedObligationHitsUnpaddedEntryAcrossRestart) {
  // The cache keys on the *sliced* canonical form: a disconnected
  // always-live toggler is outside the invariant's cone, so padding the
  // intro obligation with it must not change its key — even across a
  // daemon restart, where only the persisted key/verdict pairs survive.
  const std::string socket = unique_socket();
  TempFile cache_file("padded");

  {
    auto server = start_server(socket, cache_file.path);
    Client client;
    client.connect(socket);
    const ServeResponse resp =
        client.call(verify_request({intro_obligation()}));
    ASSERT_TRUE(resp.ok) << resp.error;
    EXPECT_FALSE(resp.report.records[0].cached);
    server->stop();  // persists the cache
  }

  {
    auto server = start_server(socket, cache_file.path);
    Client client;
    client.connect(socket);
    const ServeResponse resp = client.call(verify_request({padded_intro()}));
    ASSERT_TRUE(resp.ok) << resp.error;
    ASSERT_EQ(resp.report.records.size(), 1u);
    EXPECT_TRUE(resp.report.records[0].cached);
    EXPECT_EQ(resp.report.records[0].result.verdict, Verdict::kVerified);
    const ServeStats stats = server->stats();
    EXPECT_EQ(stats.computed, 0u);
    EXPECT_EQ(stats.cache_hits, 1u);
    server->stop();
  }
}

struct PinnedFileRun {
  ServeResponse resp;
  std::uint64_t computed = 0;  ///< the daemon's computed count afterwards
};

/// Serve the intro obligation once from a daemon that loaded a cache file
/// as a library version wrote it: one VERIFIED refine entry under `key`
/// with 7 states.
PinnedFileRun serve_from_pinned_file(const char* tag, const char* key) {
  const std::string socket = unique_socket();
  TempFile cache_file(tag);
  {
    std::ofstream f(cache_file.path);
    f << "{\"schema\":\"rtv-verdict-cache\",\"schema_version\":1,"
         "\"entries\":[\n{\"key\":\"" << key << "\","
         "\"records\":[{\"engine\":\"refine\",\"verdict\":\"VERIFIED\","
         "\"stop_reason\":\"\",\"message\":\"no failure reachable under "
         "derived timing constraints\",\"states\":7,"
         "\"wall_seconds\":0.00023290299999999999,"
         "\"cpu_seconds\":0.00026062300000000003,\"winner\":true,"
         "\"trace\":[]}]}\n]}\n";
  }
  auto server = start_server(socket, cache_file.path);
  Client client;
  client.connect(socket);
  PinnedFileRun run;
  run.resp = client.call(verify_request({intro_obligation()}));
  run.computed = server->stats().computed;
  server->stop();
  return run;
}

TEST(ServePersistence, PreviouslyWrittenCacheFileLoadsAndHits) {
  // Key tag rtv-obligation-v3: the same schema and the same key as this
  // version computes for the intro obligation, so the entry answers.
  const PinnedFileRun v3 =
      serve_from_pinned_file("pinned-v3", "2e548cb747acb8bca0139c1908229182");
  ASSERT_TRUE(v3.resp.ok) << v3.resp.error;
  ASSERT_EQ(v3.resp.report.records.size(), 1u);
  EXPECT_TRUE(v3.resp.report.records[0].cached);
  EXPECT_EQ(v3.resp.report.records[0].result.states_explored, 7u);
  EXPECT_EQ(v3.computed, 0u);

  // Key tag rtv-obligation-v2, written before refine's failure search
  // skipped subsumed states: the file still loads, but its key no longer
  // matches, so the obligation is recomputed instead of answered with a
  // count (or an INCONCLUSIVE) of the old search.
  const PinnedFileRun v2 =
      serve_from_pinned_file("pinned-v2", "74068946328d8dd3c957bebcb7ced361");
  ASSERT_TRUE(v2.resp.ok) << v2.resp.error;
  ASSERT_EQ(v2.resp.report.records.size(), 1u);
  EXPECT_FALSE(v2.resp.report.records[0].cached);
  EXPECT_EQ(v2.resp.report.records[0].result.verdict, Verdict::kVerified);
  EXPECT_EQ(v2.computed, 1u);
}

TEST(ServePersistence, CorruptCacheFileRefusesToStart) {
  const std::string socket = unique_socket();
  TempFile cache_file("corrupt");
  {
    std::FILE* f = std::fopen(cache_file.path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("{\"schema\":\"rtv-verdict-cache\",\"schema_version\":99,"
               "\"entries\":[]}",
               f);
    std::fclose(f);
  }
  ServerOptions opts;
  opts.socket_path = socket;
  opts.cache_path = cache_file.path;
  EXPECT_THROW(Server{std::move(opts)}, std::runtime_error);
}

TEST(ServeShutdown, ClientRequestFlagsTheOwner) {
  const std::string socket = unique_socket();
  auto server = start_server(socket);
  EXPECT_FALSE(server->shutdown_requested());

  Client client;
  client.connect(socket);
  client.request_shutdown();
  EXPECT_TRUE(server->wait_for(5.0));
  EXPECT_TRUE(server->shutdown_requested());
  server->stop();

  // The socket file is gone after stop().
  Client late;
  EXPECT_THROW(late.connect(socket), std::runtime_error);
}

TEST(ServeVerify, PortfolioModeRecordsAllEnginesAndCaches) {
  const std::string socket = unique_socket();
  auto server = start_server(socket);
  Client client;
  client.connect(socket);

  ServeRequest req = verify_request({intro_obligation()});
  req.mode = SuiteMode::kPortfolio;
  req.engines = {"refine", "zone"};
  const ServeResponse cold = client.call(req);
  ASSERT_TRUE(cold.ok) << cold.error;
  ASSERT_EQ(cold.report.records.size(), 2u);
  EXPECT_EQ(cold.report.mode, SuiteMode::kPortfolio);

  const ServeResponse warm = client.call(req);
  ASSERT_TRUE(warm.ok);
  ASSERT_EQ(warm.report.records.size(), 2u);
  for (const SuiteRecord& rec : warm.report.records)
    EXPECT_TRUE(rec.cached);
  // The cached replay preserves which engine decided.
  EXPECT_EQ(warm.report.overall(), cold.report.overall());
  server->stop();
}

namespace {

/// A thread-safe log sink that keeps the daemon's heartbeat lines.
struct HeartbeatLog {
  std::mutex m;
  std::vector<std::string> lines;

  std::function<void(const std::string&)> sink() {
    return [this](const std::string& line) {
      if (line.rfind("heartbeat ", 0) != 0) return;
      std::lock_guard<std::mutex> lock(m);
      lines.push_back(line);
    };
  }
  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lock(m);
    return lines;
  }
};

std::unique_ptr<Server> start_beating_server(const std::string& socket,
                                             double heartbeat_seconds,
                                             HeartbeatLog& log) {
  ServerOptions opts;
  opts.socket_path = socket;
  opts.jobs = 2;
  opts.heartbeat_seconds = heartbeat_seconds;
  opts.log = log.sink();
  auto server = std::make_unique<Server>(std::move(opts));
  server->start();
  return server;
}

/// The member names of a stats object, in order.
std::vector<std::string> member_names(const json::Value& v) {
  std::vector<std::string> names;
  for (const auto& [key, value] : v.object) names.push_back(key);
  return names;
}

}  // namespace

TEST(ServeHeartbeat, LogsTheStatsCountersEveryPeriod) {
  HeartbeatLog log;
  auto server = start_beating_server(unique_socket(), 0.05, log);
  for (int waited_ms = 0; log.snapshot().size() < 2 && waited_ms < 5000;
       waited_ms += 10)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server->stop();

  std::string reference;
  stats_to_json(reference, ServeStats{});
  const std::vector<std::string> expected =
      member_names(json::parse(reference, "stats"));
  const std::vector<std::string> beats = log.snapshot();
  ASSERT_GE(beats.size(), 2u);
  for (const std::string& line : beats) {
    const json::Value v =
        json::parse(line.substr(std::string("heartbeat ").size()), "heartbeat");
    EXPECT_EQ(member_names(v), expected) << line;
  }
}

TEST(ServeHeartbeat, HugePeriodsNeverFire) {
  // A period past any clock duration (1e300 s, inf) must not overflow into
  // a zero wait and a busy loop of heartbeat lines.
  HeartbeatLog huge, infinite;
  auto a = start_beating_server(unique_socket(), 1e300, huge);
  auto b = start_beating_server(unique_socket(),
                                std::numeric_limits<double>::infinity(),
                                infinite);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  a->stop();
  b->stop();
  EXPECT_EQ(huge.snapshot().size(), 0u);
  EXPECT_EQ(infinite.snapshot().size(), 0u);
}

TEST(ServeShutdown, HugeWaitBlocksUntilTheShutdownRequest) {
  const std::string socket = unique_socket();
  auto server = start_server(socket);
  std::thread asker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    Client client;
    client.connect(socket);
    client.request_shutdown();
  });
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(server->wait_for(1e300));
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  asker.join();
  EXPECT_GE(waited, 0.15);
  server->stop();
}

TEST(ServeShutdown, StopDoesNotWaitForThePoll) {
  // stop() wakes the accept loop's poll instead of waiting out its 200 ms
  // period: ten start/ping/stop cycles of one daemon take well under 1 s.
  const std::string socket = unique_socket();
  const auto t0 = std::chrono::steady_clock::now();
  for (int cycle = 0; cycle < 10; ++cycle) {
    auto server = start_server(socket);
    Client client;
    client.connect(socket);
    EXPECT_TRUE(client.ping());
    server->stop();
  }
  const double took =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(took, 1.0);
}

TEST(ServeProtocol, StartedDaemonRunsOnlyTheAcceptThread) {
  // Before any client connects, the daemon's one thread is the accept
  // loop: misses are computed by their requests, the heartbeat is logged
  // by the accept loop.
  HeartbeatLog log;
  const std::size_t before = live_threads();
  auto server = start_beating_server(unique_socket(), 0.05, log);
  EXPECT_EQ(live_threads(), before + 1);
  server->stop();
}

TEST(ServeVerify, MixedEngineOverridesMatchADirectRun) {
  // One obligation runs its own engine, the other inherits the request's
  // two: each one's records must come back under its own name.
  WireObligation by_zone = intro_obligation("by-zone");
  by_zone.engine = "zone";
  WireObligation inherits;
  inherits.name = "inherits";
  const DelayInterval d12 = DelayInterval::units(1, 2);
  inherits.modules.push_back(gallery::diamond("x", d12, "y", d12));
  inherits.properties.push_back(PropertySpec::deadlock());

  std::vector<std::unique_ptr<SafetyProperty>> props;
  Suite suite;
  suite.obligations().push_back(by_zone.obligation(props));
  suite.obligations().push_back(inherits.obligation(props));
  SuiteOptions so;
  so.engines = {"refine", "discrete"};
  const SuiteReport direct = run_suite(suite, so);
  using Row = std::tuple<std::string, std::string, Verdict>;
  std::vector<Row> expected;
  for (const SuiteRecord& r : direct.records)
    expected.emplace_back(r.obligation, r.engine, r.result.verdict);
  ASSERT_EQ(expected.size(), 3u);

  const std::string socket = unique_socket();
  auto server = start_server(socket);
  Client client;
  client.connect(socket);
  ServeRequest req = verify_request({by_zone, inherits});
  req.engines = so.engines;
  for (const bool warm : {false, true}) {
    const ServeResponse resp = client.call(req);
    ASSERT_TRUE(resp.ok) << resp.error;
    std::vector<Row> served;
    for (const SuiteRecord& r : resp.report.records) {
      served.emplace_back(r.obligation, r.engine, r.result.verdict);
      EXPECT_EQ(r.cached, warm) << r.obligation << " " << r.engine;
    }
    EXPECT_EQ(served, expected) << (warm ? "warm" : "cold");
  }
  EXPECT_EQ(client.get_stats().computed, 2u);
  server->stop();
}

TEST(ServeVerify, UnknownEngineInALaterObligationStartsNothing) {
  const std::string socket = unique_socket();
  auto server = start_server(socket);
  Client client;
  client.connect(socket);

  WireObligation bad = intro_obligation("bad");
  bad.engine = "no-such-engine";
  const ServeResponse resp =
      client.call(verify_request({intro_obligation(), bad}));
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("no-such-engine"), std::string::npos)
      << resp.error;
  EXPECT_EQ(client.get_stats().computed, 0u);

  // The first obligation was never started, so it is computed now.
  const ServeResponse alone = client.call(verify_request({intro_obligation()}));
  ASSERT_TRUE(alone.ok) << alone.error;
  ASSERT_EQ(alone.report.records.size(), 1u);
  EXPECT_FALSE(alone.report.records[0].cached);
  EXPECT_EQ(alone.report.records[0].result.verdict, Verdict::kVerified);
  EXPECT_EQ(client.get_stats().computed, 1u);
  server->stop();
}
