#include "rtv/fuzz/generator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "rtv/base/json.hpp"
#include "rtv/base/rng.hpp"
#include "rtv/ts/gallery.hpp"

namespace rtv::fuzz {

namespace {

constexpr std::string_view kConfigContext = "fuzz generator config JSON";
constexpr const char* kConfigSchema = "rtv-fuzz-config";

// Caps keeping a hostile or over-shrunk config from exploding the campaign;
// generate() is total, so out-of-range values clamp instead of throwing.
constexpr std::uint32_t kMaxModules = 64;
constexpr std::uint32_t kMaxEvents = 256;
constexpr std::uint32_t kMaxProperties = 32;
constexpr std::uint32_t kMaxPadding = 16;
constexpr Time kMaxDelayCap = Time{1} << 40;

double clamp01(double p) { return std::min(1.0, std::max(0.0, p)); }

// One label minted by a system module, available for cross-module sharing
// and as a property endpoint.  Sharing reuses the *same* delay interval:
// the reusing module declares the event kInput, so composition synchronises
// the two modules on the label (the choke/containment-heavy workload).
struct MintedLabel {
  std::string label;
  DelayInterval delay;
};

struct Gen {
  Rng rng;
  GeneratorConfig config;
  std::vector<MintedLabel> pool;

  Gen(std::uint64_t seed, GeneratorConfig cfg)
      : rng(seed), config(std::move(cfg)) {}

  /// Log-uniform magnitude in [1, config.max_delay]: half the draws are
  /// small even when the cap is 2^40, so one system mixes tight and huge
  /// constants (the discrete engine's 64-bit ages make the latter legal).
  Time magnitude() {
    const auto cap = static_cast<std::uint64_t>(config.max_delay);
    const int bits = std::bit_width(cap);
    const std::uint64_t mag = std::uint64_t{1}
                              << rng.below(static_cast<std::uint64_t>(bits));
    return static_cast<Time>(std::min(cap, mag));
  }

  DelayInterval random_delay() {
    const Time mag = magnitude();
    const Time lo = static_cast<Time>(rng.below(static_cast<std::uint64_t>(mag) + 1));
    if (rng.chance(config.unbounded_p)) return DelayInterval(lo, kTimeInfinity);
    if (config.point_delays) return DelayInterval(lo, lo);
    const Time span = static_cast<Time>(rng.below(static_cast<std::uint64_t>(mag) + 1));
    return DelayInterval(lo, lo + span);
  }

  /// The next step event of module `mi`: with probability share_p reuse a
  /// label minted by an *earlier* module (same interval, kInput so the
  /// modules synchronise); otherwise mint a fresh kOutput label.  A label
  /// is never used twice within one module.
  struct Step {
    std::string label;
    DelayInterval delay;
    EventKind kind;
  };
  Step next_step(std::size_t mi, std::size_t ei,
                 std::size_t pool_before_module,
                 std::vector<std::string>& used) {
    if (pool_before_module > 0 && rng.chance(config.share_p)) {
      // One draw regardless of success keeps the stream aligned.
      const std::size_t pick = rng.below(pool_before_module);
      const MintedLabel& m = pool[pick];
      if (std::find(used.begin(), used.end(), m.label) == used.end()) {
        used.push_back(m.label);
        return {m.label, m.delay, EventKind::kInput};
      }
    }
    std::string label =
        std::string("m") + std::to_string(mi) + "_e" + std::to_string(ei);
    const DelayInterval d = random_delay();
    pool.push_back({label, d});
    used.push_back(label);
    return {std::move(label), d, EventKind::kOutput};
  }

  std::vector<Step> draw_steps(std::size_t mi, std::size_t count,
                               std::size_t pool_before_module) {
    std::vector<std::string> used;
    std::vector<Step> steps;
    steps.reserve(count);
    for (std::size_t ei = 0; ei < count; ++ei)
      steps.push_back(next_step(mi, ei, pool_before_module, used));
    return steps;
  }

  /// Idle self-loop event unique to module `mi` so acyclic shapes stay
  /// live without accidentally synchronising on a shared "idle" label.
  static void add_idle(TransitionSystem& ts, StateId at, std::size_t mi) {
    const EventId idle =
        ts.add_event(std::string("m") + std::to_string(mi) + "_idle",
                     DelayInterval(kTicksPerUnit, 2 * kTicksPerUnit),
                     EventKind::kInternal);
    ts.add_transition(at, idle, at);
  }
};

void apply_kinds(Module& m, const std::vector<Gen::Step>& steps) {
  for (const auto& s : steps)
    m.ts().set_event_kind(m.ts().event_by_label(s.label), s.kind);
}

std::vector<std::pair<std::string, DelayInterval>> as_pairs(
    const std::vector<Gen::Step>& steps) {
  std::vector<std::pair<std::string, DelayInterval>> out;
  out.reserve(steps.size());
  for (const auto& s : steps) out.emplace_back(s.label, s.delay);
  return out;
}

Module build_chain(Gen& g, std::size_t mi, std::size_t pool_before) {
  const std::size_t n = 1 + g.rng.below(g.config.events);
  const auto steps = g.draw_steps(mi, n, pool_before);
  Module m = gallery::chain(as_pairs(steps));
  apply_kinds(m, steps);
  Gen::add_idle(m.ts(), StateId(static_cast<std::uint32_t>(m.ts().num_states() - 1)),
                mi);
  return m;
}

Module build_ring(Gen& g, std::size_t mi, std::size_t pool_before) {
  const std::size_t n = 1 + g.rng.below(g.config.events);
  const auto steps = g.draw_steps(mi, n, pool_before);
  Module m = gallery::ring(as_pairs(steps));
  apply_kinds(m, steps);
  return m;
}

Module build_grid(Gen& g, std::size_t mi, std::size_t pool_before) {
  // Two independent chains interleaving: the product of a row chain and a
  // column chain, idle self-loop at the far corner.
  const std::size_t half = std::max<std::size_t>(1, g.config.events / 2);
  const std::size_t rows = 1 + g.rng.below(half);
  const std::size_t cols = 1 + g.rng.below(half);
  const auto row_steps = g.draw_steps(mi, rows, pool_before);
  // Column labels continue the event numbering so labels stay unique.
  std::vector<Gen::Step> col_steps;
  {
    std::vector<std::string> used;
    for (const auto& s : row_steps) used.push_back(s.label);
    for (std::size_t ei = 0; ei < cols; ++ei)
      col_steps.push_back(g.next_step(mi, rows + ei, pool_before, used));
  }

  TransitionSystem ts;
  std::vector<EventId> row_events, col_events;
  for (const auto& s : row_steps)
    row_events.push_back(ts.add_event(s.label, s.delay, s.kind));
  for (const auto& s : col_steps)
    col_events.push_back(ts.add_event(s.label, s.delay, s.kind));
  std::vector<std::vector<StateId>> grid(rows + 1,
                                         std::vector<StateId>(cols + 1));
  for (std::size_t i = 0; i <= rows; ++i)
    for (std::size_t j = 0; j <= cols; ++j)
      grid[i][j] = ts.add_state(std::string("g").append(std::to_string(i)) +
                                "_" + std::to_string(j));
  for (std::size_t i = 0; i <= rows; ++i)
    for (std::size_t j = 0; j <= cols; ++j) {
      if (i < rows) ts.add_transition(grid[i][j], row_events[i], grid[i + 1][j]);
      if (j < cols) ts.add_transition(grid[i][j], col_events[j], grid[i][j + 1]);
    }
  ts.set_initial(grid[0][0]);
  Gen::add_idle(ts, grid[rows][cols], mi);
  return Module("grid", std::move(ts));
}

Module build_conflict(Gen& g, std::size_t mi, std::size_t pool_before) {
  // x and y enabled together; firing y from the initial state disables x
  // (the persistency-relevant choice shape).
  const auto steps = g.draw_steps(mi, 2, pool_before);
  TransitionSystem ts;
  const EventId ex = ts.add_event(steps[0].label, steps[0].delay, steps[0].kind);
  const EventId ey = ts.add_event(steps[1].label, steps[1].delay, steps[1].kind);
  const StateId s0 = ts.add_state("c0");
  const StateId s1 = ts.add_state("c1");
  const StateId s2 = ts.add_state("c2");
  ts.add_transition(s0, ex, s1);
  ts.add_transition(s0, ey, s2);
  ts.add_transition(s1, ey, s2);
  ts.set_initial(s0);
  Gen::add_idle(ts, s2, mi);
  return Module("conflict", std::move(ts));
}

Module build_fork_join(Gen& g, std::size_t mi, std::size_t pool_before) {
  const auto steps = g.draw_steps(mi, 3, pool_before);
  Module m = gallery::fork_join(steps[0].label, steps[0].delay, steps[1].label,
                                steps[1].delay, steps[2].label, steps[2].delay);
  apply_kinds(m, steps);
  return m;
}

constexpr std::int64_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

std::uint32_t require_u32(const json::Value& obj, std::string_view key,
                          const char* what) {
  return static_cast<std::uint32_t>(
      json::require_whole(obj, key, what, kConfigContext, 0, kMaxU32));
}

bool require_bool(const json::Value& obj, std::string_view key,
                  const char* what) {
  return json::require(obj, key, json::Value::Kind::kBool, what, kConfigContext)
      .boolean;
}

}  // namespace

GeneratorConfig sanitized(const GeneratorConfig& config) {
  GeneratorConfig c = config;
  c.modules = std::clamp<std::uint32_t>(c.modules, 1, kMaxModules);
  c.events = std::clamp<std::uint32_t>(c.events, 1, kMaxEvents);
  c.max_delay = std::clamp<Time>(c.max_delay, 1, kMaxDelayCap);
  c.properties = std::min(c.properties, kMaxProperties);
  c.unbounded_p = clamp01(c.unbounded_p);
  c.share_p = clamp01(c.share_p);
  c.padding_modules = std::min(c.padding_modules, kMaxPadding);
  return c;
}

std::size_t config_size(const GeneratorConfig& config) {
  const GeneratorConfig c = sanitized(config);
  std::size_t size = c.modules + c.events + c.properties + c.padding_modules;
  size += static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(c.max_delay)));
  // One point each for structure the minimizer can switch off.
  size += c.unbounded_p > 0 ? 1 : 0;
  size += c.share_p > 0 ? 1 : 0;
  size += c.point_delays ? 0 : 1;
  size += c.gates ? 1 : 0;
  size += c.deadlock_check ? 1 : 0;
  size += c.persistency_check ? 1 : 0;
  return size;
}

std::uint64_t case_seed(std::uint64_t campaign_seed, std::size_t index) {
  return Rng::mix(campaign_seed, static_cast<std::uint64_t>(index));
}

const char* to_string(ModuleShape shape) {
  switch (shape) {
    case ModuleShape::kChain: return "chain";
    case ModuleShape::kRing: return "ring";
    case ModuleShape::kGrid: return "grid";
    case ModuleShape::kConflict: return "conflict";
    case ModuleShape::kForkJoin: return "fork_join";
  }
  return "?";
}

std::string GeneratorConfig::to_json() const {
  std::string out = "{\"schema\":\"";
  out += kConfigSchema;
  out += "\",\"modules\":" + std::to_string(modules);
  out += ",\"events\":" + std::to_string(events);
  out += ",\"max_delay\":" + std::to_string(max_delay);
  out += ",\"properties\":" + std::to_string(properties);
  out += ",\"unbounded_p\":";
  json::append_double(out, unbounded_p);
  out += ",\"share_p\":";
  json::append_double(out, share_p);
  out += ",\"point_delays\":";
  out += point_delays ? "true" : "false";
  out += ",\"gates\":";
  out += gates ? "true" : "false";
  out += ",\"deadlock_check\":";
  out += deadlock_check ? "true" : "false";
  out += ",\"persistency_check\":";
  out += persistency_check ? "true" : "false";
  out += ",\"padding_modules\":" + std::to_string(padding_modules);
  out += "}";
  return out;
}

GeneratorConfig GeneratorConfig::from_json(const std::string& text) {
  const json::Value root = json::parse(text, kConfigContext);
  if (root.kind != json::Value::Kind::kObject)
    throw std::runtime_error(std::string(kConfigContext) +
                             ": top level must be an object");
  const std::string& schema =
      json::require(root, "schema", json::Value::Kind::kString, "schema tag",
                    kConfigContext)
          .string;
  if (schema != kConfigSchema)
    throw std::runtime_error(std::string(kConfigContext) +
                             ": unknown schema \"" + schema + "\"");
  GeneratorConfig c;
  c.modules = require_u32(root, "modules", "module count");
  c.events = require_u32(root, "events", "event budget");
  c.max_delay = json::require_whole(root, "max_delay", "delay cap in ticks",
                                    kConfigContext);
  c.properties = require_u32(root, "properties", "property count");
  c.unbounded_p = json::require(root, "unbounded_p", json::Value::Kind::kNumber,
                                "unbounded-delay probability", kConfigContext)
                      .number;
  c.share_p = json::require(root, "share_p", json::Value::Kind::kNumber,
                            "label-sharing probability", kConfigContext)
                  .number;
  c.point_delays = require_bool(root, "point_delays", "point-delay flag");
  c.gates = require_bool(root, "gates", "gates flag");
  c.deadlock_check = require_bool(root, "deadlock_check", "deadlock flag");
  c.persistency_check =
      require_bool(root, "persistency_check", "persistency flag");
  // Absent in configs written before the slicer existed; 0 keeps them
  // replaying byte-identically.
  if (const json::Value* pad = root.find("padding_modules"))
    c.padding_modules = static_cast<std::uint32_t>(json::whole_number(
        *pad, "padding_modules", kConfigContext, 0, kMaxU32));
  return c;
}

bool operator==(const GeneratorConfig& a, const GeneratorConfig& b) {
  return a.modules == b.modules && a.events == b.events &&
         a.max_delay == b.max_delay && a.properties == b.properties &&
         a.unbounded_p == b.unbounded_p && a.share_p == b.share_p &&
         a.point_delays == b.point_delays && a.gates == b.gates &&
         a.deadlock_check == b.deadlock_check &&
         a.persistency_check == b.persistency_check &&
         a.padding_modules == b.padding_modules;
}

std::vector<const Module*> Scenario::module_ptrs() const {
  std::vector<const Module*> out;
  out.reserve(modules.size());
  for (const Module& m : modules) out.push_back(&m);
  return out;
}

std::vector<const SafetyProperty*> Scenario::property_ptrs() const {
  std::vector<const SafetyProperty*> out;
  out.reserve(properties.size());
  for (const auto& p : properties) out.push_back(p.get());
  return out;
}

std::string Scenario::describe() const {
  std::string out;
  for (std::size_t i = 0; i < system_modules; ++i) {
    if (i > 0) out += " || ";
    out += modules[i].name();
  }
  if (modules.size() > system_modules)
    out += " + " + std::to_string(modules.size() - system_modules) +
           " monitor(s)";
  out += ", " + std::to_string(properties.size()) + " propertie(s)";
  return out;
}

Scenario generate(std::uint64_t seed, const GeneratorConfig& raw_config) {
  Scenario sc;
  sc.seed = seed;
  sc.config = raw_config;
  const GeneratorConfig config = sanitized(raw_config);
  sc.name = "fuzz-" + std::to_string(seed);

  Gen g(seed, config);
  const std::size_t num_shapes =
      config.gates ? 5 : 4;  // kForkJoin is the gates-only family
  for (std::uint32_t mi = 0; mi < config.modules; ++mi) {
    const auto shape = static_cast<ModuleShape>(g.rng.below(num_shapes));
    const std::size_t pool_before = g.pool.size();
    Module m = [&] {
      switch (shape) {
        case ModuleShape::kChain: return build_chain(g, mi, pool_before);
        case ModuleShape::kRing: return build_ring(g, mi, pool_before);
        case ModuleShape::kGrid: return build_grid(g, mi, pool_before);
        case ModuleShape::kConflict: return build_conflict(g, mi, pool_before);
        case ModuleShape::kForkJoin: return build_fork_join(g, mi, pool_before);
      }
      return build_chain(g, mi, pool_before);
    }();
    m.set_name(std::string("m") + std::to_string(mi) + "_" + to_string(shape));
    sc.modules.push_back(std::move(m));
    sc.shapes.push_back(shape);
  }
  sc.system_modules = sc.modules.size();

  // Ordering properties: a monitor per property watching two distinct
  // system labels, trapping into a unique fail signal.
  if (g.pool.size() >= 2) {
    for (std::uint32_t k = 0; k < config.properties; ++k) {
      const std::size_t fi = g.rng.below(g.pool.size());
      std::size_t ti = g.rng.below(g.pool.size() - 1);
      if (ti >= fi) ++ti;
      const std::string& first = g.pool[fi].label;
      const std::string& then = g.pool[ti].label;
      const std::string fail = "fuzz_fail" + std::to_string(k);
      sc.modules.push_back(gallery::order_monitor(first, then, fail));
      sc.properties.push_back(std::make_unique<InvariantProperty>(
          "order(" + first + "<" + then + ")",
          std::vector<InvariantProperty::Literal>{{fail, true}}));
    }
  }
  if (config.deadlock_check)
    sc.properties.push_back(std::make_unique<DeadlockFreedom>());
  if (config.persistency_check)
    sc.properties.push_back(std::make_unique<PersistencyProperty>());

  // Padding togglers: disconnected, always-live, conflict-free and
  // signal-free, with fresh labels that never enter the sharing pool —
  // provably outside every property's cone, so the slicer must drop them
  // without changing any verdict.  Generated last: they draw nothing from
  // the rng, so the padded and unpadded scenarios agree on everything else.
  for (std::uint32_t k = 0; k < config.padding_modules; ++k) {
    const std::string base = "pad" + std::to_string(k);
    Module m = gallery::ring(
        {{base + "_a", DelayInterval(kTicksPerUnit, 2 * kTicksPerUnit)},
         {base + "_b", DelayInterval(kTicksPerUnit, 2 * kTicksPerUnit)}});
    for (std::size_t ei = 0; ei < m.ts().num_events(); ++ei)
      m.ts().set_event_kind(EventId(static_cast<std::uint32_t>(ei)),
                            EventKind::kInternal);
    m.set_name(base + "_toggler");
    sc.modules.push_back(std::move(m));
  }
  return sc;
}

}  // namespace rtv::fuzz
