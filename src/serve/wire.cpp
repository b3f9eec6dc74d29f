#include "rtv/serve/wire.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "rtv/ts/transition_system.hpp"

namespace rtv::serve {

namespace {

using rtv::json::append_double;
using rtv::json::append_int;
using rtv::json::append_string;
using rtv::json::append_uint;
using rtv::json::require_whole;
using rtv::json::Value;
using rtv::json::whole_number;
using Kind = Value::Kind;

constexpr std::string_view kRequestContext = "serve request JSON";
constexpr std::string_view kResponseContext = "serve response JSON";

// Unqualified require(...) resolves to rtv::json::require via ADL on Value.

std::size_t size_from(const Value& obj, std::string_view key,
                      const char* what, std::string_view context) {
  return static_cast<std::size_t>(require_whole(obj, key, what, context));
}

}  // namespace

// ---------------------------------------------------------------------------
// PropertySpec
// ---------------------------------------------------------------------------

const char* to_string(PropertySpec::Kind kind) {
  switch (kind) {
    case PropertySpec::Kind::kDeadlockFreedom:
      return "deadlock";
    case PropertySpec::Kind::kPersistency:
      return "persistency";
    case PropertySpec::Kind::kInvariant:
      return "invariant";
  }
  return "deadlock";
}

PropertySpec PropertySpec::deadlock() { return {}; }

PropertySpec PropertySpec::persistency(std::vector<std::string> exempt) {
  PropertySpec spec;
  spec.kind = Kind::kPersistency;
  spec.exempt = std::move(exempt);
  return spec;
}

PropertySpec PropertySpec::invariant(std::string name,
                                     std::vector<Literal> lits) {
  PropertySpec spec;
  spec.kind = Kind::kInvariant;
  spec.name = std::move(name);
  spec.literals = std::move(lits);
  return spec;
}

std::unique_ptr<SafetyProperty> PropertySpec::instantiate() const {
  switch (kind) {
    case Kind::kDeadlockFreedom:
      return std::make_unique<DeadlockFreedom>();
    case Kind::kPersistency:
      return std::make_unique<PersistencyProperty>(exempt);
    case Kind::kInvariant: {
      std::vector<InvariantProperty::Literal> lits;
      lits.reserve(literals.size());
      for (const Literal& l : literals) lits.push_back({l.signal, l.value});
      return std::make_unique<InvariantProperty>(name, std::move(lits));
    }
  }
  return std::make_unique<DeadlockFreedom>();
}

void property_to_json(std::string& out, const PropertySpec& spec) {
  out += "{\"kind\":";
  append_string(out, to_string(spec.kind));
  if (spec.kind == PropertySpec::Kind::kInvariant) {
    out += ",\"name\":";
    append_string(out, spec.name);
    out += ",\"literals\":[";
    for (std::size_t i = 0; i < spec.literals.size(); ++i) {
      if (i) out += ",";
      out += "{\"signal\":";
      append_string(out, spec.literals[i].signal);
      out += ",\"value\":";
      out += spec.literals[i].value ? "true" : "false";
      out += "}";
    }
    out += "]";
  }
  if (spec.kind == PropertySpec::Kind::kPersistency) {
    out += ",\"exempt\":[";
    for (std::size_t i = 0; i < spec.exempt.size(); ++i) {
      if (i) out += ",";
      append_string(out, spec.exempt[i]);
    }
    out += "]";
  }
  out += "}";
}

PropertySpec property_from_json(const Value& v) {
  constexpr std::string_view ctx = kRequestContext;
  if (v.kind != Kind::kObject)
    throw std::runtime_error("serve request JSON: property is not an object");
  const std::string& kind =
      require(v, "kind", Kind::kString, "property kind", ctx).string;
  if (kind == "deadlock") return PropertySpec::deadlock();
  if (kind == "persistency") {
    std::vector<std::string> exempt;
    if (const Value* e = v.find("exempt")) {
      if (e->kind != Kind::kArray)
        throw std::runtime_error(
            "serve request JSON: persistency exempt list is not an array");
      for (const Value& label : e->array) {
        if (label.kind != Kind::kString)
          throw std::runtime_error(
              "serve request JSON: exempt label is not a string");
        exempt.push_back(label.string);
      }
    }
    return PropertySpec::persistency(std::move(exempt));
  }
  if (kind == "invariant") {
    std::vector<PropertySpec::Literal> lits;
    for (const Value& lit :
         require(v, "literals", Kind::kArray, "invariant literals", ctx)
             .array) {
      if (lit.kind != Kind::kObject)
        throw std::runtime_error(
            "serve request JSON: invariant literal is not an object");
      PropertySpec::Literal out;
      out.signal =
          require(lit, "signal", Kind::kString, "literal signal", ctx).string;
      out.value =
          require(lit, "value", Kind::kBool, "literal value", ctx).boolean;
      lits.push_back(std::move(out));
    }
    return PropertySpec::invariant(
        require(v, "name", Kind::kString, "invariant name", ctx).string,
        std::move(lits));
  }
  throw std::runtime_error("serve request JSON: unknown property kind '" +
                           kind + "'");
}

// ---------------------------------------------------------------------------
// Module serialization
// ---------------------------------------------------------------------------

void module_to_json(std::string& out, const Module& m) {
  const TransitionSystem& ts = m.ts();
  out += "{\"name\":";
  append_string(out, m.name());
  out += ",\"initial\":";
  if (ts.initial().valid())
    append_uint(out, ts.initial().value());
  else
    out += "-1";
  out += ",\"signals\":[";
  for (std::size_t i = 0; i < ts.signal_names().size(); ++i) {
    if (i) out += ",";
    append_string(out, ts.signal_names()[i]);
  }
  out += "],\"events\":[";
  for (std::size_t e = 0; e < ts.num_events(); ++e) {
    const Event& ev = ts.event(EventId(static_cast<std::uint32_t>(e)));
    if (e) out += ",";
    out += "{\"label\":";
    append_string(out, ev.label);
    out += ",\"lo\":";
    append_int(out, ev.delay.lo());
    // null = the unbounded upper delay; finite Time values survive the
    // double round-trip up to 2^53 ticks (documented in docs/SERVICE.md).
    out += ",\"hi\":";
    if (ev.delay.upper_bounded())
      append_int(out, ev.delay.hi());
    else
      out += "null";
    out += ",\"kind\":";
    append_string(out, rtv::to_string(ev.kind));
    out += "}";
  }
  out += "],\"states\":[";
  for (std::size_t s = 0; s < ts.num_states(); ++s) {
    const StateId sid(static_cast<std::uint32_t>(s));
    if (s) out += ",";
    out += "{\"name\":";
    append_string(out, ts.state_name(sid));
    if (ts.has_valuations()) {
      out += ",\"valuation\":";
      append_string(out, ts.valuation(sid).to_string());
    }
    out += ",\"transitions\":[";
    bool first = true;
    for (const Transition& t : ts.transitions_from(sid)) {
      if (!first) out += ",";
      first = false;
      out += '[';
      append_uint(out, t.event.value());
      out += ',';
      append_uint(out, t.target.value());
      out += ']';
    }
    out += "]}";
  }
  out += "]}";
}

Module module_from_json(const Value& v) {
  constexpr std::string_view ctx = kRequestContext;
  if (v.kind != Kind::kObject)
    throw std::runtime_error("serve request JSON: module is not an object");

  TransitionSystem ts;
  const std::string& name =
      require(v, "name", Kind::kString, "module name", ctx).string;

  std::vector<std::string> signals;
  for (const Value& s :
       require(v, "signals", Kind::kArray, "signal names", ctx).array) {
    if (s.kind != Kind::kString)
      throw std::runtime_error(
          "serve request JSON: signal name is not a string");
    signals.push_back(s.string);
  }
  if (!signals.empty()) ts.set_signal_names(signals);

  EventKind kind_table[] = {EventKind::kInput, EventKind::kOutput,
                            EventKind::kInternal};
  for (const Value& ev :
       require(v, "events", Kind::kArray, "events", ctx).array) {
    if (ev.kind != Kind::kObject)
      throw std::runtime_error("serve request JSON: event is not an object");
    const std::string& label =
        require(ev, "label", Kind::kString, "event label", ctx).string;
    const Time lo =
        require_whole(ev, "lo", "delay lower bound", ctx, 0, kTimeInfinity);
    const Value* hi = ev.find("hi");
    if (!hi || (hi->kind != Kind::kNull && hi->kind != Kind::kNumber))
      throw std::runtime_error(
          "serve request JSON: delay upper bound is neither number nor null");
    const Time hi_ticks = hi->kind == Kind::kNumber
                              ? whole_number(*hi, "hi", ctx, 0, kTimeInfinity)
                              : kTimeInfinity;
    const std::string& kind_s =
        require(ev, "kind", Kind::kString, "event kind", ctx).string;
    EventKind kind = EventKind::kInternal;
    bool found = false;
    for (EventKind k : kind_table)
      if (kind_s == rtv::to_string(k)) {
        kind = k;
        found = true;
      }
    if (!found)
      throw std::runtime_error("serve request JSON: unknown event kind '" +
                               kind_s + "'");
    const DelayInterval delay(lo, hi_ticks);
    if (!delay.valid())
      throw std::runtime_error("serve request JSON: invalid delay interval [" +
                               std::to_string(static_cast<long long>(lo)) +
                               ", " +
                               std::to_string(static_cast<long long>(hi_ticks)) +
                               "] on event '" + label + "'");
    ts.add_event(label, delay, kind);
  }

  const auto& states =
      require(v, "states", Kind::kArray, "states", ctx).array;
  for (const Value& st : states) {
    if (st.kind != Kind::kObject)
      throw std::runtime_error("serve request JSON: state is not an object");
    const StateId sid =
        ts.add_state(require(st, "name", Kind::kString, "state name", ctx)
                         .string);
    if (const Value* val = st.find("valuation")) {
      if (val->kind != Kind::kString)
        throw std::runtime_error(
            "serve request JSON: state valuation is not a string");
      BitVec bits(val->string.size());
      for (std::size_t i = 0; i < val->string.size(); ++i) {
        const char c = val->string[i];
        if (c != '0' && c != '1')
          throw std::runtime_error(
              "serve request JSON: valuation must be a 0/1 string");
        if (c == '1') bits.set(i);
      }
      ts.set_state_valuation(sid, std::move(bits));
    }
  }

  // Transitions second, so targets past the current state resolve.
  for (std::size_t s = 0; s < states.size(); ++s) {
    for (const Value& tr :
         require(states[s], "transitions", Kind::kArray, "transitions", ctx)
             .array) {
      if (tr.kind != Kind::kArray || tr.array.size() != 2 ||
          tr.array[0].kind != Kind::kNumber ||
          tr.array[1].kind != Kind::kNumber)
        throw std::runtime_error(
            "serve request JSON: transition is not an [event, target] pair");
      const auto event = static_cast<std::size_t>(
          whole_number(tr.array[0], "transition event", ctx));
      const auto target = static_cast<std::size_t>(
          whole_number(tr.array[1], "transition target", ctx));
      if (event >= ts.num_events() || target >= ts.num_states())
        throw std::runtime_error(
            "serve request JSON: transition references an unknown event or "
            "state");
      ts.add_transition(StateId(static_cast<std::uint32_t>(s)),
                        EventId(static_cast<std::uint32_t>(event)),
                        StateId(static_cast<std::uint32_t>(target)));
    }
  }

  // -1 is the module without an initial state.
  const std::int64_t initial =
      require_whole(v, "initial", "initial state", ctx, -1);
  if (initial >= 0) {
    const std::size_t idx = static_cast<std::size_t>(initial);
    if (idx >= ts.num_states())
      throw std::runtime_error(
          "serve request JSON: initial state is out of range");
    ts.set_initial(StateId(static_cast<std::uint32_t>(idx)));
  }

  return Module(name, std::move(ts));
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

std::vector<const Module*> WireObligation::module_ptrs() const {
  std::vector<const Module*> out;
  out.reserve(modules.size());
  for (const Module& m : modules) out.push_back(&m);
  return out;
}

Obligation WireObligation::obligation(
    std::vector<std::unique_ptr<SafetyProperty>>& properties) const {
  Obligation ob;
  ob.name = name;
  ob.modules = module_ptrs();
  ob.budget = {max_states, max_seconds};
  ob.engine = engine;
  ob.max_refinements = max_refinements;
  ob.track_chokes = track_chokes;
  for (const PropertySpec& spec : this->properties) {
    properties.push_back(spec.instantiate());
    ob.properties.push_back(properties.back().get());
  }
  return ob;
}

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kVerify:
      return "verify";
    case RequestKind::kPing:
      return "ping";
    case RequestKind::kStats:
      return "stats";
    case RequestKind::kMetrics:
      return "metrics";
    case RequestKind::kShutdown:
      return "shutdown";
  }
  return "verify";
}

std::string ServeRequest::to_json() const {
  std::string out = "{\"schema\":";
  append_string(out, kSchemaName);
  out += ",\"schema_version\":";
  append_int(out, kSchemaVersion);
  out += ",\"kind\":";
  append_string(out, to_string(kind));
  out += ",\"mode\":";
  append_string(out, rtv::to_string(mode));
  out += ",\"engines\":[";
  for (std::size_t i = 0; i < engines.size(); ++i) {
    if (i) out += ",";
    append_string(out, engines[i]);
  }
  out += "],\"max_states\":";
  append_uint(out, max_states);
  out += ",\"max_seconds\":";
  append_double(out, max_seconds);
  out += ",\"max_refinements\":";
  append_uint(out, max_refinements);
  out += ",\"obligations\":[";
  for (std::size_t i = 0; i < obligations.size(); ++i) {
    const WireObligation& ob = obligations[i];
    if (i) out += ",";
    out += "{\"name\":";
    append_string(out, ob.name);
    out += ",\"engine\":";
    append_string(out, ob.engine);
    out += ",\"max_states\":";
    append_uint(out, ob.max_states);
    out += ",\"max_seconds\":";
    append_double(out, ob.max_seconds);
    out += ",\"max_refinements\":";
    append_uint(out, ob.max_refinements);
    out += ",\"track_chokes\":";
    out += ob.track_chokes ? "true" : "false";
    out += ",\"properties\":[";
    for (std::size_t p = 0; p < ob.properties.size(); ++p) {
      if (p) out += ",";
      property_to_json(out, ob.properties[p]);
    }
    out += "],\"modules\":[";
    for (std::size_t mi = 0; mi < ob.modules.size(); ++mi) {
      if (mi) out += ",";
      module_to_json(out, ob.modules[mi]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

ServeRequest ServeRequest::parse(const std::string& line) {
  constexpr std::string_view ctx = kRequestContext;
  const Value root = rtv::json::parse(line, ctx);
  rtv::json::check_schema(root, kSchemaName, kSchemaVersion, ctx);

  ServeRequest req;
  const std::string& kind =
      require(root, "kind", Kind::kString, "request kind", ctx).string;
  if (kind == "verify")
    req.kind = RequestKind::kVerify;
  else if (kind == "ping")
    req.kind = RequestKind::kPing;
  else if (kind == "stats")
    req.kind = RequestKind::kStats;
  else if (kind == "metrics")
    req.kind = RequestKind::kMetrics;
  else if (kind == "shutdown")
    req.kind = RequestKind::kShutdown;
  else
    throw std::runtime_error("serve request JSON: unknown request kind '" +
                             kind + "'");
  if (req.kind != RequestKind::kVerify) return req;

  req.mode = suite_mode_from_string(
      require(root, "mode", Kind::kString, "mode", ctx).string, ctx);
  for (const Value& e :
       require(root, "engines", Kind::kArray, "engines", ctx).array) {
    if (e.kind != Kind::kString)
      throw std::runtime_error(
          "serve request JSON: engine name is not a string");
    req.engines.push_back(e.string);
  }
  req.max_states = size_from(root, "max_states", "max states", ctx);
  req.max_seconds =
      require(root, "max_seconds", Kind::kNumber, "max seconds", ctx).number;
  req.max_refinements =
      size_from(root, "max_refinements", "max refinements", ctx);

  for (const Value& ob :
       require(root, "obligations", Kind::kArray, "obligations", ctx).array) {
    if (ob.kind != Kind::kObject)
      throw std::runtime_error(
          "serve request JSON: obligation is not an object");
    WireObligation out;
    out.name =
        require(ob, "name", Kind::kString, "obligation name", ctx).string;
    out.engine =
        require(ob, "engine", Kind::kString, "obligation engine", ctx).string;
    out.max_states = size_from(ob, "max_states", "obligation max states", ctx);
    out.max_seconds =
        require(ob, "max_seconds", Kind::kNumber, "obligation max seconds",
                ctx)
            .number;
    out.max_refinements =
        size_from(ob, "max_refinements", "obligation max refinements", ctx);
    out.track_chokes =
        require(ob, "track_chokes", Kind::kBool, "track chokes", ctx).boolean;
    for (const Value& p :
         require(ob, "properties", Kind::kArray, "properties", ctx).array)
      out.properties.push_back(property_from_json(p));
    for (const Value& m :
         require(ob, "modules", Kind::kArray, "modules", ctx).array)
      out.modules.push_back(module_from_json(m));
    if (out.modules.empty())
      throw std::runtime_error("serve request JSON: obligation '" + out.name +
                               "' carries no modules");
    req.obligations.push_back(std::move(out));
  }
  return req;
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

void stats_to_json(std::string& out, const ServeStats& s) {
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"{\"requests\":", s.requests},
      {",\"obligations\":", s.obligations},
      {",\"cache_hits\":", s.cache_hits},
      {",\"deduped\":", s.deduped},
      {",\"computed\":", s.computed},
      {",\"lint_rejected\":", s.lint_rejected},
      {",\"errors\":", s.errors},
      {",\"cache_entries\":", s.cache_entries},
      {",\"cache_evictions\":", s.cache_evictions}};
  for (const auto& [key, value] : counters) {
    out += key;
    append_uint(out, value);
  }
  out += ",\"uptime_seconds\":";
  append_double(out, s.uptime_seconds);
  out += ",\"jobs\":";
  append_uint(out, s.jobs);
  out += "}";
}

namespace {

std::uint64_t u64_from(const Value& obj, const char* key,
                       std::string_view ctx) {
  return static_cast<std::uint64_t>(require_whole(obj, key, key, ctx));
}

ServeStats stats_from_json(const Value& v) {
  constexpr std::string_view ctx = kResponseContext;
  if (v.kind != Kind::kObject)
    throw std::runtime_error("serve response JSON: stats is not an object");
  ServeStats s;
  s.requests = u64_from(v, "requests", ctx);
  s.obligations = u64_from(v, "obligations", ctx);
  s.cache_hits = u64_from(v, "cache_hits", ctx);
  s.deduped = u64_from(v, "deduped", ctx);
  s.computed = u64_from(v, "computed", ctx);
  // Optional: absent in stats written by daemons predating the lint
  // pre-flight; the default 0 is exact for them.
  if (const Value* lr = v.find("lint_rejected"))
    s.lint_rejected =
        static_cast<std::uint64_t>(whole_number(*lr, "lint_rejected", ctx));
  s.errors = u64_from(v, "errors", ctx);
  s.cache_entries = u64_from(v, "cache_entries", ctx);
  s.cache_evictions = u64_from(v, "cache_evictions", ctx);
  s.uptime_seconds =
      require(v, "uptime_seconds", Kind::kNumber, "uptime", ctx).number;
  s.jobs = u64_from(v, "jobs", ctx);
  return s;
}

}  // namespace

std::string ServeResponse::to_json() const {
  std::string out = "{\"schema\":";
  append_string(out, kSchemaName);
  out += ",\"schema_version\":";
  append_int(out, kSchemaVersion);
  out += ",\"ok\":";
  out += ok ? "true" : "false";
  out += ",\"error\":";
  append_string(out, error);
  if (has_report) {
    // Write the canonical SuiteReport document in as a nested object.
    // Its pretty-printing newlines would break line-delimited framing;
    // raw newlines are structural only (strings escape them), so
    // flattening them to spaces keeps the document identical JSON.
    out += ",\"report\":";
    const std::size_t from = out.size();
    report.append_json(out);
    std::replace(out.begin() + static_cast<std::ptrdiff_t>(from), out.end(),
                 '\n', ' ');
  }
  if (has_stats) {
    out += ",\"stats\":";
    stats_to_json(out, stats);
  }
  if (!metrics_text.empty()) {
    out += ",\"metrics_text\":";
    append_string(out, metrics_text);
  }
  if (!metrics_json.empty()) {
    out += ",\"metrics_json\":";
    append_string(out, metrics_json);
  }
  out += "}";
  return out;
}

ServeResponse ServeResponse::parse(const std::string& line) {
  constexpr std::string_view ctx = kResponseContext;
  const Value root = rtv::json::parse(line, ctx);
  rtv::json::check_schema(root, kSchemaName, kSchemaVersion, ctx);

  ServeResponse resp;
  resp.ok = require(root, "ok", Kind::kBool, "ok flag", ctx).boolean;
  resp.error = require(root, "error", Kind::kString, "error", ctx).string;
  if (const Value* rep = root.find("report")) {
    resp.report = parse_suite_report(*rep);
    resp.has_report = true;
  }
  if (const Value* st = root.find("stats")) {
    resp.stats = stats_from_json(*st);
    resp.has_stats = true;
  }
  if (const Value* mt = root.find("metrics_text")) {
    if (mt->kind != Kind::kString)
      throw std::runtime_error(
          "serve response JSON: metrics_text is not a string");
    resp.metrics_text = mt->string;
  }
  if (const Value* mj = root.find("metrics_json")) {
    if (mj->kind != Kind::kString)
      throw std::runtime_error(
          "serve response JSON: metrics_json is not a string");
    resp.metrics_json = mj->string;
  }
  return resp;
}

}  // namespace rtv::serve
