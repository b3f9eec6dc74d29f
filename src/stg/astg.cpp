#include "rtv/stg/astg.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace rtv {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') break;  // comment
    out.push_back(tok);
  }
  return out;
}

struct ParseState {
  Stg stg{"astg"};
  std::string model_name = "astg";
  std::set<std::string> inputs, outputs, internals, dummies;
  // token (e.g. "a+", "a+/2", "tau") -> transition index
  std::map<std::string, std::size_t> transitions;
  std::map<std::string, PlaceId> places;
  // implicit place between two transition tokens
  std::map<std::pair<std::string, std::string>, PlaceId> implicit;

  bool is_transition_token(const std::string& tok) const {
    if (dummies.count(strip_occurrence(tok))) return true;
    std::string sig;
    bool rising;
    if (!parse_transition_label(strip_occurrence(tok), &sig, &rising))
      return false;
    return inputs.count(sig) || outputs.count(sig) || internals.count(sig);
  }

  static std::string strip_occurrence(const std::string& tok) {
    const auto slash = tok.find('/');
    return slash == std::string::npos ? tok : tok.substr(0, slash);
  }

  std::size_t ensure_transition(const std::string& tok) {
    const auto it = transitions.find(tok);
    if (it != transitions.end()) return it->second;
    const std::string base = strip_occurrence(tok);
    std::size_t t;
    if (dummies.count(base)) {
      t = stg.add_dummy(base);
    } else {
      std::string sig;
      bool rising;
      parse_transition_label(base, &sig, &rising);
      const EventKind kind =
          inputs.count(sig) ? EventKind::kInput : EventKind::kOutput;
      t = stg.add_transition(sig, rising, DelayInterval::unbounded(), kind);
    }
    transitions.emplace(tok, t);
    return t;
  }

  PlaceId ensure_place(const std::string& name) {
    const auto it = places.find(name);
    if (it != places.end()) return it->second;
    const PlaceId p = stg.add_place(name);
    places.emplace(name, p);
    return p;
  }

  PlaceId ensure_implicit(const std::string& from, const std::string& to) {
    const auto key = std::make_pair(from, to);
    const auto it = implicit.find(key);
    if (it != implicit.end()) return it->second;
    const PlaceId p = stg.add_place("<" + from + "," + to + ">");
    implicit.emplace(key, p);
    stg.arc(ensure_transition(from), p);
    stg.arc(p, ensure_transition(to));
    return p;
  }
};

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::runtime_error("astg parse error (line " + std::to_string(line) +
                           "): " + message);
}

/// A bound in units: "inf", or a number whose ticks lie in [0,
/// kTimeInfinity], the range the wire reader accepts (NaN fails both).
/// Plain decimals ("12", "12.", "12.75") are read exactly: integer units
/// plus the fraction rounded to the nearest tick, so every bound
/// units_text() writes reads back.  Other spellings (".5", "1e3", a sign,
/// hex) go through a double.  No step depends on the locale.
Time parse_bound(int line, const std::string& tok) {
  if (tok == "inf" || tok == "INF") return kTimeInfinity;
  const auto bad = [&] { fail(line, "bad delay '" + tok + "'"); };
  const char* first = tok.data();
  const char* const last = first + tok.size();
  const auto all_digits = [](const char* a, const char* b) {
    return std::all_of(a, b, [](char c) { return c >= '0' && c <= '9'; });
  };

  std::uint64_t units = 0;
  const auto [int_end, int_ec] = std::from_chars(first, last, units);
  if (int_ec == std::errc() &&
      (int_end == last || (*int_end == '.' && all_digits(int_end + 1, last)))) {
    double fraction = 0.0;  // ".ddd", exact enough to round to a tick
    if (last - int_end > 1 &&
        std::from_chars(int_end, last, fraction).ec != std::errc())
      bad();
    const Time ticks = std::llround(fraction * kTicksPerUnit);
    if (units > static_cast<std::uint64_t>((kTimeInfinity - ticks) /
                                           kTicksPerUnit))
      bad();
    return static_cast<Time>(units) * kTicksPerUnit + ticks;
  }

  const bool negative = *first == '-';
  if (negative || *first == '+') ++first;
  auto format = std::chars_format::general;
  if (last - first > 2 && first[0] == '0' && (first[1] | 0x20) == 'x') {
    first += 2;
    format = std::chars_format::hex;
  }
  double v = 0.0;
  const auto [end, ec] = std::from_chars(first, last, v, format);
  if (negative) v = -v;
  const double ticks = v * static_cast<double>(kTicksPerUnit);
  if (ec != std::errc() || end != last || !(ticks >= 0) ||
      !(ticks <= static_cast<double>(kTimeInfinity)))
    bad();
  return ticks_from_units(v);
}

/// A bound in units, exactly: integer units and the quarter, so every Time
/// in [0, kTimeInfinity] reads back.
std::string units_text(Time t) {
  static_assert(kTicksPerUnit == 4, "one suffix per quarter unit");
  static constexpr const char* kQuarter[] = {"", ".25", ".5", ".75"};
  return std::to_string(t / kTicksPerUnit) + kQuarter[t % kTicksPerUnit];
}

}  // namespace

Stg parse_astg(std::istream& in) {
  ParseState ps;
  enum class Section { kHeader, kGraph, kDone };
  Section section = Section::kHeader;
  std::string line;
  int line_no = 0;
  std::vector<std::pair<DelayInterval, std::string>> delays;  // applied last
  std::vector<std::string> marking_tokens;

  while (std::getline(in, line)) {
    ++line_no;
    const std::vector<std::string> toks = tokenize(line);
    if (toks.empty()) continue;
    const std::string& head = toks[0];

    if (head == ".model" || head == ".name") {
      if (toks.size() > 1) ps.model_name = toks[1];
    } else if (head == ".inputs") {
      ps.inputs.insert(toks.begin() + 1, toks.end());
    } else if (head == ".outputs") {
      ps.outputs.insert(toks.begin() + 1, toks.end());
    } else if (head == ".internal") {
      ps.internals.insert(toks.begin() + 1, toks.end());
    } else if (head == ".dummy") {
      ps.dummies.insert(toks.begin() + 1, toks.end());
    } else if (head == ".initial") {
      // Non-standard: signals whose initial value is high.
      for (std::size_t i = 1; i < toks.size(); ++i)
        ps.stg.set_initial_value(toks[i], true);
    } else if (head == ".delay") {
      if (toks.size() != 4) fail(line_no, ".delay needs: transition lo hi");
      delays.emplace_back(DelayInterval(parse_bound(line_no, toks[2]),
                                        parse_bound(line_no, toks[3])),
                          toks[1]);
    } else if (head == ".graph") {
      section = Section::kGraph;
    } else if (head == ".marking") {
      // .marking { tok tok <a,b> } possibly split over tokens.
      for (std::size_t i = 1; i < toks.size(); ++i) {
        std::string t = toks[i];
        t.erase(std::remove(t.begin(), t.end(), '{'), t.end());
        t.erase(std::remove(t.begin(), t.end(), '}'), t.end());
        if (!t.empty()) marking_tokens.push_back(t);
      }
    } else if (head == ".end") {
      section = Section::kDone;
      break;
    } else if (head[0] == '.') {
      // Unknown directive (e.g. .capacity): ignore for compatibility.
    } else if (section == Section::kGraph) {
      if (toks.size() < 2) fail(line_no, "arc line needs a source and targets");
      const std::string& from = toks[0];
      const bool from_is_transition = ps.is_transition_token(from);
      for (std::size_t i = 1; i < toks.size(); ++i) {
        const std::string& to = toks[i];
        const bool to_is_transition = ps.is_transition_token(to);
        if (from_is_transition && to_is_transition) {
          ps.ensure_implicit(from, to);
        } else if (from_is_transition) {
          ps.stg.arc(ps.ensure_transition(from), ps.ensure_place(to));
        } else if (to_is_transition) {
          ps.stg.arc(ps.ensure_place(from), ps.ensure_transition(to));
        } else {
          fail(line_no, "place-to-place arc '" + from + " " + to + "'");
        }
      }
    } else {
      fail(line_no, "unexpected line '" + head + "' outside .graph");
    }
  }

  // Initial marking.
  for (const std::string& tok : marking_tokens) {
    if (tok.front() == '<') {
      const auto comma = tok.find(',');
      if (comma == std::string::npos || tok.back() != '>')
        throw std::runtime_error("astg: bad implicit marking '" + tok + "'");
      const std::string a = tok.substr(1, comma - 1);
      const std::string b = tok.substr(comma + 1, tok.size() - comma - 2);
      ps.stg.mark(ps.ensure_implicit(a, b));
    } else {
      const auto it = ps.places.find(tok);
      if (it == ps.places.end())
        throw std::runtime_error("astg: marking of unknown place '" + tok + "'");
      ps.stg.mark(it->second);
    }
  }

  // Delay annotations (all occurrences of the named transition).
  for (const auto& [delay, tok] : delays) {
    bool applied = false;
    for (std::size_t t = 0; t < ps.stg.num_transitions(); ++t) {
      if (ps.stg.transition(t).label() == ParseState::strip_occurrence(tok)) {
        ps.stg.transition(t).delay = delay;
        applied = true;
      }
    }
    if (!applied)
      throw std::runtime_error("astg: .delay for unknown transition '" + tok + "'");
  }

  // Rebuild with the right name (Stg's name is immutable after
  // construction, so copy into a fresh one if needed).
  if (ps.model_name != ps.stg.name()) {
    Stg named(ps.model_name);
    // Straight structural copy.
    for (std::size_t p = 0; p < ps.stg.num_places(); ++p) {
      const PlaceId id(static_cast<PlaceId::underlying_type>(p));
      named.add_place(ps.stg.place_name(id), ps.stg.initially_marked(id));
    }
    for (std::size_t t = 0; t < ps.stg.num_transitions(); ++t) {
      const StgTransition& tr = ps.stg.transition(t);
      std::size_t nt;
      if (tr.signal.empty()) {
        nt = named.add_dummy(tr.dummy_name, tr.delay);
      } else {
        nt = named.add_transition(tr.signal, tr.rising, tr.delay, tr.kind);
      }
      for (PlaceId p : tr.preset) named.arc(p, nt);
      for (PlaceId p : tr.postset) named.arc(nt, p);
    }
    for (const std::string& sig : ps.stg.signals())
      named.set_initial_value(sig, ps.stg.initial_value(sig));
    return named;
  }
  return ps.stg;
}

Stg parse_astg_string(const std::string& text) {
  std::istringstream is(text);
  return parse_astg(is);
}

std::string write_astg(const Stg& stg) {
  std::ostringstream os;
  os << ".model " << stg.name() << "\n";

  std::set<std::string> inputs, outputs, dummies;
  for (std::size_t t = 0; t < stg.num_transitions(); ++t) {
    const StgTransition& tr = stg.transition(t);
    if (tr.signal.empty()) {
      dummies.insert(tr.dummy_name);
    } else if (tr.kind == EventKind::kInput) {
      inputs.insert(tr.signal);
    } else {
      outputs.insert(tr.signal);
    }
  }
  auto emit_set = [&](const char* directive, const std::set<std::string>& set) {
    if (set.empty()) return;
    os << directive;
    for (const std::string& s : set) os << " " << s;
    os << "\n";
  };
  emit_set(".inputs", inputs);
  emit_set(".outputs", outputs);
  emit_set(".dummy", dummies);
  {
    std::set<std::string> high;
    for (const std::string& sig : stg.signals())
      if (stg.initial_value(sig)) high.insert(sig);
    emit_set(".initial", high);
  }

  // Occurrence-indexed token per transition.
  std::map<std::string, int> label_count;
  std::vector<std::string> token(stg.num_transitions());
  for (std::size_t t = 0; t < stg.num_transitions(); ++t) {
    const std::string label = stg.transition(t).label();
    const int k = ++label_count[label];
    token[t] = k == 1 ? label : label + "/" + std::to_string(k);
  }

  // Per place: producers and consumers.
  std::vector<std::vector<std::size_t>> producers(stg.num_places());
  std::vector<std::vector<std::size_t>> consumers(stg.num_places());
  for (std::size_t t = 0; t < stg.num_transitions(); ++t) {
    for (PlaceId p : stg.transition(t).preset) consumers[p.value()].push_back(t);
    for (PlaceId p : stg.transition(t).postset) producers[p.value()].push_back(t);
  }
  auto is_implicit = [&](std::size_t p) {
    return producers[p].size() == 1 && consumers[p].size() == 1;
  };
  auto place_token = [&](std::size_t p) {
    const PlaceId id(static_cast<PlaceId::underlying_type>(p));
    const std::string& n = stg.place_name(id);
    if (!n.empty() && n.find(' ') == std::string::npos && n[0] != '<' &&
        n.find('(') == std::string::npos)
      return n;
    return std::string("p").append(std::to_string(p));
  };

  os << ".graph\n";
  for (std::size_t p = 0; p < stg.num_places(); ++p) {
    if (is_implicit(p)) {
      os << token[producers[p][0]] << " " << token[consumers[p][0]] << "\n";
    } else {
      for (std::size_t t : producers[p]) os << token[t] << " " << place_token(p) << "\n";
      for (std::size_t t : consumers[p]) os << place_token(p) << " " << token[t] << "\n";
    }
  }

  // Delay annotations (only where bounded).
  for (std::size_t t = 0; t < stg.num_transitions(); ++t) {
    const DelayInterval d = stg.transition(t).delay;
    if (d.is_unbounded()) continue;
    os << ".delay " << token[t] << " " << units_text(d.lo()) << " ";
    if (d.upper_bounded()) {
      os << units_text(d.hi());
    } else {
      os << "inf";
    }
    os << "\n";
  }

  os << ".marking {";
  for (std::size_t p = 0; p < stg.num_places(); ++p) {
    if (!stg.initially_marked(PlaceId(static_cast<PlaceId::underlying_type>(p))))
      continue;
    if (is_implicit(p)) {
      os << " <" << token[producers[p][0]] << "," << token[consumers[p][0]] << ">";
    } else {
      os << " " << place_token(p);
    }
  }
  os << " }\n.end\n";
  return os.str();
}

}  // namespace rtv
