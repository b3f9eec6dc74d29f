// The shared JSON layer (rtv/base/json.hpp): grammar edges of the strict
// reader, a seeded emit -> parse -> emit round trip over random documents,
// and byte-identity pins of every document writer built on the append
// helpers (suite reports, serve requests and responses, the verdict cache,
// lint reports and generator configs).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "rtv/base/hash.hpp"
#include "rtv/base/json.hpp"
#include "rtv/base/rng.hpp"
#include "rtv/fuzz/generator.hpp"
#include "rtv/ipcmos/experiments.hpp"
#include "rtv/lint/diagnostic.hpp"
#include "rtv/serve/cache.hpp"
#include "rtv/serve/wire.hpp"
#include "rtv/verify/suite.hpp"

using namespace rtv;
using json::Value;
using Kind = Value::Kind;

namespace {

Value parse(const std::string& text) { return json::parse(text, "test"); }

/// The message parse() throws for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    parse(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

bool mentions(const std::string& error, const char* what) {
  return error.find(what) != std::string::npos;
}

std::uint64_t digest(const std::string& doc) {
  return Fnv1a().str(doc).digest();
}

// ---------------------------------------------------------------------------
// Grammar edges
// ---------------------------------------------------------------------------

TEST(JsonGrammar, NestingDepth512PassesAnd513Fails) {
  for (const char* pair : {"[]", "{}"}) {
    const auto nested = [&](std::size_t depth) {
      std::string s;
      for (std::size_t i = 0; i < depth; ++i)
        s += pair[0] == '[' ? "[" : (i + 1 < depth ? "{\"k\":" : "{");
      for (std::size_t i = 0; i < depth; ++i) s += pair[1];
      return s;
    };
    EXPECT_EQ(parse_error(nested(512)), "") << pair;
    EXPECT_TRUE(mentions(parse_error(nested(513)), "nested deeper than 512"))
        << pair;
  }
}

TEST(JsonGrammar, EveryLiteral) {
  const Value v = parse(" [true,false,null , true] ");
  ASSERT_EQ(v.kind, Kind::kArray);
  ASSERT_EQ(v.array.size(), 4u);
  EXPECT_EQ(v.array[0].kind, Kind::kBool);
  EXPECT_TRUE(v.array[0].boolean);
  EXPECT_EQ(v.array[1].kind, Kind::kBool);
  EXPECT_FALSE(v.array[1].boolean);
  EXPECT_EQ(v.array[2].kind, Kind::kNull);
  EXPECT_TRUE(parse("true").boolean);
  EXPECT_EQ(parse("null").kind, Kind::kNull);
  for (const char* bad : {"tru", "nul", "fals", "truex", "nulll", "[True]",
                          "[none]", ""})
    EXPECT_NE(parse_error(bad), "") << bad;
}

TEST(JsonGrammar, OnlyTheFourJsonWhitespaceBytesSeparateTokens) {
  EXPECT_EQ(parse(" \t\r\n[ 1 ,\n2 ]\r\n").array.size(), 2u);
  for (const char* bad : {"[1,\v2]", "[1,\f2]", "\v[]"})
    EXPECT_NE(parse_error(bad), "") << bad;
}

TEST(JsonGrammar, ControlCharacterEscapes) {
  // The writer names \n \r \t and spells every other control byte \u00xx.
  std::string all;
  for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
  std::string escaped;
  json::escape_into(escaped, all);
  EXPECT_EQ(escaped.substr(0, 12), "\\u0000\\u0001");
  EXPECT_NE(escaped.find("\\u0008\\t\\n\\u000b\\u000c\\r\\u000e"),
            std::string::npos);
  EXPECT_EQ(escaped.substr(escaped.size() - 6), "\\u001f");
  EXPECT_EQ(parse("\"" + escaped + "\"").string, all);

  // The reader also takes the escapes the writer never emits.
  EXPECT_EQ(parse(R"("\b\f\/\"\\\u0041\u00e9")").string,
            "\b\f/\"\\A\xc3\xa9");
  EXPECT_EQ(parse(R"("\u20ac")").string, "\xe2\x82\xac");
  for (const char* bad : {R"("\x")", R"("\u12")", R"("\u12g4")", R"("abc)",
                          R"("\)"})
    EXPECT_NE(parse_error(bad), "") << bad;
}

TEST(JsonGrammar, SurrogateEscapesAreRejected) {
  // A lone surrogate has no UTF-8 encoding; the reader refuses the whole
  // range rather than writing invalid bytes.
  for (const char* bad : {R"("\ud800")", R"("\uDBFF")", R"("\udc00")",
                          R"("\udfff")", R"("\ud83d\ude00")"})
    EXPECT_TRUE(mentions(parse_error(bad), "surrogate")) << bad;
  EXPECT_EQ(parse(R"("\ud7ff\ue000")").string, "\xed\x9f\xbf\xee\x80\x80");
}

TEST(JsonGrammar, NumberTokensMustBeWhole) {
  // A token the number reader does not consume entirely is an error, not
  // its longest valid prefix.
  for (const char* bad : {"[1-2]", "[1.5.5]", "[2e5e5]", "[1e]", "[-]",
                          "[+1]", "[--1]", "[1e999]", "[.]", "[e5]"})
    EXPECT_TRUE(mentions(parse_error(bad), "malformed number")) << bad;
  EXPECT_EQ(parse("-0").number, 0.0);
  EXPECT_TRUE(std::signbit(parse("-0").number));
  EXPECT_EQ(parse("1e+20").number, 1e20);
  EXPECT_EQ(parse("1E-3").number, 1e-3);
  EXPECT_EQ(parse("0.10000000000000001").number, 0.1);
  EXPECT_EQ(parse("[-12,3.5]").array[0].number, -12.0);
  EXPECT_EQ(parse("9007199254740993").number, 9007199254740992.0);
}

TEST(JsonGrammar, AppendDoubleSpellsEveryDoubleAsPrintf17g) {
  // The writer's number format is %.17g; this pins it over random bit
  // patterns (subnormals, infinities and NaNs included) and edge values.
  Rng rng(0x6a50u);
  std::vector<double> values = {0.0,   -0.0,     0.1,    1.0 / 3.0, 1e20,
                                1e21,  1e-5,     1e-4,   123456789012345678.0,
                                1e300, 5e-324,   2.5,    100.0,     -7.0,
                                HUGE_VAL, -HUGE_VAL, std::nan("")};
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double d;
    std::memcpy(&d, &bits, sizeof d);
    values.push_back(d);
    values.push_back(static_cast<double>(rng.range(-1000000, 1000000)) /
                     static_cast<double>(rng.range(1, 1000)));
  }
  for (const double d : values) {
    char want[40];
    std::snprintf(want, sizeof want, "%.17g", d);
    std::string got;
    json::append_double(got, d);
    ASSERT_EQ(got, want) << "bits of " << want;
    if (std::isfinite(d)) {
      const double back = parse(got).number;
      ASSERT_EQ(std::memcmp(&back, &d, sizeof d), 0) << want;
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded round trip
// ---------------------------------------------------------------------------

/// The one Value writer the library does not need: compact, members in
/// parse order.
void emit(std::string& out, const Value& v) {
  switch (v.kind) {
    case Kind::kNull:
      out += "null";
      return;
    case Kind::kBool:
      out += v.boolean ? "true" : "false";
      return;
    case Kind::kNumber:
      json::append_double(out, v.number);
      return;
    case Kind::kString:
      json::append_string(out, v.string);
      return;
    case Kind::kArray:
      out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i) out += ',';
        emit(out, v.array[i]);
      }
      out += ']';
      return;
    case Kind::kObject:
      out += '{';
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i) out += ',';
        json::append_string(out, v.object[i].first);
        out += ':';
        emit(out, v.object[i].second);
      }
      out += '}';
      return;
  }
}

std::string random_string(Rng& rng) {
  // Mostly printable, with quotes, backslashes, control bytes and raw
  // UTF-8 mixed in.
  static const char kSpecial[] = {'"', '\\', '\n', '\r', '\t', '\0', '\x01',
                                  '\x1f', '/', '\x7f'};
  std::string s;
  const std::size_t n = rng.below(24);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pick = rng.below(10);
    if (pick < 6)
      s += static_cast<char>(' ' + rng.below(95));
    else if (pick < 8)
      s += kSpecial[rng.below(sizeof kSpecial)];
    else if (pick < 9)
      s += "\xc3\xa9";
    else
      s += static_cast<char>(0x80 + rng.below(0x80));
  }
  return s;
}

double random_number(Rng& rng) {
  switch (rng.below(4)) {
    case 0:
      return static_cast<double>(rng.range(-100000, 100000));
    case 1:
      return rng.unit() * std::pow(10.0, static_cast<double>(rng.range(-30, 30)));
    case 2:
      return -rng.unit();
    default: {
      double d;
      do {
        const std::uint64_t bits = rng.next_u64();
        std::memcpy(&d, &bits, sizeof d);
      } while (!std::isfinite(d));
      return d;
    }
  }
}

Value random_value(Rng& rng, int depth) {
  Value v;
  const std::uint64_t pick = depth > 4 ? rng.below(4) : rng.below(6);
  switch (pick) {
    case 0:
      break;
    case 1:
      v.kind = Kind::kBool;
      v.boolean = rng.chance(0.5);
      break;
    case 2:
      v.kind = Kind::kNumber;
      v.number = random_number(rng);
      break;
    case 3:
      v.kind = Kind::kString;
      v.string = random_string(rng);
      break;
    case 4: {
      v.kind = Kind::kArray;
      const std::size_t n = rng.below(6);
      for (std::size_t i = 0; i < n; ++i)
        v.array.push_back(random_value(rng, depth + 1));
      break;
    }
    default: {
      v.kind = Kind::kObject;
      const std::size_t n = rng.below(6);
      for (std::size_t i = 0; i < n; ++i)
        v.object.emplace_back(random_string(rng), random_value(rng, depth + 1));
      break;
    }
  }
  return v;
}

TEST(JsonRoundTrip, SeededRandomDocumentsEmitParseEmitByteEqual) {
  Rng rng(20);
  for (int i = 0; i < 2000; ++i) {
    const Value v = random_value(rng, 0);
    std::string first;
    emit(first, v);
    std::string second;
    emit(second, parse(first));
    ASSERT_EQ(first, second) << "document " << i;
  }
}

// ---------------------------------------------------------------------------
// Byte-identity pins.  The digests were computed on the writers as they
// were before the single-buffer rewrite; a writer that changes one byte of
// any document fails here.
// ---------------------------------------------------------------------------

SuiteRecord synthetic_record(std::size_t i) {
  SuiteRecord r;
  r.obligation = "ob \"" + std::to_string(i) + "\"\n\ttabbed";
  r.engine = i % 2 ? "zone" : "refine";
  r.result.verdict = static_cast<Verdict>(i % 3);
  r.result.truncated_reason = i % 3 == 2 ? "state budget" : "";
  r.result.states_explored = 1000003 * i + 7;
  r.result.seconds = 0.1 * static_cast<double>(i) + 1e-9;
  r.result.message = "line one\nline two \\ \x01 \xc3\xa9";
  r.result.trace_labels = {"a+", "b-", "c\"quoted\""};
  r.cpu_seconds = 1.0 / (3.0 + static_cast<double>(i));
  r.winner = i % 2 == 0;
  r.cached = i % 3 == 1;
  if (i % 2) {
    r.lint.push_back({"L001", lint::Severity::kWarning, "m\"1", "obj",
                      "unused\nsignal"});
    r.lint.push_back({"L017", lint::Severity::kNote, "", "", "note"});
  }
  if (i % 4 == 3) {
    r.sliced_modules = i;
    r.sliced_events = 2 * i + 1;
  }
  return r;
}

SuiteReport table1_zone_report() {
  SuiteOptions opts;
  opts.jobs = 1;
  opts.engines = {"zone"};
  SuiteReport report = run_suite(ipcmos::table1_suite(), opts);
  report.wall_seconds = 0.0;
  for (SuiteRecord& r : report.records) {
    r.result.seconds = 0.0;
    r.cpu_seconds = 0.0;
  }
  return report;
}

SuiteReport synthetic_report() {
  SuiteReport report;
  report.mode = SuiteMode::kPortfolio;
  report.jobs = 4;
  report.wall_seconds = 12.345678901234567;
  for (std::size_t i = 0; i < 6; ++i)
    report.records.push_back(synthetic_record(i));
  return report;
}

serve::WireObligation fuzz_obligation(std::size_t i) {
  fuzz::GeneratorConfig cfg;
  cfg.modules = 2 + static_cast<std::uint32_t>(i % 2);
  cfg.unbounded_p = 0.3;
  cfg.padding_modules = static_cast<std::uint32_t>(i % 3);
  const fuzz::Scenario sc = fuzz::generate(fuzz::case_seed(20, i), cfg);
  serve::WireObligation ob;
  ob.name = "fuzz " + std::to_string(i) + " " + sc.describe();
  for (const Module& m : sc.modules) ob.modules.push_back(m);
  ob.engine = i % 2 ? "zone" : "";
  ob.max_states = 1000 * i;
  ob.max_seconds = 0.1 * static_cast<double>(i);
  ob.max_refinements = 7 * i;
  ob.track_chokes = i % 2 == 0;
  ob.properties.push_back(serve::PropertySpec::deadlock());
  ob.properties.push_back(serve::PropertySpec::persistency({"x+", "y\"-"}));
  ob.properties.push_back(serve::PropertySpec::invariant(
      "inv " + std::to_string(i), {{"a", true}, {"b\n", false}}));
  return ob;
}

TEST(JsonPins, SuiteReportOnTable1ZoneIsByteIdentical) {
  const SuiteReport report = table1_zone_report();
  ASSERT_EQ(report.records.size(), 5u);
  EXPECT_EQ(digest(report.to_json()), 0x38cf7b6f5c96480dull);
  EXPECT_EQ(digest(synthetic_report().to_json()), 0xad9026ef74a1edf6ull);
  EXPECT_EQ(digest(SuiteReport{}.to_json()), 0xa90a691faf3a7f03ull);
  // And the documents read back to the same bytes.
  EXPECT_EQ(parse_suite_report(synthetic_report().to_json()).to_json(),
            synthetic_report().to_json());
}

TEST(JsonPins, ServeRequestAndResponseAreByteIdentical) {
  serve::ServeRequest req;
  req.mode = SuiteMode::kPortfolio;
  req.engines = {"refine", "zone"};
  req.max_states = 123456;
  req.max_seconds = 2.5;
  req.max_refinements = 77;
  for (std::size_t i = 0; i < 6; ++i)
    req.obligations.push_back(fuzz_obligation(i));
  const std::string req_doc = req.to_json();
  EXPECT_EQ(digest(req_doc), 0xdc3512d55aee1abfull);
  EXPECT_EQ(serve::ServeRequest::parse(req_doc).to_json(), req_doc);
  serve::ServeRequest ping;
  ping.kind = serve::RequestKind::kPing;
  EXPECT_EQ(digest(ping.to_json()), 0x7cb75ae6a962d696ull);

  serve::ServeResponse resp;
  resp.ok = true;
  resp.has_report = true;
  resp.report = synthetic_report();
  resp.has_stats = true;
  resp.stats = {10, 20, 30, 4, 5, 6, 7, 8, 9, 3.25, 4};
  resp.metrics_text = "# HELP x\nx_total 3\n";
  resp.metrics_json = R"({"x":"y"})";
  const std::string resp_doc = resp.to_json();
  EXPECT_EQ(resp_doc.find('\n'), std::string::npos);
  EXPECT_EQ(digest(resp_doc), 0x80cb896a56a2d3b7ull);
  EXPECT_EQ(serve::ServeResponse::parse(resp_doc).to_json(), resp_doc);

  serve::ServeResponse table1;
  table1.ok = true;
  table1.has_report = true;
  table1.report = table1_zone_report();
  EXPECT_EQ(digest(table1.to_json()), 0x8a0b74c86e880f5cull);

  serve::ServeResponse failed;
  failed.error = "serve request JSON, offset 3: \"bad\"\n";
  EXPECT_EQ(digest(failed.to_json()), 0xf9d9b665387845c4ull);
}

TEST(JsonPins, VerdictCacheIsByteIdentical) {
  serve::VerdictCache cache(64);
  for (std::size_t i = 0; i < 6; ++i) {
    serve::CachedOutcome outcome;
    for (std::size_t k = 0; k <= i % 3; ++k)
      outcome.records.push_back(synthetic_record(i + k));
    cache.put(serve::obligation_cache_key(fuzz_obligation(i), SuiteMode::kBatch,
                                          {"zone"}, i, 0.5 * i, 500),
              std::move(outcome));
  }
  const std::string doc = cache.to_json();
  EXPECT_EQ(digest(doc), 0xc1e13464d980d143ull);
  serve::VerdictCache back(64);
  back.load_json(doc);
  EXPECT_EQ(back.to_json(), doc);
  EXPECT_EQ(digest(serve::VerdictCache(4).to_json()), 0xcc711614f1106a10ull);
}

TEST(JsonPins, LintReportIsByteIdentical) {
  lint::LintReport report;
  for (std::size_t i = 1; i < 6; i += 2)
    for (const lint::Diagnostic& d : synthetic_record(i).lint)
      report.diagnostics.push_back(d);
  report.diagnostics.push_back({"L002", lint::Severity::kError, "m", "\t",
                                "bad \"thing\""});
  EXPECT_EQ(digest(report.to_json()), 0x92978604edfc9303ull);
  EXPECT_EQ(lint::parse_lint_report(report.to_json()).to_json(),
            report.to_json());
}

TEST(JsonPins, GeneratorConfigIsByteIdentical) {
  std::string all;
  fuzz::GeneratorConfig cfg;
  all += cfg.to_json();
  cfg.modules = 5;
  cfg.events = 9;
  cfg.max_delay = 1234567;
  cfg.properties = 0;
  cfg.unbounded_p = 1.0 / 3.0;
  cfg.share_p = 0.7;
  cfg.point_delays = true;
  cfg.gates = false;
  cfg.deadlock_check = true;
  cfg.persistency_check = true;
  cfg.padding_modules = 3;
  all += cfg.to_json();
  EXPECT_EQ(digest(all), 0xf772cb2fa250f392ull);
  EXPECT_EQ(fuzz::GeneratorConfig::from_json(cfg.to_json()), cfg);
}

// ---------------------------------------------------------------------------
// Integer fields: whole numbers in range, or an error naming the field
// ---------------------------------------------------------------------------

/// The message `read` throws, or "" when it returns.
template <typename Read>
std::string read_error(Read read) {
  try {
    read();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(JsonWholeNumbers, ReaderChecksKindFractionAndRange) {
  const auto whole = [](const char* doc, std::int64_t lo, std::int64_t hi) {
    return json::whole_number(parse(doc), "n", "test", lo, hi);
  };
  EXPECT_EQ(whole("3", 0, 10), 3);
  EXPECT_EQ(whole("-1", -1, 10), -1);
  EXPECT_EQ(whole("-9223372036854775808", INT64_MIN, 0), INT64_MIN);
  EXPECT_EQ(read_error([&] { whole("2.5", 0, 10); }),
            "test: field 'n' must be a whole number in [0, 10], got 2.5");
  EXPECT_EQ(read_error([&] { whole("11", 0, 10); }),
            "test: field 'n' must be a whole number in [0, 10], got 11");
  EXPECT_EQ(read_error([&] { whole("\"3\"", 0, 10); }),
            "test: field 'n' must be a whole number in [0, 10]");
  // 2^63 and beyond do not fit an int64_t at all.
  for (const char* big : {"9223372036854775808", "1e300", "-1e300"})
    EXPECT_TRUE(mentions(read_error([&] { whole(big, INT64_MIN, INT64_MAX); }),
                         "must be a whole number"))
        << big;
}

/// A serve request with one generated obligation, with the first `from`
/// after `anchor` replaced by `to`.
std::string mutated_request(const std::string& anchor, const std::string& from,
                            const std::string& to) {
  serve::ServeRequest req;
  req.max_states = 123456;
  req.max_refinements = 77;
  req.obligations.push_back(fuzz_obligation(1));
  std::string doc = req.to_json();
  const std::size_t at = doc.find(from, doc.find(anchor));
  EXPECT_NE(at, std::string::npos) << anchor << " " << from;
  return at == std::string::npos ? doc : doc.replace(at, from.size(), to);
}

TEST(JsonWholeNumbers, ServeRequestRejectsBadIntegersNamingTheField) {
  struct Case {
    std::string doc;
    const char* field;
  };
  const std::string pair = "\"transitions\":[[";
  const Case cases[] = {
      {mutated_request(pair, pair, pair + "1e300,1],["), "'transition event'"},
      {mutated_request(pair, pair, pair + "0.9,1],["), "'transition event'"},
      {mutated_request("", "\"max_states\":123456", "\"max_states\":-1"),
       "'max_states'"},
      {mutated_request("", "\"max_refinements\":77",
                       "\"max_refinements\":2.5"),
       "'max_refinements'"},
      {mutated_request("\"events\":[", "\"lo\":", "\"lo\":1e300,\"x\":"),
       "'lo'"},
  };
  EXPECT_NO_THROW(serve::ServeRequest::parse(mutated_request("", "", "")));
  for (const Case& c : cases) {
    const std::string error =
        read_error([&] { serve::ServeRequest::parse(c.doc); });
    EXPECT_TRUE(mentions(error, c.field)) << c.field << ": " << error;
    EXPECT_TRUE(mentions(error, "must be a whole number")) << error;
  }
}

}  // namespace
