#include "rtv/lint/diagnostic.hpp"

#include <algorithm>
#include <stdexcept>

namespace rtv::lint {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "?";
}

Severity severity_from_string(const std::string& s) {
  if (s == "error") return Severity::kError;
  if (s == "warning") return Severity::kWarning;
  if (s == "note") return Severity::kNote;
  throw std::runtime_error("lint report JSON: unknown severity '" + s + "'");
}

std::string Diagnostic::format() const {
  std::string out = to_string(severity);
  out += ' ';
  out += code;
  if (!module.empty() || !object.empty()) {
    out += " [";
    out += module;
    if (!object.empty()) {
      if (!module.empty()) out += '/';
      out += object;
    }
    out += ']';
  }
  out += ": ";
  out += message;
  return out;
}

void append_diagnostic(std::string& out, const Diagnostic& d) {
  out += "{\"code\":";
  json::append_string(out, d.code);
  out += ",\"severity\":";
  json::append_string(out, to_string(d.severity));
  out += ",\"module\":";
  json::append_string(out, d.module);
  out += ",\"object\":";
  json::append_string(out, d.object);
  out += ",\"message\":";
  json::append_string(out, d.message);
  out += "}";
}

namespace {

constexpr std::string_view kJsonContext = "lint report JSON";

}  // namespace

using json::require;

Diagnostic diagnostic_from_json(const json::Value& v,
                                std::string_view context) {
  using Kind = json::Value::Kind;
  if (v.kind != Kind::kObject)
    throw std::runtime_error(std::string(context) +
                             ": diagnostic is not an object");
  Diagnostic d;
  d.code = require(v, "code", Kind::kString, "check code", context).string;
  d.severity = severity_from_string(
      require(v, "severity", Kind::kString, "severity", context).string);
  d.module = require(v, "module", Kind::kString, "module", context).string;
  d.object = require(v, "object", Kind::kString, "object", context).string;
  d.message = require(v, "message", Kind::kString, "message", context).string;
  return d;
}

std::size_t LintReport::count(Severity s) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics)
    if (d.severity == s) ++n;
  return n;
}

int LintReport::exit_code() const {
  if (has_errors()) return 2;
  if (warnings() > 0) return 1;
  return 0;
}

void LintReport::sort_by_severity() {
  std::stable_sort(diagnostics.begin(), diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return static_cast<int>(a.severity) <
                            static_cast<int>(b.severity);
                   });
}

std::string LintReport::format() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.format();
    out += '\n';
  }
  if (clean()) {
    out += "lint: clean\n";
    return out;
  }
  out += "lint: ";
  bool first = true;
  const auto add = [&](std::size_t n, const char* what) {
    if (n == 0) return;
    if (!first) out += ", ";
    first = false;
    out += std::to_string(n);
    out += ' ';
    out += what;
    if (n != 1) out += 's';
  };
  add(errors(), "error");
  add(warnings(), "warning");
  add(notes(), "note");
  out += '\n';
  return out;
}

std::string LintReport::to_json() const {
  std::string out = "{\"schema\":";
  json::append_string(out, kSchemaName);
  out += ",\"schema_version\":";
  json::append_int(out, kSchemaVersion);
  out += ",\"errors\":";
  json::append_uint(out, errors());
  out += ",\"warnings\":";
  json::append_uint(out, warnings());
  out += ",\"notes\":";
  json::append_uint(out, notes());
  out += ",\"diagnostics\":[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    if (i) out += ",";
    append_diagnostic(out, diagnostics[i]);
  }
  out += "]}";
  return out;
}

LintReport parse_lint_report(const std::string& json) {
  using Kind = json::Value::Kind;
  const json::Value root = json::parse(json, kJsonContext);
  json::check_schema(root, LintReport::kSchemaName,
                     LintReport::kSchemaVersion, kJsonContext);
  LintReport report;
  for (const json::Value& d :
       require(root, "diagnostics", Kind::kArray, "diagnostics", kJsonContext)
           .array)
    report.diagnostics.push_back(diagnostic_from_json(d, kJsonContext));
  return report;
}

}  // namespace rtv::lint
