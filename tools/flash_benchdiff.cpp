// Compares two flash_bench_schema JSON files and fails on perf regressions.
//
//   flash_benchdiff baseline.json current.json [--tolerance 0.15]
//
// For every record name in the baseline, the current value must not exceed
// baseline * (1 + tolerance). Lower-is-better is assumed for every unit the
// benches emit (ns, mm2, W). A baseline record missing from the current run
// fails the gate too: deleting or renaming a benchmark must come with a
// re-recorded baseline, or its gate would vanish silently. Records only the
// current run has are reported as new and do not fail.
//
// Exit status: 0 clean, 1 on any regression or missing record, 2 on usage
// or parse errors.
//
// Dependency-free by design (like flash_lint): the parser handles exactly the
// schema bench_json.hpp writes — a flat "results" array of objects with
// string "name" and numeric "value" — plus arbitrary whitespace and field
// order, and rejects anything without "flash_bench_schema": 1.
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct BenchFile {
  std::string binary;
  std::map<std::string, double> values;
};

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  ok = true;
  return ss.str();
}

void skip_ws(const std::string& s, std::size_t& i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
}

/// Parses a JSON string literal at s[i] (must be '"'). Handles the escapes
/// bench_json emits; \uXXXX is passed through verbatim (names never need it).
bool parse_string(const std::string& s, std::size_t& i, std::string& out) {
  if (i >= s.size() || s[i] != '"') return false;
  ++i;
  out.clear();
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\' && i + 1 < s.size()) {
      ++i;
      out.push_back(s[i]);
    } else {
      out.push_back(s[i]);
    }
    ++i;
  }
  if (i >= s.size()) return false;
  ++i;  // closing quote
  return true;
}

bool parse_number(const std::string& s, std::size_t& i, double& out) {
  const char* start = s.c_str() + i;
  char* end = nullptr;
  out = std::strtod(start, &end);
  if (end == start) return false;
  i += static_cast<std::size_t>(end - start);
  return true;
}

/// Scans one {...} object, collecting "name" (string) and "value" (number).
/// Other fields are skipped by value type.
bool parse_record(const std::string& s, std::size_t& i, std::string& name, double& value,
                  bool& have_name, bool& have_value) {
  skip_ws(s, i);
  if (i >= s.size() || s[i] != '{') return false;
  ++i;
  have_name = have_value = false;
  while (true) {
    skip_ws(s, i);
    if (i < s.size() && s[i] == '}') {
      ++i;
      return true;
    }
    std::string key;
    if (!parse_string(s, i, key)) return false;
    skip_ws(s, i);
    if (i >= s.size() || s[i] != ':') return false;
    ++i;
    skip_ws(s, i);
    if (i >= s.size()) return false;
    if (s[i] == '"') {
      std::string sval;
      if (!parse_string(s, i, sval)) return false;
      if (key == "name") {
        name = sval;
        have_name = true;
      }
    } else {
      double nval = 0.0;
      if (!parse_number(s, i, nval)) return false;
      if (key == "value") {
        value = nval;
        have_value = true;
      }
    }
    skip_ws(s, i);
    if (i < s.size() && s[i] == ',') ++i;
  }
}

bool parse_bench_file(const std::string& path, BenchFile& out, std::string& err) {
  bool ok = false;
  const std::string text = read_file(path, ok);
  if (!ok) {
    err = "cannot read " + path;
    return false;
  }
  if (text.find("\"flash_bench_schema\"") == std::string::npos) {
    err = path + ": not a flash_bench_schema file";
    return false;
  }
  // Schema version check: the field must be 1.
  std::size_t v = text.find("\"flash_bench_schema\"");
  v = text.find(':', v);
  if (v == std::string::npos) {
    err = path + ": malformed schema field";
    return false;
  }
  ++v;
  double version = 0.0;
  skip_ws(text, v);
  if (!parse_number(text, v, version) || version != 1.0) {
    err = path + ": unsupported flash_bench_schema version";
    return false;
  }
  const std::size_t bin = text.find("\"binary\"");
  if (bin != std::string::npos) {
    std::size_t i = text.find(':', bin);
    if (i != std::string::npos) {
      ++i;
      skip_ws(text, i);
      parse_string(text, i, out.binary);
    }
  }
  std::size_t i = text.find("\"results\"");
  if (i == std::string::npos) {
    err = path + ": missing results array";
    return false;
  }
  i = text.find('[', i);
  if (i == std::string::npos) {
    err = path + ": malformed results array";
    return false;
  }
  ++i;
  while (true) {
    skip_ws(text, i);
    if (i >= text.size()) {
      err = path + ": unterminated results array";
      return false;
    }
    if (text[i] == ']') break;
    std::string name;
    double value = 0.0;
    bool have_name = false, have_value = false;
    if (!parse_record(text, i, name, value, have_name, have_value)) {
      err = path + ": malformed record";
      return false;
    }
    if (have_name && have_value) out.values[name] = value;
    skip_ws(text, i);
    if (i < text.size() && text[i] == ',') ++i;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double tolerance = 0.15;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--tolerance" && i + 1 < argc) {
      tolerance = std::atof(argv[++i]);
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      tolerance = std::atof(arg.c_str() + 12);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: flash_benchdiff baseline.json current.json [--tolerance 0.15]\n");
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::fprintf(stderr, "usage: flash_benchdiff baseline.json current.json [--tolerance 0.15]\n");
    return 2;
  }
  BenchFile base, cur;
  std::string err;
  if (!parse_bench_file(paths[0], base, err) || !parse_bench_file(paths[1], cur, err)) {
    std::fprintf(stderr, "flash_benchdiff: %s\n", err.c_str());
    return 2;
  }

  int regressions = 0;
  int missing = 0;
  int compared = 0;
  std::printf("%-44s %14s %14s %8s\n", "benchmark", "baseline", "current", "ratio");
  for (const auto& [name, base_v] : base.values) {
    auto it = cur.values.find(name);
    if (it == cur.values.end()) {
      std::printf("%-44s %14.1f %14s %8s  MISSING\n", name.c_str(), base_v, "(missing)", "-");
      ++missing;
      continue;
    }
    ++compared;
    const double cur_v = it->second;
    const double ratio = base_v > 0.0 ? cur_v / base_v : (cur_v > 0.0 ? 1e9 : 1.0);
    const bool regressed = ratio > 1.0 + tolerance;
    if (regressed) ++regressions;
    std::printf("%-44s %14.1f %14.1f %7.3fx%s\n", name.c_str(), base_v, cur_v, ratio,
                regressed ? "  REGRESSION" : "");
  }
  for (const auto& [name, cur_v] : cur.values) {
    if (!base.values.count(name)) {
      std::printf("%-44s %14s %14.1f %8s\n", name.c_str(), "(new)", cur_v, "-");
    }
  }
  std::printf("\n%d compared, %d regression(s), %d missing, tolerance %.0f%%\n", compared,
              regressions, missing, tolerance * 100.0);
  return regressions > 0 || missing > 0 ? 1 : 0;
}
