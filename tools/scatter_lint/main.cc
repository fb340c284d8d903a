// scatter-lint CLI.
//
// Usage:
//   scatter_lint --root <repo-root> [--compdb <compile_commands.json>]
//                [--layers <layers.json>] [--format=human|json]
//   scatter_lint --list-rules
//
// Loads every translation unit named in the compilation database plus all
// headers under src/, tests/, bench/, tools/ and examples/, runs the rule
// engine, prints findings as `path:line: [rule] message`, and exits nonzero
// if any finding survived suppression. See DESIGN.md "Static analysis".

#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "tools/scatter_lint/lint.h"

namespace fs = std::filesystem;

namespace {

bool ReadFile(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::string RelativeTo(const fs::path& root, const fs::path& p) {
  std::error_code ec;
  const fs::path rel = fs::relative(p, root, ec);
  return ec ? p.generic_string() : rel.generic_string();
}

bool HasSuffix(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Machine-readable findings for CI and tooling: one record per surviving
// finding plus the per-rule summary, stable schema. The exit code is the
// same as the human format's.
void PrintJson(const scatter::lint::LintReport& report) {
  std::string out = "{\"schema\":\"scatter.lint.v1\",\"files_scanned\":" +
                    std::to_string(report.files_scanned) + ",\"findings\":[";
  bool first = true;
  for (const scatter::lint::Finding& f : report.findings) {
    if (!first) out += ",";
    first = false;
    out += "{\"file\":";
    scatter::AppendJsonString(&out, f.file);
    out += ",\"line\":" + std::to_string(f.line) + ",\"rule\":";
    scatter::AppendJsonString(&out, f.rule);
    out += ",\"message\":";
    scatter::AppendJsonString(&out, f.message);
    out += "}";
  }
  out += "],\"summary\":[";
  first = true;
  for (const scatter::lint::SummaryRow& row :
       scatter::lint::SummaryRows(report)) {
    if (!first) out += ",";
    first = false;
    out += "{\"rule\":";
    scatter::AppendJsonString(&out, row.rule);
    out += ",\"fired\":" + std::to_string(row.fired) +
           ",\"suppressed\":" + std::to_string(row.suppressed) + "}";
  }
  std::cout << out << "]}\n";
}

int Usage() {
  std::cerr
      << "usage: scatter_lint --root <repo-root> [--compdb <path>]\n"
         "                    [--layers <path>] [--format=human|json]\n"
         "       scatter_lint --list-rules\n\n"
         "Without --compdb, scans all *.cc/*.h under src/ tests/ bench/\n"
         "tools/ examples/ relative to --root. --layers defaults to\n"
         "<root>/scripts/layers.json.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root_arg;
  std::string compdb_arg;
  std::string layers_arg;
  std::string format = "human";
  bool list_rules = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--root") {
      const char* v = next();
      if (v == nullptr) return Usage();
      root_arg = v;
    } else if (arg == "--compdb") {
      const char* v = next();
      if (v == nullptr) return Usage();
      compdb_arg = v;
    } else if (arg == "--layers") {
      const char* v = next();
      if (v == nullptr) return Usage();
      layers_arg = v;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "human" && format != "json") {
        std::cerr << "scatter_lint: unknown format '" << format << "'\n";
        return Usage();
      }
    } else if (arg == "--format") {
      const char* v = next();
      if (v == nullptr) return Usage();
      format = v;
      if (format != "human" && format != "json") {
        std::cerr << "scatter_lint: unknown format '" << format << "'\n";
        return Usage();
      }
    } else {
      std::cerr << "scatter_lint: unknown argument '" << arg << "'\n";
      return Usage();
    }
  }

  if (list_rules) {
    for (const scatter::lint::RuleInfo& rule : scatter::lint::Rules()) {
      std::cout << rule.name << "\n    " << rule.description << "\n";
    }
    return 0;
  }
  if (root_arg.empty()) {
    return Usage();
  }

  const fs::path root = fs::absolute(root_arg);
  std::set<std::string> rel_paths;  // de-duped, repo-relative

  // Translation units from the compilation database, if given.
  if (!compdb_arg.empty()) {
    std::string compdb;
    if (!ReadFile(compdb_arg, &compdb)) {
      std::cerr << "scatter_lint: cannot read compdb " << compdb_arg << "\n";
      return 2;
    }
    // An array of objects; only each entry's "file" matters here.
    scatter::JsonValue entries;
    std::string error;
    if (!scatter::ParseJson(compdb, &entries, &error) ||
        entries.type != scatter::JsonValue::kArray) {
      std::cerr << "scatter_lint: cannot parse compdb " << compdb_arg << ": "
                << (error.empty() ? "not an array" : error) << "\n";
      return 2;
    }
    for (const scatter::JsonValue& entry : entries.array) {
      const scatter::JsonValue* file = entry.Find("file");
      if (file == nullptr || file->type != scatter::JsonValue::kString) {
        continue;
      }
      const fs::path p = fs::path(file->text).is_absolute()
                             ? fs::path(file->text)
                             : root / file->text;
      const std::string rel = RelativeTo(root, p);
      if (rel.rfind("..", 0) != 0) {  // inside the repo
        rel_paths.insert(rel);
      }
    }
  }

  // Headers always come from a tree walk (the compdb has no entries for
  // them), and without a compdb the walk supplies the sources too.
  for (const char* top : {"src", "tests", "bench", "tools", "examples"}) {
    const fs::path dir = root / top;
    if (!fs::exists(dir)) {
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) {
        continue;
      }
      const std::string rel = RelativeTo(root, entry.path());
      if (HasSuffix(rel, ".h") || (compdb_arg.empty() && HasSuffix(rel, ".cc"))) {
        rel_paths.insert(rel);
      }
    }
  }

  std::vector<scatter::lint::SourceFile> sources;
  for (const std::string& rel : rel_paths) {
    scatter::lint::SourceFile sf;
    sf.path = rel;
    if (!ReadFile(root / rel, &sf.content)) {
      std::cerr << "scatter_lint: cannot read " << rel << " (skipped)\n";
      continue;
    }
    sources.push_back(std::move(sf));
  }

  scatter::lint::LintOptions options;
  const fs::path layers_path =
      layers_arg.empty() ? root / "scripts" / "layers.json"
                         : fs::path(layers_arg);
  if (!ReadFile(layers_path, &options.layers_json)) {
    std::cerr << "scatter_lint: warning: no layers config at " << layers_path
              << " — layer-dag rule disabled\n";
  }

  const scatter::lint::LintReport report =
      scatter::lint::RunLint(sources, options);

  if (format == "json") {
    PrintJson(report);
    return report.findings.empty() ? 0 : 1;
  }

  for (const scatter::lint::Finding& f : report.findings) {
    std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }

  std::cout << "\nscatter-lint: scanned " << report.files_scanned
            << " files\n";
  for (const scatter::lint::SummaryRow& row :
       scatter::lint::SummaryRows(report)) {
    const int nf = row.fired - row.suppressed;
    std::cout << "  " << row.rule << ": " << nf << " finding"
              << (nf == 1 ? "" : "s") << ", " << row.suppressed
              << " suppressed\n";
  }

  if (!report.findings.empty()) {
    std::cout << "\nscatter-lint: " << report.findings.size()
              << " finding(s) — see above\n";
    return 1;
  }
  std::cout << "scatter-lint: clean\n";
  return 0;
}
