#include "src/mc/decision.h"

#include <fstream>
#include <sstream>

#include "src/common/json.h"

namespace scatter::mc {

const char* ChoiceKindName(ChoiceKind kind) {
  switch (kind) {
    case ChoiceKind::kDeliver:
      return "deliver";
    case ChoiceKind::kAdvanceTime:
      return "advance_time";
    case ChoiceKind::kCrash:
      return "crash";
    case ChoiceKind::kSpawn:
      return "spawn";
    case ChoiceKind::kPartition:
      return "partition";
    case ChoiceKind::kHeal:
      return "heal";
    case ChoiceKind::kRestart:
      return "restart";
  }
  return "?";
}

namespace {

bool ChoiceKindFromName(const std::string& name, ChoiceKind* out) {
  for (ChoiceKind k :
       {ChoiceKind::kDeliver, ChoiceKind::kAdvanceTime, ChoiceKind::kCrash,
        ChoiceKind::kSpawn, ChoiceKind::kPartition, ChoiceKind::kHeal,
        ChoiceKind::kRestart}) {
    if (name == ChoiceKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

// Readers for the members FromJson understands; false on a wrong type.
bool Read(const JsonValue& v, uint64_t* out) { return v.AsUint64(out); }

bool Read(const JsonValue& v, std::string* out) {
  if (v.type != JsonValue::kString) return false;
  *out = v.text;
  return true;
}

bool Read(const JsonValue& v, McViolation* out) {
  if (v.type != JsonValue::kObject) return false;
  for (const auto& [key, m] : v.object) {
    if ((key == "source" && !Read(m, &out->source)) ||
        (key == "checker" && !Read(m, &out->checker)) ||
        (key == "detail" && !Read(m, &out->detail))) {
      return false;
    }
  }
  return true;
}

bool Read(const JsonValue& v, Choice* out) {
  if (v.type != JsonValue::kObject) return false;
  for (const auto& [key, m] : v.object) {
    std::string kind;
    if ((key == "kind" &&
         !(Read(m, &kind) && ChoiceKindFromName(kind, &out->kind))) ||
        (key == "arg" && !Read(m, &out->arg)) ||
        (key == "dest" && !Read(m, &out->dest))) {
      return false;
    }
  }
  return true;
}

bool Read(const JsonValue& v, std::vector<Choice>* out) {
  if (v.type != JsonValue::kArray) return false;
  for (const JsonValue& c : v.array) {
    if (!Read(c, &out->emplace_back())) return false;
  }
  return true;
}

bool Decode(const std::string& text, Counterexample* ce, std::string* why) {
  JsonValue root;
  if (!ParseJson(text, &root, why)) {
    return false;
  }
  if (root.type != JsonValue::kObject) {
    *why = "not a JSON object";
    return false;
  }
  // Unknown keys are skipped for forward compatibility.
  uint64_t version = 1;
  for (const auto& [key, v] : root.object) {
    if ((key == "version" && !Read(v, &version)) ||
        (key == "scenario" && !Read(v, &ce->scenario)) ||
        (key == "seed" && !Read(v, &ce->seed)) ||
        (key == "strategy" && !Read(v, &ce->strategy)) ||
        (key == "violation" && !Read(v, &ce->violation)) ||
        (key == "schedule" && !Read(v, &ce->schedule))) {
      *why = "malformed \"" + key + "\"";
      return false;
    }
  }
  if (version != 1) {
    *why = "unsupported counterexample version " + std::to_string(version);
    return false;
  }
  if (ce->scenario.empty()) {
    *why = "missing scenario";
    return false;
  }
  return true;
}

}  // namespace

std::string Choice::ToString() const {
  std::string s = ChoiceKindName(kind);
  if (kind == ChoiceKind::kDeliver) {
    s += "#" + std::to_string(arg);
    if (dest != kInvalidNode) {
      s += "->" + std::to_string(dest);
    }
  } else if (kind == ChoiceKind::kCrash || kind == ChoiceKind::kRestart) {
    s += "(" + std::to_string(arg) + ")";
  }
  return s;
}

bool Commutes(const Choice& a, const Choice& b) {
  return a.kind == ChoiceKind::kDeliver && b.kind == ChoiceKind::kDeliver &&
         a.dest != kInvalidNode && b.dest != kInvalidNode && a.dest != b.dest;
}

std::string Counterexample::ToJson() const {
  std::string out;
  out += "{\n  \"version\": " + std::to_string(version) + ",\n";
  out += "  \"scenario\": ";
  AppendJsonString(&out, scenario);
  out += ",\n  \"seed\": " + std::to_string(seed) + ",\n";
  out += "  \"strategy\": ";
  AppendJsonString(&out, strategy);
  out += ",\n  \"violation\": {\"source\": ";
  AppendJsonString(&out, violation.source);
  out += ", \"checker\": ";
  AppendJsonString(&out, violation.checker);
  out += ", \"detail\": ";
  AppendJsonString(&out, violation.detail);
  out += "},\n  \"schedule\": [\n";
  for (size_t i = 0; i < schedule.size(); ++i) {
    const Choice& c = schedule[i];
    out += "    {\"kind\": ";
    AppendJsonString(&out, ChoiceKindName(c.kind));
    out += ", \"arg\": " + std::to_string(c.arg);
    if (c.dest != kInvalidNode) {
      out += ", \"dest\": " + std::to_string(c.dest);
    }
    out += i + 1 < schedule.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool Counterexample::FromJson(const std::string& text, Counterexample* out,
                              std::string* error) {
  std::string why;
  Counterexample ce;
  if (!Decode(text, &ce, &why)) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  }
  *out = std::move(ce);
  return true;
}

bool Counterexample::WriteFile(const std::string& path,
                               std::string* error) const {
  // LINT-ALLOW(durability-io): counterexample JSON is a developer artifact
  // exchanged with mc_replay, not durable protocol state.
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  f << ToJson();
  return f.good();
}

bool Counterexample::ReadFile(const std::string& path, Counterexample* out,
                              std::string* error) {
  // LINT-ALLOW(durability-io): reads the developer-facing counterexample.
  std::ifstream f(path);
  if (!f) {
    if (error != nullptr) {
      *error = "cannot open " + path;
    }
    return false;
  }
  std::stringstream ss;
  ss << f.rdbuf();
  return FromJson(ss.str(), out, error);
}

}  // namespace scatter::mc
