#include "src/obs/timeline.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace scatter::obs {
namespace {

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// %.17g keeps double round-trips exact: strtod(print(x)) == x, and printing
// the same double always yields the same bytes, which is what makes
// Parse + Serialize byte-stable.
void AppendDouble(std::string* out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", key, v);
  *out += buf;
}

void AppendI64(std::string* out, const char* key, int64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%lld", key,
                static_cast<long long>(v));
  *out += buf;
}

void AppendHealth(std::string* out, const std::vector<std::string>& health) {
  *out += "\"health\":[";
  for (size_t i = 0; i < health.size(); ++i) {
    if (i) *out += ",";
    *out += "\"" + EscapeJson(health[i]) + "\"";
  }
  *out += "]";
}

// --- Minimal strict JSON reader -------------------------------------------
//
// The obs layer depends only on common, so the timeline decoder (needed by
// scatter-top's file mode and the round-trip tests) is a small
// recursive-descent parser over a generic value tree rather than a library
// dependency. It accepts exactly the JSON this repo's exporters emit (no
// comments, no trailing commas) and rejects everything else.

struct JValue {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JValue> array;
  std::vector<std::pair<std::string, JValue>> object;

  const JValue* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool ParseDocument(JValue* out) {
    SkipWs();
    if (!ParseValue(out, 0)) return false;
    SkipWs();
    return p_ == end_;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipWs() {
    while (p_ != end_ &&
           (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r')) {
      ++p_;
    }
  }

  bool Literal(const char* lit) {
    const char* q = p_;
    for (; *lit != '\0'; ++lit, ++q) {
      if (q == end_ || *q != *lit) return false;
    }
    p_ = q;
    return true;
  }

  bool ParseString(std::string* out) {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    out->clear();
    while (p_ != end_ && *p_ != '"') {
      char c = *p_++;
      if (c == '\\') {
        if (p_ == end_) return false;
        char esc = *p_++;
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            if (end_ - p_ < 4) return false;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = *p_++;
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            // Exporters only escape control chars; decode BMP code points
            // to UTF-8 without surrogate handling.
            if (code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out->push_back(static_cast<char>(0xC0 | (code >> 6)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out->push_back(static_cast<char>(0xE0 | (code >> 12)));
              out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }

  bool ParseValue(JValue* out, int depth) {
    if (depth > kMaxDepth || p_ == end_) return false;
    switch (*p_) {
      case '{': {
        ++p_;
        out->type = JValue::kObject;
        SkipWs();
        if (p_ != end_ && *p_ == '}') {
          ++p_;
          return true;
        }
        while (true) {
          SkipWs();
          std::string key;
          if (!ParseString(&key)) return false;
          SkipWs();
          if (p_ == end_ || *p_ != ':') return false;
          ++p_;
          SkipWs();
          JValue value;
          if (!ParseValue(&value, depth + 1)) return false;
          out->object.emplace_back(std::move(key), std::move(value));
          SkipWs();
          if (p_ == end_) return false;
          if (*p_ == ',') {
            ++p_;
            continue;
          }
          if (*p_ == '}') {
            ++p_;
            return true;
          }
          return false;
        }
      }
      case '[': {
        ++p_;
        out->type = JValue::kArray;
        SkipWs();
        if (p_ != end_ && *p_ == ']') {
          ++p_;
          return true;
        }
        while (true) {
          SkipWs();
          JValue value;
          if (!ParseValue(&value, depth + 1)) return false;
          out->array.push_back(std::move(value));
          SkipWs();
          if (p_ == end_) return false;
          if (*p_ == ',') {
            ++p_;
            continue;
          }
          if (*p_ == ']') {
            ++p_;
            return true;
          }
          return false;
        }
      }
      case '"':
        out->type = JValue::kString;
        return ParseString(&out->string);
      case 't':
        out->type = JValue::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = JValue::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->type = JValue::kNull;
        return Literal("null");
      default: {
        // Number: delegate validation to strtod over the maximal plausible
        // span (strict JSON number grammar minus leading-plus, which strtod
        // would accept — reject it explicitly).
        if (*p_ == '+') return false;
        char* num_end = nullptr;
        const double v = std::strtod(p_, &num_end);
        if (num_end == p_ || num_end > end_) return false;
        out->type = JValue::kNumber;
        out->number = v;
        p_ = num_end;
        return true;
      }
    }
  }

  const char* p_;
  const char* end_;
};

bool ReadHealth(const JValue& row, std::vector<std::string>* out) {
  const JValue* health = row.Find("health");
  if (health == nullptr || health->type != JValue::kArray) return false;
  for (const JValue& h : health->array) {
    if (h.type != JValue::kString) return false;
    out->push_back(h.string);
  }
  return true;
}

bool ReadNumber(const JValue& row, const char* key, double* out) {
  const JValue* v = row.Find(key);
  if (v == nullptr || v->type != JValue::kNumber) return false;
  *out = v->number;
  return true;
}

bool ReadI64(const JValue& row, const char* key, int64_t* out) {
  double d = 0;
  if (!ReadNumber(row, key, &d)) return false;
  *out = static_cast<int64_t>(d);
  return true;
}

}  // namespace

TimelineRecorder::TimelineRecorder(const TimelineConfig& config,
                                   MetricsRegistry* registry,
                                   HealthMonitor* monitor)
    : monitor_(monitor), registry_(registry), config_(config) {
  assert(registry_ != nullptr);
  assert(config_.period_us > 0);
  assert(config_.max_snapshots > 0);
}

void TimelineRecorder::Capture(int64_t now_us, TraceRecorder* tracer) {
  if (now_us <= last_capture_us_) return;  // idempotent per timestamp
  if (monitor_ != nullptr) {
    monitor_->Tick(now_us, tracer);  // idempotent; order-independent
  }
  const int64_t dt_us =
      last_capture_us_ < 0 ? std::max<int64_t>(now_us, 1)
                           : now_us - last_capture_us_;
  last_capture_us_ = now_us;

  Snapshot snap;
  snap.ts_us = now_us;

  // Group rows: the union of (group, node) cells carrying store or paxos
  // rate windows, ordered (group, node).
  std::map<std::pair<GroupId, NodeId>, GroupRow> groups;
  auto group_row = [&](NodeId node, GroupId group) -> GroupRow& {
    GroupRow& row = groups[{group, node}];
    row.group = group;
    row.node = node;
    return row;
  };
  registry_->ForEachWindow(
      "store.window.ops",
      [&](NodeId node, GroupId group, const SlidingWindow& w) {
        group_row(node, group).ops_per_sec = w.RatePerSec(now_us);
      });
  registry_->ForEachWindow(
      "store.window.bytes",
      [&](NodeId node, GroupId group, const SlidingWindow& w) {
        group_row(node, group).bytes_per_sec = w.RatePerSec(now_us);
      });
  registry_->ForEachWindow(
      "paxos.window.commits",
      [&](NodeId node, GroupId group, const SlidingWindow& w) {
        group_row(node, group).commits_per_sec = w.RatePerSec(now_us);
      });
  registry_->ForEachHistogram(
      "store.op.latency_us",
      [&](NodeId node, GroupId group, const Histogram& hist) {
        Histogram& prev = prev_latency_[{node, group}];
        const Histogram delta = hist.DeltaSince(prev);
        prev = hist;
        if (delta.count() == 0) return;
        GroupRow& row = group_row(node, group);
        row.p50_us = delta.Percentile(50);
        row.p99_us = delta.Percentile(99);
      });
  for (auto& [key, row] : groups) {
    if (monitor_ != nullptr) row.health = monitor_->ActiveFor(row.node, row.group);
    snap.groups.push_back(std::move(row));
  }

  // Node rows: transport-level counters, per interval.
  auto delta_of = [&](const std::string& name, NodeId node,
                      uint64_t current) -> double {
    uint64_t& prev = prev_counters_[CellKey(name, node, 0)];
    const uint64_t delta = current >= prev ? current - prev : 0;
    prev = current;
    return static_cast<double>(delta) * 1e6 / static_cast<double>(dt_us);
  };
  std::map<NodeId, NodeRow> nodes;
  auto node_row = [&](NodeId node) -> NodeRow& {
    NodeRow& row = nodes[node];
    row.node = node;
    return row;
  };
  registry_->ForEachCounter(
      "wire.frames_serialized", [&](NodeId node, GroupId, const Counter& c) {
        node_row(node).frames_per_sec =
            delta_of("wire.frames_serialized", node, c.value);
      });
  registry_->ForEachCounter(
      "wire.bytes_serialized", [&](NodeId node, GroupId, const Counter& c) {
        node_row(node).wire_bytes_per_sec =
            delta_of("wire.bytes_serialized", node, c.value);
      });
  for (auto& [node, row] : nodes) {
    if (monitor_ != nullptr) row.health = monitor_->ActiveFor(node, 0);
    snap.nodes.push_back(std::move(row));
  }

  if (snapshots_.size() >= config_.max_snapshots) {
    snapshots_.erase(snapshots_.begin());
  }
  snapshots_.push_back(std::move(snap));
}

std::string TimelineRecorder::Serialize(
    int64_t period_us, const std::vector<Snapshot>& snapshots) {
  std::string out = "{\"schema\":\"scatter.timeline.v1\",";
  AppendI64(&out, "period_us", period_us);
  out += ",\"snapshots\":[";
  bool first_snap = true;
  for (const Snapshot& snap : snapshots) {
    if (!first_snap) out += ",";
    first_snap = false;
    out += "{";
    AppendI64(&out, "ts_us", snap.ts_us);
    out += ",\"groups\":[";
    bool first = true;
    for (const GroupRow& row : snap.groups) {
      if (!first) out += ",";
      first = false;
      out += "{";
      AppendI64(&out, "group", static_cast<int64_t>(row.group));
      out += ",";
      AppendI64(&out, "node", static_cast<int64_t>(row.node));
      out += ",";
      AppendDouble(&out, "ops_per_sec", row.ops_per_sec);
      out += ",";
      AppendDouble(&out, "bytes_per_sec", row.bytes_per_sec);
      out += ",";
      AppendDouble(&out, "commits_per_sec", row.commits_per_sec);
      out += ",";
      AppendI64(&out, "p50_us", row.p50_us);
      out += ",";
      AppendI64(&out, "p99_us", row.p99_us);
      out += ",";
      AppendHealth(&out, row.health);
      out += "}";
    }
    out += "],\"nodes\":[";
    first = true;
    for (const NodeRow& row : snap.nodes) {
      if (!first) out += ",";
      first = false;
      out += "{";
      AppendI64(&out, "node", static_cast<int64_t>(row.node));
      out += ",";
      AppendDouble(&out, "frames_per_sec", row.frames_per_sec);
      out += ",";
      AppendDouble(&out, "wire_bytes_per_sec", row.wire_bytes_per_sec);
      out += ",";
      AppendHealth(&out, row.health);
      out += "}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string TimelineRecorder::ToJson() const {
  return Serialize(config_.period_us, snapshots_);
}

bool TimelineRecorder::Parse(const std::string& json, Parsed* out) {
  JValue root;
  if (!JsonParser(json).ParseDocument(&root) || root.type != JValue::kObject) {
    return false;
  }
  const JValue* schema = root.Find("schema");
  if (schema == nullptr || schema->type != JValue::kString ||
      schema->string != "scatter.timeline.v1") {
    return false;
  }
  if (!ReadI64(root, "period_us", &out->period_us) || out->period_us <= 0) {
    return false;
  }
  const JValue* snapshots = root.Find("snapshots");
  if (snapshots == nullptr || snapshots->type != JValue::kArray) return false;
  out->snapshots.clear();
  for (const JValue& jsnap : snapshots->array) {
    if (jsnap.type != JValue::kObject) return false;
    Snapshot snap;
    if (!ReadI64(jsnap, "ts_us", &snap.ts_us)) return false;
    const JValue* groups = jsnap.Find("groups");
    const JValue* nodes = jsnap.Find("nodes");
    if (groups == nullptr || groups->type != JValue::kArray ||
        nodes == nullptr || nodes->type != JValue::kArray) {
      return false;
    }
    for (const JValue& jrow : groups->array) {
      if (jrow.type != JValue::kObject) return false;
      GroupRow row;
      int64_t group = 0, node = 0;
      if (!ReadI64(jrow, "group", &group) || !ReadI64(jrow, "node", &node) ||
          !ReadNumber(jrow, "ops_per_sec", &row.ops_per_sec) ||
          !ReadNumber(jrow, "bytes_per_sec", &row.bytes_per_sec) ||
          !ReadNumber(jrow, "commits_per_sec", &row.commits_per_sec) ||
          !ReadI64(jrow, "p50_us", &row.p50_us) ||
          !ReadI64(jrow, "p99_us", &row.p99_us) ||
          !ReadHealth(jrow, &row.health)) {
        return false;
      }
      row.group = static_cast<GroupId>(group);
      row.node = static_cast<NodeId>(node);
      snap.groups.push_back(std::move(row));
    }
    for (const JValue& jrow : nodes->array) {
      if (jrow.type != JValue::kObject) return false;
      NodeRow row;
      int64_t node = 0;
      if (!ReadI64(jrow, "node", &node) ||
          !ReadNumber(jrow, "frames_per_sec", &row.frames_per_sec) ||
          !ReadNumber(jrow, "wire_bytes_per_sec", &row.wire_bytes_per_sec) ||
          !ReadHealth(jrow, &row.health)) {
        return false;
      }
      row.node = static_cast<NodeId>(node);
      snap.nodes.push_back(std::move(row));
    }
    out->snapshots.push_back(std::move(snap));
  }
  return true;
}

}  // namespace scatter::obs
