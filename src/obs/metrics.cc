#include "src/obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <tuple>
#include <type_traits>

#include "src/common/json.h"

namespace scatter::obs {
namespace {

std::string CellPrefix(const std::string& name, NodeId node, GroupId group) {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                ",\"node\":%" PRIu64 ",\"group\":%" PRIu64,
                static_cast<uint64_t>(node), static_cast<uint64_t>(group));
  std::string out = "{\"name\":";
  AppendJsonString(&out, name);
  return out + buf;
}

// Range scan over one metric name: the index is ordered by
// (name, node, group), so all cells of a name are contiguous. Arena-backed
// maps store Cell*, histogram/window maps store the cell inline.
template <typename Map, typename Fn>
void VisitName(const Map& map, const std::string& name, const Fn& fn) {
  using K = typename Map::key_type;
  for (auto it = map.lower_bound(K(name, 0, 0));
       it != map.end() && std::get<0>(it->first) == name; ++it) {
    if constexpr (std::is_pointer_v<typename Map::mapped_type>) {
      fn(std::get<1>(it->first), std::get<2>(it->first), *it->second);
    } else {
      fn(std::get<1>(it->first), std::get<2>(it->first), it->second);
    }
  }
}

}  // namespace

Counter& MetricsRegistry::GetCounter(const std::string& name, NodeId node,
                                     GroupId group) {
  auto [it, inserted] = counters_.try_emplace(Key(name, node, group), nullptr);
  if (inserted) it->second = &counter_arena_.emplace_back();
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, NodeId node,
                                 GroupId group) {
  auto [it, inserted] = gauges_.try_emplace(Key(name, node, group), nullptr);
  if (inserted) it->second = &gauge_arena_.emplace_back();
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name, NodeId node,
                                         GroupId group) {
  return histograms_[Key(name, node, group)];
}

SlidingWindow& MetricsRegistry::GetWindow(const std::string& name, NodeId node,
                                          GroupId group,
                                          const SlidingWindow::Params& params) {
  auto it = windows_.find(Key(name, node, group));
  if (it == windows_.end()) {
    it = windows_.emplace(Key(name, node, group), SlidingWindow(params)).first;
  }
  return it->second;
}

void MetricsRegistry::ForEachCounter(
    const std::string& name,
    const std::function<void(NodeId, GroupId, const Counter&)>& fn) const {
  VisitName(counters_, name, fn);
}

void MetricsRegistry::ForEachGauge(
    const std::string& name,
    const std::function<void(NodeId, GroupId, const Gauge&)>& fn) const {
  VisitName(gauges_, name, fn);
}

void MetricsRegistry::ForEachWindow(
    const std::string& name,
    const std::function<void(NodeId, GroupId, const SlidingWindow&)>& fn)
    const {
  VisitName(windows_, name, fn);
}

void MetricsRegistry::ForEachHistogram(
    const std::string& name,
    const std::function<void(NodeId, GroupId, const Histogram&)>& fn) const {
  VisitName(histograms_, name, fn);
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            NodeId node, GroupId group) const {
  auto it = counters_.find(Key(name, node, group));
  return it == counters_.end() ? nullptr : it->second;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name, NodeId node,
                                        GroupId group) const {
  auto it = gauges_.find(Key(name, node, group));
  return it == gauges_.end() ? nullptr : it->second;
}

const SlidingWindow* MetricsRegistry::FindWindow(const std::string& name,
                                                 NodeId node,
                                                 GroupId group) const {
  auto it = windows_.find(Key(name, node, group));
  return it == windows_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name,
                                                NodeId node,
                                                GroupId group) const {
  auto it = histograms_.find(Key(name, node, group));
  return it == histograms_.end() ? nullptr : &it->second;
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"schema\":\"scatter.metrics.v1\",\"counters\":[";
  bool first = true;
  for (const auto& [key, counter] : counters_) {
    if (!first) out += ",";
    first = false;
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"value\":%" PRIu64 "}", counter->value);
    out += CellPrefix(std::get<0>(key), std::get<1>(key), std::get<2>(key));
    out += buf;
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& [key, gauge] : gauges_) {
    if (!first) out += ",";
    first = false;
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"value\":%" PRId64 "}", gauge->value);
    out += CellPrefix(std::get<0>(key), std::get<1>(key), std::get<2>(key));
    out += buf;
  }
  out += "],\"windows\":[";
  first = true;
  for (const auto& [key, window] : windows_) {
    if (!first) out += ",";
    first = false;
    out += CellPrefix(std::get<0>(key), std::get<1>(key), std::get<2>(key));
    out += ",\"window\":" + window.ToJson() + "}";
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& [key, hist] : histograms_) {
    if (!first) out += ",";
    first = false;
    out += CellPrefix(std::get<0>(key), std::get<1>(key), std::get<2>(key));
    out += ",\"hist\":" + hist.ToJson() + "}";
  }
  out += "]}";
  return out;
}

}  // namespace scatter::obs
