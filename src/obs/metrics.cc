#include "src/obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <tuple>
#include <type_traits>
#include <vector>

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

}  // namespace

Counter& MetricsRegistry::GetCounterLocked(const std::string& name,
                                           NodeId node, GroupId group)
    SCATTER_REQUIRES(mu_) {
  auto [it, inserted] =
      counters_locked_.try_emplace(Key(name, node, group), nullptr);
  if (inserted) it->second = &counter_arena_locked_.emplace_back();
  return *it->second;
}

Counter& MetricsRegistry::GetCounter(const std::string& name, NodeId node,
                                     GroupId group) {
  MutexLock lock(&mu_);
  return GetCounterLocked(name, node, group);
}

Gauge& MetricsRegistry::GetGaugeLocked(const std::string& name, NodeId node,
                                       GroupId group) SCATTER_REQUIRES(mu_) {
  auto [it, inserted] =
      gauges_locked_.try_emplace(Key(name, node, group), nullptr);
  if (inserted) it->second = &gauge_arena_locked_.emplace_back();
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name, NodeId node,
                                 GroupId group) {
  MutexLock lock(&mu_);
  return GetGaugeLocked(name, node, group);
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name, NodeId node,
                                         GroupId group) {
  MutexLock lock(&mu_);
  return histograms_locked_[Key(name, node, group)];
}

SlidingWindow& MetricsRegistry::GetWindowLocked(
    const std::string& name, NodeId node, GroupId group,
    const SlidingWindow::Params& params) SCATTER_REQUIRES(mu_) {
  auto it = windows_locked_.find(Key(name, node, group));
  if (it == windows_locked_.end()) {
    it = windows_locked_.emplace(Key(name, node, group), SlidingWindow(params))
             .first;
  }
  return it->second;
}

SlidingWindow& MetricsRegistry::GetWindow(const std::string& name, NodeId node,
                                          GroupId group,
                                          const SlidingWindow::Params& params) {
  MutexLock lock(&mu_);
  return GetWindowLocked(name, node, group, params);
}

namespace {

// Range scan over one metric name: the index is ordered by
// (name, node, group), so all cells of a name are contiguous. Collects
// stable cell addresses instead of invoking callbacks in place, so ForEach*
// can drop the registry lock before user code runs — the health monitor and
// timeline re-enter the registry (Find*/Get*) from inside their visitors.
// Arena-backed maps store Cell*, histogram/window maps store the cell
// inline; both cell kinds have stable addresses.
template <typename Map, typename Cell>
std::vector<std::tuple<NodeId, GroupId, const Cell*>> CollectName(
    const Map& map, const std::string& name) {
  using K = typename Map::key_type;
  std::vector<std::tuple<NodeId, GroupId, const Cell*>> out;
  for (auto it = map.lower_bound(K(name, 0, 0));
       it != map.end() && std::get<0>(it->first) == name; ++it) {
    const Cell* cell;
    if constexpr (std::is_pointer_v<typename Map::mapped_type>) {
      cell = it->second;
    } else {
      cell = &it->second;
    }
    out.emplace_back(std::get<1>(it->first), std::get<2>(it->first), cell);
  }
  return out;
}

}  // namespace

void MetricsRegistry::ForEachCounter(
    const std::string& name,
    const std::function<void(NodeId, GroupId, const Counter&)>& fn) const {
  std::vector<std::tuple<NodeId, GroupId, const Counter*>> cells;
  {
    MutexLock lock(&mu_);
    cells = CollectName<decltype(counters_locked_), Counter>(counters_locked_,
                                                             name);
  }
  for (const auto& [node, group, cell] : cells) {
    fn(node, group, *cell);
  }
}

void MetricsRegistry::ForEachGauge(
    const std::string& name,
    const std::function<void(NodeId, GroupId, const Gauge&)>& fn) const {
  std::vector<std::tuple<NodeId, GroupId, const Gauge*>> cells;
  {
    MutexLock lock(&mu_);
    cells = CollectName<decltype(gauges_locked_), Gauge>(gauges_locked_, name);
  }
  for (const auto& [node, group, cell] : cells) {
    fn(node, group, *cell);
  }
}

void MetricsRegistry::ForEachWindow(
    const std::string& name,
    const std::function<void(NodeId, GroupId, const SlidingWindow&)>& fn)
    const {
  std::vector<std::tuple<NodeId, GroupId, const SlidingWindow*>> cells;
  {
    MutexLock lock(&mu_);
    cells = CollectName<decltype(windows_locked_), SlidingWindow>(
        windows_locked_, name);
  }
  for (const auto& [node, group, cell] : cells) {
    fn(node, group, *cell);
  }
}

void MetricsRegistry::ForEachHistogram(
    const std::string& name,
    const std::function<void(NodeId, GroupId, const Histogram&)>& fn) const {
  std::vector<std::tuple<NodeId, GroupId, const Histogram*>> cells;
  {
    MutexLock lock(&mu_);
    cells = CollectName<decltype(histograms_locked_), Histogram>(
        histograms_locked_, name);
  }
  for (const auto& [node, group, cell] : cells) {
    fn(node, group, *cell);
  }
}

const Counter* MetricsRegistry::FindCounter(const std::string& name,
                                            NodeId node, GroupId group) const {
  MutexLock lock(&mu_);
  auto it = counters_locked_.find(Key(name, node, group));
  return it == counters_locked_.end() ? nullptr : it->second;
}

const Gauge* MetricsRegistry::FindGauge(const std::string& name, NodeId node,
                                        GroupId group) const {
  MutexLock lock(&mu_);
  auto it = gauges_locked_.find(Key(name, node, group));
  return it == gauges_locked_.end() ? nullptr : it->second;
}

const SlidingWindow* MetricsRegistry::FindWindow(const std::string& name,
                                                 NodeId node,
                                                 GroupId group) const {
  MutexLock lock(&mu_);
  auto it = windows_locked_.find(Key(name, node, group));
  return it == windows_locked_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::FindHistogram(const std::string& name,
                                                NodeId node,
                                                GroupId group) const {
  MutexLock lock(&mu_);
  auto it = histograms_locked_.find(Key(name, node, group));
  return it == histograms_locked_.end() ? nullptr : &it->second;
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  // Lock order: destination, then source. The source is const and the
  // contract requires it quiescent, but its maps still need the lock for
  // the analysis (and for concurrent merges OUT of a registry being merged
  // INTO elsewhere). Cross-merging two registries into each other
  // concurrently is outside the contract.
  MutexLock lock(&mu_);
  MutexLock source_lock(&other.mu_);
  for (const auto& [key, counter] : other.counters_locked_) {
    GetCounterLocked(std::get<0>(key), std::get<1>(key), std::get<2>(key))
        .value += counter->value;
  }
  for (const auto& [key, gauge] : other.gauges_locked_) {
    GetGaugeLocked(std::get<0>(key), std::get<1>(key), std::get<2>(key))
        .value += gauge->value;
  }
  for (const auto& [key, hist] : other.histograms_locked_) {
    histograms_locked_[key].Merge(hist);
  }
  for (const auto& [key, window] : other.windows_locked_) {
    GetWindowLocked(std::get<0>(key), std::get<1>(key), std::get<2>(key),
                    window.params())
        .Merge(window);
  }
}

std::string MetricsRegistry::ToJson() const {
  MutexLock lock(&mu_);
  std::string out = "{\"schema\":\"scatter.metrics.v1\",\"counters\":[";
  bool first = true;
  for (const auto& [key, counter] : counters_locked_) {
    if (!first) out += ",";
    first = false;
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"value\":%" PRIu64 "}", counter->value);
    out += CellPrefix(std::get<0>(key), std::get<1>(key), std::get<2>(key));
    out += buf;
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& [key, gauge] : gauges_locked_) {
    if (!first) out += ",";
    first = false;
    char buf[48];
    std::snprintf(buf, sizeof(buf), ",\"value\":%" PRId64 "}", gauge->value);
    out += CellPrefix(std::get<0>(key), std::get<1>(key), std::get<2>(key));
    out += buf;
  }
  out += "],\"windows\":[";
  first = true;
  for (const auto& [key, window] : windows_locked_) {
    if (!first) out += ",";
    first = false;
    out += CellPrefix(std::get<0>(key), std::get<1>(key), std::get<2>(key));
    out += ",\"window\":" + window.ToJson() + "}";
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& [key, hist] : histograms_locked_) {
    if (!first) out += ",";
    first = false;
    out += CellPrefix(std::get<0>(key), std::get<1>(key), std::get<2>(key));
    out += ",\"hist\":" + hist.ToJson() + "}";
  }
  out += "]}";
  return out;
}

}  // namespace scatter::obs
