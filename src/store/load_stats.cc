#include "src/store/load_stats.h"

namespace scatter::store {

GroupLoadStats::GroupLoadStats(obs::MetricsRegistry* registry, NodeId node,
                               GroupId group)
    : ops_(registry->GetWindow("store.window.ops", node, group)),
      bytes_(registry->GetWindow("store.window.bytes", node, group)),
      latency_(registry->GetHistogram("store.op.latency_us", node, group)),
      ops_at_last_tick_(ops_.total()) {}

void GroupLoadStats::RecordOp(int64_t now_us, uint64_t bytes) {
  ops_.Record(now_us);
  bytes_.Record(now_us, bytes);
}

void GroupLoadStats::TickOpRate(int64_t now_us, int64_t first_interval_us) {
  const int64_t window_start =
      last_tick_us_ == 0 ? now_us - first_interval_us : last_tick_us_;
  const double window_s = static_cast<double>(now_us - window_start) /
                         static_cast<double>(Seconds(1));
  if (window_s > 0) {
    const double instant =
        static_cast<double>(ops_.total() - ops_at_last_tick_) / window_s;
    op_rate_ = 0.5 * op_rate_ + 0.5 * instant;
  }
  ops_at_last_tick_ = ops_.total();
  last_tick_us_ = now_us;
}

}  // namespace scatter::store
