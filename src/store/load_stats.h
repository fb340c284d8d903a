// Per-group load accounting: the one load signal of a hosted group replica.
//
// One GroupLoadStats per hosted group replica. It counts accepted client ops
// and their bytes in rate windows, records completion latency, and derives
// from the ops window the smoothed op rate the repartition policy compares
// against its successor's. All cells live in the node's metrics registry, so
// they merge cluster-wide and export with everything else:
//   store.window.ops / store.window.bytes
//   store.op.latency_us                 (histogram, completion-recorded)

#ifndef SCATTER_SRC_STORE_LOAD_STATS_H_
#define SCATTER_SRC_STORE_LOAD_STATS_H_

#include <cstdint>

#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"

namespace scatter::store {

class GroupLoadStats {
 public:
  // Registry cells outlive a GroupLoadStats (a restarted node re-gets the
  // same (node, group) cells), so the op rate counts only ops recorded from
  // construction on.
  GroupLoadStats(obs::MetricsRegistry* registry, NodeId node, GroupId group);

  // Accounts one accepted client op at simulated time `now_us`.
  void RecordOp(int64_t now_us, uint64_t bytes);

  // Completion-side latency (accept-to-apply, microseconds).
  void RecordLatency(int64_t latency_us) { latency_.Record(latency_us); }

  // Folds the ops recorded since the previous tick into the smoothed rate:
  // op_rate = 0.5 * op_rate + 0.5 * ops / elapsed seconds. The first tick
  // measures over `first_interval_us`.
  void TickOpRate(int64_t now_us, int64_t first_interval_us);

  // Smoothed accepted ops per second as of the last tick.
  double op_rate() const { return op_rate_; }

 private:
  obs::SlidingWindow& ops_;
  obs::SlidingWindow& bytes_;
  Histogram& latency_;
  uint64_t ops_at_last_tick_;
  int64_t last_tick_us_ = 0;  // 0: not ticked yet
  double op_rate_ = 0.0;
};

}  // namespace scatter::store

#endif  // SCATTER_SRC_STORE_LOAD_STATS_H_
