// Deterministic discrete-event simulator.
//
// The simulator owns virtual time and an event queue ordered by
// (fire time, insertion sequence). All protocol code runs inside event
// callbacks; wall-clock time never appears anywhere in the system. A run is
// bit-for-bit reproducible from the Simulator seed.
//
// Event storage is slot/generation based: callbacks live in a flat slot
// vector recycled through a free list, and a TimerId encodes
// (slot, generation) so finding an event is an O(1) array probe — no hash
// map rendezvous or node allocation per event. The queue is an indexed
// 4-ary min-heap of (fire time, seq, slot) that holds only pending events:
// each slot records its heap position, so Cancel removes the entry in
// O(log n) instead of leaving a stale one behind. (fire time, seq) is a
// strict total order, so the firing order never depends on the heap's shape.
// Callbacks are move-only EventFns with inline storage, so the steady-state
// schedule/fire cycle performs no heap allocation at all.

#ifndef SCATTER_SRC_SIM_SIMULATOR_H_
#define SCATTER_SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/sim/event_fn.h"

namespace scatter::obs {
class MetricsRegistry;
class TraceRecorder;
class HealthMonitor;
class TimelineRecorder;
struct HealthConfig;
struct TimelineConfig;
}  // namespace scatter::obs

namespace scatter::sim {

// Encodes (slot index + 1) in the low 32 bits and the slot's generation in
// the high 32 bits. 0 is never a valid id.
using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class Simulator {
 public:
  explicit Simulator(uint64_t seed);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time.
  TimeMicros now() const { return now_; }

  // The single root source of randomness for the run. Components that need
  // independent streams should Fork() children at setup time.
  Rng& rng() { return rng_; }

  // Schedules fn to run at now() + delay (delay >= 0). Returns an id that
  // can cancel the event before it fires.
  TimerId Schedule(TimeMicros delay, EventFn fn);

  // Schedules fn at an absolute virtual time (>= now()).
  TimerId ScheduleAt(TimeMicros when, EventFn fn);

  // Cancels a pending event and removes it from the queue. Harmless if the
  // event already fired or was cancelled (ids are never reused: a recycled
  // slot carries a fresh generation).
  void Cancel(TimerId id);

  // Runs the earliest pending event. Returns false when the queue is empty.
  bool Step();

  // Runs events until the queue drains.
  void Run();

  // Runs events with fire time <= t, then advances the clock to exactly t.
  void RunUntil(TimeMicros t);

  // RunUntil(now() + d).
  void RunFor(TimeMicros d) { RunUntil(now_ + d); }

  uint64_t events_processed() const { return events_processed_; }
  size_t pending_events() const { return heap_.size(); }
  uint64_t seed() const { return seed_; }

  // --- Continuous auditing -------------------------------------------------
  // Installs `hook` to run after every `every_n_events` processed events,
  // between event callbacks (never reentrantly inside one). At most one hook
  // may be installed; the invariant auditor uses this to check protocol
  // invariants continuously instead of only at quiescence.
  using AuditHook = std::function<void()>;
  void SetAuditHook(uint64_t every_n_events, AuditHook hook);
  void ClearAuditHook();

  // --- Event tracing -------------------------------------------------------
  // A bounded ring of annotated events. Components (e.g. the network) label
  // interesting occurrences via Trace(); when an invariant trips, the last
  // `capacity` annotations are dumped as a replay aid — together with the
  // seed they pin down the exact deterministic run. Capacity 0 (default)
  // disables tracing entirely, keeping the hot loop annotation-free.
  struct TraceEntry {
    TimeMicros at = 0;
    uint64_t seq = 0;  // insertion sequence of the event being annotated
    std::string label;
  };
  void SetTraceCapacity(size_t capacity);
  bool trace_enabled() const { return trace_capacity_ > 0; }
  // Annotates the currently-firing event. No-op while tracing is disabled.
  void Trace(std::string label);
  std::vector<TraceEntry> TraceSnapshot() const {
    return {trace_.begin(), trace_.end()};
  }

  // --- Observability -------------------------------------------------------
  // Per-simulation metrics registry, created lazily on first use. Components
  // reach it through their simulator pointer, so no constructor signature
  // changes anywhere.
  obs::MetricsRegistry& metrics();

  // Causal tracer. nullptr (the default) means tracing is off and every
  // instrumentation site reduces to this null check.
  obs::TraceRecorder* tracer() const { return tracer_.get(); }

  // Creates the trace recorder, clocked by this simulator's virtual time,
  // and installs the log sink that turns kTrace log lines into instant
  // events. Idempotent.
  obs::TraceRecorder& EnableTracing();

  // Destroys the recorder (and its spans) and uninstalls the log sink.
  void DisableTracing();

  // --- Periodic tasks ------------------------------------------------------
  // Fixed-period virtual-time hooks that fire BETWEEN event callbacks, not
  // through the event queue: Run() still drains to quiescence, mc event
  // fingerprints are untouched, and a task can never interleave inside a
  // protocol callback. A task due at boundary B fires as soon as the clock
  // reaches/passes B (after the event that advanced it, or at RunUntil's
  // final advance) and receives B — the nominal boundary — so window epochs
  // stay aligned no matter how lumpy the event schedule is. Boundaries are
  // absolute multiples of `period`. Tasks fire in registration order; when
  // the clock jumps several periods at once, each task catches up one
  // boundary at a time. Returns an id for RemovePeriodicTask.
  using PeriodicFn = std::function<void(TimeMicros)>;
  uint64_t AddPeriodicTask(TimeMicros period, PeriodicFn fn);
  void RemovePeriodicTask(uint64_t id);

  // --- Health monitoring ---------------------------------------------------
  // Creates the health monitor over this simulator's registry and registers
  // its periodic tick. nullptr when disabled (the default). Idempotent.
  obs::HealthMonitor* health_monitor() const { return health_monitor_.get(); }
  obs::HealthMonitor& EnableHealthMonitor();
  obs::HealthMonitor& EnableHealthMonitor(const obs::HealthConfig& config);
  void DisableHealthMonitor();

  // --- Obs timeline --------------------------------------------------------
  // Creates the timeline recorder (snapshotting the registry, annotated with
  // health states when the monitor is enabled) and registers its periodic
  // capture. nullptr when disabled (the default). Idempotent.
  obs::TimelineRecorder* timeline() const { return timeline_.get(); }
  obs::TimelineRecorder& EnableTimeline();
  obs::TimelineRecorder& EnableTimeline(const obs::TimelineConfig& config);
  void DisableTimeline();

 private:
  friend class TimerOwner;

  static constexpr uint32_t kNoSlot = 0xffffffffu;
  static constexpr size_t kArity = 4;

  struct HeapEntry {
    TimeMicros at;
    uint64_t seq;
    uint32_t slot;
  };

  struct Slot {
    EventFn fn;
    const void* owner = nullptr;  // the TimerOwner that scheduled it, if any
    uint32_t gen = 1;             // bumped on every release
    uint32_t heap_pos = kNoSlot;  // index into heap_ while pending
    uint32_t next_free = kNoSlot;
  };

  static TimerId EncodeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(gen) << 32) |
           (static_cast<uint64_t>(slot) + 1);
  }
  static bool Earlier(const HeapEntry& a, const HeapEntry& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  // The sink of every Schedule; takes fn by reference so the callback is
  // relocated once, into its slot.
  TimerId ScheduleOwned(TimeMicros when, EventFn&& fn, const void* owner);
  // Slot of the pending event `id`, or kNoSlot if it fired or was cancelled.
  uint32_t PendingSlot(TimerId id) const;
  // Drops a pending event: its heap entry, its callback and its slot.
  void CancelSlot(uint32_t slot);

  uint32_t AcquireSlot();
  // Bumps the generation and returns the slot to the free list. The slot's
  // callback must already be moved out or reset.
  void ReleaseSlot(uint32_t slot);

  // Heap maintenance; every move keeps the slot's heap_pos in step. The
  // sifts move `e` from the hole at `pos` until the heap order holds.
  void Place(size_t pos, const HeapEntry& e);
  void SiftUp(size_t pos, HeapEntry e);
  void SiftDown(size_t pos, HeapEntry e);
  void RemoveAt(size_t pos);

  TimeMicros now_ = 0;
  uint64_t seed_ = 0;
  Rng rng_;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  uint64_t current_seq_ = 0;  // seq of the event currently firing
  std::vector<HeapEntry> heap_;  // pending events only
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;

  struct PeriodicTask {
    uint64_t id = 0;
    TimeMicros period = 0;
    TimeMicros next_due = 0;
    PeriodicFn fn;
  };
  // Fires every task whose boundary has been reached; cheap no-op (one
  // compare against the cached soonest deadline) otherwise.
  void RunPeriodicTasks();
  void RecomputeSoonestPeriodic();

  uint64_t audit_every_ = 0;
  AuditHook audit_hook_;
  size_t trace_capacity_ = 0;
  std::deque<TraceEntry> trace_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::TraceRecorder> tracer_;
  std::vector<PeriodicTask> periodic_;
  uint64_t next_periodic_id_ = 1;
  TimeMicros periodic_soonest_ = kNoPeriodicDue;
  std::unique_ptr<obs::HealthMonitor> health_monitor_;
  uint64_t health_task_id_ = 0;
  std::unique_ptr<obs::TimelineRecorder> timeline_;
  uint64_t timeline_task_id_ = 0;

  static constexpr TimeMicros kNoPeriodicDue =
      std::numeric_limits<TimeMicros>::max();
};

// RAII owner of timers: cancels everything it scheduled when destroyed.
// Every object that captures `this` in timer callbacks must route them
// through a TimerOwner member (declared last, so it is destroyed first),
// which makes node crash = object destruction safe. The simulator tags each
// of the owner's slots with it, so the owner keeps no set of its own.
class TimerOwner {
 public:
  explicit TimerOwner(Simulator* sim) : sim_(sim) {}
  ~TimerOwner() { CancelAll(); }

  TimerOwner(const TimerOwner&) = delete;
  TimerOwner& operator=(const TimerOwner&) = delete;

  // Schedules fn after delay; the pending event is auto-cancelled if this
  // owner is destroyed first.
  TimerId Schedule(TimeMicros delay, EventFn fn);

  // Cancels `id` only if it is pending and was scheduled by this owner.
  void Cancel(TimerId id);
  void CancelAll();

  Simulator* simulator() const { return sim_; }

 private:
  Simulator* sim_;
};

}  // namespace scatter::sim

#endif  // SCATTER_SRC_SIM_SIMULATOR_H_
