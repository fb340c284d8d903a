#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"

namespace scatter::sim {
namespace {

int64_t SimClock(void* arg) {
  return static_cast<Simulator*>(arg)->now();
}

}  // namespace

Simulator::Simulator(uint64_t seed) : seed_(seed), rng_(seed) {
  SetLogClock(&SimClock, this);
}

Simulator::~Simulator() {
  DisableTimeline();
  DisableHealthMonitor();
  DisableTracing();
  SetLogClock(nullptr, nullptr);
}

obs::MetricsRegistry& Simulator::metrics() {
  if (metrics_ == nullptr) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  return *metrics_;
}

obs::TraceRecorder& Simulator::EnableTracing() {
  if (tracer_ == nullptr) {
    // Same clock hook the logger uses: spans carry simulated time.
    tracer_ = std::make_unique<obs::TraceRecorder>(&SimClock, this);
    SetLogSink(&obs::TraceRecorder::LogSinkThunk, tracer_.get());
  }
  return *tracer_;
}

void Simulator::DisableTracing() {
  if (tracer_ != nullptr) {
    SetLogSink(nullptr, nullptr);
    tracer_.reset();
  }
}

uint64_t Simulator::AddPeriodicTask(TimeMicros period, PeriodicFn fn) {
  SCATTER_CHECK(period > 0);
  PeriodicTask task;
  task.id = next_periodic_id_++;
  task.period = period;
  // First boundary strictly after now, on an absolute multiple of the
  // period — every task of the same period ticks at the same instants no
  // matter when it was registered.
  task.next_due = (now_ / period + 1) * period;
  task.fn = std::move(fn);
  const uint64_t id = task.id;
  periodic_.push_back(std::move(task));
  RecomputeSoonestPeriodic();
  return id;
}

void Simulator::RemovePeriodicTask(uint64_t id) {
  for (auto it = periodic_.begin(); it != periodic_.end(); ++it) {
    if (it->id == id) {
      periodic_.erase(it);
      break;
    }
  }
  RecomputeSoonestPeriodic();
}

void Simulator::RecomputeSoonestPeriodic() {
  periodic_soonest_ = kNoPeriodicDue;
  for (const PeriodicTask& task : periodic_) {
    periodic_soonest_ = std::min(periodic_soonest_, task.next_due);
  }
}

void Simulator::RunPeriodicTasks() {
  if (now_ < periodic_soonest_) {
    return;
  }
  // Index loop: a task may add/remove tasks from its callback (vector may
  // reallocate, iterators die; newly-added tasks start next boundary).
  for (size_t i = 0; i < periodic_.size(); ++i) {
    while (periodic_[i].next_due <= now_) {
      const TimeMicros due = periodic_[i].next_due;
      periodic_[i].next_due += periodic_[i].period;
      periodic_[i].fn(due);
    }
  }
  RecomputeSoonestPeriodic();
}

obs::HealthMonitor& Simulator::EnableHealthMonitor() {
  return EnableHealthMonitor(obs::HealthConfig{});
}

obs::HealthMonitor& Simulator::EnableHealthMonitor(
    const obs::HealthConfig& config) {
  if (health_monitor_ == nullptr) {
    health_monitor_ =
        std::make_unique<obs::HealthMonitor>(config, &metrics());
    health_task_id_ = AddPeriodicTask(
        config.period_us, [this](TimeMicros due) {
          health_monitor_->Tick(due, tracer_.get());
        });
    if (timeline_ != nullptr) {
      timeline_->set_monitor(health_monitor_.get());
    }
  }
  return *health_monitor_;
}

void Simulator::DisableHealthMonitor() {
  if (health_monitor_ != nullptr) {
    if (timeline_ != nullptr) {
      timeline_->set_monitor(nullptr);
    }
    RemovePeriodicTask(health_task_id_);
    health_task_id_ = 0;
    health_monitor_.reset();
  }
}

obs::TimelineRecorder& Simulator::EnableTimeline() {
  return EnableTimeline(obs::TimelineConfig{});
}

obs::TimelineRecorder& Simulator::EnableTimeline(
    const obs::TimelineConfig& config) {
  if (timeline_ == nullptr) {
    timeline_ = std::make_unique<obs::TimelineRecorder>(
        config, &metrics(), health_monitor_.get());
    timeline_task_id_ = AddPeriodicTask(
        config.period_us, [this](TimeMicros due) {
          timeline_->Capture(due, tracer_.get());
        });
  }
  return *timeline_;
}

void Simulator::DisableTimeline() {
  if (timeline_ != nullptr) {
    RemovePeriodicTask(timeline_task_id_);
    timeline_task_id_ = 0;
    timeline_.reset();
  }
}

uint32_t Simulator::AcquireSlot() {
  if (free_head_ != kNoSlot) {
    const uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  SCATTER_CHECK(slots_.size() < kNoSlot);
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.gen++;
  s.owner = nullptr;
  s.heap_pos = kNoSlot;
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::Place(size_t pos, const HeapEntry& e) {
  heap_[pos] = e;
  slots_[e.slot].heap_pos = static_cast<uint32_t>(pos);
}

void Simulator::SiftUp(size_t pos, const HeapEntry e) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / kArity;
    if (!Earlier(e, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void Simulator::SiftDown(size_t pos, const HeapEntry e) {
  const size_t n = heap_.size();
  while (true) {
    const size_t first = pos * kArity + 1;
    if (first >= n) {
      break;
    }
    const size_t last = std::min(first + kArity, n);
    size_t best = first;
    for (size_t c = first + 1; c < last; ++c) {
      if (Earlier(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Earlier(heap_[best], e)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, e);
}

void Simulator::RemoveAt(size_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;  // removed the tail entry itself
  }
  if (pos > 0 && Earlier(last, heap_[(pos - 1) / kArity])) {
    SiftUp(pos, last);
  } else {
    SiftDown(pos, last);
  }
}

TimerId Simulator::Schedule(TimeMicros delay, EventFn fn) {
  SCATTER_CHECK(delay >= 0);
  return ScheduleOwned(now_ + delay, std::move(fn), nullptr);
}

TimerId Simulator::ScheduleAt(TimeMicros when, EventFn fn) {
  return ScheduleOwned(when, std::move(fn), nullptr);
}

TimerId Simulator::ScheduleOwned(TimeMicros when, EventFn&& fn,
                                 const void* owner) {
  SCATTER_CHECK(when >= now_);
  const uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.owner = owner;
  heap_.emplace_back();
  SiftUp(heap_.size() - 1, HeapEntry{when, next_seq_++, slot});
  return EncodeId(slot, s.gen);
}

uint32_t Simulator::PendingSlot(TimerId id) const {
  const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu) - 1;
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen ||
      slots_[slot].heap_pos == kNoSlot) {
    return kNoSlot;  // invalid, already fired or cancelled
  }
  return slot;
}

void Simulator::CancelSlot(uint32_t slot) {
  RemoveAt(slots_[slot].heap_pos);
  slots_[slot].fn.Reset();
  ReleaseSlot(slot);
}

void Simulator::Cancel(TimerId id) {
  const uint32_t slot = PendingSlot(id);
  if (slot != kNoSlot) {
    CancelSlot(slot);
  }
}

bool Simulator::Step() {
  if (heap_.empty()) {
    return false;
  }
  // RemoveAt(0), unrolled for the hottest path.
  const HeapEntry ev = heap_[0];
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    SiftDown(0, last);
  }
  // Move the callback out and recycle the slot *before* firing, so the
  // callback can freely schedule new events (possibly reusing this slot
  // under a fresh generation).
  Slot& s = slots_[ev.slot];
  EventFn fn = std::move(s.fn);
  ReleaseSlot(ev.slot);
  SCATTER_CHECK(ev.at >= now_);
  now_ = ev.at;
  current_seq_ = ev.seq;
  events_processed_++;
  fn();
  // Periodic monitors run before the audit hook so an auditor that reads
  // health state sees detections up to the current instant.
  RunPeriodicTasks();
  if (audit_hook_ && events_processed_ % audit_every_ == 0) {
    audit_hook_();
  }
  return true;
}

void Simulator::SetAuditHook(uint64_t every_n_events, AuditHook hook) {
  SCATTER_CHECK(every_n_events > 0);
  SCATTER_CHECK(!audit_hook_);  // one auditor per simulator
  audit_every_ = every_n_events;
  audit_hook_ = std::move(hook);
}

void Simulator::ClearAuditHook() {
  audit_every_ = 0;
  audit_hook_ = nullptr;
}

void Simulator::SetTraceCapacity(size_t capacity) {
  trace_capacity_ = capacity;
  while (trace_.size() > trace_capacity_) {
    trace_.pop_front();
  }
}

void Simulator::Trace(std::string label) {
  if (trace_capacity_ == 0) {
    return;
  }
  trace_.push_back(TraceEntry{now_, current_seq_, std::move(label)});
  if (trace_.size() > trace_capacity_) {
    trace_.pop_front();
  }
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(TimeMicros t) {
  SCATTER_CHECK(t >= now_);
  while (!heap_.empty() && heap_[0].at <= t) {
    Step();
  }
  now_ = t;
  RunPeriodicTasks();  // boundaries crossed by the final clock advance
}

TimerId TimerOwner::Schedule(TimeMicros delay, EventFn fn) {
  SCATTER_CHECK(delay >= 0);
  return sim_->ScheduleOwned(sim_->now() + delay, std::move(fn), this);
}

void TimerOwner::Cancel(TimerId id) {
  const uint32_t slot = sim_->PendingSlot(id);
  if (slot != Simulator::kNoSlot && sim_->slots_[slot].owner == this) {
    sim_->CancelSlot(slot);
  }
}

void TimerOwner::CancelAll() {
  // Collect this owner's pending ids from the heap, then cancel them in id
  // order so the slot free list (and thus every later id) does not depend
  // on the heap's layout.
  std::vector<TimerId> ids;
  for (const Simulator::HeapEntry& e : sim_->heap_) {
    const Simulator::Slot& s = sim_->slots_[e.slot];
    if (s.owner == this) {
      ids.push_back(Simulator::EncodeId(e.slot, s.gen));
    }
  }
  std::sort(ids.begin(), ids.end());
  for (TimerId id : ids) {
    sim_->Cancel(id);
  }
}

}  // namespace scatter::sim
