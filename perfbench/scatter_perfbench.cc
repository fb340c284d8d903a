// scatter_perfbench: the driver behind perfbench/run.py, for the three
// benchmark workloads (kv-write, chirpchat, churn).
//
// A run is a fixed number of repetitions, each on its own seed derived from
// the run's. A repetition builds a fresh cluster, sets it up (bootstrap,
// warmup, one put per key), measures a fixed stretch of simulated time under
// load, drains, and checks the outcome: linearizability and staleness of the
// recorded history, then, after a settle period, the ring cover and replica
// agreement. The CPU time of the measured window per completed op is
// reported as the median over repetitions, also scaled to a reference core
// speed (see ReferenceCpuS); every simulated figure and count is pooled over
// all repetitions and depends on the seed alone.
//
// Prints one JSON object on stdout. Usage:
//   scatter_perfbench --workload kv-write|chirpchat|churn --seed N
//                     [--seconds S] [--phases]
// --seconds S picks the repetition count for about S seconds of measured
// CPU. --phases adds one unprofiled repetition with span tracing on, whose
// spans give the per-phase commit latencies.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <queue>
#include <unordered_map>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/churn/churn.h"
#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/core/client.h"
#include "src/core/cluster.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/simulator.h"
#include "src/verify/history.h"
#include "src/verify/linearizability.h"
#include "src/verify/ring_checker.h"
#include "src/verify/staleness.h"
#include "src/workload/chirpchat.h"
#include "src/workload/workload.h"

#ifdef PERFBENCH_GPROF
// glibc exports moncontrol() but <sys/gmon.h> does not declare it. It
// starts and stops both the PC sampling and mcount's call counting.
extern "C" void moncontrol(int mode);
#endif

// --- Allocation counter ------------------------------------------------------
// Every operator new in the process goes through these replacements, so the
// measured window's allocation count and requested bytes are exact. The
// simulation is single-threaded; plain counters suffice.
namespace {
uint64_t g_alloc_count = 0;
uint64_t g_alloc_bytes = 0;

void* CountedAlloc(std::size_t size) {
  ++g_alloc_count;
  g_alloc_bytes += size;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  g_alloc_bytes += size;
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {
namespace {

using scatter::Key;
using scatter::NodeId;
using scatter::Rng;
using scatter::Status;
using scatter::StatusCode;
using scatter::StatusOr;
using scatter::TimeMicros;
using scatter::Value;
using scatter::Millis;
using scatter::Seconds;
namespace core = scatter::core;
namespace verify = scatter::verify;
namespace workload = scatter::workload;
namespace churn = scatter::churn;
namespace sim = scatter::sim;
namespace obs = scatter::obs;

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

void Profiling(bool on) {
#ifdef PERFBENCH_GPROF
  moncontrol(on ? 1 : 0);
#else
  (void)on;
#endif
}

// --- Workload parameters -----------------------------------------------------
// The fixed simulated lengths make every simulated metric a function of the
// seed alone; --seconds only decides how many repetitions are timed.
struct Params {
  size_t nodes = 0;
  size_t groups = 0;
  sim::TransportKind transport = sim::TransportKind::kInProcess;
  bool persistence = false;
  TimeMicros warmup = Seconds(3);
  TimeMicros measure = 0;
  TimeMicros drain = Seconds(1);
  TimeMicros settle = Seconds(10);
  uint64_t keys = 0;
  // About what one measured window costs in CPU seconds on a current x86
  // core; it only turns --seconds into a repetition count.
  double nominal_rep_cpu_s = 1;
};

Params ParamsFor(const std::string& name) {
  Params p;
  if (name == "kv-write") {
    p.nodes = 48;
    p.groups = 8;
    p.transport = sim::TransportKind::kSerializing;
    p.persistence = true;
    p.measure = Seconds(3);
    p.keys = 20000;
    p.nominal_rep_cpu_s = 2.8;
  } else if (name == "chirpchat") {
    p.nodes = 30;
    p.groups = 6;
    p.measure = Seconds(20);
    p.keys = 2000;
    p.nominal_rep_cpu_s = 1.2;
  } else if (name == "churn") {
    // Groups of eight (see README.md): with groups of six, a median lifetime
    // of 60 s costs some group its majority within a minute on about three
    // seeds in ten, and such a group never recovers.
    p.nodes = 48;
    p.groups = 6;
    p.measure = Seconds(30);
    p.nominal_rep_cpu_s = 2.0;
    // Every op still pending when the window closes either completes or
    // hits the client deadline during the drain.
    p.drain = core::ClientConfig{}.op_deadline + Seconds(1);
    p.settle = Seconds(30);
    p.keys = 500;
  }
  return p;
}

// kv-write: closed loop, 90% puts, uniform keys.
constexpr size_t kKvClients = 24;
constexpr double kKvWriteFraction = 0.9;
constexpr TimeMicros kKvThink = Millis(2);
// chirpchat: as bench_chirpchat.
constexpr size_t kChirpClients = 8;
constexpr double kChirpPostFraction = 0.2;
constexpr size_t kChirpFanIn = 8;
constexpr double kChirpPopularity = 1.0;
constexpr TimeMicros kChirpThink = Millis(2);
// churn: open-loop Poisson arrivals. Each client sends about 21 ops/s, so
// within one 8-s client deadline it sends far fewer than 128 ops to any one
// group (the server's per-client dedup window): a slow retry is never
// mistaken for an old duplicate.
constexpr double kChurnRatePerSec = 2000.0;
constexpr size_t kChurnClients = 96;
constexpr double kChurnWriteFraction = 0.5;
constexpr TimeMicros kChurnMedianLifetime = Seconds(60);
// Concurrent preload puts per client.
constexpr size_t kPreloadDepth = 8;
// Fewest repetitions a median is taken over.
constexpr size_t kMinReps = 3;
// Set-up is sampled, with extra set-up-only repetitions, until these many
// samples and this much set-up CPU are reached, or kMaxSetupSamples.
constexpr size_t kMinSetupSamples = 7;
constexpr double kSetupCpuBudgetS = 1.5;
constexpr size_t kMaxSetupSamples = 41;

// --- Work counters -----------------------------------------------------------
// Cumulative counts sampled at the edges of the measured window.
struct Counters {
  std::map<std::string, double> v;

  double operator[](const std::string& k) const {
    auto it = v.find(k);
    return it == v.end() ? 0.0 : it->second;
  }
  Counters Minus(const Counters& earlier) const {
    Counters d = *this;
    for (auto& [k, val] : d.v) {
      val -= earlier[k];
    }
    return d;
  }
};

struct NodeTotals {
  uint64_t joins_attempted = 0;
  uint64_t joins_succeeded = 0;
  uint64_t structural = 0;

  void Add(const core::ScatterNode::NodeStats& s) {
    joins_attempted += s.joins_attempted;
    joins_succeeded += s.joins_succeeded;
    structural += s.splits_initiated + s.merges_initiated +
                  s.repartitions_initiated + s.migrations_directed;
  }
};

double SumCounter(const obs::MetricsRegistry& reg, const std::string& name) {
  double total = 0;
  reg.ForEachCounter(name, [&](NodeId, scatter::GroupId,
                               const scatter::Counter& c) {
    total += static_cast<double>(c.value);
  });
  return total;
}

Counters Sample(core::Cluster& cluster, const NodeTotals& crashed) {
  Counters c;
  sim::Simulator& s = cluster.sim();
  const obs::MetricsRegistry& reg = s.metrics();
  c.v["events"] = static_cast<double>(s.events_processed());
  c.v["msgs"] = static_cast<double>(cluster.net().messages_sent());
  for (const char* name :
       {"wire.frames_serialized", "wire.bytes_serialized", "wire.pool.hit",
        "wire.pool.miss", "wal.appends", "wal.fsyncs", "wal.bytes",
        "paxos.accepts_sent", "paxos.accept_entries_sent", "paxos.acks_sent",
        "paxos.lease_reads", "paxos.barrier_reads", "paxos.elections_started",
        "paxos.proposals_failed", "paxos.snapshots_installed", "ring.lookups",
        "ring.lookup_misses", "txn.txns_started", "txn.txns_committed",
        "txn.txns_aborted"}) {
    c.v[name] = SumCounter(reg, name);
  }
  double attempts = 0;
  double redirects = 0;
  for (const auto& client : cluster.clients()) {
    attempts += static_cast<double>(client->stats().attempts);
    redirects += static_cast<double>(client->stats().redirects);
  }
  c.v["client.attempts"] = attempts;
  c.v["client.redirects"] = redirects;
  NodeTotals nodes = crashed;
  for (NodeId id : cluster.live_node_ids()) {
    nodes.Add(cluster.node(id)->stats());
  }
  c.v["joins_attempted"] = static_cast<double>(nodes.joins_attempted);
  c.v["joins_succeeded"] = static_cast<double>(nodes.joins_succeeded);
  c.v["structural_ops"] = static_cast<double>(nodes.structural);
  return c;
}

// --- Latency summaries -------------------------------------------------------
struct Latency {
  uint64_t count = 0;
  double p50_ms = 0;
  double p999_ms = 0;
};

// Quantiles of whole-microsecond samples (the simulated clock's unit),
// interpolated within the microsecond they fall in, as for grouped data:
// a value v held by f samples, with `below` samples smaller, spreads them
// evenly over [v - 0.5, v + 0.5). Without this, a median over a million
// samples reads the same whole microsecond on every seed.
double Quantile(const std::vector<int64_t>& sorted, double q) {
  const double target = q * static_cast<double>(sorted.size());
  const size_t i = std::min(static_cast<size_t>(target), sorted.size() - 1);
  const auto lo = std::lower_bound(sorted.begin(), sorted.end(), sorted[i]);
  const auto hi = std::upper_bound(lo, sorted.end(), sorted[i]);
  const double below = static_cast<double>(lo - sorted.begin());
  const double f = static_cast<double>(hi - lo);
  return std::max(
      0.0, static_cast<double>(sorted[i]) + ((target - below) / f - 0.5));
}

Latency Summarize(std::vector<int64_t> samples) {
  Latency l;
  l.count = samples.size();
  if (samples.empty()) {
    return l;
  }
  std::sort(samples.begin(), samples.end());
  l.p50_ms = Quantile(samples, 0.5) / 1000.0;
  l.p999_ms = Quantile(samples, 0.999) / 1000.0;
  return l;
}

// FNV-1a over everything a repetition observed. Two builds of one program
// (plain and -pg) must agree on it.
class Digest {
 public:
  void Add(uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (unsigned char ch : s) {
      h_ ^= ch;
      h_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// --- Open-loop generator (churn) ---------------------------------------------
// Poisson arrivals at a fixed simulated rate, round-robin over a pool of
// clients whatever each still has outstanding, so a stalled group does not
// slow the arrivals down. Every op is recorded in the history from its due
// time; one the client deadline cuts off is recorded as indeterminate.
class OpenLoopGenerator {
 public:
  OpenLoopGenerator(sim::Simulator* sim, std::vector<core::Client*> clients,
                    std::vector<Key> keys, verify::HistoryRecorder* history)
      : sim_(sim),
        clients_(std::move(clients)),
        next_seq_(clients_.size(), 0),
        keys_(std::move(keys)),
        history_(history),
        rng_(sim->rng().Fork()),
        timers_(sim) {}

  // Issues arrivals due before `until`.
  void Start(TimeMicros until) {
    until_ = until;
    ScheduleNext();
  }

 private:
  void ScheduleNext() {
    const auto gap = static_cast<TimeMicros>(
        rng_.Exponential(1e6 / kChurnRatePerSec));
    if (sim_->now() + gap >= until_) {
      return;
    }
    timers_.Schedule(gap, [this]() {
      IssueOne();
      ScheduleNext();
    });
  }

  void IssueOne() {
    const Key key = keys_[rng_.Index(keys_.size())];
    const bool is_write = rng_.Bernoulli(kChurnWriteFraction);
    const size_t c = next_client_;
    next_client_ = (next_client_ + 1) % clients_.size();
    core::Client* client = clients_[c];
    const TimeMicros due = sim_->now();
    if (is_write) {
      Value value = "w" + std::to_string(client->id()) + ":" +
                    std::to_string(++next_seq_[c]);
      const uint64_t op =
          history_->RecordInvoke(verify::OpType::kWrite, key, value, due);
      client->Put(key, std::move(value), [this, op](Status s) {
        history_->RecordComplete(op,
                                 s.ok() ? verify::Outcome::kOk
                                        : verify::Outcome::kIndeterminate,
                                 Value(), sim_->now());
      });
      return;
    }
    const uint64_t op =
        history_->RecordInvoke(verify::OpType::kRead, key, Value(), due);
    client->Get(key, [this, op](StatusOr<Value> r) {
      verify::Outcome outcome = verify::Outcome::kIndeterminate;
      Value value;
      if (r.ok()) {
        outcome = verify::Outcome::kOk;
        value = std::move(r).value();
      } else if (r.status().code() == StatusCode::kNotFound) {
        outcome = verify::Outcome::kNotFound;
      }
      history_->RecordComplete(op, outcome, std::move(value), sim_->now());
    });
  }

  sim::Simulator* sim_;
  std::vector<core::Client*> clients_;
  std::vector<uint64_t> next_seq_;
  std::vector<Key> keys_;
  verify::HistoryRecorder* history_;
  Rng rng_;
  TimeMicros until_ = 0;
  size_t next_client_ = 0;
  sim::TimerOwner timers_;  // last: cancels pending arrivals first
};

// Writes every key once, kPreloadDepth puts in flight per client, recording
// each put in `history` (when given) so later reads of preloaded values
// check out. Returns the number of puts that failed.
uint64_t Preload(core::Cluster& cluster,
                 const std::vector<core::Client*>& clients,
                 const std::vector<Key>& keys,
                 verify::HistoryRecorder* history) {
  sim::Simulator& s = cluster.sim();
  struct State {
    size_t next = 0;
    size_t done = 0;
    uint64_t failed = 0;
  } st;
  std::function<void(core::Client*)> issue = [&](core::Client* client) {
    if (st.next >= keys.size()) {
      return;
    }
    const size_t rank = st.next++;
    Value value = "p" + std::to_string(rank);
    uint64_t op = 0;
    if (history != nullptr) {
      op = history->RecordInvoke(verify::OpType::kWrite, keys[rank], value,
                                 s.now());
    }
    client->Put(keys[rank], std::move(value), [&, client, op](Status status) {
      ++st.done;
      if (!status.ok()) {
        ++st.failed;
      }
      if (history != nullptr) {
        history->RecordComplete(op,
                                status.ok() ? verify::Outcome::kOk
                                            : verify::Outcome::kIndeterminate,
                                Value(), s.now());
      }
      issue(client);
    });
  };
  for (core::Client* client : clients) {
    for (size_t d = 0; d < kPreloadDepth; ++d) {
      issue(client);
    }
  }
  // The callbacks above reference this frame: every put must finish (the
  // client deadline guarantees it does) before returning.
  const TimeMicros limit = s.now() + Seconds(600);
  while (st.done < keys.size()) {
    if (!s.Step() || s.now() > limit) {
      std::fprintf(stderr, "preload did not finish\n");
      std::exit(1);
    }
  }
  return st.failed;
}

// --- ChirpChat closed loop ---------------------------------------------------
// The traffic of workload::ChirpChatDriver: a post overwrites the poster's
// wall, a timeline refresh reads kChirpFanIn walls in parallel, and both pick
// users by Zipf popularity. It is driven from here because that driver
// reports latency only as 4%-wide histogram buckets, which read the same on
// every seed.
class ChirpChatLoop {
 public:
  ChirpChatLoop(sim::Simulator* sim, std::vector<core::Client*> clients,
                uint64_t users)
      : sim_(sim),
        clients_(std::move(clients)),
        posts_(clients_.size(), 0),
        rng_(sim->rng().Fork()),
        popularity_(users, kChirpPopularity),
        timers_(sim) {}

  void Start() {
    running_ = true;
    for (size_t c = 0; c < clients_.size(); ++c) {
      timers_.Schedule(rng_.Range(0, Millis(20)),
                       [this, c]() { IssueOne(c); });
    }
  }
  void Stop() { running_ = false; }

  uint64_t attempted() const { return attempted_; }
  uint64_t completed() const { return completed_; }
  const std::vector<int64_t>& post_us() const { return post_us_; }
  const std::vector<int64_t>& timeline_us() const { return timeline_us_; }

 private:
  void Done(size_t c, bool ok, std::vector<int64_t>* latencies,
            TimeMicros start) {
    if (ok) {
      ++completed_;
      latencies->push_back(sim_->now() - start);
    }
    if (running_) {
      timers_.Schedule(kChirpThink, [this, c]() { IssueOne(c); });
    }
  }

  void IssueOne(size_t c) {
    if (!running_) {
      return;
    }
    ++attempted_;
    core::Client* client = clients_[c];
    const TimeMicros start = sim_->now();
    if (rng_.Bernoulli(kChirpPostFraction)) {
      const Key wall = workload::ChirpChatDriver::WallKey(
          popularity_.Sample(rng_));
      Value post = "post:" + std::to_string(client->id()) + ":" +
                   std::to_string(++posts_[c]);
      client->Put(wall, std::move(post), [this, c, start](Status s) {
        Done(c, s.ok(), &post_us_, start);
      });
      return;
    }
    struct Timeline {
      size_t pending = kChirpFanIn;
      bool ok = true;
    };
    auto t = std::make_shared<Timeline>();
    for (size_t i = 0; i < kChirpFanIn; ++i) {
      const Key wall = workload::ChirpChatDriver::WallKey(
          popularity_.Sample(rng_));
      client->Get(wall, [this, c, start, t](StatusOr<Value> r) {
        const bool answered =
            r.ok() || r.status().code() == StatusCode::kNotFound;
        t->ok = t->ok && answered;
        if (--t->pending == 0) {
          Done(c, t->ok, &timeline_us_, start);
        }
      });
    }
  }

  sim::Simulator* sim_;
  std::vector<core::Client*> clients_;
  std::vector<uint64_t> posts_;
  Rng rng_;
  scatter::ZipfSampler popularity_;
  bool running_ = false;
  uint64_t attempted_ = 0;
  uint64_t completed_ = 0;
  std::vector<int64_t> post_us_;
  std::vector<int64_t> timeline_us_;
  sim::TimerOwner timers_;  // last: cancels pending issues first
};

// --- One repetition ----------------------------------------------------------
struct PhaseSamples {
  std::vector<int64_t> batch_wait, quorum_commit, apply, txn_coordinate;
};

struct RepResult {
  double setup_cpu_s = 0;
  double measure_cpu_s = 0;
  double check_cpu_s = 0;
  double peak_rss_mb = 0;  // at the end of the measured window
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  // Everything below is a function of the seed alone.
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t deaths = 0;
  std::vector<int64_t> read_us, write_us;
  Counters delta;
  uint64_t digest = 0;
  std::vector<std::string> problems;
  uint64_t lin_keys = 0;
  uint64_t lin_ops = 0;
  uint64_t lin_inconclusive = 0;
  PhaseSamples phases;
};

void CollectPhases(const obs::TraceRecorder& tr, PhaseSamples* out) {
  std::map<uint64_t, int64_t> committed_at;  // propose span -> commit time
  for (const auto& inst : tr.instants()) {
    if (inst.name == "paxos.quorum_commit") {
      const auto* propose = tr.FindSpan(inst.parent_span_id);
      if (propose != nullptr && propose->name == "paxos.propose") {
        committed_at[propose->span_id] = inst.ts_us;
        out->quorum_commit.push_back(inst.ts_us - propose->start_us);
      }
    }
  }
  for (const auto& span : tr.spans()) {
    if (span.open) {
      continue;
    }
    if (span.name == "txn.coordinate") {
      out->txn_coordinate.push_back(span.end_us - span.start_us);
      continue;
    }
    const auto* parent = tr.FindSpan(span.parent_span_id);
    if (parent == nullptr || parent->name != "paxos.propose") {
      continue;
    }
    if (span.name == "paxos.flush") {
      out->batch_wait.push_back(span.start_us - parent->start_us);
    } else if (span.name == "paxos.apply") {
      auto it = committed_at.find(parent->span_id);
      if (it != committed_at.end()) {
        out->apply.push_back(span.end_us - it->second);
      }
    }
  }
}

void AddHistory(const verify::HistoryRecorder& h, Digest* d) {
  for (const verify::Operation& op : h.ops()) {
    d->Add(op.op_id);
    d->Add(static_cast<uint64_t>(op.type));
    d->Add(op.key);
    d->Add(op.value);
    d->Add(static_cast<uint64_t>(op.invoked_at));
    d->Add(static_cast<uint64_t>(op.completed_at));
    d->Add(static_cast<uint64_t>(op.outcome));
  }
}

// Counts and latencies of the ops invoked at or after `from`.
void HistoryLatencies(const verify::HistoryRecorder& h, TimeMicros from,
                      RepResult* r) {
  for (const verify::Operation& op : h.ops()) {
    if (op.invoked_at < from) {
      continue;
    }
    ++r->attempted;
    if (op.outcome == verify::Outcome::kOk ||
        op.outcome == verify::Outcome::kNotFound) {
      ++r->completed;
      (op.type == verify::OpType::kRead ? r->read_us : r->write_us)
          .push_back(op.completed_at - op.invoked_at);
    }
  }
}

void CheckHistory(const verify::HistoryRecorder& h, RepResult* r) {
  const verify::StalenessReport stale = verify::AuditStaleness(h);
  if (stale.stale_reads != 0) {
    r->problems.push_back("staleness: " + stale.Summary());
  }
  verify::LinearizabilityChecker checker;
  const verify::CheckResult lin = checker.CheckAll(h.PerKeyHistories());
  r->lin_keys = lin.keys_checked;
  r->lin_ops = lin.ops_checked;
  r->lin_inconclusive = lin.inconclusive.size();
  if (!lin.linearizable) {
    r->problems.push_back("linearizability: " + lin.Summary());
  }
}

void CheckCluster(core::Cluster& cluster, RepResult* r) {
  for (const verify::RingCheckOutcome& o :
       {verify::CheckQuiescentCover(cluster),
        verify::CheckReplicaAgreement(cluster)}) {
    for (const std::string& p : o.problems) {
      r->problems.push_back("ring: " + p);
    }
    if (!o.ok && o.problems.empty()) {
      r->problems.push_back("ring: check failed");
    }
  }
}

// What one repetition does after set-up.
enum class Mode {
  kSetupOnly,  // stop after set-up: one more set-up time sample
  kMeasure,    // measure (profiled in the -pg build), drain, check
  kPhases,     // measure with span tracing on, unprofiled and unchecked
};

RepResult RunRep(const std::string& name, uint64_t seed, Mode mode) {
  const Params p = ParamsFor(name);
  RepResult r;
  const double cpu0 = CpuSeconds();

  core::ClusterConfig cfg;
  cfg.seed = seed;
  cfg.initial_nodes = p.nodes;
  cfg.initial_groups = p.groups;
  cfg.network.latency = sim::LatencyModel::Lan();
  cfg.transport = p.transport;
  cfg.persistence = p.persistence ? core::ClusterConfig::Persistence::kOn
                                  : core::ClusterConfig::Persistence::kOff;
  if (name == "chirpchat") {
    // As bench_chirpchat's load-aware configuration, monitoring on.
    cfg.scatter.policy.enable_repartition = true;
    cfg.scatter.policy.load_aware_split = true;
    cfg.scatter.policy.repartition_imbalance = 2.0;
    cfg.scatter.policy.repartition_min_keys = 32;
    cfg.scatter.policy.repartition_min_rate = 100.0;
    cfg.enable_health_monitor = true;
    cfg.enable_timeline = true;
  } else if (name == "churn") {
    // Membership policy sized for groups of eight. With the default (target
    // 5, split above 9), joiners push a group of eight over 9 while its dead
    // members are still listed, and the split can hand one child a dead
    // majority (README.md, "Known defect").
    cfg.scatter.policy.target_group_size = 8;
    cfg.scatter.policy.max_group_size = 12;
  }
  core::Cluster cluster(cfg);
  sim::Simulator& s = cluster.sim();
  cluster.RunFor(p.warmup);

  // Nodes that churn kills take their stats with them; bank them first.
  NodeTotals crashed;
  churn::ChurnHooks hooks = cluster.ChurnHooksFor();
  hooks.crash = [&cluster, &crashed](NodeId id) {
    if (core::ScatterNode* n = cluster.node(id)) {
      crashed.Add(n->stats());
    }
    cluster.CrashNode(id);
  };

  std::vector<core::Client*> clients;
  const size_t client_count = name == "kv-write"    ? kKvClients
                              : name == "chirpchat" ? kChirpClients
                                                    : kChurnClients;
  for (size_t i = 0; i < client_count; ++i) {
    clients.push_back(cluster.AddClient());
  }

  // kv-write and churn record every op for the linearizability checker.
  verify::HistoryRecorder own_history;
  verify::HistoryRecorder* history = name == "churn" ? &own_history : nullptr;
  std::unique_ptr<workload::WorkloadDriver> kv;
  std::vector<Key> keys;
  if (name == "kv-write") {
    workload::WorkloadConfig w;
    w.write_fraction = kKvWriteFraction;
    w.key_space = p.keys;
    w.think_time = kKvThink;
    w.record_history = true;
    kv = std::make_unique<workload::WorkloadDriver>(
        &s, std::vector<scatter::KvClient*>(clients.begin(), clients.end()),
        w);
    history = &kv->history();
  }
  for (uint64_t i = 0; i < p.keys; ++i) {
    keys.push_back(name == "kv-write" ? kv->KeyForRank(i)
                   : name == "chirpchat"
                       ? workload::ChirpChatDriver::WallKey(i)
                       : scatter::KeyFromString("key" + std::to_string(i)));
  }
  const uint64_t preload_failed = Preload(cluster, clients, keys, history);

  std::unique_ptr<ChirpChatLoop> chirp;
  std::unique_ptr<churn::ChurnDriver> churner;
  std::unique_ptr<OpenLoopGenerator> gen;
  if (name == "chirpchat") {
    chirp = std::make_unique<ChirpChatLoop>(&s, clients, p.keys);
  } else if (name == "churn") {
    churn::ChurnConfig chc;
    chc.distribution = churn::ChurnConfig::Lifetime::kExponential;
    chc.median_lifetime = kChurnMedianLifetime;
    chc.keep_population = true;
    churner = std::make_unique<churn::ChurnDriver>(&s, hooks, chc);
    gen = std::make_unique<OpenLoopGenerator>(&s, clients, keys, history);
  }

  // --- Measured window ---------------------------------------------------
  const TimeMicros t0 = s.now();
  const Counters c0 = Sample(cluster, crashed);
  r.setup_cpu_s = CpuSeconds() - cpu0;
  if (mode == Mode::kSetupOnly) {
    return r;
  }
  if (mode == Mode::kPhases) {
    s.EnableTracing();
  }
  const uint64_t allocs0 = g_alloc_count;
  const uint64_t bytes0 = g_alloc_bytes;
  const double cpu1 = CpuSeconds();
  Profiling(mode == Mode::kMeasure);
  if (kv) {
    kv->Start();
  } else if (chirp) {
    chirp->Start();
  } else {
    churner->Start();
    gen->Start(t0 + p.measure);
  }
  cluster.RunFor(p.measure);
  Profiling(false);
  r.measure_cpu_s = CpuSeconds() - cpu1;
  r.peak_rss_mb = PeakRssMb();
  r.allocs = g_alloc_count - allocs0;
  r.alloc_bytes = g_alloc_bytes - bytes0;
  r.delta = Sample(cluster, crashed).Minus(c0);
  if (mode == Mode::kPhases) {
    CollectPhases(*s.tracer(), &r.phases);
    s.DisableTracing();
    return r;
  }

  // --- Drain and check ----------------------------------------------------
  if (kv) {
    kv->Stop();
  } else if (chirp) {
    chirp->Stop();
  } else {
    churner->Stop();
    r.deaths = churner->stats().deaths;
  }
  cluster.RunFor(p.drain);
  Digest digest;
  if (history != nullptr) {
    history->Close(s.now());
    HistoryLatencies(*history, t0, &r);
    AddHistory(*history, &digest);
  } else {
    r.attempted = chirp->attempted();
    r.completed = chirp->completed();
    r.read_us = chirp->timeline_us();
    r.write_us = chirp->post_us();
    for (int64_t us : r.read_us) {
      digest.Add(static_cast<uint64_t>(us));
    }
    for (int64_t us : r.write_us) {
      digest.Add(static_cast<uint64_t>(us));
    }
  }
  for (const auto& [k, v] : r.delta.v) {
    if (k.rfind("wire.pool.", 0) != 0) {  // the pool is process-wide
      digest.Add(k);
      digest.Add(static_cast<uint64_t>(v));
    }
  }
  r.digest = digest.value();

  if (preload_failed != 0) {
    r.problems.push_back("preload: " + std::to_string(preload_failed) +
                         " puts failed");
  }
  double check_start = CpuSeconds();
  if (history != nullptr) {
    CheckHistory(*history, &r);
  }
  r.check_cpu_s = CpuSeconds() - check_start;
  cluster.RunFor(p.settle);
  check_start = CpuSeconds();
  CheckCluster(cluster, &r);
  r.check_cpu_s += CpuSeconds() - check_start;
  return r;
}

// --- Reference kernel --------------------------------------------------------
// The host this runs on changes speed by tens of percent for minutes at a
// time (other tenants share its caches and memory bandwidth), and CPU time
// per op follows. This kernel does a fixed amount of work shaped like the
// simulator's (ordered and hashed maps, a binary heap, shared_ptr payloads,
// strings), so its CPU time, sampled between repetitions, tells how fast
// the core ran during the run. CPU metrics are scaled to a core that runs it
// in kReferenceS; the kernel is part of the benchmark, so no change to the
// program under test moves it.
constexpr int kReferenceIterations = 60000;
constexpr double kReferenceS = 0.035;
uint64_t g_reference_sink = 0;

double ReferenceCpuS() {
  std::map<uint64_t, uint64_t> ordered;
  std::unordered_map<uint64_t, std::string> hashed;
  std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<>> heap;
  std::vector<std::shared_ptr<std::vector<uint8_t>>> payloads(256);
  uint64_t x = 88172645463325252ull;
  uint64_t sum = 0;
  const double start = CpuSeconds();
  for (int i = 0; i < kReferenceIterations; ++i) {
    x ^= x << 13;  // xorshift64
    x ^= x >> 7;
    x ^= x << 17;
    auto [it, inserted] = ordered.try_emplace(x % 40000, x);
    if (!inserted) {
      if ((x & 1) != 0) {
        ordered.erase(it);
      } else {
        it->second += x;
      }
    }
    hashed[x % 20000] = std::to_string(x);
    heap.push(x);
    if (heap.size() > 10000) {
      heap.pop();
    }
    auto& payload = payloads[x & 255];
    payload = std::make_shared<std::vector<uint8_t>>(
        64 + (x & 127), static_cast<uint8_t>(x));
    sum += payload->back() + heap.top() + ordered.size() + hashed.size();
  }
  const double cpu = CpuSeconds() - start;
  g_reference_sink += sum;
  return cpu;
}

// --- Output ------------------------------------------------------------------
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.empty()) {
    return 0;
  }
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw) {
    out_ += (out_.size() > 1 ? "," : "") + JsonString(key) + ":" + raw;
    return *this;
  }
  JsonObject& Add(const std::string& key, double v) { return Add(key, Num(v)); }
  JsonObject& Add(const std::string& key, uint64_t v) {
    return Add(key, std::to_string(v));
  }
  std::string str() const { return out_ + "}"; }

 private:
  std::string out_ = "{";
};

std::string LatencyJson(std::vector<int64_t> samples) {
  const Latency l = Summarize(std::move(samples));
  return JsonObject()
      .Add("count", l.count)
      .Add("p50_ms", l.p50_ms)
      .Add("p999_ms", l.p999_ms)
      .str();
}

// Repetition r of a run measures its own seed, derived from the run's.
uint64_t RepSeed(uint64_t seed, size_t r) { return seed * 1000 + r; }

int Main(int argc, char** argv) {
  std::string name;
  uint64_t seed = 1;
  double seconds = 10;
  bool phases = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      name = next();
    } else if (a == "--seed") {
      seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--seconds") {
      seconds = std::strtod(next(), nullptr);
    } else if (a == "--phases") {
      phases = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (name != "kv-write" && name != "chirpchat" && name != "churn") {
    std::fprintf(stderr, "--workload must be kv-write, chirpchat or churn\n");
    return 2;
  }
  if (seed >= std::numeric_limits<uint64_t>::max() / 1000) {
    std::fprintf(stderr, "--seed too large\n");
    return 2;
  }
  if (!(seconds >= 0 && seconds <= 3600)) {
    std::fprintf(stderr, "--seconds must be within [0, 3600]\n");
    return 2;
  }
  Profiling(false);
  const Params p = ParamsFor(name);

  // The repetition count follows from --seconds alone, never from timing,
  // so that every simulated figure is a function of the seed and --seconds.
  const auto reps_for_seconds =
      static_cast<size_t>(std::lround(seconds / p.nominal_rep_cpu_s));
  const size_t rep_count = std::max(kMinReps, reps_for_seconds);
  std::vector<RepResult> reps;
  // Set-up is short next to the measured window, so it is sampled more
  // often, by set-up-only repetitions spread over the run.
  std::vector<double> setup;
  double setup_total = 0;
  size_t next_setup_seed = rep_count;
  auto sample_setup = [&](double cpu_s) {
    setup.push_back(cpu_s);
    setup_total += cpu_s;
  };
  // `pending`: samples the measured repetitions still to run will add.
  auto setup_wanted = [&](size_t pending) {
    const size_t n = setup.size() + pending;
    return n < kMaxSetupSamples &&
           (n < kMinSetupSamples || setup_total < kSetupCpuBudgetS);
  };
  std::vector<double> reference;
  for (size_t i = 0; i < rep_count; ++i) {
    reference.push_back(ReferenceCpuS());
    reps.push_back(RunRep(name, RepSeed(seed, i), Mode::kMeasure));
    sample_setup(reps.back().setup_cpu_s);
    if (setup_wanted(rep_count - i - 1)) {
      sample_setup(RunRep(name, RepSeed(seed, next_setup_seed++),
                          Mode::kSetupOnly)
                       .setup_cpu_s);
    }
  }
  while (setup_wanted(0)) {
    sample_setup(
        RunRep(name, RepSeed(seed, next_setup_seed++), Mode::kSetupOnly)
            .setup_cpu_s);
  }
  reference.push_back(ReferenceCpuS());
  const double reference_s = Median(reference);
  const double speed = kReferenceS / reference_s;
  PhaseSamples ph;
  if (phases) {
    ph = RunRep(name, RepSeed(seed, 0), Mode::kPhases).phases;
  }

  // Pool the repetitions.
  RepResult all;
  Digest digest;
  std::vector<double> cpu_per_op;
  std::vector<std::string> problems;
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    const auto ops = static_cast<double>(std::max<uint64_t>(r.completed, 1));
    cpu_per_op.push_back(r.measure_cpu_s * 1e6 / ops);
    all.measure_cpu_s += r.measure_cpu_s;
    all.check_cpu_s += r.check_cpu_s;
    all.allocs += r.allocs;
    all.alloc_bytes += r.alloc_bytes;
    all.attempted += r.attempted;
    all.completed += r.completed;
    all.deaths += r.deaths;
    all.read_us.insert(all.read_us.end(), r.read_us.begin(), r.read_us.end());
    all.write_us.insert(all.write_us.end(), r.write_us.begin(),
                        r.write_us.end());
    for (const auto& [k, v] : r.delta.v) {
      all.delta.v[k] += v;
    }
    all.lin_keys += r.lin_keys;
    all.lin_ops += r.lin_ops;
    all.lin_inconclusive += r.lin_inconclusive;
    digest.Add(r.digest);
    for (const std::string& problem : r.problems) {
      problems.push_back("repetition " + std::to_string(i) + ": " + problem);
    }
    if (r.completed == 0) {
      problems.push_back("repetition " + std::to_string(i) +
                         ": no operation completed");
    }
  }
  std::string probs = "[";
  for (size_t i = 0; i < problems.size(); ++i) {
    probs += (i ? "," : "") + JsonString(problems[i]);
  }
  std::string per_rep = "[";
  for (size_t i = 0; i < cpu_per_op.size(); ++i) {
    per_rep += (i ? "," : "") + Num(cpu_per_op[i]);
  }
  JsonObject counters;
  for (const auto& [k, v] : all.delta.v) {
    counters.Add(k, v);
  }
  JsonObject out;
  out.Add("workload", JsonString(name))
      .Add("seed", seed)
      .Add("reps", static_cast<uint64_t>(reps.size()))
      .Add("problems", probs + "]")
      .Add("digest", JsonString(std::to_string(digest.value())))
      .Add("attempted", all.attempted)
      .Add("completed", all.completed)
      .Add("measure_sim_s", static_cast<double>(p.measure) / 1e6 *
                                static_cast<double>(reps.size()))
      .Add("reference_s", reference_s)
      .Add("cpu_us_per_op", Median(cpu_per_op) * speed)
      .Add("cpu_us_per_op_raw", Median(cpu_per_op))
      .Add("cpu_us_per_op_reps", per_rep + "]")
      .Add("cpu_us_per_op_pooled",
           all.measure_cpu_s * 1e6 /
               static_cast<double>(std::max<uint64_t>(all.completed, 1)))
      .Add("setup_s", Median(setup) * speed)
      .Add("setup_s_raw", Median(setup))
      .Add("setup_samples", static_cast<uint64_t>(setup.size()))
      // Before any checker ran: the footprint of the system under test.
      .Add("peak_rss_mb", reps.front().peak_rss_mb)
      .Add("read", LatencyJson(all.read_us))
      .Add("write", LatencyJson(all.write_us))
      .Add("alloc_count", all.allocs)
      .Add("alloc_bytes", all.alloc_bytes)
      .Add("check_cpu_s", all.check_cpu_s)
      .Add("lin_keys", all.lin_keys)
      .Add("lin_ops", all.lin_ops)
      .Add("lin_inconclusive", all.lin_inconclusive)
      .Add("deaths", all.deaths)
      .Add("counters", counters.str());
  if (phases) {
    out.Add("phases", JsonObject()
                          .Add("batch_wait", LatencyJson(ph.batch_wait))
                          .Add("quorum_commit", LatencyJson(ph.quorum_commit))
                          .Add("apply", LatencyJson(ph.apply))
                          .Add("txn_coordinate", LatencyJson(ph.txn_coordinate))
                          .str());
  }
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
