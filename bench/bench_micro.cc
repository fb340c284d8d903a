// E10 — microbenchmarks (wall-clock, via google-benchmark).
//
// Measures the building blocks whose cost bounds simulation scale and, for
// the consensus path, the message/commit machinery itself:
//   - simulator event throughput, and timer resets against a full queue,
//   - KV store operations and range extraction,
//   - routing cache lookups,
//   - Zipf sampling and histogram recording,
//   - a full Paxos commit (propose -> quorum -> apply) on a simulated LAN,
//   - lease reads vs barrier reads on the same group,
//   - the linearizability checker on sequential histories,
//   - WAL framing + append throughput and crash-recovery replay.

#include <functional>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/core/cluster.h"
#include "src/core/wire_codecs.h"
#include "src/membership/commands.h"
#include "src/membership/group_state_machine.h"
#include "src/obs/metrics.h"
#include "src/paxos/journal.h"
#include "src/paxos/messages.h"
#include "src/ring/ring_map.h"
#include "src/sim/simulator.h"
#include "src/storage/sim_disk.h"
#include "src/storage/wal.h"
#include "src/store/kv_store.h"
#include "src/verify/linearizability.h"
#include "src/wire/buffer.h"
#include "src/wire/codec.h"
#include "src/wire/serializing_network.h"

namespace scatter {
namespace {

void BM_SimulatorEventThroughput(benchmark::State& state) {
  sim::Simulator sim(1);
  uint64_t fired = 0;
  for (auto _ : state) {
    sim.Schedule(1, [&fired]() { fired++; });
    sim.Step();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorEventThroughput);

// The follower pattern: every step, one of a few hundred owners cancels and
// re-arms its 250-500 ms election timer, while a steady population of short
// events (message deliveries) keeps firing and rescheduling. Unlike the
// one-entry queue above, this keeps several hundred events pending.
void BM_SimulatorTimerReset(benchmark::State& state) {
  constexpr size_t kOwners = 300;
  constexpr int kShortEvents = 200;
  sim::Simulator sim(1);
  Rng rng(7);
  std::vector<std::unique_ptr<sim::TimerOwner>> owners;
  std::vector<sim::TimerId> timers(kOwners, sim::kInvalidTimer);
  std::function<void(size_t)> arm = [&](size_t i) {
    timers[i] = owners[i]->Schedule(
        Millis(250) + static_cast<TimeMicros>(rng.Next() % 250000),
        [&arm, i] { arm(i); });
  };
  for (size_t i = 0; i < kOwners; ++i) {
    owners.push_back(std::make_unique<sim::TimerOwner>(&sim));
    arm(i);
  }
  std::function<void()> deliver = [&] {
    sim.Schedule(1 + static_cast<TimeMicros>(rng.Next() % 500),
                 [&deliver] { deliver(); });
  };
  for (int i = 0; i < kShortEvents; ++i) {
    deliver();
  }
  size_t next = 0;
  for (auto _ : state) {
    owners[next]->Cancel(timers[next]);
    arm(next);
    next = (next + 1) % kOwners;
    sim.Step();
  }
  benchmark::DoNotOptimize(sim.events_processed());
  state.counters["pending"] = static_cast<double>(sim.pending_events());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorTimerReset);

void BM_KvStorePut(benchmark::State& state) {
  store::KvStore store;
  Rng rng(7);
  for (auto _ : state) {
    store.Put(rng.Next(), "value");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KvStorePut);

void BM_KvStoreGet(benchmark::State& state) {
  store::KvStore store;
  Rng rng(7);
  std::vector<Key> keys;
  for (int i = 0; i < 100000; ++i) {
    keys.push_back(rng.Next());
    store.Put(keys.back(), "value");
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KvStoreGet);

void BM_KvStoreExtractRange(benchmark::State& state) {
  store::KvStore store;
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    store.Put(rng.Next(), "value");
  }
  const ring::KeyRange half{0, uint64_t{1} << 63};
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.ExtractRange(half));
  }
}
BENCHMARK(BM_KvStoreExtractRange);

void BM_RingMapLookup(benchmark::State& state) {
  ring::RingMap map;
  const size_t groups = static_cast<size_t>(state.range(0));
  const uint64_t arc = (~uint64_t{0} / groups) + 1;
  for (size_t i = 0; i < groups; ++i) {
    ring::GroupInfo info;
    info.id = i + 1;
    info.epoch = 1;
    info.range = ring::KeyRange{static_cast<Key>(arc * i),
                                i + 1 == groups
                                    ? Key{0}
                                    : static_cast<Key>(arc * (i + 1))};
    info.members = {1, 2, 3};
    map.Upsert(info);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Lookup(rng.Next()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RingMapLookup)->Arg(8)->Arg(64)->Arg(512);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(5);
  ZipfSampler zipf(1000000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSample);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(5);
  for (auto _ : state) {
    h.Record(static_cast<int64_t>(rng.Below(1000000)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

// Full replicated commits: client-visible puts against a 5-replica group on
// a simulated LAN (measures the whole stack: rpc, paxos, state machine).
// Arg = number of concurrent in-flight proposals (closed loop); each
// benchmark iteration is one committed op, so items_per_second is
// committed-ops/sec. Higher concurrency exercises the leader's group-commit
// batching and pipelining.
void BM_PaxosCommit(benchmark::State& state) {
  const uint64_t concurrency = static_cast<uint64_t>(state.range(0));
  core::ClusterConfig cfg;
  cfg.seed = 77;
  cfg.initial_nodes = 5;
  cfg.initial_groups = 1;
  // SCATTER_BENCH_OBS=on: the monitoring-overhead leg of the A/B that
  // scripts/bench_snapshot.sh records — tracing, health monitor and
  // timeline all live while the commit path is measured.
  const bool obs = bench::ObsEnabledFromEnv();
  cfg.enable_health_monitor = obs;
  cfg.enable_timeline = obs;
  core::Cluster cluster(cfg);
  if (obs) {
    cluster.sim().EnableTracing();
  }
  cluster.RunFor(Seconds(2));
  core::Client* client = cluster.AddClient();
  uint64_t issued = 0;
  uint64_t completed = 0;
  for (auto _ : state) {
    while (issued - completed < concurrency) {
      client->Put(issued++, "v", [&completed](Status) { completed++; });
    }
    const uint64_t want = completed + 1;
    while (completed < want) {
      cluster.sim().Step();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  // Commit-path efficiency: average Accept batch size and protocol messages
  // per committed op, aggregated over the single group's replicas.
  bench::CommitPathSummary summary;
  uint64_t group_committed = 0;
  for (NodeId id : cluster.live_node_ids()) {
    const core::ScatterNode* node = cluster.node(id);
    for (const auto* sm : node->ServingGroups()) {
      const paxos::Replica* rep = node->GroupReplica(sm->id());
      summary.AbsorbReplica(rep->stats());
      group_committed = std::max<uint64_t>(group_committed,
                                           rep->stats().entries_committed);
    }
  }
  summary.AddCommittedOps(group_committed);
  state.counters["avg_batch"] = summary.AvgBatch();
  state.counters["msgs_per_op"] = summary.MsgsPerCommittedOp();
}
BENCHMARK(BM_PaxosCommit)->Arg(1)->Arg(8)->Arg(64);

// Codec cost in isolation: one frame round-trip of a representative batched
// Accept (8 entries, each a small put). This is the per-delivery overhead
// the serializing transport adds on the hottest protocol message.
void BM_WireAcceptRoundTrip(benchmark::State& state) {
  core::RegisterScatterWireCodecs();
  paxos::AcceptMsg msg(1);
  msg.from = 1;
  msg.to = 2;
  msg.ballot = Ballot{3, 1};
  msg.commit_index = 100;
  for (uint64_t i = 0; i < 8; ++i) {
    paxos::LogEntry e;
    e.index = 100 + i;
    e.ballot = msg.ballot;
    auto cmd = std::make_shared<membership::PutCommand>(i, "value-payload");
    cmd->client_id = 9;
    cmd->client_seq = i;
    e.command = std::move(cmd);
    msg.entries.push_back(std::move(e));
  }
  for (auto _ : state) {
    wire::Buffer frame;
    wire::EncodeFrame(msg, frame);
    size_t consumed = 0;
    benchmark::DoNotOptimize(
        wire::DecodeFrame(frame.data(), frame.size(), &consumed, nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WireAcceptRoundTrip);

// Builds the representative batched Accept used by the wire benches:
// `entries` small puts sharing one ballot, the shape ReplicateTo emits on
// the commit path.
paxos::AcceptMsg MakeBatchedAccept(uint64_t entries) {
  paxos::AcceptMsg msg(1);
  msg.from = 1;
  msg.to = 2;
  msg.ballot = Ballot{3, 1};
  msg.commit_index = 100;
  for (uint64_t i = 0; i < entries; ++i) {
    paxos::LogEntry e;
    e.index = 100 + i;
    e.ballot = msg.ballot;
    auto cmd = std::make_shared<membership::PutCommand>(i, "value-payload");
    cmd->client_id = 9;
    cmd->client_seq = i;
    e.command = std::move(cmd);
    msg.entries.push_back(std::move(e));
  }
  return msg;
}

// Batched encode in isolation: the same N-entry batched Accept encoded over
// and over, each time into a fresh Buffer reserved to the message's size
// estimate — what the serializing transport does per delivery when
// ReplicateTo fans one batch out to peers.
// Counter: bytes_per_op, total frame bytes produced per encode.
void BM_WireEncodeBatched(benchmark::State& state) {
  core::RegisterScatterWireCodecs();
  paxos::AcceptMsg msg = MakeBatchedAccept(static_cast<uint64_t>(state.range(0)));
  uint64_t bytes = 0;
  for (auto _ : state) {
    wire::Buffer frame;
    frame.Reserve(msg.ByteSize() + 64);
    wire::EncodeFrame(msg, frame);
    bytes += frame.size();
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  state.counters["bytes_per_op"] =
      static_cast<double>(bytes) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WireEncodeBatched)->Arg(1)->Arg(8)->Arg(64);

// Transport A/B on the full commit path: identical seeded cluster and
// closed-loop put workload (concurrency 8), carried either by the zero-copy
// in-process transport (arg 0) or the serializing transport (arg 1). The
// delta is the end-to-end cost of encode -> bytes -> decode per delivery;
// the in-process leg doubles as a guard that the Transport seam itself adds
// nothing to the recorded BM_PaxosCommit baseline.
void BM_TransportCommit(benchmark::State& state) {
  core::ClusterConfig cfg;
  cfg.seed = 77;
  cfg.initial_nodes = 5;
  cfg.initial_groups = 1;
  cfg.transport = state.range(0) == 0 ? sim::TransportKind::kInProcess
                                      : sim::TransportKind::kSerializing;
  core::Cluster cluster(cfg);
  cluster.RunFor(Seconds(2));
  core::Client* client = cluster.AddClient();
  uint64_t issued = 0;
  uint64_t completed = 0;
  for (auto _ : state) {
    while (issued - completed < 8) {
      client->Put(issued++, "v", [&completed](Status) { completed++; });
    }
    const uint64_t want = completed + 1;
    while (completed < want) {
      cluster.sim().Step();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (const auto* ser =
          dynamic_cast<const wire::SerializingNetwork*>(&cluster.net())) {
    const double iters = static_cast<double>(state.iterations());
    state.counters["frames_per_op"] =
        static_cast<double>(ser->frames_serialized()) / iters;
    state.counters["wire_bytes_per_op"] =
        static_cast<double>(ser->bytes_serialized()) / iters;
  }
  state.SetLabel(cluster.net().transport_name());
}
BENCHMARK(BM_TransportCommit)->Arg(0)->Arg(1);

void BM_LeaseRead(benchmark::State& state) {
  const bool lease = state.range(0) != 0;
  core::ClusterConfig cfg;
  cfg.seed = 78;
  cfg.initial_nodes = 5;
  cfg.initial_groups = 1;
  cfg.scatter.paxos.enable_lease_reads = lease;
  core::Cluster cluster(cfg);
  cluster.RunFor(Seconds(2));
  core::Client* client = cluster.AddClient();
  bool seeded = false;
  client->Put(1, "v", [&seeded](Status) { seeded = true; });
  while (!seeded) {
    cluster.sim().Step();
  }
  for (auto _ : state) {
    bool done = false;
    client->Get(1, [&done](StatusOr<Value>) { done = true; });
    while (!done) {
      cluster.sim().Step();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LeaseRead)->Arg(1)->Arg(0);

void BM_LinearizabilityCheckSequential(benchmark::State& state) {
  std::vector<verify::Operation> history;
  TimeMicros t = 0;
  for (uint64_t i = 0; i < static_cast<uint64_t>(state.range(0)); ++i) {
    verify::Operation w;
    w.op_id = 2 * i + 1;
    w.type = verify::OpType::kWrite;
    w.key = 1;
    w.value = "v" + std::to_string(i);
    w.invoked_at = t;
    w.completed_at = t + 5;
    w.outcome = verify::Outcome::kOk;
    history.push_back(w);
    verify::Operation r = w;
    r.op_id = 2 * i + 2;
    r.type = verify::OpType::kRead;
    r.invoked_at = t + 10;
    r.completed_at = t + 15;
    history.push_back(r);
    t += 20;
  }
  verify::LinearizabilityChecker checker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.CheckKey(history));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) * state.range(0) * 2);
}
BENCHMARK(BM_LinearizabilityCheckSequential)->Arg(64)->Arg(512);

// One framed WAL append (length prefix + version/type + CRC32 over the
// payload) onto the simulated disk, fsyncing every 8 records the way the
// replica's group-commit scheduler batches barriers. Arg = payload bytes.
// The file is rewritten empty every 4k records (the checkpoint-truncation
// path) so the benchmark measures steady-state append cost, not the cost of
// growing one unbounded file.
void BM_WalAppend(benchmark::State& state) {
  storage::SimDisk disk;
  storage::Wal wal(&disk, "bench.wal");
  std::vector<uint8_t> bytes(static_cast<size_t>(state.range(0)), 0xA5);
  wire::Buffer payload;
  payload.WriteBytes(bytes.data(), bytes.size());
  const wire::Buffer empty;
  uint64_t appended = 0;
  for (auto _ : state) {
    wal.Append(/*type=*/2, payload);
    if (++appended % 8 == 0) {
      wal.Sync();
    }
    if (appended % 4096 == 0) {
      wal.Rewrite(empty);
    }
  }
  wal.Sync();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WalAppend)->Arg(64)->Arg(1024);

class NullGroupListener : public membership::GroupListener {
 public:
  void OnGroupsFounded(GroupId,
                       const std::vector<membership::FoundingGroup>&) override {}
};

membership::GroupState EmptyGroupState(GroupId id) {
  membership::GroupState state;
  state.id = id;
  return state;
}

// Full crash-recovery replay: a group journal holding a checkpoint plus
// Arg accepted-and-committed PutCommand entries is rebuilt from disk —
// snapshot decode, WAL scan with per-record CRC verification, and command
// decode for every entry. Items/sec is log entries replayed per second.

void BM_RecoveryReplay(benchmark::State& state) {
  core::RegisterScatterWireCodecs();
  storage::SimDisk disk;
  obs::MetricsRegistry metrics;
  const GroupId group = 7;
  paxos::GroupJournal journal(&disk, &metrics, /*node=*/1, group);
  NullGroupListener listener;
  const membership::GroupStateMachine sm(&listener, EmptyGroupState(group));
  const std::vector<NodeId> config = {1, 2, 3};
  const Ballot ballot{1, 1};
  journal.WriteCheckpoint(/*last_included_index=*/0, Ballot{}, config,
                          /*config_index=*/0, sm, ballot,
                          /*commit_index=*/0, {});
  const uint64_t entries = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 1; i <= entries; ++i) {
    paxos::LogEntry e;
    e.index = i;
    e.ballot = ballot;
    e.command = std::make_shared<membership::PutCommand>(i, "bench-value");
    journal.LogAccept(e);
    journal.LogCommit(i);
    if (i % 8 == 0) {
      journal.Sync();
    }
  }
  journal.Sync();
  for (auto _ : state) {
    paxos::RecoveredState recovered;
    const bool ok = paxos::GroupJournal::Recover(disk, group, &recovered);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(recovered.entries.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RecoveryReplay)->Arg(256)->Arg(2048);

}  // namespace
}  // namespace scatter

// Expanded BENCHMARK_MAIN so the report carries the build type of the repo
// code under test (see bench::kScatterBuildType for why the library's own
// "library_build_type" field can't be trusted for this).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("scatter_build_type",
                              scatter::bench::kScatterBuildType);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
