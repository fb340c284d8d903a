// Crash-recovery integration tests: a 12-node persisted cluster whose
// crashed replicas restart from their own WAL + snapshots.
//
// The acceptance contract of the durability work, pinned here:
//   - a crashed + restarted replica rebuilds every group it hosts from its
//     own disk, with ZERO snapshot installs (no state transfer);
//   - persistence is behavior-neutral absent crashes: the same seeded run
//     is bit-identical (event-for-event) with the journal on or off;
//   - group commit batches fsyncs (fsyncs strictly below appends);
//   - a wiped disk degrades to the amnesiac rejoin path;
//   - the durability invariant checker catches post-recovery rewrites of
//     journaled state.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/invariant_auditor.h"
#include "src/common/hash.h"
#include "src/core/cluster.h"
#include "src/paxos/replica.h"

namespace scatter::core {
namespace {

ClusterConfig PersistedConfig(uint64_t seed) {
  ClusterConfig cfg;
  cfg.seed = seed;
  cfg.initial_nodes = 12;
  cfg.initial_groups = 3;
  // Static layout: structural churn is exercised elsewhere; these tests
  // need stable groups so before/after comparisons are meaningful.
  cfg.scatter.policy.enable_split = false;
  cfg.scatter.policy.enable_merge = false;
  cfg.scatter.policy.enable_migration = false;
  cfg.scatter.policy.min_group_size = 1;
  cfg.scatter.policy.max_group_size = 64;
  cfg.persistence = ClusterConfig::Persistence::kOn;
  return cfg;
}

bool PutSync(Cluster& c, Client* client, const std::string& name,
             const Value& value, TimeMicros limit = Seconds(15)) {
  bool done = false;
  bool ok = false;
  client->Put(KeyFromString(name), value, [&](Status s) {
    done = true;
    ok = s.ok();
  });
  const TimeMicros deadline = c.sim().now() + limit;
  while (!done && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  return done && ok;
}

StatusOr<Value> GetSync(Cluster& c, Client* client, const std::string& name,
                        TimeMicros limit = Seconds(15)) {
  StatusOr<Value> out = UnavailableError("did not complete");
  bool done = false;
  client->Get(KeyFromString(name), [&](StatusOr<Value> result) {
    done = true;
    out = std::move(result);
  });
  const TimeMicros deadline = c.sim().now() + limit;
  while (!done && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  return out;
}

// First live node serving at least one group.
NodeId PickGroupHostingNode(Cluster& c) {
  for (NodeId id : c.live_node_ids()) {
    if (!c.node(id)->ServingGroups().empty()) {
      return id;
    }
  }
  return kInvalidNode;
}

// Sum of a counter's cells belonging to `node` (all groups).
uint64_t NodeCounterTotal(Cluster& c, const std::string& name, NodeId node) {
  uint64_t total = 0;
  c.sim().metrics().ForEachCounter(
      name, [&](NodeId n, GroupId, const Counter& counter) {
        if (n == node) {
          total += counter.value;
        }
      });
  return total;
}

uint64_t CounterTotal(Cluster& c, const std::string& name) {
  uint64_t total = 0;
  c.sim().metrics().ForEachCounter(
      name, [&](NodeId, GroupId, const Counter& counter) {
        total += counter.value;
      });
  return total;
}

TEST(RecoveryTest, CrashedReplicaRecoversFromOwnDiskWithoutStateTransfer) {
  Cluster c(PersistedConfig(11));
  ASSERT_TRUE(c.persistence_enabled());
  c.RunFor(Seconds(3));
  Client* client = c.AddClient();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(PutSync(c, client, "rk" + std::to_string(i),
                        "v" + std::to_string(i)));
  }
  c.RunFor(Seconds(2));  // followers apply; journals flush

  const NodeId victim = PickGroupHostingNode(c);
  ASSERT_NE(victim, kInvalidNode);
  const size_t groups_before = c.node(victim)->ServingGroups().size();
  ASSERT_GT(groups_before, 0u);
  const uint64_t installs_before =
      NodeCounterTotal(c, "paxos.snapshots_installed", victim);

  c.CrashNode(victim);
  c.RunFor(Millis(500));
  const size_t recovered = c.RestartNode(victim);
  EXPECT_EQ(recovered, groups_before)
      << "restart must rebuild every group the node hosted a checkpoint for";

  // Every recovered replica carries its recovery floor, and the rebuild
  // consumed the local journal — not a state transfer from a peer.
  for (const auto* sm : c.node(victim)->ServingGroups()) {
    const paxos::Replica* replica = c.node(victim)->GroupReplica(sm->id());
    ASSERT_NE(replica, nullptr);
    EXPECT_TRUE(replica->recovery_floor().recovered);
  }
  EXPECT_GT(NodeCounterTotal(c, "recovery.wal_records", victim), 0u);

  c.RunFor(Seconds(10));  // catch up, re-elect, serve
  EXPECT_EQ(NodeCounterTotal(c, "paxos.snapshots_installed", victim),
            installs_before)
      << "recovery from local disk must not install peer snapshots";

  c.RefreshSeeds();
  for (int i = 0; i < 30; ++i) {
    const StatusOr<Value> got = GetSync(c, client, "rk" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "rk" << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
}

TEST(RecoveryTest, RecoveredReplicaRebuildsVotingConfig) {
  Cluster c(PersistedConfig(13));
  c.RunFor(Seconds(3));
  // A joiner's add-member entry lands in its group's log (and WAL).
  const NodeId joiner = c.SpawnNode();
  c.RunFor(Seconds(5));
  ASSERT_FALSE(c.node(joiner)->ServingGroups().empty());
  const GroupId gid = c.node(joiner)->ServingGroups().front()->id();

  NodeId victim = kInvalidNode;
  for (NodeId id : c.live_node_ids()) {
    if (id != joiner && c.node(id)->GroupReplica(gid) != nullptr) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kInvalidNode);
  std::map<GroupId, std::vector<NodeId>> before;
  for (const auto* sm : c.node(victim)->ServingGroups()) {
    before[sm->id()] = c.node(victim)->GroupReplica(sm->id())->members();
  }
  const paxos::Replica* replica = c.node(victim)->GroupReplica(gid);
  ASSERT_FALSE(replica->log().config_entries().empty())
      << "the add-member entry must still be in the log, so recovery "
      << "rebuilds the config from replayed entries";
  EXPECT_EQ(std::count(before[gid].begin(), before[gid].end(), joiner), 1);

  c.CrashNode(victim);
  ASSERT_EQ(c.RestartNode(victim), before.size());
  for (const auto& [group, members] : before) {
    const paxos::Replica* recovered = c.node(victim)->GroupReplica(group);
    ASSERT_NE(recovered, nullptr);
    EXPECT_TRUE(recovered->recovery_floor().recovered);
    EXPECT_EQ(recovered->members(), members) << "g" << group;
  }
  EXPECT_FALSE(
      c.node(victim)->GroupReplica(gid)->log().config_entries().empty());
}

TEST(RecoveryTest, RestartedGroupOpRateCountsOnlyPostRestartOps) {
  // A one-node, one-group cluster: the node leads its group before and
  // after the restart, so it accepts every op and advertises the rate.
  ClusterConfig cfg = PersistedConfig(17);
  cfg.initial_nodes = 1;
  cfg.initial_groups = 1;
  Cluster c(cfg);
  Client* client = c.AddClient();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(PutSync(c, client, "pre" + std::to_string(i), "v"));
  }
  c.RunFor(Seconds(3));
  const NodeId victim = c.live_node_ids().front();
  const GroupId gid = c.node(victim)->ServingGroups().front()->id();
  const obs::SlidingWindow* ops =
      c.sim().metrics().FindWindow("store.window.ops", victim, gid);
  ASSERT_NE(ops, nullptr);
  const uint64_t pre_crash = ops->total();
  ASSERT_GE(pre_crash, 30u);

  c.CrashNode(victim);
  c.RunFor(Millis(500));
  ASSERT_EQ(c.RestartNode(victim), 1u);
  const TimeMicros restarted_at = c.sim().now();
  constexpr int kPostOps = 10;
  for (int i = 0; i < kPostOps; ++i) {
    ASSERT_TRUE(PutSync(c, client, "post" + std::to_string(i), "v"));
  }
  // The restarted node re-got the same registry cell, still holding the
  // pre-crash total.
  EXPECT_EQ(ops->total(), pre_crash + kPostOps);
  // No policy tick of the restarted node yet.
  const TimeMicros interval = cfg.scatter.policy.policy_interval;
  ASSERT_LT(c.sim().now() - restarted_at, interval);

  // Step to the first tick that moves the recovered group's rate.
  std::optional<double> rate;
  const TimeMicros deadline = c.sim().now() + Seconds(10);
  while (c.sim().now() < deadline && c.sim().Step()) {
    for (const ring::GroupInfo& info : c.node(victim)->ServingInfos()) {
      if (info.id == gid && info.has_op_rate && info.op_rate != 0.0) {
        rate = info.op_rate;
      }
    }
    if (rate.has_value()) {
      break;
    }
  }
  ASSERT_TRUE(rate.has_value());
  const double interval_s =
      static_cast<double>(interval) / static_cast<double>(Seconds(1));
  EXPECT_DOUBLE_EQ(*rate, 0.5 * kPostOps / interval_s)
      << "the first post-restart tick must count only post-restart ops";
}

TEST(RecoveryTest, GroupCommitBatchesFsyncs) {
  Cluster c(PersistedConfig(12));
  c.RunFor(Seconds(3));
  Client* client = c.AddClient();
  // Pipelined load: all puts in flight at once, so the leader journals
  // several accepts between outgoing flushes and one barrier covers them
  // (sequential one-at-a-time puts would degenerate to batch == 1).
  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    client->Put(KeyFromString("bk" + std::to_string(i)), "v",
                [&completed](Status s) {
                  ASSERT_TRUE(s.ok());
                  ++completed;
                });
  }
  const TimeMicros deadline = c.sim().now() + Seconds(30);
  while (completed < 40 && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  ASSERT_EQ(completed, 40);
  c.RunFor(Seconds(1));

  const uint64_t appends = CounterTotal(c, "wal.appends");
  const uint64_t fsyncs = CounterTotal(c, "wal.fsyncs");
  ASSERT_GT(appends, 0u);
  ASSERT_GT(fsyncs, 0u);
  EXPECT_LT(fsyncs, appends)
      << "group commit must cover multiple appends per fsync barrier";
}

TEST(RecoveryTest, WipedDiskFallsBackToAmnesiacRejoin) {
  Cluster c(PersistedConfig(13));
  c.RunFor(Seconds(3));
  Client* client = c.AddClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(PutSync(c, client, "wk" + std::to_string(i), "v"));
  }
  c.RunFor(Seconds(2));

  const NodeId victim = PickGroupHostingNode(c);
  ASSERT_NE(victim, kInvalidNode);
  c.CrashNode(victim);
  c.RunFor(Millis(500));
  c.WipeDisk(victim);
  const size_t recovered = c.RestartNode(victim);
  EXPECT_EQ(recovered, 0u) << "a wiped disk has nothing to recover from";

  // The cluster still serves everything (quorums survived the crash).
  c.RunFor(Seconds(10));
  c.RefreshSeeds();
  for (int i = 0; i < 10; ++i) {
    const StatusOr<Value> got = GetSync(c, client, "wk" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "wk" << i << ": " << got.status().ToString();
  }
}

// Persistence must be invisible absent crashes: the same seed, workload and
// transport produce the same simulation event-for-event whether every
// replica journals or none does.
TEST(RecoveryTest, PersistenceIsBehaviorNeutralAbsentCrashes) {
  uint64_t events[2] = {0, 0};
  std::string reads[2];
  for (int leg = 0; leg < 2; ++leg) {
    ClusterConfig cfg = PersistedConfig(21);
    cfg.persistence = leg == 0 ? ClusterConfig::Persistence::kOn
                               : ClusterConfig::Persistence::kOff;
    Cluster c(cfg);
    c.RunFor(Seconds(3));
    Client* client = c.AddClient();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(PutSync(c, client, "dk" + std::to_string(i),
                          "v" + std::to_string(i)));
    }
    c.RunFor(Seconds(5));
    for (int i = 0; i < 20; ++i) {
      const StatusOr<Value> got = GetSync(c, client, "dk" + std::to_string(i));
      ASSERT_TRUE(got.ok());
      reads[leg] += *got + ";";
    }
    events[leg] = c.sim().events_processed();
  }
  EXPECT_EQ(events[0], events[1])
      << "journaling changed the event schedule of a crash-free run";
  EXPECT_EQ(reads[0], reads[1]);
}

// The durability checker (analysis layer) must catch a replica whose
// journaled state regresses after recovery.
TEST(RecoveryTest, AuditorDetectsPostRecoveryLogRewrite) {
  Cluster c(PersistedConfig(31));
  c.RunFor(Seconds(3));
  Client* client = c.AddClient();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(PutSync(c, client, "ak" + std::to_string(i), "v"));
  }
  c.RunFor(Seconds(2));

  const NodeId victim = PickGroupHostingNode(c);
  ASSERT_NE(victim, kInvalidNode);
  c.CrashNode(victim);
  c.RunFor(Millis(500));
  ASSERT_GT(c.RestartNode(victim), 0u);

  // Find a recovered replica holding a digest-protected slot and rewrite it.
  paxos::Replica* mutated = nullptr;
  for (const auto* sm : c.node(victim)->ServingGroups()) {
    paxos::Replica* replica =
        c.node(victim)->MutableGroupReplicaForTest(sm->id());
    ASSERT_NE(replica, nullptr);
    const auto& floor = replica->recovery_floor();
    ASSERT_TRUE(floor.recovered);
    for (const auto& [index, digest] : floor.entry_digests) {
      if (replica->log().At(index) != nullptr) {
        replica->CorruptCommittedEntryForTest(index);
        mutated = replica;
        break;
      }
    }
    if (mutated != nullptr) {
      break;
    }
  }
  ASSERT_NE(mutated, nullptr) << "no digest-protected slot found to corrupt";

  analysis::AuditorOptions opts;
  opts.abort_on_violation = false;
  analysis::InvariantAuditor auditor(&c, opts);
  auditor.RunOnce();
  bool durability_violation = false;
  for (const analysis::Violation& v : auditor.violations()) {
    if (v.checker == "durability") {
      durability_violation = true;
    }
  }
  EXPECT_TRUE(durability_violation)
      << "post-recovery rewrite of a journaled slot went undetected";
}

}  // namespace
}  // namespace scatter::core
