// Unit tests for the group state machine: write semantics, dedup, split,
// merge and repartition apply logic, freezing, and snapshots — driven
// directly (no Paxos) with a recording listener. The dedup ring is checked
// differentially against the map-based window it replaced, and in-place
// checkpoint encoding against the snapshot-copy encoding.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/membership/commands.h"
#include "src/membership/group_state_machine.h"
#include "src/membership/wire_codecs.h"
#include "src/membership/wire_fields.h"
#include "src/obs/metrics.h"
#include "src/paxos/journal.h"
#include "src/paxos/payload_codec.h"
#include "src/storage/sim_disk.h"
#include "src/wire/buffer.h"

namespace scatter::membership {
namespace {

using ring::GroupInfo;
using ring::KeyRange;

class RecordingListener : public GroupListener {
 public:
  void OnGroupsFounded(GroupId retired,
                       const std::vector<FoundingGroup>& groups) override {
    retired_groups.push_back(retired);
    founded.insert(founded.end(), groups.begin(), groups.end());
  }
  std::vector<GroupId> retired_groups;
  std::vector<FoundingGroup> founded;
};

GroupState MakeState(GroupId id, KeyRange range, uint64_t epoch = 1) {
  GroupState s;
  s.id = id;
  s.range = range;
  s.epoch = epoch;
  return s;
}

class GroupSmTest : public ::testing::Test {
 protected:
  GroupSmTest() { Reset(MakeState(1, KeyRange{0, 1000})); }

  void Reset(GroupState initial) {
    sm_ = std::make_unique<GroupStateMachine>(&listener_, std::move(initial));
    sm_->BindConfigProvider([this]() { return members_; });
  }

  void Put(Key k, Value v, uint64_t client = 0, uint64_t seq = 0) {
    auto cmd = std::make_shared<PutCommand>(k, std::move(v));
    cmd->client_id = client;
    cmd->client_seq = seq;
    sm_->Apply(++index_, *cmd);
  }

  RecordingListener listener_;
  std::unique_ptr<GroupStateMachine> sm_;
  std::vector<NodeId> members_{1, 2, 3};
  uint64_t index_ = 0;
};

TEST_F(GroupSmTest, PutAppliesInRange) {
  Put(5, "x");
  EXPECT_EQ(sm_->state().data.Get(5), "x");
  EXPECT_EQ(sm_->stats().puts_applied, 1u);
}

TEST_F(GroupSmTest, PutOutsideRangeRejected) {
  Put(5000, "x", /*client=*/9, /*seq=*/1);
  EXPECT_FALSE(sm_->state().data.Get(5000).has_value());
  EXPECT_EQ(sm_->ResultFor(9, 1), StatusCode::kWrongGroup);
}

TEST_F(GroupSmTest, DedupSuppressesRetry) {
  Put(5, "first", /*client=*/7, /*seq=*/1);
  Put(5, "retry-should-not-apply", /*client=*/7, /*seq=*/1);
  EXPECT_EQ(sm_->state().data.Get(5), "first");
  EXPECT_EQ(sm_->ResultFor(7, 1), StatusCode::kOk);
  EXPECT_EQ(sm_->ResultFor(7, 2), std::nullopt);
}

TEST_F(GroupSmTest, DeleteRemoves) {
  Put(5, "x");
  DeleteCommand del(5);
  sm_->Apply(++index_, del);
  EXPECT_FALSE(sm_->state().data.Get(5).has_value());
}

TEST_F(GroupSmTest, SplitPartitionsStateAndRetires) {
  for (Key k = 0; k < 1000; k += 100) {
    Put(k, "v" + std::to_string(k));
  }
  SplitCommand split;
  split.split_key = 500;
  split.left_id = 10;
  split.right_id = 11;
  split.left_members = {1, 2};
  split.right_members = {3};
  sm_->Apply(++index_, split);

  EXPECT_TRUE(sm_->IsRetired());
  ASSERT_EQ(listener_.founded.size(), 2u);
  const FoundingGroup& left = listener_.founded[0];
  const FoundingGroup& right = listener_.founded[1];
  EXPECT_EQ(left.info.id, 10u);
  EXPECT_EQ(left.info.range, (KeyRange{0, 500}));
  EXPECT_EQ(right.info.range, (KeyRange{500, 1000}));
  EXPECT_EQ(left.info.epoch, 2u);
  EXPECT_EQ(left.data.size(), 5u);
  EXPECT_EQ(right.data.size(), 5u);
  EXPECT_TRUE(left.data.Get(400).has_value());
  EXPECT_TRUE(right.data.Get(500).has_value());
  // Children are each other's neighbors.
  EXPECT_EQ(left.succ.id, right.info.id);
  EXPECT_EQ(right.pred.id, left.info.id);
  // Redirects point at the children.
  ASSERT_EQ(sm_->state().forward.size(), 2u);
}

TEST_F(GroupSmTest, SplitRejectedWhileFrozen) {
  RingTxn txn;
  txn.id = 99;
  txn.kind = RingTxn::Kind::kMerge;
  txn.coord_group = 1;
  txn.part_group = 2;
  txn.coord_range = sm_->range();
  txn.coord_epoch = sm_->epoch();
  CoordStartCommand start;
  start.txn = txn;
  sm_->Apply(++index_, start);
  ASSERT_TRUE(sm_->IsFrozen());

  SplitCommand split;
  split.split_key = 500;
  split.left_id = 10;
  split.right_id = 11;
  split.left_members = {1};
  split.right_members = {2};
  sm_->Apply(++index_, split);
  EXPECT_FALSE(sm_->IsRetired());
  EXPECT_TRUE(listener_.founded.empty());
}

TEST_F(GroupSmTest, WritesRejectedWhileFrozen) {
  RingTxn txn;
  txn.id = 99;
  txn.kind = RingTxn::Kind::kMerge;
  txn.coord_group = 1;
  txn.part_group = 2;
  txn.coord_range = sm_->range();
  txn.coord_epoch = sm_->epoch();
  CoordStartCommand start;
  start.txn = txn;
  sm_->Apply(++index_, start);

  Put(5, "x", /*client=*/3, /*seq=*/1);
  EXPECT_FALSE(sm_->state().data.Get(5).has_value());
  // The rejection is NOT recorded in the dedup table: under group-commit
  // batching a write can ride the same broadcast as the freeze command, and
  // a recorded rejection would answer every retry of that seq forever.
  EXPECT_EQ(sm_->ResultFor(3, 1), std::nullopt);

  // Abort unfreezes; a retry of the SAME seq now applies.
  CoordDecideCommand abort_cmd;
  abort_cmd.txn_id = 99;
  abort_cmd.commit = false;
  sm_->Apply(++index_, abort_cmd);
  EXPECT_FALSE(sm_->IsFrozen());
  EXPECT_EQ(sm_->OutcomeOf(99), false);
  Put(5, "y", /*client=*/3, /*seq=*/1);
  EXPECT_EQ(sm_->state().data.Get(5), "y");
  EXPECT_EQ(sm_->ResultFor(3, 1), StatusCode::kOk);
}

TEST_F(GroupSmTest, CoordStartEpochMismatchAbortsImmediately) {
  RingTxn txn;
  txn.id = 42;
  txn.coord_group = 1;
  txn.coord_range = sm_->range();
  txn.coord_epoch = sm_->epoch() + 5;  // stale/future epoch
  CoordStartCommand start;
  start.txn = txn;
  sm_->Apply(++index_, start);
  EXPECT_FALSE(sm_->IsFrozen());
  EXPECT_EQ(sm_->OutcomeOf(42), false);
}

// Drives a full merge across two state machines the way the log entries
// would on the coordinator and participant groups, and checks both compute
// identical successor groups.
TEST(GroupSmMergeTest, BothSidesDeriveIdenticalMergedGroup) {
  RecordingListener lc;
  RecordingListener lp;
  GroupStateMachine coord(&lc, MakeState(1, KeyRange{0, 500}));
  GroupStateMachine part(&lp, MakeState(2, KeyRange{500, 1000}));
  coord.BindConfigProvider([]() { return std::vector<NodeId>{1, 2}; });
  part.BindConfigProvider([]() { return std::vector<NodeId>{3, 4}; });

  uint64_t ic = 0;
  uint64_t ip = 0;
  {
    PutCommand p(100, "coord-data");
    coord.Apply(++ic, p);
    PutCommand q(700, "part-data");
    part.Apply(++ip, q);
  }

  RingTxn txn;
  txn.id = 77;
  txn.kind = RingTxn::Kind::kMerge;
  txn.coord_group = 1;
  txn.part_group = 2;
  txn.coord_range = KeyRange{0, 500};
  txn.part_range = KeyRange{500, 1000};
  txn.coord_epoch = 1;
  txn.part_epoch = 1;
  txn.merged_id = 9;

  CoordStartCommand start;
  start.txn = txn;
  coord.Apply(++ic, start);
  ASSERT_TRUE(coord.IsFrozen());

  PrepareCommand prep;
  prep.txn = txn;
  prep.coord_members = coord.state().active->my_members;
  prep.coord_data = coord.state().data;
  prep.coord_dedup = coord.state().dedup;
  prep.coord_outer_neighbor = coord.state().pred;
  part.Apply(++ip, prep);
  ASSERT_TRUE(part.IsFrozen());

  CoordDecideCommand decide;
  decide.txn_id = 77;
  decide.commit = true;
  decide.part_members = part.state().active->my_members;
  decide.part_data = part.state().data;
  decide.part_dedup = part.state().dedup;
  decide.part_outer_neighbor = part.state().succ;
  coord.Apply(++ic, decide);

  DecideCommand pdecide;
  pdecide.txn_id = 77;
  pdecide.commit = true;
  part.Apply(++ip, pdecide);

  EXPECT_TRUE(coord.IsRetired());
  EXPECT_TRUE(part.IsRetired());
  ASSERT_EQ(lc.founded.size(), 1u);
  ASSERT_EQ(lp.founded.size(), 1u);
  const FoundingGroup& a = lc.founded[0];
  const FoundingGroup& b = lp.founded[0];
  EXPECT_EQ(a.info.id, b.info.id);
  EXPECT_EQ(a.info.id, 9u);
  EXPECT_EQ(a.info.range, b.info.range);
  EXPECT_EQ(a.info.range, (KeyRange{0, 1000}));
  EXPECT_EQ(a.info.epoch, b.info.epoch);
  EXPECT_EQ(a.info.members, b.info.members);
  EXPECT_EQ(a.info.members, (std::vector<NodeId>{1, 2, 3, 4}));
  EXPECT_EQ(a.data, b.data);
  EXPECT_TRUE(a.data.Get(100).has_value());
  EXPECT_TRUE(a.data.Get(700).has_value());
  EXPECT_EQ(a.inherited_txns.at(77), true);
  EXPECT_EQ(coord.OutcomeOf(77), true);
  EXPECT_EQ(part.OutcomeOf(77), true);
}

TEST(GroupSmRepartitionTest, BoundaryMovesDataCoordinatorSheds) {
  RecordingListener lc;
  RecordingListener lp;
  GroupStateMachine coord(&lc, MakeState(1, KeyRange{0, 500}));
  GroupStateMachine part(&lp, MakeState(2, KeyRange{500, 1000}));
  coord.BindConfigProvider([]() { return std::vector<NodeId>{1, 2}; });
  part.BindConfigProvider([]() { return std::vector<NodeId>{3, 4}; });

  uint64_t ic = 0;
  uint64_t ip = 0;
  for (Key k = 0; k < 500; k += 50) {
    PutCommand p(k, "c");
    coord.Apply(++ic, p);
  }

  // Move the boundary from 500 down to 300: [300, 500) moves coord -> part.
  RingTxn txn;
  txn.id = 88;
  txn.kind = RingTxn::Kind::kRepartition;
  txn.coord_group = 1;
  txn.part_group = 2;
  txn.coord_range = KeyRange{0, 500};
  txn.part_range = KeyRange{500, 1000};
  txn.coord_epoch = 1;
  txn.part_epoch = 1;
  txn.new_boundary = 300;

  CoordStartCommand start;
  start.txn = txn;
  coord.Apply(++ic, start);

  PrepareCommand prep;
  prep.txn = txn;
  prep.coord_members = coord.state().active->my_members;
  prep.coord_data =
      coord.state().data.ExtractRange(KeyRange{300, 500});  // moved data
  prep.coord_dedup = coord.state().dedup;
  part.Apply(++ip, prep);
  ASSERT_TRUE(part.IsFrozen());

  CoordDecideCommand decide;
  decide.txn_id = 88;
  decide.commit = true;
  decide.part_members = part.state().active->my_members;
  // Participant ships nothing (it is gaining).
  coord.Apply(++ic, decide);

  DecideCommand pdecide;
  pdecide.txn_id = 88;
  pdecide.commit = true;
  part.Apply(++ip, pdecide);

  EXPECT_FALSE(coord.IsRetired());
  EXPECT_FALSE(part.IsRetired());
  EXPECT_EQ(coord.range(), (KeyRange{0, 300}));
  EXPECT_EQ(part.range(), (KeyRange{300, 1000}));
  EXPECT_EQ(coord.epoch(), 2u);
  EXPECT_EQ(part.epoch(), 2u);
  // Data at 300..450 now lives in the participant, not the coordinator.
  EXPECT_FALSE(coord.state().data.Get(350).has_value());
  EXPECT_TRUE(part.state().data.Get(350).has_value());
  EXPECT_TRUE(coord.state().data.Get(250).has_value());
  // Neighbor links updated with the new geometry.
  EXPECT_EQ(coord.state().succ.range, (KeyRange{300, 1000}));
  EXPECT_EQ(part.state().pred.range, (KeyRange{0, 300}));
}

// Structural operations across the ring's 0 boundary (wrapping arcs).
TEST(GroupSmWrapTest, SplitWrappingRange) {
  RecordingListener l;
  // Range wraps: [2^64-1000, 500).
  const Key begin = ~uint64_t{0} - 999;
  GroupStateMachine sm(&l, MakeState(1, KeyRange{begin, 500}));
  sm.BindConfigProvider([]() { return std::vector<NodeId>{1, 2}; });
  uint64_t i = 0;
  PutCommand high(~uint64_t{0} - 5, "high");
  sm.Apply(++i, high);
  PutCommand low(100, "low");
  sm.Apply(++i, low);

  SplitCommand split;
  split.split_key = 0;  // Exactly at the wrap point.
  split.left_id = 10;
  split.right_id = 11;
  split.left_members = {1};
  split.right_members = {2};
  sm.Apply(++i, split);
  ASSERT_TRUE(sm.IsRetired());
  ASSERT_EQ(l.founded.size(), 2u);
  EXPECT_EQ(l.founded[0].info.range, (KeyRange{begin, 0}));
  EXPECT_EQ(l.founded[1].info.range, (KeyRange{0, 500}));
  EXPECT_TRUE(l.founded[0].data.Get(~uint64_t{0} - 5).has_value());
  EXPECT_FALSE(l.founded[0].data.Get(100).has_value());
  EXPECT_TRUE(l.founded[1].data.Get(100).has_value());
}

TEST(GroupSmWrapTest, MergeAcrossZeroBoundary) {
  RecordingListener lc;
  RecordingListener lp;
  const Key begin = ~uint64_t{0} - 999;
  GroupStateMachine coord(&lc, MakeState(1, KeyRange{begin, 0}));
  GroupStateMachine part(&lp, MakeState(2, KeyRange{0, 500}));
  coord.BindConfigProvider([]() { return std::vector<NodeId>{1}; });
  part.BindConfigProvider([]() { return std::vector<NodeId>{2}; });
  uint64_t ic = 0;
  uint64_t ip = 0;

  RingTxn txn;
  txn.id = 5;
  txn.kind = RingTxn::Kind::kMerge;
  txn.coord_group = 1;
  txn.part_group = 2;
  txn.coord_range = KeyRange{begin, 0};
  txn.part_range = KeyRange{0, 500};
  txn.coord_epoch = 1;
  txn.part_epoch = 1;
  txn.merged_id = 9;

  CoordStartCommand start;
  start.txn = txn;
  coord.Apply(++ic, start);
  PrepareCommand prep;
  prep.txn = txn;
  prep.coord_members = {1};
  part.Apply(++ip, prep);
  CoordDecideCommand decide;
  decide.txn_id = 5;
  decide.commit = true;
  decide.part_members = {2};
  coord.Apply(++ic, decide);

  ASSERT_EQ(lc.founded.size(), 1u);
  // Merged arc wraps: [2^64-1000, 500).
  EXPECT_EQ(lc.founded[0].info.range, (KeyRange{begin, 500}));
  EXPECT_TRUE(lc.founded[0].info.range.Contains(0));
  EXPECT_TRUE(lc.founded[0].info.range.Contains(~uint64_t{0}));
  EXPECT_FALSE(lc.founded[0].info.range.Contains(1000));
}

TEST(GroupSmWrapTest, RepartitionAcrossZeroBoundary) {
  RecordingListener lc;
  RecordingListener lp;
  const Key begin = ~uint64_t{0} - 999;
  GroupStateMachine coord(&lc, MakeState(1, KeyRange{begin, 0}));
  GroupStateMachine part(&lp, MakeState(2, KeyRange{0, 500}));
  coord.BindConfigProvider([]() { return std::vector<NodeId>{1}; });
  part.BindConfigProvider([]() { return std::vector<NodeId>{2}; });
  uint64_t ic = 0;
  uint64_t ip = 0;
  PutCommand p(~uint64_t{0} - 5, "moves");
  coord.Apply(++ic, p);

  // Move the boundary from 0 back to 2^64-500: [2^64-500, 0) moves
  // coordinator -> participant, and the participant's arc now wraps.
  const Key b = ~uint64_t{0} - 499;
  RingTxn txn;
  txn.id = 6;
  txn.kind = RingTxn::Kind::kRepartition;
  txn.coord_group = 1;
  txn.part_group = 2;
  txn.coord_range = KeyRange{begin, 0};
  txn.part_range = KeyRange{0, 500};
  txn.coord_epoch = 1;
  txn.part_epoch = 1;
  txn.new_boundary = b;

  CoordStartCommand start;
  start.txn = txn;
  coord.Apply(++ic, start);
  ASSERT_TRUE(coord.IsFrozen());
  PrepareCommand prep;
  prep.txn = txn;
  prep.coord_members = {1};
  prep.coord_data = coord.state().data.ExtractRange(KeyRange{b, 0});
  part.Apply(++ip, prep);
  ASSERT_TRUE(part.IsFrozen());
  CoordDecideCommand decide;
  decide.txn_id = 6;
  decide.commit = true;
  decide.part_members = {2};
  coord.Apply(++ic, decide);
  DecideCommand pdecide;
  pdecide.txn_id = 6;
  pdecide.commit = true;
  part.Apply(++ip, pdecide);

  EXPECT_EQ(coord.range(), (KeyRange{begin, b}));
  EXPECT_EQ(part.range(), (KeyRange{b, 500}));
  EXPECT_TRUE(part.range().Contains(0));
  EXPECT_FALSE(coord.state().data.Get(~uint64_t{0} - 5).has_value());
  EXPECT_TRUE(part.state().data.Get(~uint64_t{0} - 5).has_value());
}

TEST(GroupSmSnapshotTest, RoundTripPreservesState) {
  RecordingListener l;
  GroupStateMachine sm(&l, MakeState(1, KeyRange{0, 1000}));
  sm.BindConfigProvider([]() { return std::vector<NodeId>{1}; });
  uint64_t i = 0;
  PutCommand p(5, "x");
  p.client_id = 3;
  p.client_seq = 4;
  sm.Apply(++i, p);

  auto snap = sm.TakeSnapshot();
  GroupStateMachine other(&l, MakeState(1, KeyRange::Full()));
  other.BindConfigProvider([]() { return std::vector<NodeId>{1}; });
  other.Restore(*snap);
  EXPECT_EQ(other.range(), (KeyRange{0, 1000}));
  EXPECT_EQ(other.state().data.Get(5), "x");
  EXPECT_EQ(other.ResultFor(3, 4), StatusCode::kOk);
}

TEST_F(GroupSmTest, UpdateNeighborRespectsEpoch) {
  GroupInfo fresh;
  fresh.id = 50;
  fresh.range = KeyRange{1000, 2000};
  fresh.epoch = 3;
  UpdateNeighborCommand update;
  update.is_successor = true;
  update.info = fresh;
  sm_->Apply(++index_, update);
  EXPECT_EQ(sm_->state().succ.id, 50u);

  GroupInfo stale = fresh;
  stale.epoch = 2;
  stale.range = KeyRange{1000, 3000};
  UpdateNeighborCommand update2;
  update2.is_successor = true;
  update2.info = stale;
  sm_->Apply(++index_, update2);
  EXPECT_EQ(sm_->state().succ.epoch, 3u);
  EXPECT_EQ(sm_->state().succ.range, (KeyRange{1000, 2000}));
}

TEST_F(GroupSmTest, RetiredGroupRejectsEverything) {
  SplitCommand split;
  split.split_key = 500;
  split.left_id = 10;
  split.right_id = 11;
  split.left_members = {1};
  split.right_members = {2};
  sm_->Apply(++index_, split);
  ASSERT_TRUE(sm_->IsRetired());

  Put(5, "x", /*client=*/1, /*seq=*/1);
  EXPECT_EQ(sm_->ResultFor(1, 1), StatusCode::kWrongGroup);
  EXPECT_FALSE(sm_->state().data.Get(5).has_value());
}

// --- Dedup window: differential test against the map-based window ---------

// The window as it was kept before the ring: a map of results per client,
// pruned below max_seq - kDedupWindow after every insert. Kept verbatim as
// the oracle for RecordClientOp, ResultFor and MergeDedup.
struct OracleEntry {
  uint64_t max_seq = 0;
  std::map<uint64_t, uint8_t> results;
};
using OracleTable = std::map<uint64_t, OracleEntry>;

void OraclePrune(OracleEntry& e) {
  while (e.max_seq >= kDedupWindow && !e.results.empty() &&
         e.results.begin()->first <= e.max_seq - kDedupWindow) {
    e.results.erase(e.results.begin());
  }
}

bool OracleRecord(OracleTable& table, uint64_t client, uint64_t seq,
                  uint8_t code) {
  OracleEntry& e = table[client];
  const bool below_horizon =
      e.max_seq >= kDedupWindow && seq <= e.max_seq - kDedupWindow;
  if (below_horizon || e.results.count(seq) != 0) {
    return false;
  }
  e.results[seq] = code;
  e.max_seq = std::max(e.max_seq, seq);
  OraclePrune(e);
  return true;
}

std::optional<StatusCode> OracleResultFor(const OracleTable& table,
                                          uint64_t client, uint64_t seq) {
  auto it = table.find(client);
  if (it == table.end()) {
    return std::nullopt;
  }
  auto res = it->second.results.find(seq);
  if (res != it->second.results.end()) {
    return static_cast<StatusCode>(res->second);
  }
  if (it->second.max_seq >= kDedupWindow &&
      seq <= it->second.max_seq - kDedupWindow) {
    return StatusCode::kOk;
  }
  return std::nullopt;
}

void OracleMerge(OracleTable& into, const OracleTable& from) {
  for (const auto& [client, entry] : from) {
    OracleEntry& dst = into[client];
    dst.max_seq = std::max(dst.max_seq, entry.max_seq);
    for (const auto& [seq, code] : entry.results) {
      dst.results.emplace(seq, code);
    }
    OraclePrune(dst);
  }
}

void ExpectSameTable(const DedupTable& got, const OracleTable& want) {
  ASSERT_EQ(got.size(), want.size());
  auto w = want.begin();
  for (const auto& [client, entry] : got) {
    ASSERT_EQ(client, w->first);
    EXPECT_EQ(entry.max_seq(), w->second.max_seq) << "client " << client;
    std::map<uint64_t, uint8_t> results;
    entry.ForEach([&results](uint64_t seq, uint8_t code) {
      EXPECT_TRUE(results.emplace(seq, code).second) << "seq twice " << seq;
    });
    EXPECT_EQ(results, w->second.results) << "client " << client;
    EXPECT_EQ(entry.size(), w->second.results.size()) << "client " << client;
    ++w;
  }
}

uint64_t SatSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

// The next seq a client session offers, relative to the highest seq the
// table saw: mostly in order, but also reordered inside the window, right
// at either side of the horizon, jumps of a whole window or more,
// stragglers below the horizon and retries.
uint64_t NextSeq(std::mt19937_64& rng, uint64_t max_seq) {
  switch (rng() % 10) {
    case 0:
    case 1:
    case 2:
      return max_seq + 1;
    case 3:
      return max_seq + 2 + rng() % 8;
    case 4:
      return SatSub(max_seq, rng() % kDedupWindow);
    case 5:
      return SatSub(max_seq, kDedupWindow - 1 + rng() % 2);
    case 6:
      return max_seq + kDedupWindow - 1 + rng() % 3;
    case 7:
      return max_seq + kDedupWindow + rng() % 1000;
    case 8:
      return SatSub(max_seq, kDedupWindow + rng() % 40);
    default:
      return SatSub(max_seq, rng() % 4);  // a retry of a recent op
  }
}

// Seqs around every interesting point of a client's window.
std::vector<uint64_t> ProbeSeqs(std::mt19937_64& rng, uint64_t max_seq) {
  std::vector<uint64_t> probes = {
      0,
      max_seq,
      max_seq + 1,
      max_seq + kDedupWindow,
      SatSub(max_seq, kDedupWindow),
      SatSub(max_seq, kDedupWindow - 1),
      SatSub(max_seq, kDedupWindow + 1),
      SatSub(max_seq, rng() % (2 * kDedupWindow)),
  };
  return probes;
}

class DedupDifferentialTest : public GroupSmTest {
 protected:
  // Applies one client put whose key lands in range (kOk) or outside it
  // (kWrongGroup), mirroring the op into `oracle`.
  void ApplyOp(std::mt19937_64& rng, OracleTable& oracle, uint64_t client,
               uint64_t seq) {
    const bool in_range = rng() % 4 != 0;
    const Key key = in_range ? rng() % 1000 : 1000 + rng() % 1000;
    const uint8_t code = static_cast<uint8_t>(
        in_range ? StatusCode::kOk : StatusCode::kWrongGroup);
    const uint64_t applied_before = sm_->stats().puts_applied;
    const bool fresh = OracleRecord(oracle, client, seq, code);
    Put(key, "v", client, seq);
    EXPECT_EQ(sm_->stats().puts_applied - applied_before,
              fresh && in_range ? 1u : 0u)
        << "client " << client << " seq " << seq;
  }

  void ExpectSameAnswers(std::mt19937_64& rng, const OracleTable& oracle) {
    for (const auto& [client, entry] : oracle) {
      for (uint64_t seq : ProbeSeqs(rng, entry.max_seq)) {
        EXPECT_EQ(sm_->ResultFor(client, seq),
                  OracleResultFor(oracle, client, seq))
            << "client " << client << " seq " << seq << " max "
            << entry.max_seq;
      }
    }
  }
};

TEST_F(DedupDifferentialTest, RecordAndResultForMatchTheMapWindow) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    Reset(MakeState(1, KeyRange{0, 1000}));
    OracleTable oracle;
    for (int step = 0; step < 1500; ++step) {
      const uint64_t client = 1 + rng() % 3;
      const uint64_t seq = NextSeq(rng, oracle[client].max_seq);
      ApplyOp(rng, oracle, client, seq);
      ExpectSameAnswers(rng, oracle);
      if (step % 50 == 0) {
        ExpectSameTable(sm_->state().dedup, oracle);
      }
      if (HasFailure()) {
        FAIL() << "seed " << seed << " step " << step;
      }
    }
    ExpectSameTable(sm_->state().dedup, oracle);
  }
}

TEST_F(DedupDifferentialTest, MergeMatchesTheMapWindow) {
  RecordingListener l;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    // One op stream per client, spread over two groups (an op applies in
    // exactly one of them), with some ops applied in both so the merge also
    // meets clashing seqs. The windows overlap or sit a jump apart.
    GroupStateMachine a(&l, MakeState(1, KeyRange{0, 1000}));
    GroupStateMachine b(&l, MakeState(2, KeyRange{0, 1000}));
    OracleTable oa;
    OracleTable ob;
    std::map<uint64_t, uint64_t> stream_max;
    const int ops = 50 + static_cast<int>(rng() % 400);
    for (int step = 0; step < ops; ++step) {
      const uint64_t client = 1 + rng() % 4;
      const uint64_t seq = NextSeq(rng, stream_max[client]);
      stream_max[client] = std::max(stream_max[client], seq);
      const uint64_t where = rng() % 8;
      const uint8_t code = static_cast<uint8_t>(
          rng() % 2 == 0 ? StatusCode::kOk : StatusCode::kWrongGroup);
      const Key key = code == static_cast<uint8_t>(StatusCode::kOk) ? 5 : 5000;
      PutCommand put(key, "v");
      put.client_id = client;
      put.client_seq = seq;
      if (where != 0) {
        OracleRecord(oa, client, seq, code);
        a.Apply(static_cast<uint64_t>(step) + 1, put);
      }
      if (where <= 1) {
        OracleRecord(ob, client, seq, code);
        b.Apply(static_cast<uint64_t>(step) + 1, put);
      }
    }
    ExpectSameTable(a.state().dedup, oa);
    ExpectSameTable(b.state().dedup, ob);

    DedupTable merged = a.state().dedup;
    MergeDedup(merged, b.state().dedup);
    OracleTable omerged = oa;
    OracleMerge(omerged, ob);
    ExpectSameTable(merged, omerged);

    DedupTable reverse = b.state().dedup;
    MergeDedup(reverse, a.state().dedup);
    OracleTable oreverse = ob;
    OracleMerge(oreverse, oa);
    ExpectSameTable(reverse, oreverse);

    GroupState state = MakeState(3, KeyRange{0, 1000});
    state.dedup = merged;
    GroupStateMachine m(&l, std::move(state));
    for (const auto& [client, entry] : omerged) {
      for (uint64_t seq : ProbeSeqs(rng, entry.max_seq)) {
        EXPECT_EQ(m.ResultFor(client, seq),
                  OracleResultFor(omerged, client, seq))
            << "seed " << seed << " client " << client << " seq " << seq;
      }
    }
    if (HasFailure()) {
      FAIL() << "seed " << seed;
    }
  }
}

TEST_F(GroupSmTest, DedupWindowEdges) {
  // Seq 0 is an ordinary seq while the window still starts at 0.
  Put(1, "a", /*client=*/4, /*seq=*/0);
  Put(2, "b", /*client=*/4, /*seq=*/127);
  EXPECT_EQ(sm_->ResultFor(4, 0), StatusCode::kOk);
  EXPECT_EQ(sm_->ResultFor(4, 64), std::nullopt);
  // 128 pushes seq 0 to the horizon: pruned, answered as applied.
  Put(1000, "c", /*client=*/4, /*seq=*/128);
  EXPECT_EQ(sm_->ResultFor(4, 128), StatusCode::kWrongGroup);
  EXPECT_EQ(sm_->ResultFor(4, 0), StatusCode::kOk);
  EXPECT_EQ(sm_->ResultFor(4, 1), std::nullopt);
  EXPECT_EQ(sm_->ResultFor(4, 127), StatusCode::kOk);
  // A jump of a whole window drops everything recorded before it; the
  // seq that now maps onto seq 128's slot is not taken for it.
  Put(3, "d", /*client=*/4, /*seq=*/300);
  EXPECT_EQ(sm_->ResultFor(4, 256), std::nullopt);
  EXPECT_EQ(sm_->ResultFor(4, 172), StatusCode::kOk);
  EXPECT_EQ(sm_->ResultFor(4, 173), std::nullopt);
  Put(4, "e", /*client=*/4, /*seq=*/256);
  EXPECT_EQ(sm_->state().data.Get(4), "e");
}

TEST(DedupDecodeTest, RejectsResultsNoTableCanHold) {
  auto decode = [](uint64_t max_seq, std::vector<uint64_t> seqs) {
    wire::Buffer b;
    b.WriteU32(1);
    b.WriteU64(/*client=*/9);
    b.WriteU64(max_seq);
    b.WriteU32(static_cast<uint32_t>(seqs.size()));
    for (uint64_t seq : seqs) {
      b.WriteU64(seq);
      b.WriteU8(0);
    }
    wire::Reader in(b.data(), b.size());
    const DedupTable table = wire::internal::ReadDedupTable(in);
    return in.ok() && in.AtEnd();
  };
  EXPECT_TRUE(decode(500, {373, 400, 500}));
  EXPECT_FALSE(decode(500, {372}));  // at the horizon
  EXPECT_FALSE(decode(500, {501}));  // above max_seq
  EXPECT_FALSE(decode(500, {1}));
  EXPECT_FALSE(decode(500, {400, 400}));  // twice
  EXPECT_FALSE(decode(500, {401, 400}));  // out of order
  EXPECT_TRUE(decode(5, {0, 5}));
  EXPECT_FALSE(decode(5, {6}));
  EXPECT_TRUE(decode(~uint64_t{0}, {~uint64_t{0} - 127, ~uint64_t{0}}));
  EXPECT_FALSE(decode(~uint64_t{0}, {~uint64_t{0} - 128}));

  // Clients must be strictly ascending too.
  wire::Buffer b;
  b.WriteU32(2);
  for (uint64_t client : {7, 7}) {
    b.WriteU64(client);
    b.WriteU64(0);
    b.WriteU32(0);
  }
  wire::Reader in(b.data(), b.size());
  wire::internal::ReadDedupTable(in);
  EXPECT_FALSE(in.ok());
}

// --- Checkpoints: in-place encoding equals the snapshot-copy encoding -------

ring::GroupInfo RandInfo(std::mt19937_64& rng) {
  ring::GroupInfo g;
  g.id = rng();
  g.range = KeyRange{rng(), rng()};
  g.epoch = rng();
  g.members.resize(rng() % 5);
  for (NodeId& n : g.members) {
    n = rng() % 1000;
  }
  g.leader = rng() % 50;
  g.key_count = rng();
  g.has_key_count = rng() % 2 == 0;
  g.op_rate = static_cast<double>(rng() % 100000) / 7.0;
  g.has_op_rate = rng() % 2 == 0;
  return g;
}

store::KvStore RandStore(std::mt19937_64& rng) {
  store::KvStore kv;
  const size_t n = rng() % 20;
  for (size_t i = 0; i < n; ++i) {
    kv.Put(rng(), std::string(rng() % 40, static_cast<char>('a' + i % 26)));
  }
  return kv;
}

DedupTable RandDedupTable(std::mt19937_64& rng) {
  DedupTable table;
  const size_t clients = rng() % 5;
  for (size_t i = 0; i < clients; ++i) {
    DedupEntry& entry = table[rng() % 100];
    uint64_t max_seq = 0;
    const size_t ops = rng() % 300;
    for (size_t j = 0; j < ops; ++j) {
      const uint64_t seq = NextSeq(rng, max_seq);
      if (!entry.BelowHorizon(seq) && !entry.Find(seq).has_value()) {
        entry.Record(seq, static_cast<uint8_t>(rng() % 10));
      }
      max_seq = entry.max_seq();
    }
  }
  return table;
}

GroupState RandGroupState(std::mt19937_64& rng) {
  GroupState s;
  s.id = 1 + rng() % 1000;
  s.range = KeyRange{rng(), rng()};
  s.epoch = rng();
  s.pred = RandInfo(rng);
  s.succ = RandInfo(rng);
  s.data = RandStore(rng);
  s.dedup = RandDedupTable(rng);
  if (rng() % 2 == 0) {
    ActiveTxn active;
    active.txn.id = rng();
    active.txn.kind = static_cast<RingTxn::Kind>(rng() % 2);
    active.txn.coord_group = rng();
    active.txn.part_group = rng();
    active.txn.coord_range = KeyRange{rng(), rng()};
    active.txn.part_range = KeyRange{rng(), rng()};
    active.txn.merged_id = rng();
    active.txn.new_boundary = rng();
    active.is_coordinator = rng() % 2 == 0;
    active.my_members = {1, 2, 3};
    active.coord_members = {4, 5};
    active.coord_data = RandStore(rng);
    active.coord_dedup = RandDedupTable(rng);
    active.coord_outer = RandInfo(rng);
    s.active = std::move(active);
  }
  const size_t outcomes = rng() % 6;
  for (size_t i = 0; i < outcomes; ++i) {
    s.txn_outcomes[rng()] = rng() % 2 == 0;
  }
  s.retired = rng() % 2 == 0;
  s.forward.resize(rng() % 3);
  for (ring::GroupInfo& g : s.forward) {
    g = RandInfo(rng);
  }
  return s;
}

std::vector<uint8_t> CopyEncoded(const GroupStateMachine& sm) {
  wire::Buffer out;
  paxos::EncodeSnapshot(sm.TakeSnapshot(), out);
  return out.bytes();
}

std::vector<uint8_t> InPlaceEncoded(const GroupStateMachine& sm) {
  wire::Buffer out;
  sm.EncodeSnapshotTo(out);
  return out.bytes();
}

TEST(GroupSmCheckpointTest, InPlaceEncodingMatchesSnapshotCopy) {
  RegisterWireCodecs();
  RecordingListener l;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    std::mt19937_64 rng(seed);
    GroupStateMachine sm(&l, RandGroupState(rng));
    EXPECT_EQ(InPlaceEncoded(sm), CopyEncoded(sm)) << "seed " << seed;
  }
}

TEST(GroupSmCheckpointTest, JournalRecoverRoundTripsTheLiveState) {
  RegisterWireCodecs();
  RecordingListener l;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    GroupStateMachine sm(&l, RandGroupState(rng));
    const GroupId group = sm.id();
    storage::SimDisk disk;
    obs::MetricsRegistry metrics;
    paxos::GroupJournal journal(&disk, &metrics, /*node=*/1, group);
    std::vector<paxos::LogEntry> suffix;
    for (uint64_t i = 41; i <= 43; ++i) {
      paxos::LogEntry e;
      e.index = i;
      e.ballot = Ballot{2, 1};
      e.command = std::make_shared<PutCommand>(i, "tail");
      suffix.push_back(std::move(e));
    }
    journal.WriteCheckpoint(/*last_included_index=*/40, Ballot{2, 1},
                            /*config=*/{1, 2, 3}, /*config_index=*/7, sm,
                            /*promised=*/Ballot{3, 2}, /*commit_index=*/41,
                            suffix);

    paxos::RecoveredState recovered;
    ASSERT_TRUE(paxos::GroupJournal::Recover(disk, group, &recovered));
    EXPECT_EQ(recovered.snap_base_index, 40u);
    EXPECT_EQ(recovered.snap_config, (std::vector<NodeId>{1, 2, 3}));
    EXPECT_EQ(recovered.commit_index, 41u);
    EXPECT_EQ(recovered.entries.size(), 3u);
    ASSERT_NE(recovered.snapshot, nullptr);

    GroupStateMachine restored(&l, MakeState(1, KeyRange::Full()));
    restored.Restore(*recovered.snapshot);
    EXPECT_EQ(InPlaceEncoded(restored), InPlaceEncoded(sm)) << "seed " << seed;
    EXPECT_EQ(restored.state().data, sm.state().data);
    EXPECT_EQ(restored.state().txn_outcomes, sm.state().txn_outcomes);
    EXPECT_EQ(restored.IsFrozen(), sm.IsFrozen());
    EXPECT_EQ(restored.IsRetired(), sm.IsRetired());
    for (const auto& [client, entry] : sm.state().dedup) {
      entry.ForEach([&](uint64_t seq, uint8_t code) {
        EXPECT_EQ(restored.ResultFor(client, seq),
                  static_cast<StatusCode>(code));
      });
    }
  }
}

}  // namespace
}  // namespace scatter::membership
