// Wire-format tests: every registered message type must survive
// encode -> decode -> encode byte-identically (the canonical-encoding
// property the audit transport relies on), the codec registry must cover
// the whole MessageType table, and the frame decoder must reject malformed
// input (unknown versions, unregistered types, truncation, trailing bytes)
// instead of crashing. Samples are randomized so repeated rounds act as a
// deterministic fuzzer.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/baseline/chord_messages.h"
#include "src/baseline/wire_codecs.h"
#include "src/core/messages.h"
#include "src/core/wire_codecs.h"
#include "src/membership/commands.h"
#include "src/membership/group_state_machine.h"
#include "src/membership/wire_codecs.h"
#include "src/paxos/messages.h"
#include "src/paxos/payload_codec.h"
#include "src/paxos/wire_codecs.h"
#include "src/rpc/rpc_node.h"
#include "src/rpc/wire_codecs.h"
#include "src/txn/messages.h"
#include "src/txn/wire_codecs.h"
#include "src/wire/buffer.h"
#include "src/wire/codec.h"

namespace scatter::wire {
namespace {

// --- Compile-time codec completeness -----------------------------------------
//
// The union of the per-module X-macro message lists (each module's
// wire_codecs.h) must cover the transport's SCATTER_MESSAGE_TYPE_LIST
// exactly once. RegisterWireCodecs() is macro-generated from those same
// lists, so proving list coverage here proves registration coverage at
// compile time: a message type added to the transport table without a home
// in exactly one module list fails a static_assert, not a runtime test.

constexpr size_t CodecOwnerCount(sim::MessageType t) {
  size_t n = 0;
#define SCATTER_CLAIM(enumr, stem) n += (sim::MessageType::enumr == t) ? 1 : 0;
  SCATTER_RPC_WIRE_MESSAGES(SCATTER_CLAIM)
  SCATTER_PAXOS_WIRE_MESSAGES(SCATTER_CLAIM)
  SCATTER_TXN_WIRE_MESSAGES(SCATTER_CLAIM)
  SCATTER_CORE_WIRE_MESSAGES(SCATTER_CLAIM)
  SCATTER_CHORD_WIRE_MESSAGES(SCATTER_CLAIM)
#undef SCATTER_CLAIM
  return n;
}

constexpr bool EveryMessageTypeHasExactlyOneCodecOwner() {
  for (sim::MessageType t : sim::kAllMessageTypes) {
    if (CodecOwnerCount(t) != 1) {
      return false;
    }
  }
  return true;
}

static_assert(EveryMessageTypeHasExactlyOneCodecOwner(),
              "every SCATTER_MESSAGE_TYPE_LIST entry must appear in exactly "
              "one module's SCATTER_*_WIRE_MESSAGES list (rpc, paxos, txn, "
              "core, chord)");

using Rng = std::mt19937_64;

// --- Randomized field builders ----------------------------------------------

Value RandValue(Rng& rng, size_t max_len = 24) {
  const size_t len = rng() % (max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng() % 256));  // arbitrary bytes, incl. \0
  }
  return s;
}

Ballot RandBallot(Rng& rng) { return Ballot{rng(), rng() % 100}; }

ring::KeyRange RandRange(Rng& rng) {
  // Occasionally the full ring (begin == end).
  if (rng() % 8 == 0) {
    return ring::KeyRange::Full();
  }
  return ring::KeyRange{rng(), rng()};
}

std::vector<NodeId> RandNodes(Rng& rng) {
  std::vector<NodeId> ids(rng() % 5);
  for (NodeId& id : ids) {
    id = rng() % 1000;
  }
  return ids;
}

ring::GroupInfo RandInfo(Rng& rng) {
  ring::GroupInfo g;
  g.id = rng();
  g.range = RandRange(rng);
  g.epoch = rng();
  g.members = RandNodes(rng);
  g.leader = rng() % 50;
  g.key_count = rng();
  g.has_key_count = rng() % 2 == 0;
  g.op_rate = static_cast<double>(rng() % 1000000) / 7.0;
  g.has_op_rate = rng() % 2 == 0;
  return g;
}

std::vector<ring::GroupInfo> RandInfos(Rng& rng) {
  std::vector<ring::GroupInfo> infos(rng() % 4);
  for (auto& g : infos) {
    g = RandInfo(rng);
  }
  return infos;
}

store::KvStore RandStore(Rng& rng) {
  store::KvStore kv;
  const size_t n = rng() % 5;
  for (size_t i = 0; i < n; ++i) {
    kv.Put(rng(), RandValue(rng));
  }
  return kv;
}

membership::DedupTable RandDedup(Rng& rng) {
  membership::DedupTable table;
  const size_t clients = rng() % 4;
  for (size_t i = 0; i < clients; ++i) {
    membership::DedupEntry& entry = table[rng() % 1000];
    // Small max_seqs too, so windows that start at seq 0 are covered.
    entry.Advance(rng() % 2 == 0 ? rng() : rng() % 200);
    // Results only inside (max_seq - kDedupWindow, max_seq]: the decoder
    // rejects anything a real table cannot hold.
    const uint64_t span =
        std::min<uint64_t>(entry.max_seq() + 1, membership::kDedupWindow);
    const size_t results = rng() % 4;
    for (size_t j = 0; j < results; ++j) {
      // Codes must be valid StatusCode values or decode rejects the frame.
      entry.Record(entry.max_seq() - rng() % span,
                   static_cast<uint8_t>(rng() % 10));
    }
  }
  return table;
}

membership::RingTxn RandTxn(Rng& rng) {
  membership::RingTxn t;
  t.id = rng();
  t.kind = static_cast<membership::RingTxn::Kind>(rng() % 2);
  t.coord_group = rng();
  t.part_group = rng();
  t.coord_range = RandRange(rng);
  t.part_range = RandRange(rng);
  t.coord_epoch = rng();
  t.part_epoch = rng();
  t.merged_id = rng();
  t.new_boundary = rng();
  return t;
}

Status RandStatus(Rng& rng) {
  return Status(static_cast<StatusCode>(rng() % 10),
                std::string(RandValue(rng)));
}

baseline::NodeRef RandRef(Rng& rng) {
  return baseline::NodeRef{rng() % 1000, rng()};
}

// One registered command of every concrete type, cycled by `pick`.
paxos::CommandPtr RandCommand(Rng& rng, size_t pick) {
  auto base = [&rng](auto cmd) -> paxos::CommandPtr {
    cmd->client_id = rng() % 1000;
    cmd->client_seq = rng();
    return cmd;
  };
  switch (pick % 11) {
    case 0:
      return nullptr;  // tag 0: entries may carry no command
    case 1:
      return std::make_shared<paxos::NoOpCommand>();
    case 2:
      return std::make_shared<paxos::ConfigCommand>(
          static_cast<paxos::ConfigCommand::Op>(rng() % 2), rng() % 1000);
    case 3:
      return base(std::make_shared<membership::PutCommand>(rng(),
                                                           RandValue(rng)));
    case 4:
      return base(std::make_shared<membership::DeleteCommand>(rng()));
    case 5: {
      auto cmd = std::make_shared<membership::SplitCommand>();
      cmd->split_key = rng();
      cmd->left_id = rng();
      cmd->right_id = rng();
      cmd->left_members = RandNodes(rng);
      cmd->right_members = RandNodes(rng);
      return base(cmd);
    }
    case 6: {
      auto cmd = std::make_shared<membership::CoordStartCommand>();
      cmd->txn = RandTxn(rng);
      return base(cmd);
    }
    case 7: {
      auto cmd = std::make_shared<membership::CoordDecideCommand>();
      cmd->txn_id = rng();
      cmd->commit = rng() % 2 == 0;
      cmd->part_members = RandNodes(rng);
      cmd->part_data = RandStore(rng);
      cmd->part_dedup = RandDedup(rng);
      cmd->part_outer_neighbor = RandInfo(rng);
      return base(cmd);
    }
    case 8: {
      auto cmd = std::make_shared<membership::PrepareCommand>();
      cmd->txn = RandTxn(rng);
      cmd->coord_members = RandNodes(rng);
      cmd->coord_data = RandStore(rng);
      cmd->coord_dedup = RandDedup(rng);
      cmd->coord_outer_neighbor = RandInfo(rng);
      return base(cmd);
    }
    case 9: {
      auto cmd = std::make_shared<membership::DecideCommand>();
      cmd->txn_id = rng();
      cmd->commit = rng() % 2 == 0;
      return base(cmd);
    }
    default: {
      auto cmd = std::make_shared<membership::UpdateNeighborCommand>();
      cmd->is_successor = rng() % 2 == 0;
      cmd->info = RandInfo(rng);
      return base(cmd);
    }
  }
}

std::vector<paxos::LogEntry> RandEntries(Rng& rng) {
  std::vector<paxos::LogEntry> entries(rng() % 4);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].index = rng();
    entries[i].ballot = RandBallot(rng);
    entries[i].command = RandCommand(rng, rng());
  }
  return entries;
}

std::shared_ptr<membership::GroupSnapshot> RandGroupSnapshot(Rng& rng) {
  auto snap = std::make_shared<membership::GroupSnapshot>();
  membership::GroupState& s = snap->state;
  s.id = rng();
  s.range = RandRange(rng);
  s.epoch = rng();
  s.pred = RandInfo(rng);
  s.succ = RandInfo(rng);
  s.data = RandStore(rng);
  s.dedup = RandDedup(rng);
  if (rng() % 2 == 0) {
    membership::ActiveTxn active;
    active.txn = RandTxn(rng);
    active.is_coordinator = rng() % 2 == 0;
    active.my_members = RandNodes(rng);
    active.coord_members = RandNodes(rng);
    active.coord_data = RandStore(rng);
    active.coord_dedup = RandDedup(rng);
    active.coord_outer = RandInfo(rng);
    s.active = std::move(active);
  }
  const size_t outcomes = rng() % 4;
  for (size_t i = 0; i < outcomes; ++i) {
    s.txn_outcomes[rng()] = rng() % 2 == 0;
  }
  s.retired = rng() % 2 == 0;
  s.forward = RandInfos(rng);
  return snap;
}

// --- Per-type message samples ------------------------------------------------

// Randomizes the shared transport header so round trips exercise it too.
sim::MessagePtr Finish(std::shared_ptr<sim::Message> m, Rng& rng) {
  m->from = rng() % 1000 + 1;
  m->to = rng() % 1000 + 1;
  m->rpc_id = rng();
  m->is_response = rng() % 2 == 0;
  m->trace_id = rng();
  m->span_id = rng();
  return m;
}

// One randomized sample of EVERY message type in the X-macro table. A test
// below asserts the coverage really is exhaustive, so adding a message type
// without extending this factory fails loudly.
std::vector<sim::MessagePtr> SampleMessages(Rng& rng) {
  std::vector<sim::MessagePtr> out;
  auto add = [&](std::shared_ptr<sim::Message> m) {
    out.push_back(Finish(std::move(m), rng));
  };
  const GroupId g = rng() % 100 + 1;

  {
    auto m = std::make_shared<rpc::RpcErrorMessage>();
    m->status = RandStatus(rng);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::PrepareMsg>(g);
    m->ballot = RandBallot(rng);
    m->last_log_index = rng();
    m->last_log_ballot = RandBallot(rng);
    m->bypass_lease = rng() % 2 == 0;
    add(m);
  }
  {
    auto m = std::make_shared<paxos::PromiseMsg>(g);
    m->ballot = RandBallot(rng);
    m->granted = rng() % 2 == 0;
    m->promised = RandBallot(rng);
    m->lease_wait = static_cast<TimeMicros>(rng() % 1000000);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::AcceptMsg>(g);
    m->ballot = RandBallot(rng);
    m->prev_index = rng();
    m->prev_ballot = RandBallot(rng);
    m->entries = RandEntries(rng);
    m->commit_index = rng();
    m->sent_at = static_cast<TimeMicros>(rng() % 1000000);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::AcceptedMsg>(g);
    m->ballot = RandBallot(rng);
    m->ok = rng() % 2 == 0;
    m->promised = RandBallot(rng);
    m->match_index = rng();
    m->need_from = rng();
    m->applied_index = rng();
    m->leader_sent_at = static_cast<TimeMicros>(rng() % 1000000);
    m->centrality = static_cast<TimeMicros>(rng() % 1000000);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::SnapshotMsg>(g);
    m->ballot = RandBallot(rng);
    m->last_included_index = rng();
    m->last_included_ballot = RandBallot(rng);
    m->config = RandNodes(rng);
    m->config_index = rng();
    m->data = rng() % 4 == 0 ? nullptr : RandGroupSnapshot(rng);
    m->sent_at = static_cast<TimeMicros>(rng() % 1000000);
    m->bootstrap = rng() % 2 == 0;
    add(m);
  }
  {
    auto m = std::make_shared<paxos::SnapshotAckMsg>(g);
    m->ballot = RandBallot(rng);
    m->last_included_index = rng();
    m->leader_sent_at = static_cast<TimeMicros>(rng() % 1000000);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::TimeoutNowMsg>(g);
    m->ballot = RandBallot(rng);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::PingMsg>(g);
    m->sent_at = static_cast<TimeMicros>(rng() % 1000000);
    add(m);
  }
  {
    auto m = std::make_shared<paxos::PongMsg>(g);
    m->ping_sent_at = static_cast<TimeMicros>(rng() % 1000000);
    add(m);
  }
  {
    auto m = std::make_shared<txn::TxnPrepareMsg>();
    m->txn = RandTxn(rng);
    m->coord_members = RandNodes(rng);
    m->coord_data = RandStore(rng);
    m->coord_dedup = RandDedup(rng);
    m->coord_outer_neighbor = RandInfo(rng);
    add(m);
  }
  {
    auto m = std::make_shared<txn::TxnPrepareReplyMsg>();
    m->txn_id = rng();
    m->prepared = rng() % 2 == 0;
    m->part_members = RandNodes(rng);
    m->part_data = RandStore(rng);
    m->part_dedup = RandDedup(rng);
    m->part_outer_neighbor = RandInfo(rng);
    add(m);
  }
  {
    auto m = std::make_shared<txn::TxnDecisionMsg>();
    m->txn_id = rng();
    m->participant_group = rng();
    m->commit = rng() % 2 == 0;
    add(m);
  }
  {
    auto m = std::make_shared<txn::TxnDecisionAckMsg>();
    m->txn_id = rng();
    add(m);
  }
  {
    auto m = std::make_shared<txn::TxnStatusQueryMsg>();
    m->txn_id = rng();
    add(m);
  }
  {
    auto m = std::make_shared<txn::TxnStatusReplyMsg>();
    m->txn_id = rng();
    m->known = rng() % 2 == 0;
    m->committed = rng() % 2 == 0;
    add(m);
  }
  {
    auto m = std::make_shared<core::ClientRequestMsg>();
    m->op = static_cast<core::ClientOp>(rng() % 3);
    m->key = rng();
    m->value = RandValue(rng);
    m->client_id = rng();
    m->client_seq = rng();
    add(m);
  }
  {
    auto m = std::make_shared<core::ClientReplyMsg>();
    m->code = static_cast<StatusCode>(rng() % 10);
    m->found = rng() % 2 == 0;
    m->value = RandValue(rng);
    m->ring_updates = RandInfos(rng);
    add(m);
  }
  {
    auto m = std::make_shared<core::LookupRequestMsg>();
    m->key = rng();
    add(m);
  }
  {
    auto m = std::make_shared<core::LookupReplyMsg>();
    m->known = rng() % 2 == 0;
    m->authoritative = rng() % 2 == 0;
    m->info = RandInfo(rng);
    add(m);
  }
  {
    auto m = std::make_shared<core::JoinRequestMsg>();
    m->no_redirect = rng() % 2 == 0;
    add(m);
  }
  {
    auto m = std::make_shared<core::JoinReplyMsg>();
    m->code = static_cast<StatusCode>(rng() % 10);
    m->group = RandInfo(rng);
    m->seed_ring = RandInfos(rng);
    add(m);
  }
  {
    auto m = std::make_shared<core::GroupInfoRequestMsg>();
    m->group = rng();
    add(m);
  }
  {
    auto m = std::make_shared<core::GroupInfoReplyMsg>();
    m->known = rng() % 2 == 0;
    m->authoritative = rng() % 2 == 0;
    m->info = RandInfo(rng);
    add(m);
  }
  {
    auto m = std::make_shared<core::MigrateRequestMsg>();
    m->beneficiary = RandInfo(rng);
    add(m);
  }
  {
    auto m = std::make_shared<core::MigrateDirectiveMsg>();
    m->target_group = RandInfo(rng);
    add(m);
  }
  {
    auto m = std::make_shared<core::LeaveRequestMsg>();
    m->group = rng();
    add(m);
  }
  {
    auto m = std::make_shared<core::RingGossipMsg>();
    m->infos = RandInfos(rng);
    add(m);
  }
  {
    auto m = std::make_shared<baseline::ChordFindSuccessorMsg>();
    m->target = rng();
    add(m);
  }
  {
    auto m = std::make_shared<baseline::ChordFindSuccessorReplyMsg>();
    m->done = rng() % 2 == 0;
    m->result = RandRef(rng);
    m->next_hop = RandRef(rng);
    add(m);
  }
  add(std::make_shared<baseline::ChordGetNeighborsMsg>());
  {
    auto m = std::make_shared<baseline::ChordGetNeighborsReplyMsg>();
    m->predecessor = RandRef(rng);
    m->successors.resize(rng() % 4);
    for (auto& s : m->successors) {
      s = RandRef(rng);
    }
    add(m);
  }
  {
    auto m = std::make_shared<baseline::ChordNotifyMsg>();
    m->candidate = RandRef(rng);
    add(m);
  }
  {
    auto m = std::make_shared<baseline::ChordStoreMsg>();
    m->key = rng();
    m->value = RandValue(rng);
    m->version = static_cast<TimeMicros>(rng() % 1000000);
    m->replicate = static_cast<uint32_t>(rng() % 5);
    add(m);
  }
  add(std::make_shared<baseline::ChordStoreAckMsg>());
  {
    auto m = std::make_shared<baseline::ChordFetchMsg>();
    m->key = rng();
    add(m);
  }
  {
    auto m = std::make_shared<baseline::ChordFetchReplyMsg>();
    m->found = rng() % 2 == 0;
    m->value = RandValue(rng);
    add(m);
  }
  add(std::make_shared<baseline::ChordPingMsg>());
  add(std::make_shared<baseline::ChordPongMsg>());

  return out;
}

// --- Round-trip machinery ----------------------------------------------------

void ExpectRoundTrips(const sim::MessagePtr& m) {
  Buffer first;
  EncodeFrame(*m, first);
  size_t consumed = 0;
  std::string error;
  sim::MessagePtr copy =
      DecodeFrame(first.data(), first.size(), &consumed, &error);
  ASSERT_NE(copy, nullptr) << sim::MessageTypeName(m->type) << ": " << error;
  EXPECT_EQ(consumed, first.size()) << sim::MessageTypeName(m->type);
  EXPECT_NE(copy.get(), m.get());  // a fresh object, never the original
  EXPECT_EQ(copy->type, m->type);
  EXPECT_EQ(copy->from, m->from);
  EXPECT_EQ(copy->to, m->to);
  EXPECT_EQ(copy->rpc_id, m->rpc_id);
  EXPECT_EQ(copy->is_response, m->is_response);
  EXPECT_EQ(copy->trace_id, m->trace_id);
  EXPECT_EQ(copy->span_id, m->span_id);
  Buffer second;
  EncodeFrame(*copy, second);
  EXPECT_EQ(first.bytes(), second.bytes())
      << sim::MessageTypeName(m->type)
      << ": encode -> decode -> encode is not byte-identical";
}

class WireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::RegisterScatterWireCodecs();
    baseline::RegisterWireCodecs();
  }
};

// --- Tests -------------------------------------------------------------------

TEST_F(WireTest, RegistryCoversEveryMessageType) {
  EXPECT_TRUE(MissingMessageCodecs().empty());
  for (sim::MessageType type : sim::kAllMessageTypes) {
    EXPECT_TRUE(HasMessageCodec(type)) << sim::MessageTypeName(type);
  }
  EXPECT_FALSE(HasMessageCodec(sim::MessageType::kInvalid));
}

TEST_F(WireTest, SampleFactoryIsExhaustive) {
  Rng rng(1);
  std::set<sim::MessageType> seen;
  for (const auto& m : SampleMessages(rng)) {
    seen.insert(m->type);
  }
  for (sim::MessageType type : sim::kAllMessageTypes) {
    EXPECT_TRUE(seen.count(type) > 0)
        << "no sample for " << sim::MessageTypeName(type);
  }
  EXPECT_EQ(seen.size(), sim::kMessageTypeCount);
}

TEST_F(WireTest, EveryTypeRoundTripsByteIdentically) {
  // Many rounds of randomized samples: a deterministic fuzz of field
  // combinations (empty containers, wrapping ranges, null commands, ...).
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    for (const auto& m : SampleMessages(rng)) {
      ExpectRoundTrips(m);
    }
  }
}

TEST_F(WireTest, EmptyAndMaxEdgesRoundTrip) {
  Rng rng(7);
  {
    // Empty everything.
    auto m = std::make_shared<core::ClientRequestMsg>();
    ExpectRoundTrips(Finish(m, rng));
  }
  {
    // Max-valued scalars and a bulk value.
    auto m = std::make_shared<core::ClientRequestMsg>();
    m->op = core::ClientOp::kPut;
    m->key = ~uint64_t{0};
    m->value = std::string(100 * 1024, '\xab');
    m->client_id = ~uint64_t{0};
    m->client_seq = ~uint64_t{0};
    auto finished = Finish(m, rng);
    finished->rpc_id = ~uint64_t{0};
    finished->trace_id = ~uint64_t{0};
    finished->span_id = ~uint64_t{0};
    ExpectRoundTrips(finished);
  }
  {
    // A batched Accept: many entries, every command kind, null commands.
    auto m = std::make_shared<paxos::AcceptMsg>(1);
    m->ballot = Ballot{~uint64_t{0}, ~uint64_t{0}};
    for (size_t i = 0; i < 64; ++i) {
      paxos::LogEntry e;
      e.index = i + 1;
      e.ballot = RandBallot(rng);
      e.command = RandCommand(rng, i);
      m->entries.push_back(std::move(e));
    }
    ExpectRoundTrips(Finish(m, rng));
  }
  {
    // Snapshot with no data vs. a fully populated group state.
    auto empty = std::make_shared<paxos::SnapshotMsg>(1);
    ExpectRoundTrips(Finish(empty, rng));
    auto full = std::make_shared<paxos::SnapshotMsg>(1);
    full->data = RandGroupSnapshot(rng);
    ExpectRoundTrips(Finish(full, rng));
  }
  {
    // Full-ring range inside routing metadata.
    auto m = std::make_shared<core::LookupReplyMsg>();
    m->known = true;
    m->info = RandInfo(rng);
    m->info.range = ring::KeyRange::Full();
    ExpectRoundTrips(Finish(m, rng));
  }
}

TEST_F(WireTest, ToFieldLivesAtTheDocumentedOffset) {
  // The audit transport masks the `to` slot when comparing before/after
  // frames (RpcNode::Forward legitimately rewrites it); this pins the
  // layout constant it relies on.
  Rng rng(11);
  auto m = Finish(std::make_shared<baseline::ChordPingMsg>(), rng);
  m->to = 0x1122334455667788ull;
  Buffer frame;
  EncodeFrame(*m, frame);
  ASSERT_GE(frame.size(), 4 + kFrameToOffset + kFrameToSize);
  uint64_t to = 0;
  for (size_t i = 0; i < kFrameToSize; ++i) {
    to |= static_cast<uint64_t>(frame.data()[4 + kFrameToOffset + i])
          << (8 * i);
  }
  EXPECT_EQ(to, m->to);
}

TEST_F(WireTest, RejectsUnknownVersion) {
  Rng rng(3);
  auto m = Finish(std::make_shared<baseline::ChordPingMsg>(), rng);
  Buffer frame;
  EncodeFrame(*m, frame);
  std::vector<uint8_t> bytes(frame.data(), frame.data() + frame.size());
  bytes[4] = 0xff;  // version u16 lives right after the length prefix
  bytes[5] = 0xff;
  size_t consumed = 1;
  std::string error;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &consumed, &error),
            nullptr);
  EXPECT_EQ(consumed, 0u);
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST_F(WireTest, RejectsUnregisteredType) {
  Rng rng(4);
  auto m = Finish(std::make_shared<baseline::ChordPingMsg>(), rng);
  Buffer frame;
  EncodeFrame(*m, frame);
  std::vector<uint8_t> bytes(frame.data(), frame.data() + frame.size());
  bytes[6] = 0xff;  // type u16 follows the version
  bytes[7] = 0x7f;
  size_t consumed = 1;
  std::string error;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &consumed, &error),
            nullptr);
  EXPECT_EQ(consumed, 0u);
  EXPECT_FALSE(error.empty());
}

TEST_F(WireTest, RejectsEveryTruncation) {
  Rng rng(5);
  auto m = std::make_shared<core::ClientRequestMsg>();
  m->op = core::ClientOp::kPut;
  m->key = 42;
  m->value = "truncate-me";
  Buffer frame;
  EncodeFrame(*Finish(m, rng), frame);
  for (size_t n = 0; n < frame.size(); ++n) {
    size_t consumed = 1;
    std::string error;
    EXPECT_EQ(DecodeFrame(frame.data(), n, &consumed, &error), nullptr)
        << "prefix of " << n << " bytes decoded";
    EXPECT_EQ(consumed, 0u);
  }
}

TEST_F(WireTest, RejectsCorruptedFrameLength) {
  Rng rng(6);
  auto m = std::make_shared<core::ClientRequestMsg>();
  m->value = "payload";
  Buffer frame;
  EncodeFrame(*Finish(m, rng), frame);
  const uint32_t len = static_cast<uint32_t>(frame.size() - 4);

  // Shrunk length: the payload is cut mid-field.
  std::vector<uint8_t> shrunk(frame.data(), frame.data() + frame.size() - 1);
  const uint32_t short_len = len - 1;
  for (int i = 0; i < 4; ++i) {
    shrunk[i] = static_cast<uint8_t>(short_len >> (8 * i));
  }
  size_t consumed = 1;
  std::string error;
  EXPECT_EQ(DecodeFrame(shrunk.data(), shrunk.size(), &consumed, &error),
            nullptr);
  EXPECT_EQ(consumed, 0u);

  // Grown length: one byte of trailing garbage inside the frame.
  std::vector<uint8_t> grown(frame.data(), frame.data() + frame.size());
  grown.push_back(0);
  const uint32_t long_len = len + 1;
  for (int i = 0; i < 4; ++i) {
    grown[i] = static_cast<uint8_t>(long_len >> (8 * i));
  }
  consumed = 1;
  EXPECT_EQ(DecodeFrame(grown.data(), grown.size(), &consumed, &error),
            nullptr);
  EXPECT_EQ(consumed, 0u);
  EXPECT_FALSE(error.empty());
}

TEST_F(WireTest, NullAndUnknownCommandTags) {
  {
    Buffer out;
    paxos::EncodeCommand(nullptr, out);  // tag 0
    Reader in(out);
    EXPECT_EQ(paxos::DecodeCommand(in), nullptr);
    EXPECT_TRUE(in.ok());
    EXPECT_TRUE(in.AtEnd());
  }
  {
    Buffer out;
    out.WriteU16(0x7777);  // never registered
    Reader in(out);
    EXPECT_EQ(paxos::DecodeCommand(in), nullptr);
    EXPECT_FALSE(in.ok());
  }
  {
    Buffer out;
    paxos::EncodeSnapshot(nullptr, out);
    Reader in(out);
    EXPECT_EQ(paxos::DecodeSnapshot(in), nullptr);
    EXPECT_TRUE(in.ok());
  }
  {
    Buffer out;
    out.WriteU16(0x7777);
    Reader in(out);
    EXPECT_EQ(paxos::DecodeSnapshot(in), nullptr);
    EXPECT_FALSE(in.ok());
  }
}

// --- Frame decoder rejections ------------------------------------------------

// Header-level rejections happen before any payload work, each with its own
// error text: a bad version or type, a frame cut inside the length prefix or
// fixed header, and a length prefix too short to hold the fixed header.
TEST_F(WireTest, HeaderPeekRejectsUnknownVersionTypeAndTruncation) {
  Rng rng(13);
  auto m = std::make_shared<core::ClientRequestMsg>();
  m->op = core::ClientOp::kPut;
  m->key = 42;
  m->value = "peek-reject";
  Buffer frame;
  EncodeFrame(*Finish(m, rng), frame);

  auto expect_rejection = [](const uint8_t* data, size_t size,
                             const std::string& want) {
    size_t consumed = 1;
    std::string error;
    EXPECT_EQ(DecodeFrame(data, size, &consumed, &error), nullptr) << want;
    EXPECT_EQ(consumed, 0u) << want;
    EXPECT_EQ(error, want);
  };

  {
    std::vector<uint8_t> bytes(frame.data(), frame.data() + frame.size());
    bytes[4] = 0xff;  // version u16 lives right after the length prefix
    bytes[5] = 0xff;
    expect_rejection(bytes.data(), bytes.size(), "unknown wire version 65535");
  }
  {
    std::vector<uint8_t> bytes(frame.data(), frame.data() + frame.size());
    bytes[6] = 0xff;  // type u16 follows the version
    bytes[7] = 0x7f;
    expect_rejection(bytes.data(), bytes.size(),
                     "unregistered message type 32767");
  }
  // Every truncation that cuts the length prefix or fixed header.
  const size_t frame_len = frame.size() - 4;
  for (size_t n = 0; n < 4 + kFrameHeaderSize; ++n) {
    expect_rejection(frame.data(), n,
                     n < 4 ? "short frame: missing length prefix"
                           : "short frame: length " +
                                 std::to_string(frame_len) +
                                 " exceeds available " +
                                 std::to_string(n - 4));
  }
  // Every length prefix shorter than the fixed header, with exactly that
  // many bytes present: the fields are checked in wire order, and a field
  // cut short reads as zero.
  for (uint32_t len = 0; len < kFrameHeaderSize; ++len) {
    std::vector<uint8_t> bytes(frame.data(), frame.data() + 4 + len);
    for (int i = 0; i < 4; ++i) {
      bytes[i] = static_cast<uint8_t>(len >> (8 * i));
    }
    expect_rejection(bytes.data(), bytes.size(),
                     len < 2   ? "unknown wire version 0"
                     : len < 4 ? "unregistered message type 0"
                               : "short frame: truncated header");
  }
}

// Hostile input across all message types: truncations of a real frame at
// every step are rejected with nothing consumed, the whole frame decodes to
// a byte-identical re-encode, and garbage payloads under a valid header are
// rejected.
TEST_F(WireTest, DecodeFrameFuzzRejectsTruncationsAndGarbage) {
  Rng rng(17);

  for (const auto& m : SampleMessages(rng)) {
    Buffer frame;
    EncodeFrame(*m, frame);
    const char* what = sim::MessageTypeName(m->type);
    for (size_t n = 0; n < frame.size(); n += 1 + n / 8) {
      size_t consumed = 1;
      std::string error;
      EXPECT_EQ(DecodeFrame(frame.data(), n, &consumed, &error), nullptr)
          << what << ": prefix of " << n << " bytes decoded";
      EXPECT_EQ(consumed, 0u) << what;
      EXPECT_FALSE(error.empty()) << what;
    }
    size_t consumed = 0;
    std::string error;
    sim::MessagePtr decoded =
        DecodeFrame(frame.data(), frame.size(), &consumed, &error);
    ASSERT_NE(decoded, nullptr) << what << ": " << error;
    EXPECT_EQ(consumed, frame.size()) << what;
    Buffer again;
    EncodeFrame(*decoded, again);
    EXPECT_EQ(again.bytes(), frame.bytes()) << what;
  }

  for (int round = 0; round < 200; ++round) {
    const sim::MessageType type =
        sim::kAllMessageTypes[rng() % sim::kMessageTypeCount];
    Buffer b;
    const size_t at = b.ReserveU32();
    b.WriteU16(kWireVersion);
    b.WriteU16(static_cast<uint16_t>(type));
    const size_t garbage = rng() % 128;
    for (size_t i = 0; i < garbage; ++i) {
      b.WriteU8(static_cast<uint8_t>(rng() % 256));
    }
    b.PatchU32(at, static_cast<uint32_t>(b.size() - 4));
    size_t consumed = 1;
    std::string error;
    EXPECT_EQ(DecodeFrame(b.data(), b.size(), &consumed, &error), nullptr)
        << sim::MessageTypeName(type) << " accepted " << garbage
        << " garbage bytes";
    EXPECT_EQ(consumed, 0u);
    EXPECT_FALSE(error.empty());
  }
}

// --- Buffer ------------------------------------------------------------------

// A buffer reused through clear() shows exactly what the current round
// wrote. Under AddressSanitizer the unwritten tail [size, capacity) is
// poisoned, so a read past the written bytes or through a pointer kept
// across clear() is a hard error rather than a stale read.
TEST(WireBufferTest, ClearedBufferComesBackCleanAfterDirtying) {
  Buffer b;
  for (int round = 0; round < 64; ++round) {
    b.clear();
    ASSERT_TRUE(b.empty()) << "round " << round;
#ifdef SCATTER_WIRE_ASAN
    if (b.capacity() != 0) {
      EXPECT_TRUE(__asan_address_is_poisoned(b.data())) << "round " << round;
    }
#endif
    // A round-specific dirty pattern of varying length.
    const size_t len = 16 + static_cast<size_t>(round) * 7 % 400;
    for (size_t i = 0; i < len; ++i) {
      b.WriteU8(static_cast<uint8_t>(round * 31 + i));
    }
    ASSERT_EQ(b.size(), len);
    for (size_t i = 0; i < len; ++i) {
      ASSERT_EQ(b.data()[i], static_cast<uint8_t>(round * 31 + i));
    }
#ifdef SCATTER_WIRE_ASAN
    EXPECT_FALSE(__asan_address_is_poisoned(b.data() + len - 1));
    if (len < b.capacity()) {
      EXPECT_TRUE(__asan_address_is_poisoned(b.data() + len))
          << "round " << round;
    }
#endif
  }
}

// An allocation failure while growing dies on a CHECK instead of writing
// through a null pointer. Sanitizer allocators refuse the size themselves.
TEST(WireBufferDeathTest, ReserveOfImpossibleSizeDies) {
  Buffer b;
  EXPECT_DEATH(b.Reserve(size_t{1} << 62),
               "grown != nullptr|allocation-size-too-big");
}

TEST_F(WireTest, GarbagePayloadNeverCrashes) {
  // Random bytes with a valid version+type header: decoders must run to
  // completion and reject, exercising the Reader's sticky-failure path.
  Rng rng(9);
  for (int round = 0; round < 200; ++round) {
    const sim::MessageType type =
        sim::kAllMessageTypes[rng() % sim::kMessageTypeCount];
    Buffer b;
    const size_t at = b.ReserveU32();
    b.WriteU16(kWireVersion);
    b.WriteU16(static_cast<uint16_t>(type));
    const size_t garbage = rng() % 128;
    for (size_t i = 0; i < garbage; ++i) {
      b.WriteU8(static_cast<uint8_t>(rng() % 256));
    }
    b.PatchU32(at, static_cast<uint32_t>(b.size() - 4));
    size_t consumed = 1;
    std::string error;
    sim::MessagePtr m = DecodeFrame(b.data(), b.size(), &consumed, &error);
    // Most garbage is rejected; anything accepted must round-trip stably.
    if (m != nullptr) {
      EXPECT_EQ(consumed, b.size());
      ExpectRoundTrips(m);
    } else {
      EXPECT_EQ(consumed, 0u);
    }
  }
}

}  // namespace
}  // namespace scatter::wire
