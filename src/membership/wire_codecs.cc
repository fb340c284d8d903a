// Wire codecs for the group state machine's commands (membership/) and its
// snapshot payload. Command tags 16-31 are reserved for this module; group
// snapshots use snapshot tag 1. See PROTOCOL.md "Wire format".

#include <memory>
#include <typeindex>
#include <utility>

#include "src/membership/commands.h"
#include "src/membership/group_state_machine.h"
#include "src/membership/wire_codecs.h"
#include "src/membership/wire_fields.h"
#include "src/paxos/payload_codec.h"
#include "src/paxos/wire_fields.h"
#include "src/ring/wire_fields.h"
#include "src/store/wire_fields.h"
#include "src/wire/codec.h"
#include "src/wire/field_codecs.h"

namespace scatter::membership {
namespace {

// Codec bodies read the wire vocabulary (Buffer, Reader, shared field
// codecs) unqualified, same as when they lived in src/wire/.
using namespace scatter::wire;            // NOLINT(google-build-using-namespace)
using namespace scatter::wire::internal;  // NOLINT(google-build-using-namespace)

constexpr uint16_t kTagPut = 16;
constexpr uint16_t kTagDelete = 17;
constexpr uint16_t kTagSplit = 18;
constexpr uint16_t kTagCoordStart = 19;
constexpr uint16_t kTagCoordDecide = 20;
constexpr uint16_t kTagPrepare = 21;
constexpr uint16_t kTagDecide = 22;
constexpr uint16_t kTagUpdateNeighbor = 23;

constexpr uint16_t kTagGroupSnapshot = 1;

// --- Commands ----------------------------------------------------------------

void EncodePut(const paxos::Command& cmd, Buffer& out) {
  const auto& put = static_cast<const membership::PutCommand&>(cmd);
  WriteAppCommandBase(put, out);
  out.WriteU64(put.key);
  out.WriteString(put.value);
}

paxos::CommandPtr DecodePut(Reader& in) {
  uint64_t client_id = in.ReadU64();
  uint64_t client_seq = in.ReadU64();
  const Key key = in.ReadU64();
  auto cmd = std::make_shared<membership::PutCommand>(key, in.ReadString());
  cmd->client_id = client_id;
  cmd->client_seq = client_seq;
  return cmd;
}

void EncodeDelete(const paxos::Command& cmd, Buffer& out) {
  const auto& del = static_cast<const membership::DeleteCommand&>(cmd);
  WriteAppCommandBase(del, out);
  out.WriteU64(del.key);
}

paxos::CommandPtr DecodeDelete(Reader& in) {
  uint64_t client_id = in.ReadU64();
  uint64_t client_seq = in.ReadU64();
  auto cmd = std::make_shared<membership::DeleteCommand>(in.ReadU64());
  cmd->client_id = client_id;
  cmd->client_seq = client_seq;
  return cmd;
}

void EncodeSplit(const paxos::Command& cmd, Buffer& out) {
  const auto& split = static_cast<const membership::SplitCommand&>(cmd);
  WriteAppCommandBase(split, out);
  out.WriteU64(split.split_key);
  out.WriteU64(split.left_id);
  out.WriteU64(split.right_id);
  WriteNodeIds(split.left_members, out);
  WriteNodeIds(split.right_members, out);
}

paxos::CommandPtr DecodeSplit(Reader& in) {
  auto cmd = std::make_shared<membership::SplitCommand>();
  ReadAppCommandBase(in, *cmd);
  cmd->split_key = in.ReadU64();
  cmd->left_id = in.ReadU64();
  cmd->right_id = in.ReadU64();
  cmd->left_members = ReadNodeIds(in);
  cmd->right_members = ReadNodeIds(in);
  return cmd;
}

void EncodeCoordStart(const paxos::Command& cmd, Buffer& out) {
  const auto& start = static_cast<const membership::CoordStartCommand&>(cmd);
  WriteAppCommandBase(start, out);
  WriteRingTxn(start.txn, out);
}

paxos::CommandPtr DecodeCoordStart(Reader& in) {
  auto cmd = std::make_shared<membership::CoordStartCommand>();
  ReadAppCommandBase(in, *cmd);
  cmd->txn = ReadRingTxn(in);
  return cmd;
}

void EncodeCoordDecide(const paxos::Command& cmd, Buffer& out) {
  const auto& dec = static_cast<const membership::CoordDecideCommand&>(cmd);
  WriteAppCommandBase(dec, out);
  out.WriteU64(dec.txn_id);
  out.WriteBool(dec.commit);
  WriteNodeIds(dec.part_members, out);
  WriteKvStore(dec.part_data, out);
  WriteDedupTable(dec.part_dedup, out);
  WriteGroupInfo(dec.part_outer_neighbor, out);
}

paxos::CommandPtr DecodeCoordDecide(Reader& in) {
  auto cmd = std::make_shared<membership::CoordDecideCommand>();
  ReadAppCommandBase(in, *cmd);
  cmd->txn_id = in.ReadU64();
  cmd->commit = in.ReadBool();
  cmd->part_members = ReadNodeIds(in);
  cmd->part_data = ReadKvStore(in);
  cmd->part_dedup = ReadDedupTable(in);
  cmd->part_outer_neighbor = ReadGroupInfo(in);
  return cmd;
}

void EncodePrepareCmd(const paxos::Command& cmd, Buffer& out) {
  const auto& prep = static_cast<const membership::PrepareCommand&>(cmd);
  WriteAppCommandBase(prep, out);
  WriteRingTxn(prep.txn, out);
  WriteNodeIds(prep.coord_members, out);
  WriteKvStore(prep.coord_data, out);
  WriteDedupTable(prep.coord_dedup, out);
  WriteGroupInfo(prep.coord_outer_neighbor, out);
}

paxos::CommandPtr DecodePrepareCmd(Reader& in) {
  auto cmd = std::make_shared<membership::PrepareCommand>();
  ReadAppCommandBase(in, *cmd);
  cmd->txn = ReadRingTxn(in);
  cmd->coord_members = ReadNodeIds(in);
  cmd->coord_data = ReadKvStore(in);
  cmd->coord_dedup = ReadDedupTable(in);
  cmd->coord_outer_neighbor = ReadGroupInfo(in);
  return cmd;
}

void EncodeDecideCmd(const paxos::Command& cmd, Buffer& out) {
  const auto& dec = static_cast<const membership::DecideCommand&>(cmd);
  WriteAppCommandBase(dec, out);
  out.WriteU64(dec.txn_id);
  out.WriteBool(dec.commit);
}

paxos::CommandPtr DecodeDecideCmd(Reader& in) {
  auto cmd = std::make_shared<membership::DecideCommand>();
  ReadAppCommandBase(in, *cmd);
  cmd->txn_id = in.ReadU64();
  cmd->commit = in.ReadBool();
  return cmd;
}

void EncodeUpdateNeighbor(const paxos::Command& cmd, Buffer& out) {
  const auto& upd = static_cast<const membership::UpdateNeighborCommand&>(cmd);
  WriteAppCommandBase(upd, out);
  out.WriteBool(upd.is_successor);
  WriteGroupInfo(upd.info, out);
}

paxos::CommandPtr DecodeUpdateNeighbor(Reader& in) {
  auto cmd = std::make_shared<membership::UpdateNeighborCommand>();
  ReadAppCommandBase(in, *cmd);
  cmd->is_successor = in.ReadBool();
  cmd->info = ReadGroupInfo(in);
  return cmd;
}

// --- Group snapshot ----------------------------------------------------------

void WriteActiveTxn(const membership::ActiveTxn& a, Buffer& out) {
  WriteRingTxn(a.txn, out);
  out.WriteBool(a.is_coordinator);
  WriteNodeIds(a.my_members, out);
  WriteNodeIds(a.coord_members, out);
  WriteKvStore(a.coord_data, out);
  WriteDedupTable(a.coord_dedup, out);
  WriteGroupInfo(a.coord_outer, out);
}

membership::ActiveTxn ReadActiveTxn(Reader& in) {
  membership::ActiveTxn a;
  a.txn = ReadRingTxn(in);
  a.is_coordinator = in.ReadBool();
  a.my_members = ReadNodeIds(in);
  a.coord_members = ReadNodeIds(in);
  a.coord_data = ReadKvStore(in);
  a.coord_dedup = ReadDedupTable(in);
  a.coord_outer = ReadGroupInfo(in);
  return a;
}

void WriteGroupState(const membership::GroupState& state, Buffer& out) {
  out.WriteU64(state.id);
  WriteKeyRange(state.range, out);
  out.WriteU64(state.epoch);
  WriteGroupInfo(state.pred, out);
  WriteGroupInfo(state.succ, out);
  WriteKvStore(state.data, out);
  WriteDedupTable(state.dedup, out);
  out.WriteBool(state.active.has_value());
  if (state.active.has_value()) {
    WriteActiveTxn(*state.active, out);
  }
  out.WriteU32(static_cast<uint32_t>(state.txn_outcomes.size()));
  for (const auto& [txn_id, committed] : state.txn_outcomes) {
    out.WriteU64(txn_id);
    out.WriteBool(committed);
  }
  out.WriteBool(state.retired);
  WriteGroupInfos(state.forward, out);
}

void EncodeGroupSnapshot(const paxos::SnapshotData& snap, Buffer& out) {
  WriteGroupState(static_cast<const membership::GroupSnapshot&>(snap).state,
                  out);
}

paxos::SnapshotPtr DecodeGroupSnapshot(Reader& in) {
  auto snap = std::make_shared<membership::GroupSnapshot>();
  membership::GroupState& state = snap->state;
  state.id = in.ReadU64();
  state.range = ReadKeyRange(in);
  state.epoch = in.ReadU64();
  state.pred = ReadGroupInfo(in);
  state.succ = ReadGroupInfo(in);
  state.data = ReadKvStore(in);
  state.dedup = ReadDedupTable(in);
  if (in.ReadBool()) {
    state.active = ReadActiveTxn(in);
  }
  const size_t outcomes = in.ReadCount();
  for (size_t i = 0; i < outcomes && in.ok(); ++i) {
    const uint64_t txn_id = in.ReadU64();
    state.txn_outcomes[txn_id] = in.ReadBool();
  }
  state.retired = in.ReadBool();
  state.forward = ReadGroupInfos(in);
  return snap;
}

}  // namespace

void RegisterWireCodecs() {
  static const bool done = [] {
    paxos::RegisterCommandCodec(kTagPut, typeid(PutCommand), EncodePut,
                               DecodePut);
    paxos::RegisterCommandCodec(kTagDelete, typeid(DeleteCommand), EncodeDelete,
                               DecodeDelete);
    paxos::RegisterCommandCodec(kTagSplit, typeid(SplitCommand), EncodeSplit,
                               DecodeSplit);
    paxos::RegisterCommandCodec(kTagCoordStart, typeid(CoordStartCommand),
                               EncodeCoordStart, DecodeCoordStart);
    paxos::RegisterCommandCodec(kTagCoordDecide, typeid(CoordDecideCommand),
                               EncodeCoordDecide, DecodeCoordDecide);
    paxos::RegisterCommandCodec(kTagPrepare, typeid(PrepareCommand),
                               EncodePrepareCmd, DecodePrepareCmd);
    paxos::RegisterCommandCodec(kTagDecide, typeid(DecideCommand),
                               EncodeDecideCmd, DecodeDecideCmd);
    paxos::RegisterCommandCodec(kTagUpdateNeighbor,
                               typeid(UpdateNeighborCommand),
                               EncodeUpdateNeighbor, DecodeUpdateNeighbor);

    paxos::RegisterSnapshotCodec(kTagGroupSnapshot, typeid(GroupSnapshot),
                                EncodeGroupSnapshot, DecodeGroupSnapshot);
    return true;
  }();
  (void)done;
}

void EncodeGroupState(const GroupState& state, wire::Buffer& out) {
  out.WriteU16(kTagGroupSnapshot);
  WriteGroupState(state, out);
}

}  // namespace scatter::membership
