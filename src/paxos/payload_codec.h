// Tagged codec registries for the polymorphic payloads that ride inside wire
// frames: replicated commands (paxos::Command in log entries) and state
// machine snapshots (paxos::SnapshotData in snapshot installs).
//
// These registries live in paxos/, not wire/, because the payload vocabulary
// is owned by this module: the wire layer frames raw bytes and must stay
// below every protocol layer in the include DAG (scripts/layers.json), so it
// cannot name paxos types. Application modules — and tests with private
// command or snapshot types — extend the wire format by registering here.
//
// Encoding: u16 tag + payload (tag 0 = null command / null snapshot).
// Per-module tag ranges are documented in PROTOCOL.md "Wire format".

#ifndef SCATTER_SRC_PAXOS_PAYLOAD_CODEC_H_
#define SCATTER_SRC_PAXOS_PAYLOAD_CODEC_H_

#include <typeindex>

#include "src/paxos/command.h"
#include "src/paxos/state_machine.h"
#include "src/wire/buffer.h"

namespace scatter::paxos {

using CommandEncodeFn = void (*)(const Command& cmd, wire::Buffer& out);
using CommandDecodeFn = CommandPtr (*)(wire::Reader& in);

// `type` identifies the concrete C++ type (typeid(cmd)) so the encoder can
// be found from a base-class reference without adding wire methods to the
// command hierarchy.
void RegisterCommandCodec(uint16_t tag, std::type_index type,
                          CommandEncodeFn encode, CommandDecodeFn decode);

// Writes u16 tag + payload; cmd may be null (tag 0). CHECK-fails on a
// command type that was never registered — that is a build wiring bug, not
// a runtime condition.
void EncodeCommand(const CommandPtr& cmd, wire::Buffer& out);
CommandPtr DecodeCommand(wire::Reader& in);

using SnapshotEncodeFn = void (*)(const SnapshotData& snap, wire::Buffer& out);
using SnapshotDecodeFn = SnapshotPtr (*)(wire::Reader& in);

void RegisterSnapshotCodec(uint16_t tag, std::type_index type,
                           SnapshotEncodeFn encode, SnapshotDecodeFn decode);
void EncodeSnapshot(const SnapshotPtr& snap, wire::Buffer& out);
SnapshotPtr DecodeSnapshot(wire::Reader& in);

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_PAYLOAD_CODEC_H_
