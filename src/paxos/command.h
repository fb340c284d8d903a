// Commands are the unit of agreement in the replicated log.
//
// Paxos itself understands only two command kinds: no-ops (leader barrier
// entries) and configuration changes (add/remove a member). Everything else
// is an application command that the replica hands to its StateMachine
// without inspecting.

#ifndef SCATTER_SRC_PAXOS_COMMAND_H_
#define SCATTER_SRC_PAXOS_COMMAND_H_

#include <cstdint>
#include <memory>

#include "src/common/types.h"

namespace scatter::paxos {

struct Command {
  enum class Kind : uint8_t {
    kNoOp,    // Barrier entry appended by a new leader.
    kConfig,  // Membership change, interpreted by the replica itself.
    kApp,     // Application command, interpreted by the StateMachine.
  };

  explicit Command(Kind k) : kind(k) {}
  virtual ~Command() = default;

  // Approximate serialized size; bulk-carrying commands override.
  virtual size_t ByteSize() const { return 32; }

  Kind kind;
};

// Commands are immutable once proposed; replicas on different nodes share
// the same in-memory object (the simulator stands in for serialization).
using CommandPtr = std::shared_ptr<const Command>;

struct NoOpCommand : Command {
  NoOpCommand() : Command(Kind::kNoOp) {}
};

struct ConfigCommand : Command {
  enum class Op : uint8_t { kAddMember, kRemoveMember };

  ConfigCommand(Op o, NodeId n) : Command(Kind::kConfig), op(o), node(n) {}

  Op op;
  NodeId node;
};

// Base for application commands. Carries client identity for exactly-once
// de-duplication in the state machine: a retried command with an already
// applied (client_id, client_seq) must be a no-op on state.
struct AppCommand : Command {
  AppCommand() : Command(Kind::kApp) {}

  uint64_t client_id = 0;   // 0 = not a deduplicated client command
  uint64_t client_seq = 0;
};

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_COMMAND_H_
