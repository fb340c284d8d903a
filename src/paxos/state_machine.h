// The replicated state machine interface applied by every group replica.
//
// Determinism contract: Apply must depend only on (current state, index,
// command). Replicas on different nodes apply the same log and must reach
// identical states — the verification module spot-checks this in tests.

#ifndef SCATTER_SRC_PAXOS_STATE_MACHINE_H_
#define SCATTER_SRC_PAXOS_STATE_MACHINE_H_

#include <memory>

#include "src/common/types.h"
#include "src/paxos/command.h"
#include "src/wire/buffer.h"

namespace scatter::paxos {

// Opaque snapshot payload; the concrete type is owned by the state machine
// implementation. Immutable once taken (shared by in-flight installs).
struct SnapshotData {
  virtual ~SnapshotData() = default;
  // Approximate serialized size (feeds the network bandwidth model when a
  // snapshot ships to a joiner).
  virtual size_t ByteSize() const { return 64; }
};

using SnapshotPtr = std::shared_ptr<const SnapshotData>;

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  // Applies a committed application command (kind == kApp). Called exactly
  // once per index, in index order. NoOp and Config commands are consumed by
  // the replica and never reach the state machine.
  virtual void Apply(uint64_t index, const Command& command) = 0;

  // Captures the full application state for transfer to a joining replica.
  virtual SnapshotPtr TakeSnapshot() const = 0;

  // Appends the current state in snapshot encoding (the bytes
  // EncodeSnapshot(TakeSnapshot(), out) writes) for checkpoints and
  // fingerprints, which need the bytes but no copy. The default goes
  // through TakeSnapshot; a state machine with a large state overrides it
  // to encode in place.
  virtual void EncodeSnapshotTo(wire::Buffer& out) const;

  // Replaces the application state with a snapshot previously produced by
  // TakeSnapshot on a peer.
  virtual void Restore(const SnapshotData& snapshot) = 0;
};

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_STATE_MACHINE_H_
