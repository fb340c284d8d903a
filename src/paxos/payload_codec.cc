#include "src/paxos/payload_codec.h"

#include <string>
#include <unordered_map>

#include "src/common/logging.h"

namespace scatter::paxos {
namespace {

// CHECK with context: codec registration/encoding failures are build wiring
// bugs; die loudly with the offending type in the message.
[[noreturn]] void CodecFailure(const std::string& why) {
  SCATTER_ERROR() << "payload codec: " << why;
  ::scatter::internal::CheckFailure(__FILE__, __LINE__, why.c_str());
}

struct CommandCodec {
  uint16_t tag = 0;
  CommandEncodeFn encode = nullptr;
  CommandDecodeFn decode = nullptr;
};

struct SnapshotCodec {
  uint16_t tag = 0;
  SnapshotEncodeFn encode = nullptr;
  SnapshotDecodeFn decode = nullptr;
};

struct Registry {
  std::unordered_map<uint16_t, CommandCodec> commands_by_tag;
  std::unordered_map<std::type_index, CommandCodec> commands_by_type;

  std::unordered_map<uint16_t, SnapshotCodec> snapshots_by_tag;
  std::unordered_map<std::type_index, SnapshotCodec> snapshots_by_type;
};

Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

}  // namespace

void RegisterCommandCodec(uint16_t tag, std::type_index type,
                          CommandEncodeFn encode, CommandDecodeFn decode) {
  SCATTER_CHECK(tag != 0);  // tag 0 is reserved for null
  SCATTER_CHECK(encode != nullptr && decode != nullptr);
  CommandCodec codec{tag, encode, decode};
  if (!registry().commands_by_tag.emplace(tag, codec).second) {
    CodecFailure("duplicate command codec tag " + std::to_string(tag));
  }
  if (!registry().commands_by_type.emplace(type, codec).second) {
    CodecFailure(std::string("command type registered twice: ") + type.name());
  }
}

void EncodeCommand(const CommandPtr& cmd, wire::Buffer& out) {
  if (cmd == nullptr) {
    out.WriteU16(0);
    return;
  }
  auto it = registry().commands_by_type.find(std::type_index(typeid(*cmd)));
  if (it == registry().commands_by_type.end()) {
    CodecFailure(std::string("no wire codec registered for command type ") +
                 typeid(*cmd).name());
  }
  out.WriteU16(it->second.tag);
  it->second.encode(*cmd, out);
}

CommandPtr DecodeCommand(wire::Reader& in) {
  const uint16_t tag = in.ReadU16();
  if (tag == 0) {
    return nullptr;
  }
  auto it = registry().commands_by_tag.find(tag);
  if (it == registry().commands_by_tag.end()) {
    in.Fail();  // unknown command tag: reject the whole frame
    return nullptr;
  }
  return it->second.decode(in);
}

void RegisterSnapshotCodec(uint16_t tag, std::type_index type,
                           SnapshotEncodeFn encode, SnapshotDecodeFn decode) {
  SCATTER_CHECK(tag != 0);  // tag 0 is reserved for null
  SCATTER_CHECK(encode != nullptr && decode != nullptr);
  SnapshotCodec codec{tag, encode, decode};
  if (!registry().snapshots_by_tag.emplace(tag, codec).second) {
    CodecFailure("duplicate snapshot codec tag " + std::to_string(tag));
  }
  if (!registry().snapshots_by_type.emplace(type, codec).second) {
    CodecFailure(std::string("snapshot type registered twice: ") + type.name());
  }
}

void EncodeSnapshot(const SnapshotPtr& snap, wire::Buffer& out) {
  if (snap == nullptr) {
    out.WriteU16(0);
    return;
  }
  auto it = registry().snapshots_by_type.find(std::type_index(typeid(*snap)));
  if (it == registry().snapshots_by_type.end()) {
    CodecFailure(std::string("no wire codec registered for snapshot type ") +
                 typeid(*snap).name());
  }
  out.WriteU16(it->second.tag);
  it->second.encode(*snap, out);
}

void StateMachine::EncodeSnapshotTo(wire::Buffer& out) const {
  EncodeSnapshot(TakeSnapshot(), out);
}

SnapshotPtr DecodeSnapshot(wire::Reader& in) {
  const uint16_t tag = in.ReadU16();
  if (tag == 0) {
    return nullptr;
  }
  auto it = registry().snapshots_by_tag.find(tag);
  if (it == registry().snapshots_by_tag.end()) {
    in.Fail();
    return nullptr;
  }
  return it->second.decode(in);
}

}  // namespace scatter::paxos
