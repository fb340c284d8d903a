#include "src/wire/codec.h"

#include <array>
#include <utility>

#include "src/common/logging.h"

namespace scatter::wire {
namespace {

struct MessageCodec {
  MessageEncodeFn encode = nullptr;
  MessageDecodeFn decode = nullptr;
};

// Message tags are generated densely (1..kMessageTypeCount, 0 reserved), so
// the registry is a flat table indexed by raw tag: codec lookup on the
// per-frame encode/decode path is one bounds check and one load, no hashing.
using Registry = std::array<MessageCodec, sim::kMessageTypeCount + 1>;

Registry& registry() {
  static Registry r = {};
  return r;
}

// Header flag bits (u8 on the wire).
constexpr uint8_t kFlagIsResponse = 1u << 0;

// CHECK with context: codec registration/encoding failures are build wiring
// bugs; die loudly with the offending type in the message.
[[noreturn]] void WireCodecFailure(const std::string& why) {
  SCATTER_ERROR() << "wire codec: " << why;
  ::scatter::internal::CheckFailure(__FILE__, __LINE__, why.c_str());
}

// Registered payload decoder for a raw type tag, or nullptr.
MessageDecodeFn FindMessageDecoder(uint16_t raw_type) {
  if (raw_type == 0 || raw_type > sim::kMessageTypeCount) {
    return nullptr;
  }
  return registry()[raw_type].decode;
}

// Little-endian store into a scratch header block.
void StoreLe16(uint8_t* at, uint16_t v) {
  at[0] = static_cast<uint8_t>(v);
  at[1] = static_cast<uint8_t>(v >> 8);
}
void StoreLe64(uint8_t* at, uint64_t v) {
  for (size_t i = 0; i < 8; ++i) {
    at[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// The fixed header is assembled in a stack block and appended with a single
// write: one grow/bounds check for 45 bytes instead of eight (this is a
// per-frame cost on the hottest encode path).
void EncodeHeader(const sim::Message& m, Buffer& out) {
  static_assert(kFrameHeaderSize == 45);
  uint8_t raw[kFrameHeaderSize];
  StoreLe16(raw + 0, kWireVersion);
  StoreLe16(raw + 2, static_cast<uint16_t>(m.type));
  StoreLe64(raw + 4, m.from);
  StoreLe64(raw + 12, m.to);
  StoreLe64(raw + 20, m.rpc_id);
  raw[28] = m.is_response ? kFlagIsResponse : 0;
  StoreLe64(raw + 29, m.trace_id);
  StoreLe64(raw + 37, m.span_id);
  out.WriteBytes(raw, sizeof(raw));
}

uint16_t LoadLe16(const uint8_t* at) {
  return static_cast<uint16_t>(at[0] | (at[1] << 8));
}
uint64_t LoadLe64(const uint8_t* at) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(at[i]) << (8 * i);
  }
  return v;
}

// Rejection reason for a frame whose length prefix covers less than the
// fixed header. A Reader bounded by the frame length checks the fields in
// wire order (version, type, then the rest), so a frame too short to hold
// the version reads it as zero and is rejected as an unknown version.
std::string TruncatedHeaderError(const uint8_t* header, size_t frame_len) {
  Reader in(header, frame_len);
  const uint16_t version = in.ReadU16();
  if (version != kWireVersion) {
    return "unknown wire version " + std::to_string(version);
  }
  const uint16_t raw_type = in.ReadU16();
  if (FindMessageDecoder(raw_type) == nullptr) {
    return "unregistered message type " + std::to_string(raw_type);
  }
  return "short frame: truncated header";
}

}  // namespace

void RegisterMessageCodec(sim::MessageType type, MessageEncodeFn encode,
                          MessageDecodeFn decode) {
  SCATTER_CHECK(type != sim::MessageType::kInvalid);
  SCATTER_CHECK(static_cast<uint16_t>(type) <= sim::kMessageTypeCount);
  SCATTER_CHECK(encode != nullptr && decode != nullptr);
  MessageCodec& slot = registry()[static_cast<uint16_t>(type)];
  if (slot.encode != nullptr) {
    WireCodecFailure(std::string("duplicate codec for message type ") +
                     sim::MessageTypeName(type));
  }
  slot = MessageCodec{encode, decode};
}

bool HasMessageCodec(sim::MessageType type) {
  const uint16_t raw = static_cast<uint16_t>(type);
  return raw != 0 && raw <= sim::kMessageTypeCount &&
         registry()[raw].encode != nullptr;
}

std::vector<sim::MessageType> MissingMessageCodecs() {
  std::vector<sim::MessageType> missing;
  for (sim::MessageType type : sim::kAllMessageTypes) {
    if (!HasMessageCodec(type)) {
      missing.push_back(type);
    }
  }
  return missing;
}

void EncodeFrame(const sim::Message& m, Buffer& out) {
  const uint16_t raw = static_cast<uint16_t>(m.type);
  const MessageEncodeFn encode =
      (raw != 0 && raw <= sim::kMessageTypeCount) ? registry()[raw].encode
                                                  : nullptr;
  if (encode == nullptr) {
    WireCodecFailure(std::string("no wire codec registered for message type ") +
                     sim::MessageTypeName(m.type));
  }
  const size_t len_at = out.ReserveU32();
  const size_t start = out.size();
  EncodeHeader(m, out);
  encode(m, out);
  out.PatchU32(len_at, static_cast<uint32_t>(out.size() - start));
}

sim::MessagePtr DecodeFrame(const uint8_t* data, size_t size,
                            size_t* consumed, std::string* error) {
  *consumed = 0;
  auto fail = [error](std::string why) -> sim::MessagePtr {
    if (error != nullptr) {
      *error = std::move(why);
    }
    return nullptr;
  };

  Reader prefix(data, size);
  const uint32_t frame_len = prefix.ReadU32();
  if (!prefix.ok()) {
    return fail("short frame: missing length prefix");
  }
  if (frame_len > prefix.remaining()) {
    return fail("short frame: length " + std::to_string(frame_len) +
                " exceeds available " + std::to_string(prefix.remaining()));
  }
  const uint8_t* h = data + 4;
  if (frame_len < kFrameHeaderSize) {
    return fail(TruncatedHeaderError(h, frame_len));
  }

  // The whole fixed header is present, so read it with direct little-endian
  // loads: one bounds decision for 45 bytes instead of one per field.
  const uint16_t version = LoadLe16(h + 0);
  if (version != kWireVersion) {
    return fail("unknown wire version " + std::to_string(version));
  }
  const uint16_t raw_type = LoadLe16(h + 2);
  const MessageDecodeFn decode = FindMessageDecoder(raw_type);
  if (decode == nullptr) {
    return fail("unregistered message type " + std::to_string(raw_type));
  }
  const auto type = static_cast<sim::MessageType>(raw_type);

  Reader in(h + kFrameHeaderSize, frame_len - kFrameHeaderSize);
  sim::MessagePtr m = decode(in);
  if (m == nullptr || !in.ok()) {
    return fail(std::string("malformed payload for ") +
                sim::MessageTypeName(type));
  }
  if (!in.AtEnd()) {
    return fail(std::string("trailing bytes after ") +
                sim::MessageTypeName(type) + " payload");
  }
  if (m->type != type) {
    WireCodecFailure(std::string("codec for ") + sim::MessageTypeName(type) +
                     " decoded a message of the wrong type");
  }
  m->from = LoadLe64(h + 4);
  m->to = LoadLe64(h + 12);
  m->rpc_id = LoadLe64(h + 20);
  m->is_response = (h[28] & kFlagIsResponse) != 0;
  m->trace_id = LoadLe64(h + 29);
  m->span_id = LoadLe64(h + 37);
  *consumed = 4 + frame_len;
  return m;
}

}  // namespace scatter::wire
