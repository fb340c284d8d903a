// Wire field codecs for membership-owned composites (DedupTable, RingTxn).
// They live with the owning module so the wire layer never includes upward
// (see scripts/layers.json); both membership's command codecs and txn's
// message codecs include this header. A DedupTable encodes in canonical
// order: clients ascending, each client's window results ascending by seq.

#ifndef SCATTER_SRC_MEMBERSHIP_WIRE_FIELDS_H_
#define SCATTER_SRC_MEMBERSHIP_WIRE_FIELDS_H_

#include "src/membership/commands.h"
#include "src/ring/wire_fields.h"
#include "src/wire/field_codecs.h"

namespace scatter::wire::internal {

inline void WriteDedupTable(const membership::DedupTable& table, Buffer& out) {
  out.WriteU32(static_cast<uint32_t>(table.size()));
  for (const auto& [client, entry] : table) {
    out.WriteU64(client);
    out.WriteU64(entry.max_seq());
    out.WriteU32(static_cast<uint32_t>(entry.size()));
    entry.ForEach([&out](uint64_t seq, uint8_t code) {
      out.WriteU64(seq);
      out.WriteU8(code);
    });
  }
}

// Only the canonical encoding decodes: clients strictly ascending, and each
// client's results strictly ascending inside its window
// (max_seq - kDedupWindow, max_seq]. No real table holds anything else.
inline membership::DedupTable ReadDedupTable(Reader& in) {
  membership::DedupTable table;
  const size_t clients = in.ReadCount();
  for (size_t i = 0; i < clients && in.ok(); ++i) {
    const uint64_t client = in.ReadU64();
    if (!table.empty() && client <= table.rbegin()->first) {
      in.Fail();
      break;
    }
    membership::DedupEntry& entry =
        table.emplace_hint(table.end(), client, membership::DedupEntry{})
            ->second;
    entry.Advance(in.ReadU64());
    const size_t results = in.ReadCount();
    uint64_t prev = 0;
    for (size_t j = 0; j < results && in.ok(); ++j) {
      const uint64_t seq = in.ReadU64();
      const uint8_t code = in.ReadU8();
      if (!entry.InWindow(seq) || (j > 0 && seq <= prev)) {
        in.Fail();
        break;
      }
      entry.Record(seq, code);
      prev = seq;
    }
  }
  return table;
}

inline void WriteRingTxn(const membership::RingTxn& t, Buffer& out) {
  out.WriteU64(t.id);
  out.WriteU8(static_cast<uint8_t>(t.kind));
  out.WriteU64(t.coord_group);
  out.WriteU64(t.part_group);
  WriteKeyRange(t.coord_range, out);
  WriteKeyRange(t.part_range, out);
  out.WriteU64(t.coord_epoch);
  out.WriteU64(t.part_epoch);
  out.WriteU64(t.merged_id);
  out.WriteU64(t.new_boundary);
}

inline membership::RingTxn ReadRingTxn(Reader& in) {
  membership::RingTxn t;
  t.id = in.ReadU64();
  const uint8_t kind = in.ReadU8();
  if (kind > static_cast<uint8_t>(membership::RingTxn::Kind::kRepartition)) {
    in.Fail();
    return t;
  }
  t.kind = static_cast<membership::RingTxn::Kind>(kind);
  t.coord_group = in.ReadU64();
  t.part_group = in.ReadU64();
  t.coord_range = ReadKeyRange(in);
  t.part_range = ReadKeyRange(in);
  t.coord_epoch = in.ReadU64();
  t.part_epoch = in.ReadU64();
  t.merged_id = in.ReadU64();
  t.new_boundary = in.ReadU64();
  return t;
}

}  // namespace scatter::wire::internal

#endif  // SCATTER_SRC_MEMBERSHIP_WIRE_FIELDS_H_
