// Unit tests for circular key-range arithmetic, the KV store's range
// operations, and the routing cache.

#include <algorithm>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/common/random.h"
#include "src/ring/group_info.h"
#include "src/ring/key_range.h"
#include "src/ring/ring_map.h"
#include "src/store/kv_store.h"

namespace scatter {
namespace {

using ring::GroupInfo;
using ring::KeyRange;
using ring::RingMap;
using store::KvStore;

constexpr Key kQuarter = uint64_t{1} << 62;

TEST(KeyRangeTest, FullRingContainsEverything) {
  KeyRange full = KeyRange::Full();
  EXPECT_TRUE(full.IsFull());
  EXPECT_TRUE(full.Contains(0));
  EXPECT_TRUE(full.Contains(~uint64_t{0}));
  EXPECT_TRUE(full.Contains(12345));
}

TEST(KeyRangeTest, SimpleArc) {
  KeyRange r{100, 200};
  EXPECT_TRUE(r.Contains(100));
  EXPECT_TRUE(r.Contains(199));
  EXPECT_FALSE(r.Contains(200));
  EXPECT_FALSE(r.Contains(99));
  EXPECT_EQ(r.Size(), 100u);
}

TEST(KeyRangeTest, WrappingArc) {
  KeyRange r{~uint64_t{0} - 10, 10};
  EXPECT_TRUE(r.Contains(~uint64_t{0}));
  EXPECT_TRUE(r.Contains(0));
  EXPECT_TRUE(r.Contains(9));
  EXPECT_FALSE(r.Contains(10));
  EXPECT_FALSE(r.Contains(1000));
  EXPECT_EQ(r.Size(), 21u);
}

TEST(KeyRangeTest, MidpointInside) {
  KeyRange r{100, 200};
  EXPECT_TRUE(r.Contains(r.Midpoint()));
  KeyRange wrap{~uint64_t{0} - 100, 100};
  EXPECT_TRUE(wrap.Contains(wrap.Midpoint()));
  KeyRange full = KeyRange::Full();
  EXPECT_TRUE(full.Contains(full.Midpoint()));
}

TEST(KeyRangeTest, SplitAndJoinRoundTrip) {
  KeyRange r{100, 300};
  auto [left, right] = r.SplitAt(200);
  EXPECT_EQ(left, (KeyRange{100, 200}));
  EXPECT_EQ(right, (KeyRange{200, 300}));
  EXPECT_EQ(left.JoinWith(right), r);
  EXPECT_TRUE(left.AdjacentBefore(right));
  EXPECT_FALSE(right.AdjacentBefore(left));
}

TEST(KeyRangeTest, SplitFullRing) {
  KeyRange full = KeyRange::Full();
  auto [left, right] = full.SplitAt(kQuarter);
  EXPECT_FALSE(left.IsFull());
  EXPECT_FALSE(right.IsFull());
  EXPECT_EQ(left.JoinWith(right), full);
  for (Key k : {Key{0}, kQuarter - 1, kQuarter, ~uint64_t{0}}) {
    EXPECT_NE(left.Contains(k), right.Contains(k)) << k;
  }
}

TEST(KeyRangeTest, Overlaps) {
  EXPECT_TRUE((KeyRange{0, 100}).Overlaps(KeyRange{50, 150}));
  EXPECT_FALSE((KeyRange{0, 100}).Overlaps(KeyRange{100, 200}));
  EXPECT_TRUE((KeyRange{200, 100}).Overlaps(KeyRange{0, 50}));  // wrap
  EXPECT_TRUE(KeyRange::Full().Overlaps(KeyRange{5, 6}));
}

TEST(KvStoreTest, PutGetDelete) {
  KvStore s;
  s.Put(1, "a");
  s.Put(2, "b");
  EXPECT_EQ(s.Get(1), "a");
  EXPECT_EQ(s.Get(3), std::nullopt);
  EXPECT_TRUE(s.Delete(1));
  EXPECT_FALSE(s.Delete(1));
  EXPECT_EQ(s.Get(1), std::nullopt);
  EXPECT_EQ(s.size(), 1u);
}

TEST(KvStoreTest, OverwriteKeepsOneEntry) {
  KvStore s;
  s.Put(1, "a");
  s.Put(1, "b");
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.Get(1), "b");
}

TEST(KvStoreTest, ExtractRangeSimple) {
  KvStore s;
  for (Key k = 0; k < 100; k += 10) {
    s.Put(k, std::to_string(k));
  }
  KvStore sub = s.ExtractRange(KeyRange{20, 60});
  EXPECT_EQ(sub.size(), 4u);  // 20 30 40 50
  EXPECT_EQ(sub.Get(20), "20");
  EXPECT_EQ(sub.Get(60), std::nullopt);
  EXPECT_EQ(s.size(), 10u);  // extraction copies
}

TEST(KvStoreTest, ExtractRangeWraps) {
  KvStore s;
  s.Put(0, "zero");
  s.Put(5, "five");
  s.Put(~uint64_t{0}, "max");
  s.Put(1000, "kilo");
  KvStore sub = s.ExtractRange(KeyRange{~uint64_t{0} - 5, 6});
  EXPECT_EQ(sub.size(), 3u);
  EXPECT_TRUE(sub.Get(~uint64_t{0}).has_value());
  EXPECT_TRUE(sub.Get(0).has_value());
  EXPECT_TRUE(sub.Get(5).has_value());
  EXPECT_FALSE(sub.Get(1000).has_value());
}

// The policies' original split/repartition key pick, kept as the oracle for
// KeyAtClockwiseRank: copy the arc, normalize keys to clockwise offsets from
// range.begin, sort, index.
std::optional<Key> SortedOffsetKeyAtRank(const KvStore& s,
                                         const KeyRange& range, size_t rank) {
  const KvStore in_range = s.ExtractRange(range);
  std::vector<Key> offsets;
  for (const auto& [k, v] : in_range.entries()) {
    offsets.push_back(k - range.begin);
  }
  std::sort(offsets.begin(), offsets.end());
  if (rank >= offsets.size()) {
    return std::nullopt;
  }
  return range.begin + offsets[rank];
}

TEST(KvStoreTest, KeyAtClockwiseRankMatchesSortedOffsets) {
  Rng rng(4242);
  size_t checked = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const Key a = rng.Next();
    const Key b = rng.Next();
    const KeyRange arcs[] = {
        KeyRange{std::min(a, b), std::max(a, b)},  // non-wrapping
        KeyRange{std::max(a, b), std::min(a, b)},  // wrapping
        KeyRange::Full(),                          // full, begin == 0
        KeyRange{a, a},                            // full, begin != 0
    };
    ASSERT_LT(arcs[0].begin, arcs[0].end);
    ASSERT_GT(arcs[1].begin, arcs[1].end);
    KvStore s;
    const size_t n = rng.Index(40);
    for (size_t i = 0; i < n; ++i) {
      s.Put(rng.Next(), "v");
    }
    // Keys on the arc edges and the ends of the key space, where a wrong
    // walk order or bound would show.
    for (Key k : {a, a - 1, a + 1, b, b - 1, Key{0}, ~Key{0}}) {
      if (rng.Bernoulli(0.5)) {
        s.Put(k, "edge");
      }
    }
    for (const KeyRange& range : arcs) {
      const size_t in_range = s.CountRange(range);
      std::vector<size_t> ranks = {0, in_range / 2, in_range, in_range + 3};
      if (in_range > 0) {
        ranks.push_back(in_range - 1);
        ranks.push_back(rng.Index(in_range));
      }
      for (size_t rank : ranks) {
        EXPECT_EQ(s.KeyAtClockwiseRank(range, rank),
                  SortedOffsetKeyAtRank(s, range, rank))
            << "trial " << trial << " range " << range.ToString() << " rank "
            << rank << " of " << in_range;
        checked++;
      }
    }
  }
  EXPECT_GT(checked, 4000u);
}

TEST(KvStoreTest, KeyAtClockwiseRankWalksFullRingFromBegin) {
  KvStore s;
  for (Key k : {Key{1}, Key{50}, Key{100}, Key{200}}) {
    s.Put(k, "v");
  }
  // On the full ring starting at 100, clockwise order is 100 200 1 50 —
  // not key order.
  const KeyRange from_100{100, 100};
  EXPECT_EQ(s.KeyAtClockwiseRank(from_100, 0), Key{100});
  EXPECT_EQ(s.KeyAtClockwiseRank(from_100, 1), Key{200});
  EXPECT_EQ(s.KeyAtClockwiseRank(from_100, 2), Key{1});
  EXPECT_EQ(s.KeyAtClockwiseRank(from_100, 3), Key{50});
  EXPECT_EQ(s.KeyAtClockwiseRank(from_100, 4), std::nullopt);
  EXPECT_EQ(s.KeyAtClockwiseRank(KeyRange{60, 10}, 2), Key{1});
  EXPECT_EQ(KvStore().KeyAtClockwiseRank(KeyRange::Full(), 0), std::nullopt);
}

TEST(KvStoreTest, EraseRangeAndCount) {
  KvStore s;
  for (Key k = 0; k < 100; ++k) {
    s.Put(k, "x");
  }
  EXPECT_EQ(s.CountRange(KeyRange{10, 20}), 10u);
  s.EraseRange(KeyRange{10, 20});
  EXPECT_EQ(s.size(), 90u);
  EXPECT_FALSE(s.Get(15).has_value());
  EXPECT_TRUE(s.Get(20).has_value());
}

TEST(KvStoreTest, MergeDisjoint) {
  KvStore a;
  KvStore b;
  a.Put(1, "a");
  b.Put(2, "b");
  a.MergeFrom(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.Get(2), "b");
}

TEST(KvStoreTest, SplitIsLossless) {
  KvStore s;
  Rng rng(77);
  for (int i = 0; i < 1000; ++i) {
    s.Put(rng.Next(), "v");
  }
  const KeyRange full = KeyRange::Full();
  auto [left, right] = full.SplitAt(full.Midpoint());
  KvStore l = s.ExtractRange(left);
  KvStore r = s.ExtractRange(right);
  EXPECT_EQ(l.size() + r.size(), s.size());
  l.MergeFrom(r);
  EXPECT_EQ(l, s);
}

GroupInfo MakeInfo(GroupId id, KeyRange range, uint64_t epoch,
                   NodeId leader = kInvalidNode) {
  GroupInfo info;
  info.id = id;
  info.range = range;
  info.epoch = epoch;
  info.members = {1, 2, 3};
  info.leader = leader;
  return info;
}

TEST(RingMapTest, LookupFindsCoveringArc) {
  RingMap map;
  map.Upsert(MakeInfo(1, KeyRange{0, 100}, 1));
  map.Upsert(MakeInfo(2, KeyRange{100, 0}, 1));  // wraps to 0
  ASSERT_NE(map.Lookup(50), nullptr);
  EXPECT_EQ(map.Lookup(50)->id, 1u);
  ASSERT_NE(map.Lookup(100), nullptr);
  EXPECT_EQ(map.Lookup(100)->id, 2u);
  ASSERT_NE(map.Lookup(~uint64_t{0}), nullptr);
  EXPECT_EQ(map.Lookup(~uint64_t{0})->id, 2u);
  EXPECT_TRUE(map.IsCompleteCover());
}

TEST(RingMapTest, GapReturnsNull) {
  RingMap map;
  map.Upsert(MakeInfo(1, KeyRange{0, 100}, 1));
  EXPECT_EQ(map.Lookup(500), nullptr);
  EXPECT_FALSE(map.IsCompleteCover());
}

TEST(RingMapTest, StaleEpochIgnored) {
  RingMap map;
  map.Upsert(MakeInfo(1, KeyRange{0, 100}, 5));
  EXPECT_FALSE(map.Upsert(MakeInfo(1, KeyRange{0, 200}, 3)));
  EXPECT_EQ(map.Lookup(50)->range.end, 100u);
}

TEST(RingMapTest, SameEpochLeaderRefresh) {
  RingMap map;
  map.Upsert(MakeInfo(1, KeyRange{0, 100}, 5, /*leader=*/1));
  EXPECT_TRUE(map.Upsert(MakeInfo(1, KeyRange{0, 100}, 5, /*leader=*/2)));
  EXPECT_EQ(map.Lookup(50)->leader, 2u);
}

TEST(RingMapTest, SplitEvictsParent) {
  RingMap map;
  map.Upsert(MakeInfo(1, KeyRange{0, 200}, 1));
  map.Upsert(MakeInfo(2, KeyRange{0, 100}, 2));  // left child
  EXPECT_EQ(map.Get(1), nullptr);  // parent evicted (overlap)
  map.Upsert(MakeInfo(3, KeyRange{100, 200}, 2));
  EXPECT_EQ(map.Lookup(150)->id, 3u);
  EXPECT_EQ(map.size(), 2u);
}

TEST(RingMapTest, FullRingSingleGroup) {
  RingMap map;
  map.Upsert(MakeInfo(7, KeyRange::Full(), 1));
  EXPECT_EQ(map.Lookup(12345)->id, 7u);
  EXPECT_TRUE(map.IsCompleteCover());
}

TEST(RingMapTest, EraseRemovesArc) {
  RingMap map;
  map.Upsert(MakeInfo(1, KeyRange{0, 100}, 1));
  map.Erase(1);
  EXPECT_EQ(map.Lookup(50), nullptr);
  EXPECT_EQ(map.size(), 0u);
}

}  // namespace
}  // namespace scatter
