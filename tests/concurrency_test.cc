// Threaded stress over the components whose Thread-compat contracts promise
// thread safety ahead of the TCP transport: the metrics registry, FsDisk,
// and scatter::Mutex itself. These tests are the
// dynamic cross-check on the static thread-safety annotations
// (src/common/thread_annotations.h): the annotations prove lock discipline
// lexically, this binary proves it under real interleavings. CI runs it
// under ThreadSanitizer (scripts/ci.sh concurrency, SCATTER_SANITIZE=thread)
// where any data race in the exercised paths is a hard failure; in a plain
// build it still checks the arithmetic (no lost updates, no torn images).
//
// std::thread is used directly here — tests/ is outside the
// raw-sync-primitive rule's scope, which bans unwrapped primitives in src/.

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/thread_annotations.h"
#include "src/obs/metrics.h"
#include "src/storage/fs_disk.h"

namespace scatter {
namespace {

constexpr int kThreads = 4;
constexpr int kIters = 400;
// Image size for the FsDisk replace race — big enough that a torn publish
// would have room to show, small enough to keep the TSan leg quick.
constexpr size_t kImage = 4096;

// Baseline: scatter::Mutex/MutexLock actually exclude. N threads of M
// increments must sum exactly — a lost update means the wrapper is broken,
// and everything else in this file builds on it.
TEST(MutexStress, CounterUnderMutexLockLosesNoUpdates) {
  Mutex mu;
  uint64_t count = 0;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &count] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(&mu);
        ++count;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(count, static_cast<uint64_t>(kThreads) * kIters);
}

// The TCP-era aggregation shape: each thread owns a private registry, bumps
// its own cells without synchronization (cells are single-owner by
// contract), and folds into one shared registry via Merge — while another
// reader exports JSON and walks cells concurrently. Find-or-create, Merge,
// ToJson and ForEach* all hit the shared index maps under mu_.
TEST(RegistryStress, ConcurrentMergesAndReadsSumExactly) {
  obs::MetricsRegistry shared;
  // Pre-create one cell so the concurrent readers always have something to
  // visit while merges mutate the maps around it.
  shared.GetCounter("stress.ops", /*node=*/99);

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, t] {
      for (int i = 0; i < kIters; ++i) {
        obs::MetricsRegistry local;
        Counter& ops = local.GetCounter("stress.ops", /*node=*/NodeId(t + 1));
        obs::Gauge& depth =
            local.GetGauge("stress.depth", /*node=*/NodeId(t + 1));
        ops.Add(3);
        depth.Set(i);
        local.GetHistogram("stress.lat", NodeId(t + 1)).Record(i % 7);
        shared.Merge(local);
      }
    });
  }
  threads.emplace_back([&shared] {
    // Concurrent export. ToJson reads cell values under the registry lock,
    // so it is safe against in-flight merges; ForEach* visitors run
    // unlocked by design and so must wait until the writers are done.
    for (int i = 0; i < kIters; ++i) {
      std::string json = shared.ToJson();
      ASSERT_FALSE(json.empty());
      ASSERT_NE(shared.FindCounter("stress.ops", /*node=*/99), nullptr);
    }
  });
  for (std::thread& th : threads) th.join();

  uint64_t total = 0;
  shared.ForEachCounter(
      "stress.ops",
      [&total](NodeId, GroupId, const Counter& c) { total += c.value; });
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kIters * 3);

  for (int t = 0; t < kThreads; ++t) {
    const Counter* ops = shared.FindCounter("stress.ops", NodeId(t + 1));
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops->value, static_cast<uint64_t>(kIters) * 3);
    const Histogram* lat = shared.FindHistogram("stress.lat", NodeId(t + 1));
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count(), static_cast<uint64_t>(kIters));
  }
}

// Racing atomic publishes: N threads Replace the same file with distinct
// uniform byte patterns while readers watch. The unique-temp-name + rename
// discipline must make every observed image a complete single-pattern write
// — a mixed or short image means a torn publish.
TEST(FsDiskStress, RacingReplacesPublishOnlyCompleteImages) {
  const std::string root =
      ::testing::TempDir() + "scatter_concurrency_fsdisk";
  storage::FsDisk disk(root);
  {
    std::vector<uint8_t> initial(kImage, 0xF0);
    disk.Replace("obj", initial.data(), initial.size());
  }

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 2);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&disk, t] {
      std::vector<uint8_t> image(kImage,
                                 static_cast<uint8_t>(0xF0 + t + 1));
      for (int i = 0; i < kIters / 4; ++i) {
        disk.Replace("obj", image.data(), image.size());
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&disk] {
      for (int i = 0; i < kIters / 4; ++i) {
        std::vector<uint8_t> got;
        ASSERT_TRUE(disk.Read("obj", &got));
        ASSERT_EQ(got.size(), kImage);
        for (size_t b = 1; b < got.size(); ++b) {
          ASSERT_EQ(got[b], got[0]) << "torn image at byte " << b;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<uint8_t> final_image;
  ASSERT_TRUE(disk.Read("obj", &final_image));
  EXPECT_EQ(final_image.size(), kImage);
  disk.Remove("obj");
}

}  // namespace
}  // namespace scatter
