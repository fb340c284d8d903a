// Unit tests for the discrete-event simulator and network model.

#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/types.h"
#include "src/sim/message.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"

namespace scatter::sim {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.Schedule(Millis(30), [&] { order.push_back(3); });
  sim.Schedule(Millis(10), [&] { order.push_back(1); });
  sim.Schedule(Millis(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Millis(30));
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim(1);
  bool fired = false;
  TimerId id = sim.Schedule(Millis(10), [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireIsHarmless) {
  Simulator sim(1);
  int fires = 0;
  TimerId id = sim.Schedule(Millis(1), [&] { fires++; });
  sim.Run();
  sim.Cancel(id);
  EXPECT_EQ(fires, 1);
}

TEST(SimulatorTest, RunUntilAdvancesClockExactly) {
  Simulator sim(1);
  int fires = 0;
  sim.Schedule(Millis(10), [&] { fires++; });
  sim.Schedule(Millis(100), [&] { fires++; });
  sim.RunUntil(Millis(50));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.now(), Millis(50));
  sim.Run();
  EXPECT_EQ(fires, 2);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim(1);
  int depth = 0;
  std::function<void()> recurse = [&]() {
    depth++;
    if (depth < 100) {
      sim.Schedule(Millis(1), recurse);
    }
  };
  sim.Schedule(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), Millis(99));
}

// The slot/generation event store recycles slots aggressively; a stale
// TimerId whose slot was reused must never cancel the new occupant.
TEST(SimulatorTest, StaleCancelAfterSlotReuseIsHarmless) {
  Simulator sim(1);
  int fires = 0;
  TimerId old_id = sim.Schedule(Millis(1), [&] { fires++; });
  sim.Step();  // fires and frees the slot
  EXPECT_EQ(fires, 1);
  // The freed slot is recycled with a bumped generation.
  TimerId new_id = sim.Schedule(Millis(1), [&] { fires += 10; });
  EXPECT_NE(old_id, new_id);
  sim.Cancel(old_id);  // stale id: must not touch the new event
  sim.Run();
  EXPECT_EQ(fires, 11);
}

TEST(SimulatorTest, DoubleCancelIsHarmless) {
  Simulator sim(1);
  int fires = 0;
  TimerId id = sim.Schedule(Millis(1), [&] { fires++; });
  TimerId other = sim.Schedule(Millis(2), [&] { fires += 10; });
  sim.Cancel(id);
  sim.Cancel(id);  // second cancel hits a freed (possibly reused) slot
  sim.Run();
  EXPECT_EQ(fires, 10);
  (void)other;
}

// EventFn is move-only: callbacks may own resources (no copyable
// std::function requirement).
TEST(SimulatorTest, MoveOnlyCallbacksSupported) {
  Simulator sim(1);
  int observed = 0;
  auto payload = std::make_unique<int>(42);
  sim.Schedule(Millis(1), [&observed, p = std::move(payload)]() {
    observed = *p;
  });
  sim.Run();
  EXPECT_EQ(observed, 42);
}

// Callbacks larger than the inline buffer take the heap path transparently.
TEST(SimulatorTest, LargeCallbacksSupported) {
  Simulator sim(1);
  struct Big {
    char pad[256] = {};
  };
  Big big;
  big.pad[200] = 7;
  int observed = 0;
  sim.Schedule(Millis(1), [&observed, big]() { observed = big.pad[200]; });
  sim.Run();
  EXPECT_EQ(observed, 7);
}

// Cancel removes the event from the queue at once, so pending_events()
// drops with every cancellation, not when the event's time comes.
TEST(SimulatorTest, PendingEventsTracksCancellations) {
  Simulator sim(1);
  EXPECT_EQ(sim.pending_events(), 0u);
  std::vector<TimerId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.Schedule(Millis(i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  for (int i = 0; i < 100; i += 2) {
    sim.Cancel(ids[i]);
  }
  EXPECT_EQ(sim.pending_events(), 50u);
  sim.Step();
  EXPECT_EQ(sim.pending_events(), 49u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Stress slot reuse: interleaved schedule/cancel/fire with recycled slots
// must fire exactly the never-cancelled callbacks, each exactly once.
TEST(SimulatorTest, SlotReuseStress) {
  enum : int { kPending = 0, kFired = 1, kCancelled = 2 };
  Simulator sim(7);
  std::vector<int> status;
  std::vector<std::pair<size_t, TimerId>> live;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 2000; ++round) {
    const uint64_t r = next();
    if (r % 4 != 0 || live.empty()) {
      const size_t idx = status.size();
      status.push_back(kPending);
      TimerId id = sim.Schedule(1 + r % 50, [&status, idx] {
        EXPECT_EQ(status[idx], kPending) << "double fire or fired after "
                                            "cancel at " << idx;
        status[idx] = kFired;
      });
      live.push_back({idx, id});
    } else if (r % 8 == 0) {
      const size_t pick = next() % live.size();
      auto [idx, id] = live[pick];
      sim.Cancel(id);  // harmless if it already fired
      if (status[idx] == kPending) {
        status[idx] = kCancelled;
      }
      live.erase(live.begin() + pick);
    } else {
      sim.Step();  // fire a few along the way so slots get recycled
    }
  }
  sim.Run();
  for (size_t i = 0; i < status.size(); ++i) {
    EXPECT_NE(status[i], kPending) << "timer " << i << " never resolved";
  }
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Differential test of the event queue: a randomized mix of Schedule,
// ScheduleAt, Cancel, Step and RunUntil, including equal fire times,
// ScheduleAt(now()), cancels from inside callbacks, cancels of the event that
// is firing and cancels of ids whose slot was reused, checked against a
// std::set ordered by (fire time, insertion order) after every operation.
TEST(SimulatorTest, QueueMatchesOrderedSetOracle) {
  Simulator sim(3);
  std::set<std::pair<TimeMicros, uint64_t>> oracle;  // (at, schedule index)
  std::vector<TimeMicros> at;
  std::vector<TimerId> ids;
  size_t fires = 0;
  size_t misordered = 0;
  uint64_t state = 0x2545f4914f6cdd1dull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  // Any id ever issued: pending, fired, cancelled or with a reused slot.
  auto cancel_any = [&]() {
    const uint64_t idx = next() % ids.size();
    oracle.erase({at[idx], idx});
    sim.Cancel(ids[idx]);
  };
  std::function<void()> schedule;
  auto fire = [&](uint64_t idx) {
    ++fires;
    ASSERT_FALSE(oracle.empty());
    if (oracle.begin()->second != idx) {
      ++misordered;
      ADD_FAILURE() << "fire " << fires << ": event " << idx
                    << " fired, oracle expected " << oracle.begin()->second;
    }
    oracle.erase({at[idx], idx});
    EXPECT_EQ(sim.now(), at[idx]);
    const uint64_t r = next() % 8;
    if (r == 0) {
      sim.Cancel(ids[idx]);  // the firing event: already out of the queue
    } else if (r == 1) {
      cancel_any();
    } else if (r == 2) {
      schedule();
      schedule();
    }
    EXPECT_EQ(sim.pending_events(), oracle.size());
  };
  schedule = [&]() {
    const uint64_t idx = ids.size();
    // Few distinct delays, so equal fire times are common; delay 0 is
    // ScheduleAt(now()).
    const TimeMicros when =
        sim.now() + static_cast<TimeMicros>(next() % 6) * 5;
    at.push_back(when);
    oracle.insert({when, idx});
    ids.push_back(next() % 2 == 0
                      ? sim.ScheduleAt(when, [&fire, idx] { fire(idx); })
                      : sim.Schedule(when - sim.now(),
                                     [&fire, idx] { fire(idx); }));
  };
  for (int op = 0; op < 20000; ++op) {
    const uint64_t r = next() % 20;
    if (r < 9 || ids.empty()) {
      schedule();
    } else if (r < 13) {
      cancel_any();
    } else if (r < 19) {
      const bool any_pending = !oracle.empty();
      EXPECT_EQ(sim.Step(), any_pending);
    } else {
      const TimeMicros t = sim.now() + static_cast<TimeMicros>(next() % 40);
      sim.RunUntil(t);
      EXPECT_EQ(sim.now(), t);
      EXPECT_TRUE(oracle.empty() || oracle.begin()->first > t);
    }
    ASSERT_EQ(misordered, 0u) << "at op " << op;
    ASSERT_EQ(sim.pending_events(), oracle.size()) << "at op " << op;
  }
  sim.Run();
  EXPECT_EQ(misordered, 0u);
  EXPECT_TRUE(oracle.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TimerOwnerTest, DestructionCancelsPending) {
  Simulator sim(1);
  bool fired = false;
  {
    TimerOwner owner(&sim);
    owner.Schedule(Millis(10), [&] { fired = true; });
  }
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(TimerOwnerTest, FiredTimersLeaveTheSet) {
  Simulator sim(1);
  TimerOwner owner(&sim);
  int fires = 0;
  for (int i = 0; i < 5; ++i) {
    owner.Schedule(Millis(i + 1), [&] { fires++; });
  }
  sim.Run();
  EXPECT_EQ(fires, 5);
  owner.CancelAll();  // Nothing pending; must not crash.
}

TEST(TimerOwnerTest, CancelOfForeignIdIsNoOp) {
  Simulator sim(1);
  TimerOwner a(&sim);
  TimerOwner b(&sim);
  int fires = 0;
  const TimerId owned = a.Schedule(Millis(1), [&] { fires++; });
  const TimerId raw = sim.Schedule(Millis(2), [&] { fires += 10; });
  b.Cancel(owned);  // a's timer
  a.Cancel(raw);    // nobody's timer
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Run();
  EXPECT_EQ(fires, 11);
}

TEST(TimerOwnerTest, CallbackMayDestroyItsOwner) {
  Simulator sim(1);
  auto owner = std::make_unique<TimerOwner>(&sim);
  int fires = 0;
  owner->Schedule(Millis(1), [&] {
    fires++;
    owner.reset();  // cancels the sibling below
  });
  owner->Schedule(Millis(1), [&] { fires += 10; });
  owner->Schedule(Millis(2), [&] { fires += 100; });
  sim.Run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TimerOwnerTest, CallbackMayCancelSibling) {
  Simulator sim(1);
  TimerOwner owner(&sim);
  int fires = 0;
  TimerId sibling = kInvalidTimer;
  owner.Schedule(Millis(1), [&] {
    fires++;
    owner.Cancel(sibling);
  });
  sibling = owner.Schedule(Millis(1), [&] { fires += 10; });
  owner.Schedule(Millis(2), [&] { fires += 100; });
  sim.Run();
  EXPECT_EQ(fires, 101);
}

TEST(TimerOwnerTest, CancelAllSparesOtherOwners) {
  Simulator sim(1);
  TimerOwner a(&sim);
  TimerOwner b(&sim);
  int a_fires = 0;
  int b_fires = 0;
  for (int i = 0; i < 4; ++i) {
    a.Schedule(Millis(i + 1), [&] { a_fires++; });
    b.Schedule(Millis(i + 1), [&] { b_fires++; });
  }
  a.CancelAll();
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.Run();
  EXPECT_EQ(a_fires, 0);
  EXPECT_EQ(b_fires, 4);
}

// Ids of a destroyed owner point at recycled slots; cancelling them through
// the simulator must not touch the slots' new occupants.
TEST(TimerOwnerTest, DeadOwnersIdsAreHarmless) {
  Simulator sim(1);
  std::vector<TimerId> dead;
  {
    TimerOwner owner(&sim);
    for (int i = 0; i < 3; ++i) {
      dead.push_back(owner.Schedule(Millis(1), [] {}));
    }
  }
  int fires = 0;
  for (int i = 0; i < 3; ++i) {
    sim.Schedule(Millis(1), [&] { fires++; });
  }
  for (TimerId id : dead) {
    sim.Cancel(id);
  }
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.Run();
  EXPECT_EQ(fires, 3);
}

struct TestMsg : Message {
  explicit TestMsg(int v) : Message(MessageType::kInvalid), value(v) {}
  int value;
};

class Recorder : public Endpoint {
 public:
  void HandleMessage(const MessagePtr& m) override {
    received.push_back(static_cast<const TestMsg&>(*m).value);
  }
  std::vector<int> received;
};

MessagePtr MakeMsg(NodeId from, NodeId to, int v) {
  auto m = std::make_shared<TestMsg>(v);
  m->from = from;
  m->to = to;
  return m;
}

TEST(NetworkTest, DeliversBetweenEndpoints) {
  Simulator sim(1);
  NetworkConfig cfg;
  cfg.latency = LatencyModel{.kind = LatencyModel::Kind::kConstant,
                             .base = Millis(2)};
  Network net(&sim, cfg);
  Recorder a;
  Recorder b;
  net.Attach(1, &a);
  net.Attach(2, &b);
  net.Send(MakeMsg(1, 2, 7));
  sim.Run();
  EXPECT_EQ(b.received, std::vector<int>{7});
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(sim.now(), Millis(2));
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(NetworkTest, DropsToDetachedNode) {
  Simulator sim(1);
  Network net(&sim, NetworkConfig{});
  Recorder a;
  net.Attach(1, &a);
  net.Send(MakeMsg(1, 2, 7));
  sim.Run();
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(NetworkTest, DropsWhenDetachedInFlight) {
  Simulator sim(1);
  NetworkConfig cfg;
  cfg.latency = LatencyModel{.kind = LatencyModel::Kind::kConstant,
                             .base = Millis(5)};
  Network net(&sim, cfg);
  Recorder a;
  Recorder b;
  net.Attach(1, &a);
  net.Attach(2, &b);
  net.Send(MakeMsg(1, 2, 7));
  sim.Schedule(Millis(1), [&] { net.Detach(2); });
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(NetworkTest, LossRateDropsRoughlyProportionally) {
  Simulator sim(42);
  NetworkConfig cfg;
  cfg.loss_rate = 0.3;
  Network net(&sim, cfg);
  Recorder a;
  Recorder b;
  net.Attach(1, &a);
  net.Attach(2, &b);
  constexpr int kSends = 10000;
  for (int i = 0; i < kSends; ++i) {
    net.Send(MakeMsg(1, 2, i));
  }
  sim.Run();
  EXPECT_NEAR(static_cast<double>(b.received.size()), kSends * 0.7,
              kSends * 0.05);
}

TEST(NetworkTest, PartitionBlocksCrossIslandTraffic) {
  Simulator sim(1);
  Network net(&sim, NetworkConfig{});
  Recorder a;
  Recorder b;
  Recorder c;
  net.Attach(1, &a);
  net.Attach(2, &b);
  net.Attach(3, &c);
  net.Partition({{1, 2}, {3}});
  net.Send(MakeMsg(1, 2, 1));  // same island: delivered
  net.Send(MakeMsg(1, 3, 2));  // cross island: dropped
  sim.Run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(c.received.empty());

  net.HealPartition();
  net.Send(MakeMsg(1, 3, 3));
  sim.Run();
  EXPECT_EQ(c.received.size(), 1u);
}

TEST(NetworkTest, BlockedLinkIsDirectional) {
  Simulator sim(1);
  Network net(&sim, NetworkConfig{});
  Recorder a;
  Recorder b;
  net.Attach(1, &a);
  net.Attach(2, &b);
  net.BlockLink(1, 2);
  net.Send(MakeMsg(1, 2, 1));
  net.Send(MakeMsg(2, 1, 2));
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(a.received.size(), 1u);
  net.UnblockLink(1, 2);
  net.Send(MakeMsg(1, 2, 3));
  sim.Run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, SelfSendDeliveredImmediately) {
  Simulator sim(1);
  NetworkConfig cfg;
  cfg.latency = LatencyModel{.kind = LatencyModel::Kind::kConstant,
                             .base = Millis(50)};
  cfg.loss_rate = 1.0;  // Even full loss must not affect self-sends.
  Network net(&sim, cfg);
  Recorder a;
  net.Attach(1, &a);
  net.Send(MakeMsg(1, 1, 9));
  sim.Run();
  EXPECT_EQ(a.received, std::vector<int>{9});
  EXPECT_EQ(sim.now(), 0);
}

TEST(LatencyModelTest, SamplesWithinBounds) {
  Simulator sim(5);
  LatencyModel uniform{.kind = LatencyModel::Kind::kUniform,
                       .base = Millis(10),
                       .spread = Millis(5)};
  for (int i = 0; i < 1000; ++i) {
    TimeMicros s = uniform.Sample(sim.rng());
    EXPECT_GE(s, Millis(10));
    EXPECT_LE(s, Millis(15));
  }
  LatencyModel wan = LatencyModel::Wan();
  for (int i = 0; i < 1000; ++i) {
    TimeMicros s = wan.Sample(sim.rng());
    EXPECT_GE(s, wan.base);
  }
}

TEST(NetworkTest, DuplicationDeliversExtraCopies) {
  Simulator sim(3);
  NetworkConfig cfg;
  cfg.duplicate_rate = 0.5;
  Network net(&sim, cfg);
  Recorder a;
  Recorder b;
  net.Attach(1, &a);
  net.Attach(2, &b);
  constexpr int kSends = 4000;
  for (int i = 0; i < kSends; ++i) {
    net.Send(MakeMsg(1, 2, i));
  }
  sim.Run();
  EXPECT_NEAR(static_cast<double>(b.received.size()), kSends * 1.5,
              kSends * 0.05);
}

TEST(NetworkTest, BandwidthAddsSerializationDelay) {
  Simulator sim(5);
  NetworkConfig cfg;
  cfg.latency = LatencyModel{.kind = LatencyModel::Kind::kConstant,
                             .base = Millis(1)};
  cfg.bandwidth_bytes_per_sec = 1000000;  // 1 MB/s
  Network net(&sim, cfg);
  Recorder a;
  Recorder b;
  net.Attach(1, &a);
  net.Attach(2, &b);

  struct BigMsg : TestMsg {
    BigMsg() : TestMsg(0) {}
    size_t ByteSize() const override { return 1000000; }  // 1 MB -> 1 s
  };
  auto m = std::make_shared<BigMsg>();
  m->from = 1;
  m->to = 2;
  net.Send(m);
  sim.Run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_GE(sim.now(), Seconds(1));  // Serialization dominated.
}

TEST(NetworkTest, HeterogeneityScalesPerNodeDeterministically) {
  Simulator sim(7);
  NetworkConfig cfg;
  cfg.latency = LatencyModel{.kind = LatencyModel::Kind::kConstant,
                             .base = Millis(10)};
  cfg.heterogeneity_sigma = 1.0;
  Network net(&sim, cfg);
  Recorder r1;
  Recorder r2;
  net.Attach(1001, &r1);
  net.Attach(1002, &r2);
  net.Send(MakeMsg(1001, 1002, 1));
  sim.Run();
  const TimeMicros first = sim.now();
  // Same pair again: identical factor, identical latency (constant base).
  net.Send(MakeMsg(1001, 1002, 2));
  sim.Run();
  EXPECT_EQ(sim.now() - first, first);
  // And the factor differs from 1.0 for most node pairs.
  EXPECT_NE(first, Millis(10));
}

TEST(DeterminismTest, IdenticalSeedsIdenticalRuns) {
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    NetworkConfig cfg;
    cfg.latency = LatencyModel::Wan();
    cfg.loss_rate = 0.1;
    Network net(&sim, cfg);
    Recorder a;
    Recorder b;
    net.Attach(1, &a);
    net.Attach(2, &b);
    for (int i = 0; i < 500; ++i) {
      net.Send(MakeMsg(1, 2, i));
    }
    sim.Run();
    return std::make_pair(b.received, sim.now());
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99).first, run(100).first);
}

}  // namespace
}  // namespace scatter::sim
