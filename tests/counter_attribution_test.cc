// Tests for per-thread PMU attribution (DESIGN.md §15). Hardware counters
// are host-dependent (perf_event_open may be unavailable in CI or VMs), so
// these tests pin down the contract on BOTH paths: with a PMU, regions
// yield valid monotone deltas; without one, everything degrades to
// invalid-but-safe no-ops instead of zeros masquerading as measurements.

#include "fts/perf/counter_attribution.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace fts {
namespace {

TEST(CounterDeltaTest, AccumulateSkipsInvalidAndSums) {
  CounterDelta sum;
  EXPECT_FALSE(sum.valid);

  CounterDelta invalid;  // valid == false: must not contribute
  invalid.cycles = 1000;
  sum.Accumulate(invalid);
  EXPECT_FALSE(sum.valid);
  EXPECT_EQ(sum.cycles, 0u);

  CounterDelta a;
  a.valid = true;
  a.cycles = 10;
  a.instructions = 20;
  a.branches = 5;
  a.branch_misses = 1;
  sum.Accumulate(a);
  sum.Accumulate(a);
  EXPECT_TRUE(sum.valid);
  EXPECT_EQ(sum.cycles, 20u);
  EXPECT_EQ(sum.instructions, 40u);
  EXPECT_EQ(sum.branches, 10u);
  EXPECT_EQ(sum.branch_misses, 2u);
}

TEST(ThreadCountersTest, UnavailablePmuDegradesToNoops) {
  ThreadCounters& counters = ThreadCounters::ForCurrentThread();
  // Same thread, same instance (the group is cached thread-locally).
  EXPECT_EQ(&ThreadCounters::ForCurrentThread(), &counters);

  if (!counters.available()) {
    EXPECT_FALSE(counters.Start());
    const CounterDelta delta = counters.StopAndRead();
    EXPECT_FALSE(delta.valid);
    return;
  }
  // PMU present: a measured region over real work yields a valid,
  // non-degenerate delta.
  ASSERT_TRUE(counters.Start());
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 100'000; ++i) sink = sink + i;
  const CounterDelta delta = counters.StopAndRead();
  EXPECT_TRUE(delta.valid);
  EXPECT_GT(delta.instructions, 0u);
}

TEST(CounterRegionTest, DisabledRegionIsInert) {
  CounterRegion region(/*enabled=*/false);
  const CounterDelta delta = region.Finish();
  EXPECT_FALSE(delta.valid);
  EXPECT_EQ(delta.cycles, 0u);
}

TEST(CounterRegionTest, FinishIsIdempotent) {
  CounterRegion region(/*enabled=*/true);
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < 10'000; ++i) sink = sink + i;
  const CounterDelta first = region.Finish();
  const CounterDelta second = region.Finish();
  // Whatever the first call returned (valid iff a PMU armed), the second
  // must be invalid: the delta is handed out exactly once.
  EXPECT_FALSE(second.valid);
  if (ThreadCounters::ForCurrentThread().available()) {
    EXPECT_TRUE(first.valid);
  } else {
    EXPECT_FALSE(first.valid);
  }
}

TEST(CounterRegionTest, UnfinishedRegionDisarmsInDestructor) {
  {
    CounterRegion region(/*enabled=*/true);
    // Dropped without Finish(): the destructor must disarm so the next
    // region on this thread starts clean.
  }
  CounterRegion next(/*enabled=*/true);
  const CounterDelta delta = next.Finish();
  EXPECT_EQ(delta.valid, ThreadCounters::ForCurrentThread().available());
}

TEST(CounterRegionTest, EachThreadOwnsItsOwnGroup) {
  // Regions on distinct threads must not interfere: every thread can
  // open, measure, and finish independently (valid iff its PMU opened).
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<int> results(kThreads, -1);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &results] {
      CounterRegion region(/*enabled=*/true);
      volatile uint64_t sink = 0;
      for (uint64_t i = 0; i < 50'000; ++i) sink = sink + i;
      const CounterDelta delta = region.Finish();
      const bool have_pmu = ThreadCounters::ForCurrentThread().available();
      results[t] = (delta.valid == have_pmu) ? 1 : 0;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[t], 1) << "thread " << t;
  }
}

}  // namespace
}  // namespace fts
