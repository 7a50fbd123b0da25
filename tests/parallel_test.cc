// Tests for the ThreadPool, the RunArena, batch feeding, and MultiEngine
// fan-out across queries: results are bit-identical for any batch size and
// any fan-out width (docs/PARALLELISM.md).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "common/parallel.h"
#include "engine/engine.h"
#include "engine/multi.h"
#include "engine/run_arena.h"
#include "shedding/state_shedder.h"
#include "test_util.h"

namespace cep {
namespace {

using testing_util::BikeSchema;

// --- ThreadPool ------------------------------------------------------------

TEST(ParallelThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(10, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 55u);
  }
}

TEST(ParallelThreadPoolTest, WidthOneRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  int count = 0;  // no atomics needed: everything runs on this thread
  pool.ParallelFor(16, [&](size_t) { ++count; });
  EXPECT_EQ(count, 16);
}

// --- RunArena --------------------------------------------------------------

TEST(ParallelRunArenaTest, RecyclesReleasedSlots) {
  RunArena arena(/*runs_per_block=*/4);
  RunPtr a = arena.New(1, 2, 0, 0);
  cep::Run* first_slot = a.get();
  EXPECT_EQ(arena.live(), 1u);
  EXPECT_EQ(arena.capacity(), 4u);
  a.reset();
  EXPECT_EQ(arena.live(), 0u);
  // The freed slot is handed out again before any new block is carved.
  RunPtr b = arena.New(2, 2, 0, 0);
  EXPECT_EQ(b.get(), first_slot);
  EXPECT_EQ(arena.capacity(), 4u);
}

TEST(ParallelRunArenaTest, GrowsBlockwiseAndTracksBytes) {
  RunArena arena(/*runs_per_block=*/8);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  std::vector<RunPtr> runs;
  for (int i = 0; i < 20; ++i) runs.push_back(arena.New(i, 2, 0, 0));
  EXPECT_EQ(arena.live(), 20u);
  EXPECT_EQ(arena.capacity(), 24u);  // three blocks of 8
  EXPECT_GE(arena.bytes_reserved(), 24 * sizeof(cep::Run));
  runs.clear();
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.capacity(), 24u);  // blocks are retained for reuse
  arena.Reset();
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  // The arena is usable again after Reset.
  RunPtr again = arena.New(99, 2, 0, 0);
  EXPECT_EQ(arena.live(), 1u);
}

TEST(ParallelRunArenaTest, DisabledArenaFallsBackToHeap) {
  RunArena arena(/*runs_per_block=*/0);
  RunPtr run = arena.New(1, 2, 0, 0);
  EXPECT_EQ(run->id(), 1u);
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
}

TEST(ParallelRunArenaTest, PooledRunsBehaveLikeHeapRuns) {
  BikeSchema fixture;
  RunArena arena(16);
  RunPtr parent = arena.New(1, 3, 0, 0);
  parent->Bind(0, fixture.Req(kMinute, 1, 7), 1);
  RunPtr child = parent->Extend(2, 1, fixture.Avail(2 * kMinute, 1, 9), 2,
                                &arena);
  EXPECT_EQ(arena.live(), 2u);
  EXPECT_EQ(child->size(), 2);
  EXPECT_EQ(child->state(), 2);
  EXPECT_EQ(parent->size(), 1);
  ASSERT_EQ(child->binding(0).size(), 1u);
  EXPECT_EQ(child->binding(0).front()->timestamp(), kMinute);
}

// --- Batch and fan-out determinism -----------------------------------------

/// A seeded workload whose Kleene query piles up runs and whose θ is tuned
/// so the shedder engages.
std::vector<EventPtr> StateGrowthEvents(BikeSchema* fixture, int n) {
  std::vector<EventPtr> events;
  events.reserve(static_cast<size_t>(n));
  Timestamp ts = kMinute;
  for (int i = 0; i < n; ++i) {
    ts += kSecond;
    switch (i % 7) {
      case 0:
        events.push_back(fixture->Req(ts, i % 5, 1000 + i % 11));
        break;
      case 6:
        events.push_back(fixture->Unlock(ts, i % 5, 1000 + i % 11, i % 3));
        break;
      default:
        events.push_back(fixture->Avail(ts, i % 5, i % 13));
        break;
    }
  }
  return events;
}

EngineOptions DeterminismOptions() {
  EngineOptions options;
  options.latency_mode = LatencyMode::kVirtualCost;
  options.latency_threshold_micros = 40.0;
  options.latency_window_events = 32;
  options.shed_cooldown_events = 32;
  // Hard cap: the skip-till-any Kleene workload doubles runs per matching
  // avail, which outruns cooldown-gated latency shedding. The cap keeps the
  // test bounded while still forcing shed decisions on (almost) every event.
  options.max_runs = 1024;
  return options;
}

TEST(ParallelDeterminismTest, BatchSizeDoesNotChangeResults) {
  BikeSchema fixture;
  const std::vector<EventPtr> events = StateGrowthEvents(&fixture, 900);
  NfaPtr nfa = fixture.Compile(
      "PATTERN SEQ(req a, avail+ b[], unlock c) "
      "WHERE a.loc = b[i].loc, c.uid = a.uid WITHIN 30 min");
  auto run_with_batch = [&](size_t batch_size) {
    Engine engine(nfa, DeterminismOptions(),
                  std::make_unique<StateShedder>(StateShedderOptions{},
                                                 &fixture.registry));
    VectorEventStream stream(events);
    EXPECT_TRUE(engine.ProcessStream(&stream, batch_size).ok());
    std::vector<uint64_t> prints;
    for (const Match& m : engine.matches()) prints.push_back(m.fingerprint);
    return std::make_pair(prints, engine.metrics().matches_emitted);
  };
  const auto batch1 = run_with_batch(1);
  const auto batch64 = run_with_batch(64);
  ASSERT_GT(batch1.second, 0u);
  EXPECT_EQ(batch1.first, batch64.first);
  EXPECT_EQ(batch1.second, batch64.second);
}

// --- MultiEngine fan-out ---------------------------------------------------

TEST(ParallelMultiEngineTest, ParallelFanOutMatchesSerial) {
  BikeSchema fixture;
  const std::vector<EventPtr> events = StateGrowthEvents(&fixture, 800);
  const char* queries[] = {
      "PATTERN SEQ(req a, avail+ b[], unlock c) "
      "WHERE a.loc = b[i].loc WITHIN 30 min",
      "PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 30 min",
      "PATTERN SEQ(avail a, unlock c) WHERE c.loc = a.loc WITHIN 10 min",
  };
  auto run_multi = [&](size_t threads) {
    MultiEngine multi;
    for (const char* q : queries) {
      // Each query needs a shedder: the max_runs safety valve (which keeps
      // the Kleene query's state bounded) only fires when one is attached.
      multi.AddQuery(fixture.Compile(q), DeterminismOptions(),
                     std::make_unique<StateShedder>(StateShedderOptions{},
                                                    &fixture.registry));
    }
    if (threads > 1) multi.EnableParallel(threads);
    for (const EventPtr& event : events) {
      EXPECT_TRUE(multi.ProcessEvent(event).ok());
    }
    std::vector<uint64_t> per_query;
    for (size_t i = 0; i < multi.num_queries(); ++i) {
      per_query.push_back(multi.engine(i).metrics().matches_emitted);
      for (const Match& m : multi.engine(i).matches()) {
        per_query.push_back(m.fingerprint);
      }
    }
    return per_query;
  };
  const auto serial = run_multi(1);
  const auto parallel = run_multi(4);
  EXPECT_EQ(serial, parallel);
  EXPECT_FALSE(serial.empty());
}

TEST(ParallelMultiEngineTest, BatchFanOutMatchesEventFanOut) {
  BikeSchema fixture;
  const std::vector<EventPtr> events = StateGrowthEvents(&fixture, 500);
  auto run_mode = [&](bool batched) {
    MultiEngine multi;
    multi.AddQuery(
        fixture.Compile(
            "PATTERN SEQ(req a, unlock c) WHERE c.uid = a.uid WITHIN 1 hour"),
        DeterminismOptions());
    multi.EnableParallel(2);
    if (batched) {
      VectorEventStream stream(events);
      EXPECT_TRUE(multi.ProcessStream(&stream, /*batch_size=*/32).ok());
    } else {
      for (const EventPtr& event : events) {
        EXPECT_TRUE(multi.OfferEvent(event).ok());
      }
    }
    return multi.AggregateMetrics().matches_emitted;
  };
  EXPECT_EQ(run_mode(false), run_mode(true));
}

}  // namespace
}  // namespace cep
