// Tests for the discrete-event simulation core: ordering, determinism,
// clock semantics, condition- and deadline-driven execution, nested drains,
// the pooled event queue (a reference-model fuzz over pop_min), and the
// allocation-free steady state of the hot loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <queue>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "counting_new.h"
#include "des/event_queue.h"
#include "des/simulator.h"

namespace pipette {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, TiesBreakInSubmissionOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule(5, [&order, i] { order.push_back(i); });
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] {
    ++fired;
    sim.schedule(10, [&] { ++fired; });
  });
  sim.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, AdvanceMovesClockWithoutRunning) {
  Simulator sim;
  bool ran = false;
  sim.schedule(5, [&] { ran = true; });
  sim.advance(100);
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_FALSE(ran);  // advance() skips; run_* executes
  sim.run_all();
  EXPECT_TRUE(ran);
  // The overdue event runs at the current clock, which never goes backward.
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(20, [&] { ++fired; });
  sim.run_until(15);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 15u);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunUntilInclusiveOfBoundaryEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(15, [&] { ++fired; });
  sim.run_until(15);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilConditionStopsEarly) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 5; ++i) sim.schedule(static_cast<SimDuration>(i) * 10,
                                            [&] { ++fired; });
  EXPECT_TRUE(sim.run_until_condition([&] { return fired == 3; }));
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.now(), 30u);
  EXPECT_EQ(sim.pending_events(), 2u);
}

TEST(Simulator, RunUntilConditionFalseWhenQueueDrains) {
  Simulator sim;
  sim.schedule(1, [] {});
  EXPECT_FALSE(sim.run_until_condition([] { return false; }));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  sim.advance(50);
  SimTime when = 0;
  sim.schedule_at(70, [&] { when = sim.now(); });
  sim.run_all();
  EXPECT_EQ(when, 70u);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule(1, [] {});
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 7u);
}

// Pushes from inside executing callbacks (the normal DES regime): a seeded
// self-propagating script with zero, clustered and far-future deltas. Ids
// are handed out in schedule order, so the executed (now, id) pairs must
// rise strictly, and every spawned event must run.
TEST(Simulator, CallbackPushesRunInScheduleOrder) {
  struct Script {
    Simulator* sim;
    std::vector<std::pair<SimTime, std::uint64_t>>* trace;
    Rng rng;
    std::uint64_t next_id = 0;
    std::uint64_t budget = 4000;

    void spawn() {
      static constexpr SimDuration kDeltas[] = {
          0, 0, 1, 480, 3'200, 65'000, 99'999, 20'000'000, 40'000'000};
      const std::uint64_t id = next_id++;
      const SimDuration d = kDeltas[rng.next_below(std::size(kDeltas))];
      sim->schedule(d, [this, id] {
        trace->emplace_back(sim->now(), id);
        const std::uint64_t kids = rng.next_below(3);
        for (std::uint64_t k = 0; k < kids && budget > 0; ++k) {
          --budget;
          spawn();
        }
      });
    }
  };
  std::vector<std::pair<SimTime, std::uint64_t>> trace;
  Simulator sim;
  Script s{&sim, &trace, Rng(0xfeedface)};
  for (int i = 0; i < 32; ++i) s.spawn();
  sim.run_all();
  EXPECT_GT(trace.size(), 1000u);
  EXPECT_EQ(trace.size(), s.next_id);
  for (std::size_t i = 1; i < trace.size(); ++i)
    ASSERT_LT(trace[i - 1], trace[i]) << "at " << i;
}

// --- EventQueue ---

// Runs an EventQueue and a reference std::priority_queue model side by side.
// An event's seq doubles as its id: its callback logs the seq, and every pop
// logs the reference's choice, so `got == want` checks payload routing as
// well as (when, seq) order.
class ReferenceHarness {
 public:
  void push(SimTime when) {
    const std::uint64_t seq = next_seq_++;
    queue_.push(when, seq, [this, seq] { got_.push_back(seq); });
    ref_.push({when, seq});
    peak_ = std::max(peak_, ref_.size());
  }

  void pop_min() {
    SimTime when = 0;
    std::uint64_t seq = 0;
    EventQueue::Callback cb;
    queue_.pop_min(when, seq, cb);
    ASSERT_EQ(when, ref_.top().when);
    ASSERT_EQ(seq, ref_.top().seq);
    take_ref();
    cb();
  }

  void expect_drained() const {
    EXPECT_TRUE(queue_.empty());
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(queue_.peak_size(), peak_);
    EXPECT_EQ(got_, want_);
  }

  bool empty() const { return ref_.empty(); }
  std::size_t size() const { return ref_.size(); }
  SimTime min_when() const { return ref_.top().when; }
  std::uint64_t events() const { return next_seq_; }
  const EventQueue& queue() const { return queue_; }

 private:
  struct RefEvent {
    SimTime when;
    std::uint64_t seq;
  };
  struct Later {  // max-heap comparator -> (when, seq) ascending pops
    bool operator()(const RefEvent& a, const RefEvent& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  void take_ref() {
    want_.push_back(ref_.top().seq);
    ref_.pop();
  }

  EventQueue queue_;
  std::priority_queue<RefEvent, std::vector<RefEvent>, Later> ref_;
  std::uint64_t next_seq_ = 0;
  std::size_t peak_ = 0;
  std::vector<std::uint64_t> got_, want_;
};

// Randomized stress: ~100k duplicate-heavy timestamps through the 4-ary
// pooled queue and the reference model, interleaving push bursts with
// pop_min drains. Execution order must be identical — this is the
// determinism contract every experiment rests on.
TEST(EventQueue, MatchesReferencePriorityQueueUnderStress) {
  ReferenceHarness h;
  Rng rng(2024);
  SimTime now = 0;

  constexpr std::uint64_t kEvents = 100'000;
  while (h.events() < kEvents || !h.empty()) {
    if (h.events() < kEvents) {
      const std::uint64_t burst = 1 + rng.next_below(8);
      // next_below(16) makes duplicate timestamps the common case.
      for (std::uint64_t i = 0; i < burst && h.events() < kEvents; ++i)
        h.push(now + rng.next_below(16));
    }
    ASSERT_EQ(h.queue().size(), h.size());
    const std::uint64_t pops = 1 + rng.next_below(8);
    for (std::uint64_t i = 0; i < pops && !h.empty(); ++i) {
      now = h.min_when();
      ASSERT_NO_FATAL_FAILURE(h.pop_min());
    }
  }
  h.expect_drained();
}

// Differential fuzz: one seeded push/pop script replayed against the queue
// and the reference model. Deltas are duplicate-heavy with occasional
// far-future jumps, and pushes never precede the last popped timestamp (the
// Simulator's schedule-in-the-future contract).
void run_differential_script(std::uint64_t seed) {
  static constexpr SimDuration kDeltas[] = {
      0, 0, 0, 1, 2, 480, 480, 3'200, 4'096, 65'000, 99'999,
      20'000'000, 40'000'000};
  constexpr std::size_t kNumDeltas = std::size(kDeltas);

  ReferenceHarness h;
  Rng rng(seed);
  SimTime now = 0;
  for (int round = 0; round < 400; ++round) {
    const std::uint64_t pushes = rng.next_below(8);
    for (std::uint64_t p = 0; p < pushes; ++p)
      h.push(now + kDeltas[rng.next_below(kNumDeltas)]);
    const std::uint64_t pops = rng.next_below(6);
    for (std::uint64_t q = 0; q < pops && !h.empty(); ++q) {
      now = h.min_when();
      ASSERT_NO_FATAL_FAILURE(h.pop_min());
    }
    ASSERT_EQ(h.queue().size(), h.size());
  }
  while (!h.empty()) {
    ASSERT_EQ(h.queue().min_when(), h.min_when());
    ASSERT_NO_FATAL_FAILURE(h.pop_min());
  }
  h.expect_drained();
}

TEST(QueueDifferential, PopMinStreamsDrainIdentically) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234567ull})
    run_differential_script(seed);
}

TEST(EventQueue, MinWhenTracksEarliestEvent) {
  EventQueue queue;
  queue.push(30, 0, [] {});
  queue.push(10, 1, [] {});
  queue.push(20, 2, [] {});
  EXPECT_EQ(queue.min_when(), 10u);
  SimTime when = 0;
  std::uint64_t seq = 0;
  EventQueue::Callback cb;
  queue.pop_min(when, seq, cb);
  EXPECT_EQ(when, 10u);
  EXPECT_EQ(queue.min_when(), 20u);
  EXPECT_EQ(queue.size(), 2u);
}

TEST(SimulatorBatch, ConditionStopsMidRunAndResumesInOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    sim.schedule_at(100, [&order, i] { order.push_back(i); });
  sim.schedule_at(200, [&order] { order.push_back(99); });
  // Stop after the 2nd of five same-timestamp events: the other 3 stay
  // queued and run first on the next drain.
  EXPECT_TRUE(sim.run_until_condition([&order] { return order.size() == 2; }));
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.pending_events(), 4u);
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 99}));
}

// run_until_condition_before: every event due at or before the deadline
// runs (including all ties exactly at it); on timeout it returns false with
// the clock at the last executed event, and later events stay queued for
// the next drain.
TEST(Simulator, DeadlineDrainStopsAtDeadline) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(40, [&order] { order.push_back(0); });
  for (int i = 1; i <= 3; ++i)
    sim.schedule_at(100, [&order, i] { order.push_back(i); });
  sim.schedule_at(101, [&order] { order.push_back(4); });
  sim.schedule_at(500, [&order] { order.push_back(5); });

  EXPECT_FALSE(sim.run_until_condition_before([] { return false; }, 100));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sim.now(), 100u);
  EXPECT_EQ(sim.pending_events(), 2u);

  // A condition met before the deadline stops the drain there.
  EXPECT_TRUE(sim.run_until_condition_before(
      [&order] { return order.size() == 5; }, 1000));
  EXPECT_EQ(sim.now(), 101u);
  EXPECT_EQ(sim.pending_events(), 1u);

  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(sim.now(), 500u);
}

// A callback that itself drains (as the block layer and PipettePath do when
// they wait for a completion) while same-timestamp siblings are pending:
// the nested drain runs those siblings first, and the outer drain resumes
// with whatever is left. Ids follow schedule order (the nested callback's
// completion is scheduled last), so the executed (now, id) pairs must rise
// strictly.
TEST(Simulator, NestedDrainFromCallbackKeepsOrder) {
  Simulator sim;
  std::vector<std::pair<SimTime, int>> trace;
  auto log = [&sim, &trace](int id) {
    return [&sim, &trace, id] { trace.emplace_back(sim.now(), id); };
  };
  bool done = false;
  sim.schedule_at(10, [&] {
    trace.emplace_back(sim.now(), 0);
    sim.schedule(5, [&done, &sim, &trace] {
      trace.emplace_back(sim.now(), 7);
      done = true;
    });
    EXPECT_TRUE(sim.run_until_condition([&done] { return done; }));
    EXPECT_EQ(sim.now(), 15u);
  });
  sim.schedule_at(10, log(1));
  sim.schedule_at(10, log(2));
  sim.schedule_at(12, log(3));
  sim.schedule_at(15, log(4));
  sim.schedule_at(15, log(5));
  sim.schedule_at(20, log(6));
  sim.run_all();

  const std::vector<std::pair<SimTime, int>> want = {
      {10, 0}, {10, 1}, {10, 2}, {12, 3}, {15, 4}, {15, 5}, {15, 7}, {20, 6}};
  EXPECT_EQ(trace, want);
  for (std::size_t i = 1; i < trace.size(); ++i)
    ASSERT_LT(trace[i - 1], trace[i]) << "at " << i;
  EXPECT_EQ(sim.events_executed(), 8u);
}

// --- Allocation behaviour of the hot loop ---

// Once the pools are warm, scheduling and running events with captures that
// fit the small-buffer limit must not touch the heap at all: neither the
// global allocator nor the InlineFunction fallback path.
TEST(Simulator, SteadyStateSchedulingIsAllocationFree) {
  Simulator sim;
  std::uint64_t sink = 0;

  // Warm the queue to a high-water mark above what the measured phase uses.
  constexpr int kWarmPending = 512;
  for (int i = 0; i < kWarmPending; ++i) {
    sim.schedule(1 + static_cast<SimDuration>(i % 7),
                 [&sink, i] { sink += static_cast<std::uint64_t>(i); });
  }
  sim.run_all();

  const std::uint64_t news_before =
      g_operator_new_calls.load(std::memory_order_relaxed);
  const std::uint64_t heap_before = inline_function_heap_allocations();

  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 256; ++i) {
      // 24-byte capture: comfortably inside the 48-byte SBO.
      const std::uint64_t a = static_cast<std::uint64_t>(i);
      const std::uint64_t b = a * 3;
      sim.schedule(1 + static_cast<SimDuration>(i % 7),
                   [&sink, a, b] { sink += a + b; });
    }
    sim.run_all();
  }

  const std::uint64_t news_delta =
      g_operator_new_calls.load(std::memory_order_relaxed) - news_before;
  const std::uint64_t heap_delta =
      inline_function_heap_allocations() - heap_before;
  EXPECT_EQ(news_delta, 0u);
  EXPECT_EQ(heap_delta, 0u);
  EXPECT_EQ(sim.events_executed(),
            static_cast<std::uint64_t>(kWarmPending) + 100u * 256u);
  EXPECT_NE(sink, 0u);
}

// Captures over the SBO limit fall back to exactly one heap allocation
// (moves transfer the pointer; they do not reallocate) and still run.
TEST(Simulator, OversizedCapturesFallBackToHeapExactlyOnce) {
  Simulator sim;
  std::array<std::uint8_t, 128> big{};
  big[0] = 7;
  big[127] = 9;
  int sum = 0;
  const std::uint64_t heap_before = inline_function_heap_allocations();
  sim.schedule(5, [big, &sum] { sum = big[0] + big[127]; });
  EXPECT_EQ(inline_function_heap_allocations() - heap_before, 1u);
  sim.run_all();
  EXPECT_EQ(sum, 16);
}

}  // namespace
}  // namespace pipette
