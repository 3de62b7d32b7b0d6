// Tests for the admission controller and the query tracker.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <limits>

#include "common/check.h"
#include "common/rng.h"
#include "core/admission.h"
#include "core/query_tracker.h"

namespace tailguard {
namespace {

// ------------------------------------------------------------- admission

constexpr TimeMs kNoAge = 0.0;  // disable the age bound in count-only tests

AdmissionOptions count_window(std::size_t tasks, double threshold) {
  return {.window_tasks = tasks,
          .window_ms = kNoAge,
          .miss_ratio_threshold = threshold};
}

TEST(AdmissionController, AdmitsWhileBelowThreshold) {
  AdmissionController ctl(count_window(100, 0.05));
  for (int i = 0; i < 100; ++i) ctl.record_task_dequeue(i, false);
  EXPECT_TRUE(ctl.should_admit(100.0));
  EXPECT_DOUBLE_EQ(ctl.miss_ratio(100.0), 0.0);
}

TEST(AdmissionController, RejectsAboveThreshold) {
  AdmissionController ctl(count_window(100, 0.05));
  for (int i = 0; i < 94; ++i) ctl.record_task_dequeue(i, false);
  for (int i = 0; i < 6; ++i) ctl.record_task_dequeue(94 + i, true);  // 6%
  EXPECT_FALSE(ctl.should_admit(100.0));
}

TEST(AdmissionController, RecoversWhenWindowSlides) {
  AdmissionController ctl(count_window(50, 0.1));
  for (int i = 0; i < 50; ++i) ctl.record_task_dequeue(i, true);
  EXPECT_FALSE(ctl.should_admit(50.0));
  // Window refills with non-misses; the stale misses slide out.
  for (int i = 0; i < 50; ++i) ctl.record_task_dequeue(50 + i, false);
  EXPECT_TRUE(ctl.should_admit(100.0));
}

TEST(AdmissionController, ThresholdBoundaryIsInclusive) {
  AdmissionController ctl(count_window(100, 0.05));
  for (int i = 0; i < 95; ++i) ctl.record_task_dequeue(i, false);
  for (int i = 0; i < 5; ++i) ctl.record_task_dequeue(95 + i, true);  // 5%
  EXPECT_TRUE(ctl.should_admit(100.0));
}

TEST(AdmissionController, AgeBoundPreventsRejectionDeathSpiral) {
  // With a pure count window, a controller that has rejected everything
  // stops seeing dequeues and its miss ratio freezes above the threshold
  // forever. The age bound evicts the stale misses so admission resumes.
  AdmissionController ctl({.window_tasks = 100,
                           .window_ms = 10.0,
                           .miss_ratio_threshold = 0.05});
  for (int i = 0; i < 100; ++i) ctl.record_task_dequeue(1.0, true);
  EXPECT_FALSE(ctl.should_admit(2.0));
  // No further dequeues happen; time passes beyond the window age.
  EXPECT_TRUE(ctl.should_admit(12.0));
  EXPECT_DOUBLE_EQ(ctl.miss_ratio(12.0), 0.0);
}

TEST(AdmissionController, AgeEvictionIsPartial) {
  AdmissionController ctl({.window_tasks = 100,
                           .window_ms = 10.0,
                           .miss_ratio_threshold = 0.5});
  ctl.record_task_dequeue(0.0, true);
  ctl.record_task_dequeue(8.0, false);
  // At t=11 the first entry (age 11) is stale, the second (age 3) is not.
  EXPECT_DOUBLE_EQ(ctl.miss_ratio(11.0), 0.0);
}

TEST(AdmissionController, RejectsBadOptions) {
  EXPECT_THROW(AdmissionController(count_window(10, 1.5)), CheckFailure);
  EXPECT_THROW(AdmissionController(count_window(0, 0.1)), CheckFailure);
}

TEST(AdmissionController, ProportionalModeRampsRejection) {
  AdmissionController ctl({.window_tasks = 100,
                           .window_ms = kNoAge,
                           .miss_ratio_threshold = 0.10,
                           .mode = AdmissionMode::kProportional,
                           .proportional_gain = 1.0});
  // 20% misses: ratio twice the threshold => reject probability 1.
  for (int i = 0; i < 80; ++i) ctl.record_task_dequeue(i, false);
  for (int i = 0; i < 20; ++i) ctl.record_task_dequeue(80 + i, true);
  EXPECT_FALSE(ctl.should_admit(100.0, 0.0));
  EXPECT_FALSE(ctl.should_admit(100.0, 0.999));
}

TEST(AdmissionController, ProportionalModePartialRejection) {
  AdmissionController ctl({.window_tasks = 100,
                           .window_ms = kNoAge,
                           .miss_ratio_threshold = 0.10,
                           .mode = AdmissionMode::kProportional,
                           .proportional_gain = 1.0});
  // 15% misses: reject probability = (0.15 - 0.10) / 0.10 = 0.5.
  for (int i = 0; i < 85; ++i) ctl.record_task_dequeue(i, false);
  for (int i = 0; i < 15; ++i) ctl.record_task_dequeue(85 + i, true);
  EXPECT_FALSE(ctl.should_admit(100.0, 0.49));  // coin below reject prob
  EXPECT_TRUE(ctl.should_admit(100.0, 0.51));   // coin above reject prob
}

TEST(AdmissionController, ProportionalModeAdmitsBelowThreshold) {
  AdmissionController ctl({.window_tasks = 100,
                           .window_ms = kNoAge,
                           .miss_ratio_threshold = 0.10,
                           .mode = AdmissionMode::kProportional});
  for (int i = 0; i < 100; ++i) ctl.record_task_dequeue(i, i % 20 == 0);
  EXPECT_TRUE(ctl.should_admit(100.0, 0.0));  // 5% < 10%
}

TEST(AdmissionController, WindowEvictsLikeAReferenceDeque) {
  // The window is a block ring that grows in place; its eviction must match
  // a plain FIFO of (time, count, missed) entries exactly, including when
  // the ring grows while its head sits mid-block after wrapping.
  struct Entry {
    TimeMs time;
    std::uint64_t count;
    std::uint64_t missed;
  };
  const AdmissionOptions opt{.window_tasks = 100000, .window_ms = 2.0};
  AdmissionController ctl(opt);
  std::deque<Entry> ref;
  std::uint64_t tasks = 0;
  std::uint64_t misses = 0;
  Rng rng(17);
  TimeMs now = 0.0;
  for (int i = 0; i < 300000; ++i) {
    // Lulls of a few entries between ever denser bursts: each burst grows
    // the window past every earlier size, from wherever the lull left the
    // head, and the last one reaches the count bound.
    const int phase = i / 20000;
    now += phase % 3 == 0 ? 1e-4 / (1 + phase / 3) : rng.uniform() * 4e-3;
    const std::uint64_t count =
        rng.uniform() < 0.05 ? 1 + rng.uniform_index(9) : 1;
    const std::uint64_t missed = rng.uniform_index(count + 1) / 2;
    ctl.record_remote_dequeues(now, count, missed);
    ref.push_back({now, count, missed});
    tasks += count;
    misses += missed;
    while (!ref.empty() && (now - ref.front().time > opt.window_ms ||
                            tasks > opt.window_tasks)) {
      tasks -= ref.front().count;
      misses -= ref.front().missed;
      ref.pop_front();
    }
    const double want =
        ref.empty() ? 0.0
                    : static_cast<double>(misses) / static_cast<double>(tasks);
    ASSERT_EQ(ctl.miss_ratio(now), want) << "step " << i;
  }
}

TEST(AdmissionController, OversizedRemoteBatchEmptiesTheWindow) {
  // Eviction drops a batch larger than window_tasks whole, and the window
  // with it. Counts near 2^64 (one malformed GossipDelta) used to wrap the
  // window's tallies first, leaving a miss ratio of 1.8e19 or 0/0 that
  // rejected every query until the window aged out.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  AdmissionController all_missed{AdmissionOptions{}};
  all_missed.record_task_dequeue(1.0, false);
  all_missed.record_task_dequeue(1.0, false);
  all_missed.record_remote_dequeues(1.0, kMax, kMax);
  EXPECT_EQ(all_missed.miss_ratio(1.0), 0.0);
  EXPECT_TRUE(all_missed.should_admit(1.0));

  AdmissionController none_missed{AdmissionOptions{}};
  none_missed.record_task_dequeue(1.0, false);
  none_missed.record_remote_dequeues(1.0, kMax, 0);
  EXPECT_EQ(none_missed.miss_ratio(1.0), 0.0);
  EXPECT_TRUE(none_missed.should_admit(1.0));

  // What eviction does when the sum does not wrap; the window keeps working.
  AdmissionController large{AdmissionOptions{}};
  large.record_task_dequeue(1.0, false);
  large.record_task_dequeue(1.0, false);
  large.record_remote_dequeues(1.0, 200000, 200000);
  EXPECT_EQ(large.miss_ratio(1.0), 0.0);
  EXPECT_TRUE(large.should_admit(1.0));
  large.record_task_dequeue(2.0, true);
  EXPECT_EQ(large.miss_ratio(2.0), 1.0);
}

TEST(AdmissionController, PaperDefaults) {
  AdmissionOptions opt;
  EXPECT_EQ(opt.window_tasks, 100000u);   // 1000 queries x 100 tasks (§IV.D)
  EXPECT_DOUBLE_EQ(opt.miss_ratio_threshold, 0.017);  // R_th = 1.7%
}

// ---------------------------------------------------------- query tracker

TEST(QueryTracker, CompletesAfterAllTasks) {
  QueryTracker tracker;
  const QueryId id = tracker.begin_query(10.0, 1, 3, 25.0);
  EXPECT_EQ(tracker.in_flight(), 1u);
  EXPECT_FALSE(tracker.complete_task(id));
  EXPECT_FALSE(tracker.complete_task(id));
  QueryState final_state;
  EXPECT_TRUE(tracker.complete_task(id, &final_state));
  EXPECT_EQ(tracker.in_flight(), 0u);
  EXPECT_DOUBLE_EQ(final_state.t0, 10.0);
  EXPECT_EQ(final_state.cls, 1u);
  EXPECT_EQ(final_state.fanout, 3u);
  EXPECT_DOUBLE_EQ(final_state.deadline, 25.0);
}

TEST(QueryTracker, SequentialIds) {
  QueryTracker tracker;
  EXPECT_EQ(tracker.begin_query(0.0, 0, 1, 1.0), 0u);
  EXPECT_EQ(tracker.begin_query(0.0, 0, 1, 1.0), 1u);
  EXPECT_EQ(tracker.started(), 2u);
}

TEST(QueryTracker, StateLookup) {
  QueryTracker tracker;
  const QueryId id = tracker.begin_query(5.0, 2, 4, 9.0);
  EXPECT_EQ(tracker.state(id).remaining, 4u);
  tracker.complete_task(id);
  EXPECT_EQ(tracker.state(id).remaining, 3u);
}

TEST(QueryTracker, ErrorsOnUnknownOrOverCompleted) {
  QueryTracker tracker;
  EXPECT_THROW(tracker.state(99), CheckFailure);
  EXPECT_THROW(tracker.complete_task(99), CheckFailure);
  const QueryId id = tracker.begin_query(0.0, 0, 1, 1.0);
  EXPECT_TRUE(tracker.complete_task(id));
  // Query erased after completion: further completions are errors.
  EXPECT_THROW(tracker.complete_task(id), CheckFailure);
  EXPECT_THROW(tracker.begin_query(0.0, 0, 0, 1.0), CheckFailure);
}

TEST(QueryTracker, ManyInterleavedQueries) {
  QueryTracker tracker;
  std::vector<QueryId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(tracker.begin_query(i, 0, 2, i + 10.0));
  EXPECT_EQ(tracker.in_flight(), 100u);
  for (QueryId id : ids) EXPECT_FALSE(tracker.complete_task(id));
  for (QueryId id : ids) EXPECT_TRUE(tracker.complete_task(id));
  EXPECT_EQ(tracker.in_flight(), 0u);
}

}  // namespace
}  // namespace tailguard
