// Tests for the four task-queue disciplines, including the degeneracy
// properties the paper states in §III.A (PRIQ and T-EDFQ collapse to FIFO
// with a single class; TF-EDFQ collapses to T-EDFQ at fixed fanout).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/policy.h"

namespace tailguard {
namespace {

QueuedTask make_task(TaskId id, ClassId cls, TimeMs enqueue, TimeMs deadline) {
  QueuedTask t;
  t.task = id;
  t.cls = cls;
  t.enqueue_time = enqueue;
  t.deadline = deadline;
  return t;
}

// ------------------------------------------------------------------- FIFO

TEST(FifoTaskQueue, FifoOrder) {
  FifoTaskQueue q;
  for (TaskId i = 0; i < 5; ++i) q.push(make_task(i, 0, i * 1.0, 100.0 - i));
  for (TaskId i = 0; i < 5; ++i) {
    EXPECT_EQ(q.peek().task, i);
    EXPECT_EQ(q.pop().task, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(FifoTaskQueue, PopEmptyThrows) {
  FifoTaskQueue q;
  EXPECT_THROW(q.pop(), CheckFailure);
  EXPECT_THROW(q.peek(), CheckFailure);
}

// ------------------------------------------------------------------- PRIQ

TEST(ClassPriorityTaskQueue, StrictPriority) {
  ClassPriorityTaskQueue q(3);
  q.push(make_task(1, 2, 0.0, 0.0));
  q.push(make_task(2, 0, 1.0, 0.0));
  q.push(make_task(3, 1, 2.0, 0.0));
  q.push(make_task(4, 0, 3.0, 0.0));
  EXPECT_EQ(q.pop().task, 2u);  // class 0 first, FIFO within class
  EXPECT_EQ(q.pop().task, 4u);
  EXPECT_EQ(q.pop().task, 3u);
  EXPECT_EQ(q.pop().task, 1u);
}

TEST(ClassPriorityTaskQueue, SingleClassDegeneratesToFifo) {
  ClassPriorityTaskQueue priq(1);
  FifoTaskQueue fifo;
  Rng rng(3);
  for (TaskId i = 0; i < 100; ++i) {
    const auto t = make_task(i, 0, rng.uniform(), rng.uniform());
    priq.push(t);
    fifo.push(t);
  }
  while (!fifo.empty()) EXPECT_EQ(priq.pop().task, fifo.pop().task);
  EXPECT_TRUE(priq.empty());
}

TEST(ClassPriorityTaskQueue, RejectsOutOfRangeClass) {
  ClassPriorityTaskQueue q(2);
  EXPECT_THROW(q.push(make_task(0, 2, 0.0, 0.0)), CheckFailure);
}

// -------------------------------------------------------------------- EDF

TEST(EdfTaskQueue, PopsEarliestDeadline) {
  EdfTaskQueue q(Policy::kTfEdf);
  q.push(make_task(1, 0, 0.0, 30.0));
  q.push(make_task(2, 0, 1.0, 10.0));
  q.push(make_task(3, 0, 2.0, 20.0));
  EXPECT_EQ(q.pop().task, 2u);
  EXPECT_EQ(q.pop().task, 3u);
  EXPECT_EQ(q.pop().task, 1u);
}

TEST(EdfTaskQueue, TiesBreakFifo) {
  EdfTaskQueue q(Policy::kTfEdf);
  for (TaskId i = 0; i < 10; ++i) q.push(make_task(i, 0, i * 1.0, 5.0));
  for (TaskId i = 0; i < 10; ++i) EXPECT_EQ(q.pop().task, i);
}

TEST(EdfTaskQueue, PopOrderSurvivesInterleavedPushPop) {
  // Guards the vector + pop_heap restructure (move-out pop): drain order
  // must stay exactly (deadline asc, seq asc) even when pushes interleave
  // with pops, and peek() must always agree with the next pop().
  EdfTaskQueue q(Policy::kTfEdf);
  Rng rng(41);
  std::vector<QueuedTask> expected;
  TaskId next = 0;
  for (int round = 0; round < 50; ++round) {
    const int pushes = 1 + static_cast<int>(rng.uniform_index(6));
    for (int i = 0; i < pushes; ++i) {
      // Coarse deadlines force frequent ties, exercising the seq tiebreak.
      const auto t = make_task(next++, 0, 0.0,
                               static_cast<double>(rng.uniform_index(8)));
      q.push(t);
      expected.push_back(t);
    }
    const int pops = static_cast<int>(rng.uniform_index(
        static_cast<std::uint64_t>(expected.size() + 1)));
    for (int i = 0; i < pops; ++i) {
      std::stable_sort(expected.begin(), expected.end(),
                       [](const QueuedTask& a, const QueuedTask& b) {
                         return a.deadline < b.deadline;
                       });
      EXPECT_EQ(q.peek().task, expected.front().task);
      EXPECT_EQ(q.pop().task, expected.front().task);
      expected.erase(expected.begin());
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const QueuedTask& a, const QueuedTask& b) {
                     return a.deadline < b.deadline;
                   });
  for (const QueuedTask& t : expected) EXPECT_EQ(q.pop().task, t.task);
  EXPECT_TRUE(q.empty());
}

TEST(EdfTaskQueue, EqualDeadlinesDegenerateToFifo) {
  // T-EDFQ with one class: deadline = t0 + const, arrival order == deadline
  // order, so the schedule equals FIFO (paper §III.A).
  EdfTaskQueue edf(Policy::kTEdf);
  FifoTaskQueue fifo;
  Rng rng(17);
  TimeMs t = 0.0;
  for (TaskId i = 0; i < 200; ++i) {
    t += rng.uniform();
    const auto task = make_task(i, 0, t, t + 42.0);
    edf.push(task);
    fifo.push(task);
  }
  while (!fifo.empty()) EXPECT_EQ(edf.pop().task, fifo.pop().task);
}

TEST(EdfTaskQueue, PropertyAlwaysPopsMinDeadline) {
  // Randomised property check with interleaved push/pop.
  EdfTaskQueue q(Policy::kTfEdf);
  std::vector<QueuedTask> mirror;
  Rng rng(23);
  TaskId next = 0;
  for (int step = 0; step < 2000; ++step) {
    if (mirror.empty() || rng.bernoulli(0.6)) {
      const auto t = make_task(next++, 0, 0.0, rng.uniform(0.0, 100.0));
      q.push(t);
      mirror.push_back(t);
    } else {
      const auto popped = q.pop();
      const auto it = std::min_element(
          mirror.begin(), mirror.end(),
          [](const QueuedTask& a, const QueuedTask& b) {
            return a.deadline < b.deadline;
          });
      EXPECT_DOUBLE_EQ(popped.deadline, it->deadline);
      mirror.erase(std::find_if(mirror.begin(), mirror.end(),
                                [&](const QueuedTask& t) {
                                  return t.task == popped.task;
                                }));
    }
  }
}

TEST(EdfTaskQueue, ReportsConfiguredPolicy) {
  EXPECT_EQ(EdfTaskQueue(Policy::kTEdf).policy(), Policy::kTEdf);
  EXPECT_EQ(EdfTaskQueue(Policy::kTfEdf).policy(), Policy::kTfEdf);
  EXPECT_THROW(EdfTaskQueue(Policy::kFifo), CheckFailure);
}

// -------------------------------------------------------------- EDF wheel

// The timer-wheel EDF queue must be indistinguishable from the binary-heap
// reference: identical (task, deadline, seq) pop sequences, bit for bit.
// This is what let make_task_queue replace the heap with the wheel without
// perturbing a single BENCH row.
TEST(TimerWheelEdfQueue, PopSequenceBitIdenticalToBinaryHeap) {
  // Deliberately coarse tick so many distinct deadlines share one slot, and
  // deadline ranges that span level 0 through the overflow heap.
  for (const double tick_ms : {0.25, 16.0}) {
    EdfTaskQueue heap(Policy::kTfEdf);
    TimerWheelEdfQueue wheel(Policy::kTfEdf, tick_ms);
    Rng rng(97);
    TaskId next = 0;
    std::size_t depth = 0;
    for (int round = 0; round < 400; ++round) {
      const int pushes = static_cast<int>(rng.uniform_index(8));
      for (int i = 0; i < pushes; ++i) {
        double deadline = 0.0;
        switch (rng.uniform_index(4)) {
          case 0:  // clustered ties: exercises the per-slot heaps
            deadline = static_cast<double>(rng.uniform_index(4));
            break;
          case 1:  // uniform near-term: level 0/1 fast path
            deadline = rng.uniform(0.0, 500.0);
            break;
          case 2:  // far future: cascades and the overflow heap
            deadline = rng.uniform(0.0, 1e9);
            break;
          default:  // monotonicity violation: earlier than popped work
            deadline = rng.uniform(-100.0, 10.0);
            break;
        }
        const auto t = make_task(next++, 0, 0.0, deadline);
        heap.push(t);
        wheel.push(t);
        ++depth;
      }
      const auto pops = rng.uniform_index(depth + 1);
      for (std::uint64_t i = 0; i < pops; ++i) {
        ASSERT_EQ(heap.peek().task, wheel.peek().task);
        const QueuedTask a = heap.pop();
        const QueuedTask b = wheel.pop();
        ASSERT_EQ(a.task, b.task);
        ASSERT_EQ(a.seq, b.seq);
        ASSERT_EQ(a.deadline, b.deadline);
        --depth;
      }
      ASSERT_EQ(heap.size(), wheel.size());
    }
    while (!heap.empty()) {
      const QueuedTask a = heap.pop();
      const QueuedTask b = wheel.pop();
      ASSERT_EQ(a.task, b.task);
      ASSERT_EQ(a.seq, b.seq);
    }
    EXPECT_TRUE(wheel.empty());
  }
}

TEST(TimerWheelEdfQueue, DrainsSparseDeadlinesInSortedOrder) {
  // Deadlines spread over nine decades touch every wheel level plus the
  // overflow heap; a full drain must still be globally sorted.
  TimerWheelEdfQueue q(Policy::kTEdf);
  Rng rng(7);
  for (TaskId i = 0; i < 300; ++i) {
    const double scale = std::pow(10.0, static_cast<double>(
                                            rng.uniform_index(9)));
    q.push(make_task(i, 0, 0.0, rng.uniform(0.0, scale)));
  }
  double prev = -1.0;
  while (!q.empty()) {
    const QueuedTask t = q.pop();
    EXPECT_GE(t.deadline, prev);
    prev = t.deadline;
  }
}

TEST(TimerWheelEdfQueue, PopEmptyThrowsAndPolicyChecked) {
  TimerWheelEdfQueue q(Policy::kTfEdf);
  EXPECT_THROW(q.pop(), CheckFailure);
  EXPECT_THROW(q.peek(), CheckFailure);
  EXPECT_EQ(q.policy(), Policy::kTfEdf);
  EXPECT_THROW(TimerWheelEdfQueue(Policy::kFifo), CheckFailure);
}

// ---------------------------------------------------------------- factory

TEST(MakeTaskQueue, EdfPoliciesBuildTimerWheelEdfQueue) {
  for (Policy p : {Policy::kTEdf, Policy::kTfEdf}) {
    const auto q = make_task_queue(p);
    EXPECT_NE(dynamic_cast<TimerWheelEdfQueue*>(q.get()), nullptr)
        << to_string(p);
  }
}

TEST(MakeTaskQueue, BuildsEveryPolicy) {
  for (Policy p : {Policy::kFifo, Policy::kPriq, Policy::kTEdf,
                   Policy::kTfEdf}) {
    const auto q = make_task_queue(p, 2);
    ASSERT_NE(q, nullptr);
    EXPECT_EQ(q->policy(), p);
    EXPECT_TRUE(q->empty());
  }
}

TEST(PolicyNames, Stable) {
  EXPECT_STREQ(to_string(Policy::kFifo), "FIFO");
  EXPECT_STREQ(to_string(Policy::kPriq), "PRIQ");
  EXPECT_STREQ(to_string(Policy::kTEdf), "T-EDFQ");
  EXPECT_STREQ(to_string(Policy::kTfEdf), "TailGuard");
}

// A cross-policy property: every discipline returns exactly the pushed set.
class QueueConservation : public ::testing::TestWithParam<Policy> {};

TEST_P(QueueConservation, PopReturnsExactlyPushedTasks) {
  const auto q = make_task_queue(GetParam(), 4);
  Rng rng(31);
  std::vector<TaskId> pushed;
  for (TaskId i = 0; i < 500; ++i) {
    auto t = make_task(i, static_cast<ClassId>(rng.uniform_index(4)),
                       rng.uniform(), rng.uniform(0.0, 50.0));
    q->push(t);
    pushed.push_back(i);
  }
  EXPECT_EQ(q->size(), 500u);
  std::vector<TaskId> popped;
  while (!q->empty()) popped.push_back(q->pop().task);
  std::sort(popped.begin(), popped.end());
  EXPECT_EQ(popped, pushed);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, QueueConservation,
                         ::testing::Values(Policy::kFifo, Policy::kPriq,
                                           Policy::kTEdf, Policy::kTfEdf),
                         [](const auto& info) {
                           return std::string(to_string(info.param) ==
                                                      std::string("T-EDFQ")
                                                  ? "TEdf"
                                                  : to_string(info.param));
                         });

}  // namespace
}  // namespace tailguard
