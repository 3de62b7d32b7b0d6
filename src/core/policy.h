// Task queue disciplines (paper §III.A).
//
// All four evaluated policies — FIFO, PRIQ, T-EDFQ and TF-EDFQ (TailGuard) —
// are expressed as implementations of one TaskQueue interface; the simulator
// and the threaded runtime are policy-agnostic. The two EDF variants share
// TimerWheelEdfQueue and differ only in how the caller computes `deadline`
// (see DeadlineEstimator::deadline vs ::slo_deadline).
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "common/timer_wheel.h"
#include "core/types.h"

namespace tailguard {

/// A task waiting in a server's queue.
struct QueuedTask {
  TaskId task = 0;
  QueryId query = 0;
  ClassId cls = 0;
  TimeMs enqueue_time = 0.0;
  /// Queuing deadline t_D. FIFO and PRIQ ignore it for ordering but it is
  /// still carried so deadline-miss statistics are policy-comparable.
  TimeMs deadline = 0.0;
  /// Assigned by the queue on push; breaks EDF ties in FIFO order.
  std::uint64_t seq = 0;
  /// Optional service-demand annotation. The simulator pre-samples task
  /// service times at query arrival so that all policies process identical
  /// task sequences (common random numbers); queues never inspect it.
  TimeMs service_time = 0.0;
};

class TaskQueue {
 public:
  virtual ~TaskQueue() = default;

  /// Enqueues a copy of `task`; the queue assigns `seq` on its copy. Taking
  /// a reference (not a by-value parameter) keeps the hot submit path to one
  /// 48-byte copy — straight into the backing container.
  virtual void push(const QueuedTask& task) = 0;

  /// Removes and returns the next task. Precondition: !empty().
  virtual QueuedTask pop() = 0;

  /// The task pop() would return. Precondition: !empty().
  virtual const QueuedTask& peek() const = 0;

  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }

  virtual Policy policy() const = 0;
};

/// First-in-first-out.
class FifoTaskQueue final : public TaskQueue {
 public:
  void push(const QueuedTask& task) override;
  QueuedTask pop() override;
  const QueuedTask& peek() const override;
  std::size_t size() const override { return queue_.size(); }
  Policy policy() const override { return Policy::kFifo; }

 private:
  std::deque<QueuedTask> queue_;
  std::uint64_t next_seq_ = 0;
};

/// Strict priority across classes (class 0 highest), FIFO within a class.
class ClassPriorityTaskQueue final : public TaskQueue {
 public:
  explicit ClassPriorityTaskQueue(std::size_t num_classes);
  void push(const QueuedTask& task) override;
  QueuedTask pop() override;
  const QueuedTask& peek() const override;
  std::size_t size() const override { return size_; }
  Policy policy() const override { return Policy::kPriq; }

 private:
  std::size_t first_nonempty() const;

  std::vector<std::deque<QueuedTask>> per_class_;
  /// Occupancy bitmask, one bit per class (64 classes per word): bit set
  /// iff the class deque is non-empty, so first_nonempty() is a
  /// countr_zero instead of a linear scan over the class deques.
  std::vector<std::uint64_t> occupancy_;
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Earliest-deadline-first with FIFO tie-breaking on a binary heap: the
/// reference TimerWheelEdfQueue's pop order is tested against
/// (tests/policy_test.cc) and benchmarked against (bench/micro_core_ops).
/// make_task_queue never builds it.
///
/// Backed by a raw vector driven with std::push_heap/std::pop_heap rather
/// than std::priority_queue: priority_queue::top() returns a const
/// reference, which forces pop() to *copy* the head before popping, while
/// pop_heap lets the head be moved out of the backing vector.
class EdfTaskQueue final : public TaskQueue {
 public:
  /// `reported_policy` must be kTEdf or kTfEdf.
  explicit EdfTaskQueue(Policy reported_policy);
  void push(const QueuedTask& task) override;
  QueuedTask pop() override;
  const QueuedTask& peek() const override;
  std::size_t size() const override { return heap_.size(); }
  Policy policy() const override { return reported_policy_; }

 private:
  struct Later {
    bool operator()(const QueuedTask& a, const QueuedTask& b) const {
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      return a.seq > b.seq;
    }
  };

  std::vector<QueuedTask> heap_;  // min-heap on (deadline, seq) via Later
  Policy reported_policy_;
  std::uint64_t next_seq_ = 0;
};

/// Earliest-deadline-first with FIFO tie-breaking on a hierarchical timer
/// wheel (calendar queue), the queue of both T-EDFQ and TF-EDFQ: O(1)
/// amortized push/pop instead of the binary heap's O(log n), with pop order
/// *bit-identical* to EdfTaskQueue — same (deadline, seq) total order (see
/// common/timer_wheel.h for how exactness survives bucketing).
class TimerWheelEdfQueue final : public TaskQueue {
 public:
  /// Default tick: 1/4 ms. SLO-scale deadlines (tens of ms) then spread over
  /// a few hundred level-0/1 slots, keeping slot heaps near-singleton.
  static constexpr double kDefaultTickMs = 0.25;

  /// Below this depth the queue is a sorted array, not the wheel. A wheel
  /// push touches a different slot (a different cache line) per deadline
  /// tick, so at the near-empty depths a well-provisioned server runs at,
  /// the wheel pays a cold miss per operation where a tiny sorted window is
  /// one hot line. Deadlines arrive roughly in order, so the common insert
  /// is an append; pop is an index bump. The array spills wholesale into
  /// the wheel when a backlog forms and resumes only once the wheel drains,
  /// so at any instant exactly one of the two holds the queue and the merged
  /// pop order stays the exact (deadline, seq) order.
  static constexpr std::size_t kSpillDepth = 32;

  /// `reported_policy` must be kTEdf or kTfEdf.
  explicit TimerWheelEdfQueue(Policy reported_policy,
                              double tick_ms = kDefaultTickMs);
  void push(const QueuedTask& task) override;
  QueuedTask pop() override;
  const QueuedTask& peek() const override;
  std::size_t size() const override {
    return (wheel_ ? wheel_->size() : 0) + (array_.size() - head_);
  }
  Policy policy() const override { return reported_policy_; }

 private:
  struct ExactLess {
    bool operator()(const QueuedTask& a, const QueuedTask& b) const {
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
      return a.seq < b.seq;
    }
  };
  struct DeadlineKey {
    double operator()(const QueuedTask& t) const { return t.deadline; }
  };
  using Wheel = TimerWheel<QueuedTask, ExactLess, DeadlineKey>;

  bool wheel_live() const { return wheel_ != nullptr && !wheel_->empty(); }

  // The wheel is built on first spill: a server that never backlogs past
  // kSpillDepth never pays for the slot arrays (or their teardown).
  std::unique_ptr<Wheel> wheel_;
  std::vector<QueuedTask> array_;  ///< ascending (deadline, seq), shallow mode
  std::size_t head_ = 0;           ///< first live element of array_
  double tick_ms_;
  Policy reported_policy_;
  std::uint64_t next_seq_ = 0;
};

/// Builds the queue discipline for `policy` (TimerWheelEdfQueue for both
/// EDF policies). `num_classes` is only consulted by PRIQ.
std::unique_ptr<TaskQueue> make_task_queue(Policy policy,
                                           std::size_t num_classes = 1);

}  // namespace tailguard
