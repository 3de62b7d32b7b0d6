#include "core/policy.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace tailguard {

// -------------------------------------------------------------------- FIFO

void FifoTaskQueue::push(const QueuedTask& task) {
  queue_.push_back(task);
  queue_.back().seq = next_seq_++;
}

QueuedTask FifoTaskQueue::pop() {
  TG_CHECK_MSG(!queue_.empty(), "pop from empty FIFO queue");
  QueuedTask t = queue_.front();
  queue_.pop_front();
  return t;
}

const QueuedTask& FifoTaskQueue::peek() const {
  TG_CHECK_MSG(!queue_.empty(), "peek into empty FIFO queue");
  return queue_.front();
}

// -------------------------------------------------------------------- PRIQ

ClassPriorityTaskQueue::ClassPriorityTaskQueue(std::size_t num_classes)
    : per_class_(num_classes), occupancy_((num_classes + 63) / 64, 0) {
  TG_CHECK_MSG(num_classes >= 1, "PRIQ needs at least one class");
}

void ClassPriorityTaskQueue::push(const QueuedTask& task) {
  TG_CHECK_MSG(task.cls < per_class_.size(),
               "task class " << task.cls << " out of range");
  per_class_[task.cls].push_back(task);
  per_class_[task.cls].back().seq = next_seq_++;
  occupancy_[task.cls / 64] |= std::uint64_t{1} << (task.cls % 64);
  ++size_;
}

std::size_t ClassPriorityTaskQueue::first_nonempty() const {
  for (std::size_t w = 0; w < occupancy_.size(); ++w) {
    if (occupancy_[w] != 0)
      return w * 64 + static_cast<std::size_t>(std::countr_zero(occupancy_[w]));
  }
  TG_CHECK_MSG(false, "pop/peek on empty PRIQ queue");
  return 0;
}

QueuedTask ClassPriorityTaskQueue::pop() {
  const std::size_t c = first_nonempty();
  QueuedTask t = per_class_[c].front();
  per_class_[c].pop_front();
  if (per_class_[c].empty())
    occupancy_[c / 64] &= ~(std::uint64_t{1} << (c % 64));
  --size_;
  return t;
}

const QueuedTask& ClassPriorityTaskQueue::peek() const {
  return per_class_[first_nonempty()].front();
}

// --------------------------------------------------------------------- EDF

EdfTaskQueue::EdfTaskQueue(Policy reported_policy)
    : reported_policy_(reported_policy) {
  TG_CHECK_MSG(
      reported_policy == Policy::kTEdf || reported_policy == Policy::kTfEdf,
      "EdfTaskQueue reports only the EDF policies");
}

void EdfTaskQueue::push(const QueuedTask& task) {
  heap_.push_back(task);
  heap_.back().seq = next_seq_++;
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

QueuedTask EdfTaskQueue::pop() {
  TG_CHECK_MSG(!heap_.empty(), "pop from empty EDF queue");
  // pop_heap rotates the head to the back, where it can be moved out —
  // no copy of the popped task, unlike priority_queue::top().
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  QueuedTask t = std::move(heap_.back());
  heap_.pop_back();
  return t;
}

const QueuedTask& EdfTaskQueue::peek() const {
  TG_CHECK_MSG(!heap_.empty(), "peek into empty EDF queue");
  return heap_.front();
}

// -------------------------------------------------------- EDF, timer wheel

TimerWheelEdfQueue::TimerWheelEdfQueue(Policy reported_policy, double tick_ms)
    : tick_ms_(tick_ms), reported_policy_(reported_policy) {
  TG_CHECK_MSG(tick_ms > 0.0, "timer wheel tick must be positive");
  TG_CHECK_MSG(
      reported_policy == Policy::kTEdf || reported_policy == Policy::kTfEdf,
      "TimerWheelEdfQueue reports only the EDF policies");
}

void TimerWheelEdfQueue::push(const QueuedTask& incoming) {
  const std::uint64_t seq = next_seq_++;
  if (wheel_live()) {
    // Backlogged: the array already spilled; keep filing into the wheel
    // until it drains so only one structure is ever live.
    QueuedTask task = incoming;
    task.seq = seq;
    wheel_->push(std::move(task));
    return;
  }
  // Append path: `incoming` outranks the tail iff its deadline is >= —
  // ExactLess falls through to seq on ties and the fresh seq is the maximum.
  // Copies straight into the vector, no staging copy.
  if (array_.size() == head_ ||
      (array_.size() - head_ < kSpillDepth &&
       array_.back().deadline <= incoming.deadline)) {
    array_.push_back(incoming);
    array_.back().seq = seq;
    return;
  }
  QueuedTask task = incoming;
  task.seq = seq;
  if (array_.size() - head_ >= kSpillDepth) {
    if (wheel_ == nullptr) wheel_ = std::make_unique<Wheel>(tick_ms_);
    for (std::size_t i = head_; i < array_.size(); ++i)
      wheel_->push(std::move(array_[i]));
    array_.clear();
    head_ = 0;
    wheel_->push(std::move(task));
    return;
  }
  const auto pos = std::upper_bound(array_.begin() + head_, array_.end(),
                                    task, ExactLess{});
  array_.insert(pos, std::move(task));
}

QueuedTask TimerWheelEdfQueue::pop() {
  TG_CHECK_MSG(size() > 0, "pop from empty EDF queue");
  if (wheel_live()) return wheel_->pop();
  QueuedTask out = std::move(array_[head_++]);
  if (head_ == array_.size()) {
    array_.clear();
    head_ = 0;
  } else if (head_ >= 2 * kSpillDepth) {
    // Bound the consumed prefix so steady push/pop traffic cannot grow the
    // vector without limit; the live window is at most kSpillDepth items.
    array_.erase(array_.begin(), array_.begin() + head_);
    head_ = 0;
  }
  return out;
}

const QueuedTask& TimerWheelEdfQueue::peek() const {
  TG_CHECK_MSG(size() > 0, "peek into empty EDF queue");
  return wheel_live() ? wheel_->peek() : array_[head_];
}

// ----------------------------------------------------------------- factory

std::unique_ptr<TaskQueue> make_task_queue(Policy policy,
                                           std::size_t num_classes) {
  switch (policy) {
    case Policy::kFifo:
      return std::make_unique<FifoTaskQueue>();
    case Policy::kPriq:
      return std::make_unique<ClassPriorityTaskQueue>(num_classes);
    case Policy::kTEdf:
    case Policy::kTfEdf:
      return std::make_unique<TimerWheelEdfQueue>(policy);
  }
  TG_CHECK_MSG(false, "unknown policy");
  return nullptr;
}

}  // namespace tailguard
