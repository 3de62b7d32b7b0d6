#include "core/admission.h"

#include <algorithm>

#include "common/check.h"

namespace tailguard {

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  TG_CHECK_MSG(options.window_tasks > 0, "window must hold at least one task");
  TG_CHECK_MSG(options.miss_ratio_threshold >= 0.0 &&
                   options.miss_ratio_threshold <= 1.0,
               "miss ratio threshold must be in [0,1]");
}

void AdmissionController::grow() {
  // Full, so the tail has wrapped onto the head. A new block takes the head
  // block's place and gets a copy of the entries ahead of the head in it
  // (the newest ones): the ring stays contiguous, and the head block's
  // leading slots join the new block's tail as the free run.
  const std::size_t h = window_head_ / kBlockEntries;
  std::vector<Entry> block(kBlockEntries);
  if (window_capacity_ > 0) {
    std::copy_n(blocks_[h].begin(), window_head_ % kBlockEntries,
                block.begin());
    window_head_ += kBlockEntries;
  }
  blocks_.insert(blocks_.begin() + static_cast<std::ptrdiff_t>(h),
                 std::move(block));
  window_capacity_ += kBlockEntries;
}

void AdmissionController::push_back(const Entry& e) {
  if (window_size_ == window_capacity_) grow();
  std::size_t tail = window_head_ + window_size_;
  if (tail >= window_capacity_) tail -= window_capacity_;
  slot(tail) = e;
  ++window_size_;
}

void AdmissionController::evict(TimeMs now) {
  while (window_size_ > 0) {
    const Entry& front = slot(window_head_);
    if (!((options_.window_ms > 0.0 && now - front.time > options_.window_ms) ||
          tasks_in_window_ > options_.window_tasks))
      break;
    tasks_in_window_ -= front.count;
    misses_in_window_ -= front.missed;
    if (++window_head_ == window_capacity_) window_head_ = 0;
    --window_size_;
  }
}

void AdmissionController::record_task_dequeue(TimeMs now, bool missed) {
  record_remote_dequeues(now, 1, missed ? 1 : 0);
}

void AdmissionController::record_remote_dequeues(TimeMs now,
                                                 std::uint64_t recorded,
                                                 std::uint64_t missed) {
  TG_CHECK_MSG(missed <= recorded, "missed count exceeds recorded count");
  if (recorded == 0) return;
  if (recorded > options_.window_tasks) {
    // Eviction would drop the whole window, this batch included. Doing it
    // here keeps a huge remote batch from wrapping the counters first.
    window_size_ = 0;
    tasks_in_window_ = 0;
    misses_in_window_ = 0;
    return;
  }
  push_back(Entry{now, recorded, missed});
  tasks_in_window_ += recorded;
  misses_in_window_ += missed;
  evict(now);
}

double AdmissionController::miss_ratio(TimeMs now) {
  evict(now);
  return window_size_ == 0 ? 0.0
                           : static_cast<double>(misses_in_window_) /
                                 static_cast<double>(tasks_in_window_);
}

bool AdmissionController::should_admit(TimeMs now, double coin) {
  const double ratio = miss_ratio(now);
  const double rth = options_.miss_ratio_threshold;
  if (ratio <= rth) return true;
  switch (options_.mode) {
    case AdmissionMode::kOnOff:
      return false;
    case AdmissionMode::kProportional: {
      const double span = options_.proportional_gain * rth;
      if (span <= 0.0) return false;
      const double reject_prob = (ratio - rth) / span;
      return coin >= reject_prob;
    }
  }
  return false;
}

}  // namespace tailguard
