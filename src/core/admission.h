// Query admission control (paper §III.C).
//
// TailGuard tolerates a small fraction of tasks missing their queuing
// deadlines (the tail latency SLO is probabilistic), so admission control
// watches the deadline-miss ratio over a moving window of task dequeues and
// rejects incoming queries while the ratio exceeds a threshold R_th. The
// paper uses R_th = 1.7% over a window of 1000 queries / 100 000 tasks for
// the Fig. 7 study, and notes the window should match the time horizon over
// which the SLO is promised.
//
// The window is bounded both by task count and by age. The age bound is
// essential: with a pure count window, a fully-rejecting controller stops
// observing dequeues, the stale misses never leave the window and admission
// never resumes (a rejection death-spiral). Aging the entries out restores
// liveness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace tailguard {

enum class AdmissionMode {
  /// The paper's mechanism: admit everything while ratio <= R_th, reject
  /// everything while ratio > R_th.
  kOnOff,
  /// Extension: proportional throttling. Above R_th the rejection
  /// probability ramps linearly, reaching 1 at (1 + proportional_gain) *
  /// R_th. Softens the admit/reject oscillation of the lagging miss-ratio
  /// signal under heavy overload (see ablation_admission_modes).
  kProportional,
};

struct AdmissionOptions {
  /// Maximum window length, in task dequeue events.
  std::size_t window_tasks = 100000;
  /// Maximum entry age in milliseconds; entries older than this are evicted
  /// even if the count bound is not reached. <= 0 disables the age bound
  /// (not recommended, see the death-spiral note above).
  TimeMs window_ms = 1000.0;
  /// R_th: reject queries while the miss ratio exceeds this.
  double miss_ratio_threshold = 0.017;
  AdmissionMode mode = AdmissionMode::kOnOff;
  /// kProportional only: rejection probability reaches 1 at
  /// (1 + proportional_gain) * R_th.
  double proportional_gain = 1.0;
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Records one task dequeue at time `now`; `missed` is whether the task
  /// was dequeued past its queuing deadline t_D.
  void record_task_dequeue(TimeMs now, bool missed);

  /// Merges a batch of dequeues observed by a *remote* query-handler shard
  /// (delta-sync): `recorded` tasks, of which `missed` missed t_D, all
  /// entering the window as one weighted entry timestamped `now`. Deltas are
  /// increments since the sender's previous sync, so replaying a sync stream
  /// never double-counts; a weight-1 call is behaviourally identical to
  /// record_task_dequeue. A batch over window_tasks empties the window.
  void record_remote_dequeues(TimeMs now, std::uint64_t recorded,
                              std::uint64_t missed);

  /// Whether a query arriving at `now` should be admitted. An empty (or
  /// fully aged-out) window admits. `coin` is a uniform [0,1) draw consumed
  /// only in kProportional mode (pass rng.uniform()); kOnOff ignores it.
  bool should_admit(TimeMs now, double coin = 0.0);

  /// Current miss ratio after aging out stale entries.
  double miss_ratio(TimeMs now);

  const AdmissionOptions& options() const { return options_; }

 private:
  /// Window entries carry a weight so remote delta batches merge as a single
  /// entry instead of being replayed task-by-task. Local dequeues use
  /// count=1, making the weighted window behave exactly like a window of
  /// one entry per task.
  struct Entry {
    TimeMs time;
    std::uint64_t count;
    std::uint64_t missed;
  };

  /// The window, oldest first, is a ring of window_size_ entries starting at
  /// slot window_head_, stored in blocks of kBlockEntries. Entries leave by
  /// advancing the head and a full ring grows by one block, so a warm window
  /// slides without allocating and holds at most one block more than the
  /// largest window it has seen.
  static constexpr std::size_t kBlockEntries = 1024;

  void evict(TimeMs now);
  void push_back(const Entry& e);
  void grow();
  Entry& slot(std::size_t s) {
    return blocks_[s / kBlockEntries][s % kBlockEntries];
  }

  AdmissionOptions options_;
  std::vector<std::vector<Entry>> blocks_;
  std::size_t window_capacity_ = 0;  // blocks_.size() * kBlockEntries
  std::size_t window_head_ = 0;
  std::size_t window_size_ = 0;
  std::uint64_t tasks_in_window_ = 0;
  std::uint64_t misses_in_window_ = 0;
};

}  // namespace tailguard
