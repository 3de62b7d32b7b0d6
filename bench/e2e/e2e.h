// Shared pieces of the end-to-end benchmark (e2e_bench): run options, the
// metric report, the span trace and the timing / memory / allocation probes.
//
// The benchmark calls into src/ only through public headers. Every span and
// counter is taken here, around those calls; nothing inside src/ is
// instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tailguard::e2e {

struct RunOptions {
  std::string workload;
  /// Every input (arrival times, classes, fanouts, simulation seeds) is
  /// derived from this seed before timing starts.
  std::uint64_t seed = 1;
  /// Length of the measured window.
  double seconds = 20.0;
  /// Traced pass: spans, allocation counts and layer replays.
  bool trace = false;
  /// Where trace_<workload>.jsonl goes.
  std::string out_dir = ".";
  /// Sim workloads: the known-answer digest the set-up run must reproduce
  /// (empty = report it without checking).
  std::string expect_digest;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values);

/// Set-ups timed per run; setup_s is their median. The median of samples
/// drawn from fast and slow host stretches settles as their number grows;
/// 21 set-ups take at most a tenth of a 20 s window (sim_control, 0.09 s
/// each).
constexpr std::size_t kSetups = 21;

/// Durations of one run's set-ups. A vCPU of a shared host runs up to 1.5x
/// slower for stretches of 0.1 s to several seconds, so set-ups made back to
/// back all land in one stretch. The first set-up serves the run; the others
/// are spread evenly over the measured window, which samples the host as the
/// window's own metrics do, and the workloads leave their CPU time,
/// allocations and memory out of the window's metrics.
class SetupTimes {
 public:
  template <typename SetUp>
  void time(SetUp&& set_up) {
    const std::int64_t t0 = now_ns();
    set_up();
    samples_s_.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  /// True while set-ups remain and `progress` (0 to 1 through the window)
  /// has reached the next one's place, count() / kSetups.
  bool due(double progress) const {
    return count() < kSetups &&
           progress * kSetups >= static_cast<double>(count());
  }
  std::size_t count() const { return samples_s_.size(); }
  double median_s() const { return median(samples_s_); }

 private:
  std::vector<double> samples_s_;
};

/// CPU time consumed so far, in microseconds, by the whole process or only
/// by the calling thread.
double cpu_us(bool process);

/// Metrics and the correctness outcome of one workload run, printed as one
/// JSON object that run.py turns into its result line.
class Report {
 public:
  void metric(std::string_view name, double value, std::string_view unit);
  /// Records a failed correctness check; the run reports correct=false.
  void fail(const std::string& why);
  void set_counts(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }
  void set_digest(std::string digest) { digest_ = std::move(digest); }
  bool correct() const { return errors_.empty(); }
  std::string to_json(std::string_view workload) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string digest_;
};

/// Percentile `p` (0..100) by nearest rank on a copy; 0 for an empty sample.
double percentile(std::vector<double> values, double p);
double mean(const std::vector<double>& values);

/// Peak memory of the system under test, in MB: the process's resident
/// high-water mark (VmHWM) since the probe was made, less its resident size
/// (VmRSS) then. Made after the workload's inputs are generated, so the
/// harness's own buffers are not counted.
class PeakRssProbe {
 public:
  /// Resets the kernel's high-water mark to the current resident size
  /// (/proc/self/clear_refs, "5"). Where that is refused, the mark keeps
  /// any earlier, higher peak and the result over-counts.
  PeakRssProbe();
  /// Runs `step`, which must free what it allocates, with its memory left
  /// out: the peak so far is kept, the heap's free pages go back to the
  /// kernel and the mark is reset.
  template <typename Step>
  void exclude(Step&& step) {
    peak_mb_ = peak_mb();
    step();
    release_free_heap();
    reset();
  }
  double peak_mb() const;

 private:
  static void reset();
  static void release_free_heap();
  double base_mb_ = 0.0;
  double peak_mb_ = 0.0;
};

/// Counting global operator new (alloc_count.cc). Counting is off until the
/// traced pass turns it on; while on, the count is also installed as the
/// common/alloc_probe.h hook so SimResult::event_loop_allocs is real.
void set_alloc_counting(bool on);
std::uint64_t allocations();

/// One span of the trace: a named interval of one query (or one simulation
/// run), with the name of the span that contains it.
struct Span {
  std::uint64_t query = 0;
  const char* name = "";
  const char* parent = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Spans kept in memory and written as JSON lines when the run ends. Replay
/// families are written as aggregates (call count and total time) because
/// they are timed in batches, not per call.
class TraceLog {
 public:
  explicit TraceLog(std::int64_t origin_ns) : origin_ns_(origin_ns) {}
  void add(std::uint64_t query, const char* name, const char* parent,
           std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{query, name, parent, start_ns, end_ns});
  }
  void aggregate(std::string name, std::uint64_t calls, double total_ns) {
    aggregates_.push_back(Aggregate{std::move(name), calls, total_ns});
  }
  /// Writes `path`; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  struct Aggregate {
    std::string name;
    std::uint64_t calls;
    double total_ns;
  };
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
};

/// sim_paper / sim_control: back-to-back run_simulation calls.
void run_sim_workload(const RunOptions& options, Report& report,
                      TraceLog* trace);
/// rt_open / net_open: one open-loop generator thread against the threaded
/// runtime or the TCP dispatcher.
void run_live_workload(const RunOptions& options, Report& report,
                       TraceLog* trace);

}  // namespace tailguard::e2e
