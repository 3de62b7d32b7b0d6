// rt_open and net_open: one generator thread sends an open-loop Poisson
// stream (20,000 queries/s, two classes with p99 SLOs of 1 and 2 ms, fanout
// {1,2,4} with P ∝ 1/kf) of zero-service tasks, either into the in-process
// TailGuardService (4 workers) or through RemoteDispatcher to four loopback
// TaskServer daemons (1 executor each, gossip off).
//
// Zero service isolates the scheduler's own per-query cost: admit, Eq. 6,
// place, enqueue, wake, merge, future. At about 15% of the runtime's measured
// capacity, latency measures path cost rather than queueing. Both workloads
// share the control plane and the Worker loop; net_open adds the wire, the
// poller and the dispatcher maps, so a wire gain shows on net_open only.
//
// Latency runs from the arrival's due time to the moment the generator sees
// the future ready; between sends the generator polls every outstanding
// future, so a stall of the generator counts against the queries it delays.
#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <span>

#include "dist/arrival.h"
#include "net/dispatcher.h"
#include "net/task_server.h"
#include "replay.h"
#include "runtime/service.h"
#include "workloads/fanout.h"

namespace tailguard::e2e {

namespace {

constexpr std::size_t kServers = 4;
constexpr double kQueriesPerMs = 20.0;
constexpr double kWarmupFraction = 0.1;
constexpr std::size_t kProfileSamples = 3000;
/// Offline profile of a zero-service task's post-queuing time (ms).
constexpr double kProfileLowMs = 0.02;
constexpr double kProfileHighMs = 0.1;
/// Every n-th query's spans go to the trace file (all feed the metrics).
constexpr std::size_t kTraceEvery = 16;
/// Outstanding queries in the closed-loop capacity probe.
constexpr std::size_t kCapacityWindow = 64;

const std::vector<ClassSpec>& classes() {
  static const std::vector<ClassSpec> specs = {
      {.slo_ms = 1.0, .percentile = 99.0}, {.slo_ms = 2.0, .percentile = 99.0}};
  return specs;
}

struct Arrival {
  std::int64_t offset_ns = 0;
  ClassId cls = 0;
  std::uint32_t fanout = 1;
};

std::vector<Arrival> make_arrivals(std::uint64_t seed, double seconds) {
  Rng rng(seed);
  const CategoricalFanout fanout({1, 2, 4}, {4.0, 2.0, 1.0});
  const PoissonProcess process(kQueriesPerMs);
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(seconds * kQueriesPerMs * 1e3 * 1.1));
  for (TimeMs t = process.next_interarrival(rng); t < seconds * 1e3;
       t += process.next_interarrival(rng)) {
    Arrival a;
    a.offset_ns = static_cast<std::int64_t>(t * 1e6);
    a.cls = rng.uniform() < 0.5 ? 0 : 1;
    a.fanout = fanout.sample(rng);
    out.push_back(a);
  }
  return out;
}

/// Generator-side record of one query.
struct QueryTiming {
  std::int64_t due_ns = 0;
  std::int64_t submit_start_ns = 0;
  std::int64_t placed_ns = 0;  ///< placement observer, traced pass only
  std::int64_t submit_end_ns = 0;
  std::int64_t ready_ns = 0;
  TimeMs result_latency_ms = 0.0;
  bool resolved = false;
  bool admitted = false;
  bool ok = false;
};

/// Start and end of one task closure (rt_open traced pass).
struct TaskStamp {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

using PlacementObserver = std::function<void(std::span<const ServerId>)>;

class RuntimeBackend {
 public:
  using Tasks = std::vector<ServiceTaskSpec>;
  static constexpr const char* kLayer = "runtime";
  /// Tasks run in-process, so the traced pass can stamp them.
  static constexpr bool kStampsTasks = true;

  RuntimeBackend(std::span<const double> profile, PlacementObserver observer,
                 Report&)
      : service_([&] {
          ServiceOptions opt;
          opt.num_workers = kServers;
          opt.policy = Policy::kTfEdf;
          opt.classes = classes();
          opt.placement = PlacementPolicyOptions{};
          opt.placement_observer = std::move(observer);
          return opt;
        }()) {
    service_.seed_profile(profile);
  }

  /// With `stamps`, each task runs a closure that stamps its start and end.
  static Tasks make_tasks(std::uint32_t fanout, TaskStamp* stamps) {
    Tasks tasks(fanout);
    if (stamps != nullptr) {
      for (std::uint32_t k = 0; k < fanout; ++k) {
        TaskStamp* stamp = stamps + k;
        tasks[k].work = [stamp] {
          stamp->start_ns = now_ns();
          stamp->end_ns = now_ns();
        };
      }
    }
    return tasks;
  }

  std::future<QueryResult> submit(ClassId cls, Tasks tasks) {
    ++queries_;
    return service_.submit(cls, std::move(tasks));
  }

  void verify(Report& report) const {
    if (service_.completed_queries() != queries_)
      report.fail("runtime completed " +
                  std::to_string(service_.completed_queries()) + " of " +
                  std::to_string(queries_) + " queries");
  }

  double miss_ratio() const { return service_.deadline_miss_ratio(); }

 private:
  TailGuardService service_;
  std::uint64_t queries_ = 0;
};

class NetBackend {
 public:
  using Tasks = std::vector<net::RemoteTaskSpec>;
  static constexpr const char* kLayer = "net";
  static constexpr bool kStampsTasks = false;

  NetBackend(std::span<const double> profile, PlacementObserver observer,
             Report& report) {
    net::DispatcherOptions opt;
    for (std::size_t i = 0; i < kServers; ++i) {
      net::TaskServerOptions server;
      server.policy = Policy::kTfEdf;
      server.num_classes = classes().size();
      server.num_executors = 1;
      fleet_.push_back(std::make_unique<net::TaskServer>(server));
      opt.servers.push_back({"127.0.0.1", fleet_.back()->port()});
    }
    opt.policy = Policy::kTfEdf;
    opt.classes = classes();
    opt.placement = PlacementPolicyOptions{};
    opt.placement_observer = std::move(observer);
    dispatcher_ = std::make_unique<net::RemoteDispatcher>(std::move(opt));
    if (!dispatcher_->wait_for_servers(kServers, 5000.0))
      report.fail("task servers did not come up");
    dispatcher_->seed_profile(profile);
  }

  static Tasks make_tasks(std::uint32_t fanout, TaskStamp*) {
    return Tasks(fanout);
  }

  std::future<QueryResult> submit(ClassId cls, Tasks tasks) {
    tasks_ += tasks.size();
    return dispatcher_->submit(cls, std::move(tasks));
  }

  void verify(Report& report) const {
    std::uint64_t executed = 0;
    for (const auto& server : fleet_) executed += server->tasks_executed();
    if (executed != tasks_)
      report.fail("daemons executed " + std::to_string(executed) + " of " +
                  std::to_string(tasks_) + " tasks sent");
  }

  double miss_ratio() const { return dispatcher_->deadline_miss_ratio(); }

 private:
  // The dispatcher is declared last so it disconnects before the fleet stops.
  std::vector<std::unique_ptr<net::TaskServer>> fleet_;
  std::unique_ptr<net::RemoteDispatcher> dispatcher_;
  std::uint64_t tasks_ = 0;
};

struct LoopResult {
  std::size_t backlog_max = 0;
  /// Wall time of the pauses, by which the schedule after them was delayed.
  std::int64_t paused_ns = 0;
};

/// Sends every arrival at its due time, polling outstanding futures while it
/// waits, then drains. Each query's tasks are built by `make_tasks(i)` before
/// the wait for its due time, outside the submit span. Before query i, when
/// `pause_due(i)`, it drains, calls `pause()` with nothing in flight and
/// delays the rest of the schedule by the time both took. `placed_slot`
/// tells the placement observer where to stamp the query being submitted.
template <typename Backend, typename MakeTasks, typename PauseDue,
          typename Pause>
LoopResult open_loop(Backend& backend, const std::vector<Arrival>& arrivals,
                     const MakeTasks& make_tasks, const PauseDue& pause_due,
                     const Pause& pause, std::vector<QueryTiming>& timing,
                     std::int64_t*& placed_slot) {
  std::vector<std::future<QueryResult>> waiting;
  std::vector<std::size_t> waiting_idx;
  waiting.reserve(4096);
  waiting_idx.reserve(4096);
  std::size_t backlog_max = 0;
  const auto poll = [&] {
    for (std::size_t j = 0; j < waiting.size();) {
      if (waiting[j].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++j;
        continue;
      }
      const std::int64_t seen_ns = now_ns();
      const QueryResult r = waiting[j].get();
      QueryTiming& qt = timing[waiting_idx[j]];
      qt.ready_ns = seen_ns;
      qt.result_latency_ms = r.latency_ms;
      qt.resolved = true;
      qt.admitted = r.admitted;
      qt.ok = r.admitted && r.fanout == arrivals[waiting_idx[j]].fanout &&
              r.tasks_failed == 0;
      waiting[j] = std::move(waiting.back());
      waiting.pop_back();
      waiting_idx[j] = waiting_idx.back();
      waiting_idx.pop_back();
    }
  };

  const auto drain = [&] {
    const std::int64_t give_up_ns = now_ns() + 10'000'000'000LL;
    while (!waiting.empty() && now_ns() < give_up_ns) poll();
  };

  LoopResult out;
  const std::int64_t start_ns = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    if (pause_due(i)) {
      const std::int64_t pause_start_ns = now_ns();
      drain();
      pause();
      out.paused_ns += now_ns() - pause_start_ns;
    }
    QueryTiming& qt = timing[i];
    qt.due_ns = start_ns + out.paused_ns + arrivals[i].offset_ns;
    typename Backend::Tasks tasks = make_tasks(i);
    while (now_ns() < qt.due_ns) poll();
    placed_slot = &qt.placed_ns;
    qt.submit_start_ns = now_ns();
    waiting.push_back(backend.submit(arrivals[i].cls, std::move(tasks)));
    qt.submit_end_ns = now_ns();
    waiting_idx.push_back(i);
    out.backlog_max = std::max(out.backlog_max, waiting.size());
  }
  placed_slot = nullptr;
  drain();
  return out;
}

/// Closed loop with kCapacityWindow queries outstanding for one second;
/// returns completed queries per second.
template <typename Backend>
double capacity_qps(Backend& backend, const std::vector<Arrival>& arrivals) {
  std::deque<std::future<QueryResult>> window;
  std::size_t next = 0;
  const auto send = [&] {
    const Arrival& a = arrivals[next++ % arrivals.size()];
    window.push_back(
        backend.submit(a.cls, Backend::make_tasks(a.fanout, nullptr)));
  };
  for (std::size_t i = 0; i < kCapacityWindow; ++i) send();
  const std::int64_t start_ns = now_ns();
  const std::int64_t end_ns = start_ns + 1'000'000'000LL;
  std::uint64_t completed = 0;
  while (now_ns() < end_ns) {
    window.front().get();
    window.pop_front();
    ++completed;
    send();
  }
  const double elapsed_s = static_cast<double>(now_ns() - start_ns) * 1e-9;
  while (!window.empty()) {
    window.front().get();
    window.pop_front();
  }
  return static_cast<double>(completed) / elapsed_s;
}

std::vector<double> us_between(const std::vector<QueryTiming>& timing,
                               std::size_t from,
                               std::int64_t QueryTiming::*start,
                               std::int64_t QueryTiming::*end) {
  std::vector<double> out;
  out.reserve(timing.size() - from);
  for (std::size_t i = from; i < timing.size(); ++i) {
    if (timing[i].resolved)
      out.push_back(static_cast<double>(timing[i].*end - timing[i].*start) *
                    1e-3);
  }
  return out;
}

template <typename Backend>
void run_backend(const RunOptions& options, Report& report, TraceLog* trace) {
  // Inputs, all drawn from the seed before anything is timed.
  const std::vector<Arrival> arrivals =
      make_arrivals(options.seed, options.seconds);
  const auto profile_dist =
      std::make_shared<Uniform>(kProfileLowMs, kProfileHighMs);
  std::vector<double> profile(kProfileSamples);
  {
    Rng rng(options.seed ^ 0x5eedULL);
    for (double& x : profile) x = profile_dist->sample(rng);
  }
  std::size_t total_tasks = 0;
  std::vector<std::size_t> first_task(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    first_task[i] = total_tasks;
    total_tasks += arrivals[i].fanout;
  }
  const bool stamp_tasks = options.trace && Backend::kStampsTasks;
  std::vector<TaskStamp> stamps(stamp_tasks ? total_tasks : 0);
  const auto make_tasks = [&](std::size_t i) {
    return Backend::make_tasks(
        arrivals[i].fanout,
        stamp_tasks ? stamps.data() + first_task[i] : nullptr);
  };
  std::vector<QueryTiming> timing(arrivals.size());
  PeakRssProbe rss;

  // Set-up. The first instance serves the run; the others are made and torn
  // down in pauses of the open loop (see SetupTimes), with no query in
  // flight, and their CPU time, allocations and memory are left out of the
  // metrics.
  std::int64_t* placed_slot = nullptr;
  PlacementObserver observer;
  if (options.trace) {
    observer = [&placed_slot](std::span<const ServerId>) {
      if (placed_slot != nullptr) *placed_slot = now_ns();
    };
  }
  SetupTimes setups;
  const auto make_backend = [&] {
    std::unique_ptr<Backend> made;
    setups.time(
        [&] { made = std::make_unique<Backend>(profile, observer, report); });
    return made;
  };
  const std::unique_ptr<Backend> backend = make_backend();
  if (!report.correct()) return;
  double paused_cpu_us = 0.0;  // threads other than the generator
  std::uint64_t paused_allocs = 0;
  const auto pause = [&] {
    const double process0_us = cpu_us(true);
    const double generator0_us = cpu_us(false);
    const std::uint64_t allocs0 = allocations();
    rss.exclude([&] { make_backend().reset(); });
    paused_cpu_us += (cpu_us(true) - process0_us) -
                     (cpu_us(false) - generator0_us);
    paused_allocs += allocations() - allocs0;
  };
  // The first pause comes a ninth of the way in, after the warm-up.
  const auto pause_due = [&](std::size_t i) {
    return setups.due(static_cast<double>(i) /
                      static_cast<double>(arrivals.size()));
  };

  if (options.trace) set_alloc_counting(true);
  const std::uint64_t allocs_before = allocations();
  const double process_cpu0_us = cpu_us(true);
  const double generator_cpu0_us = cpu_us(false);
  const LoopResult loop = open_loop(*backend, arrivals, make_tasks, pause_due,
                                    pause, timing, placed_slot);
  const double backend_cpu_us = (cpu_us(true) - process_cpu0_us) -
                                (cpu_us(false) - generator_cpu0_us) -
                                paused_cpu_us;
  const std::uint64_t allocs = allocations() - allocs_before - paused_allocs;
  if (options.trace) set_alloc_counting(false);
  report.metric("peak_rss_mb", rss.peak_mb(), "MB");
  // A stream too short to reach every pause leaves set-ups over.
  while (setups.count() < kSetups) make_backend().reset();

  // Correctness: every query resolved, admitted, with its fanout and no
  // failed task; then the backend's own totals.
  std::uint64_t failed = 0;
  std::uint64_t admitted = 0;
  for (const QueryTiming& qt : timing) {
    failed += qt.ok ? 0 : 1;
    admitted += qt.admitted ? 1 : 0;
  }
  if (failed != 0)
    report.fail(std::to_string(failed) +
                " queries unresolved, refused, short of tasks or failed");
  report.set_counts(arrivals.size(), failed);

  const auto warmup = static_cast<std::size_t>(
      kWarmupFraction * static_cast<double>(arrivals.size()));
  const std::vector<double> latency_us =
      us_between(timing, warmup, &QueryTiming::due_ns, &QueryTiming::ready_ns);
  std::uint64_t measured_tasks = 0;
  std::int64_t last_ready_ns = 0;
  for (std::size_t i = warmup; i < timing.size(); ++i) {
    if (!timing[i].resolved) continue;
    measured_tasks += arrivals[i].fanout;
    last_ready_ns = std::max(last_ready_ns, timing[i].ready_ns);
  }
  const double window_s =
      timing.size() > warmup
          ? static_cast<double>(last_ready_ns - timing[warmup].due_ns -
                                loop.paused_ns) *
                1e-9
          : 0.0;
  report.metric("tasks_per_s",
                window_s > 0.0 ? static_cast<double>(measured_tasks) / window_s
                               : 0.0,
                "1/s");
  // The system's CPU per query: every thread but the generator, which
  // spins between sends, plus the generator's time inside submit (which
  // does not block, so its wall time is CPU time).
  double submit_us = 0.0;
  for (const QueryTiming& qt : timing)
    submit_us += static_cast<double>(qt.submit_end_ns - qt.submit_start_ns) *
                 1e-3;
  report.metric("cpu_us_per_query",
                (backend_cpu_us + submit_us) /
                    static_cast<double>(arrivals.size()),
                "us");
  report.metric("path.latency_p50_us", percentile(latency_us, 50.0), "us");
  report.metric("setup_s", setups.median_s(), "s");
  report.metric("path.latency_p90_us", percentile(latency_us, 90.0), "us");
  report.metric("path.latency_p99_us", percentile(latency_us, 99.0), "us");
  report.metric("path.latency_p999_us", percentile(latency_us, 99.9), "us");
  report.metric("bench.latency_samples",
                static_cast<double>(latency_us.size()), "count");
  const std::vector<double> lag_us = us_between(
      timing, warmup, &QueryTiming::due_ns, &QueryTiming::submit_start_ns);
  report.metric("bench.gen_lag_p99_us", percentile(lag_us, 99.0), "us");
  report.metric("bench.gen_lag_max_us", percentile(lag_us, 100.0), "us");
  report.metric("bench.backlog_max", static_cast<double>(loop.backlog_max),
                "count");
  report.metric("path.admit_frac",
                static_cast<double>(admitted) /
                    static_cast<double>(arrivals.size()),
                "ratio");
  const std::string layer = Backend::kLayer;
  report.metric(layer + ".miss_ratio", backend->miss_ratio(), "ratio");

  if (options.trace) {
    report.metric("path.allocs_per_query",
                  static_cast<double>(allocs) /
                      static_cast<double>(arrivals.size()),
                  "count");
    const auto spans_us = [&](std::int64_t QueryTiming::*start,
                              std::int64_t QueryTiming::*end) {
      return us_between(timing, warmup, start, end);
    };
    const std::vector<double> submit_us =
        spans_us(&QueryTiming::submit_start_ns, &QueryTiming::submit_end_ns);
    report.metric(layer + ".submit_p50_us", percentile(submit_us, 50.0), "us");
    report.metric(layer + ".submit_p99_us", percentile(submit_us, 99.0), "us");
    report.metric(layer + ".place_p50_us",
                  percentile(spans_us(&QueryTiming::submit_start_ns,
                                      &QueryTiming::placed_ns),
                             50.0),
                  "us");
    report.metric(layer + ".post_place_p50_us",
                  percentile(spans_us(&QueryTiming::placed_ns,
                                      &QueryTiming::submit_end_ns),
                             50.0),
                  "us");

    // Spans: the task closures (rt) or the dispatcher's own latency (net)
    // split the time after submit returns.
    std::vector<double> wait_us, merge_us, remote_us, resolve_us;
    for (std::size_t i = 0; i < timing.size(); ++i) {
      const QueryTiming& qt = timing[i];
      if (!qt.resolved) continue;
      const bool keep = i % kTraceEvery == 0;
      if (keep) {
        trace->add(i, "query", "", qt.due_ns, qt.ready_ns);
        trace->add(i, "gen_lag", "query", qt.due_ns, qt.submit_start_ns);
        trace->add(i, "submit", "query", qt.submit_start_ns, qt.submit_end_ns);
        trace->add(i, "place", "submit", qt.submit_start_ns, qt.placed_ns);
        trace->add(i, "post_place", "submit", qt.placed_ns, qt.submit_end_ns);
      }
      if (stamp_tasks) {
        std::int64_t last_end_ns = 0;
        for (std::size_t k = 0; k < arrivals[i].fanout; ++k) {
          const TaskStamp& s = stamps[first_task[i] + k];
          const std::int64_t wait_start_ns =
              std::min(qt.submit_end_ns, s.start_ns);
          if (i >= warmup)
            wait_us.push_back(static_cast<double>(s.start_ns - wait_start_ns) *
                              1e-3);
          last_end_ns = std::max(last_end_ns, s.end_ns);
          if (keep) {
            trace->add(i, "queue_wait", "query", wait_start_ns, s.start_ns);
            trace->add(i, "service", "query", s.start_ns, s.end_ns);
          }
        }
        if (i >= warmup)
          merge_us.push_back(static_cast<double>(qt.ready_ns - last_end_ns) *
                             1e-3);
        if (keep) trace->add(i, "merge", "query", last_end_ns, qt.ready_ns);
      } else {
        // The dispatcher stamps its t0 just inside submit and reports
        // completion relative to it.
        const std::int64_t done_ns =
            qt.submit_start_ns +
            static_cast<std::int64_t>(qt.result_latency_ms * 1e6);
        const std::int64_t remote_end_ns = std::max(done_ns, qt.submit_end_ns);
        if (i >= warmup) {
          remote_us.push_back(
              static_cast<double>(remote_end_ns - qt.submit_end_ns) * 1e-3);
          resolve_us.push_back(
              static_cast<double>(std::max<std::int64_t>(
                  0, qt.ready_ns - remote_end_ns)) * 1e-3);
        }
        if (keep) {
          trace->add(i, "remote", "query", qt.submit_end_ns, remote_end_ns);
          trace->add(i, "resolve", "query", remote_end_ns, qt.ready_ns);
        }
      }
    }
    if (stamp_tasks) {
      report.metric(layer + ".queue_wait_p50_us", percentile(wait_us, 50.0),
                    "us");
      report.metric(layer + ".queue_wait_p99_us", percentile(wait_us, 99.0),
                    "us");
      report.metric(layer + ".merge_p50_us", percentile(merge_us, 50.0), "us");
      report.metric(layer + ".merge_p99_us", percentile(merge_us, 99.0), "us");
    } else {
      report.metric(layer + ".remote_p50_us", percentile(remote_us, 50.0),
                    "us");
      report.metric(layer + ".remote_p99_us", percentile(remote_us, 99.0),
                    "us");
      report.metric(layer + ".resolve_p50_us", percentile(resolve_us, 50.0),
                    "us");
    }
    report.metric(layer + ".capacity_qps", capacity_qps(*backend, arrivals),
                  "1/s");
  }
  backend->verify(report);
  if (!options.trace) return;

  ReplaySetup setup;
  setup.sharding.router = RouterKind::kRoundRobin;
  setup.control.policy = Policy::kTfEdf;
  setup.control.classes = classes();
  setup.control.seed = options.seed;
  for (std::size_t s = 0; s < kServers; ++s) {
    auto model =
        std::make_shared<StreamingCdfModel>(ServiceOptions{}.model_options);
    model->seed(profile);
    setup.models.push_back(std::move(model));
    setup.service.push_back(profile_dist);
  }
  const std::size_t replayed = std::min<std::size_t>(arrivals.size(), 40000);
  for (std::size_t i = 0; i < replayed; ++i) {
    setup.queries.push_back(
        ReplayQuery{static_cast<double>(arrivals[i].offset_ns) * 1e-6,
                    arrivals[i].cls, arrivals[i].fanout});
  }
  setup.in_flight = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(kQueriesPerMs * mean(latency_us) * 1e-3)));
  setup.seed = options.seed;
  setup.path_ns_per_query = percentile(latency_us, 50.0) * 1e3;
  replay_layers(std::move(setup), report, trace);
}

}  // namespace

void run_live_workload(const RunOptions& options, Report& report,
                       TraceLog* trace) {
  if (options.workload == "net_open")
    run_backend<NetBackend>(options, report, trace);
  else
    run_backend<RuntimeBackend>(options, report, trace);
}

}  // namespace tailguard::e2e
