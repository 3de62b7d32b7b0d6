// Tests for the multi-threaded runtime: worker semantics, service lifecycle,
// deadline bookkeeping, online CDF learning and admission under overload.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "common/check.h"
#include "runtime/service.h"

namespace tailguard {
namespace {

ServiceOptions basic_options(Policy policy = Policy::kTfEdf,
                             std::size_t workers = 4) {
  ServiceOptions opt;
  opt.num_workers = workers;
  opt.policy = policy;
  opt.classes = {{.slo_ms = 50.0, .percentile = 99.0},
                 {.slo_ms = 100.0, .percentile = 99.0}};
  return opt;
}

// -------------------------------------------------------------- worker

TEST(Worker, ExecutesSubmittedWork) {
  std::atomic<int> done{0};
  std::atomic<int> completions{0};
  {
    Worker w(
        0, Policy::kFifo, 1, [] { return 0.0; },
        [&](ServerId, const RuntimeTask&, TimeMs, TimeMs) { ++completions; });
    for (int i = 0; i < 10; ++i) {
      RuntimeTask t;
      t.id = static_cast<TaskId>(i);
      t.work = [&done] { ++done; };
      w.submit(std::move(t), 0.0, 0.0);
    }
  }  // destructor drains
  EXPECT_EQ(done.load(), 10);
  EXPECT_EQ(completions.load(), 10);
}

TEST(Worker, DrainsQueueOnShutdown) {
  std::atomic<int> done{0};
  Worker w(
      0, Policy::kTfEdf, 1, [] { return 0.0; },
      [&](ServerId, const RuntimeTask&, TimeMs, TimeMs) { ++done; });
  for (int i = 0; i < 50; ++i) {
    RuntimeTask t;
    t.id = static_cast<TaskId>(i);
    t.simulated_service_ms = 0.01;
    w.submit(std::move(t), 0.0, static_cast<TimeMs>(i));
  }
  w.shutdown();
  // Wait for the drain via destruction.
  while (done.load() < 50) std::this_thread::yield();
  EXPECT_EQ(done.load(), 50);
}

TEST(Worker, RejectsSubmitAfterShutdown) {
  Worker w(
      0, Policy::kFifo, 1, [] { return 0.0; },
      [](ServerId, const RuntimeTask&, TimeMs, TimeMs) {});
  w.shutdown();
  RuntimeTask t;
  EXPECT_THROW(w.submit(std::move(t), 0.0, 0.0), CheckFailure);
}

TEST(Worker, ConcurrentSubmitRacingShutdownDrainsExactlyOnce) {
  // Hammer submit from several threads while shutdown lands mid-stream:
  // every task submit() accepted must complete exactly once, every rejected
  // submit must throw, and nothing may be dropped or double-run. Run under
  // -DTG_SANITIZE=thread to have TSan check the locking discipline.
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> completions{0};
    std::atomic<int> accepted{0};
    {
      Worker w(
          0, Policy::kTfEdf, 1, [] { return 0.0; },
          [&](ServerId, const RuntimeTask&, TimeMs, TimeMs) { ++completions; });
      std::atomic<bool> go{false};
      std::vector<std::thread> submitters;
      for (int t = 0; t < 4; ++t) {
        submitters.emplace_back([&, t] {
          while (!go.load()) std::this_thread::yield();
          for (int i = 0; i < 100; ++i) {
            RuntimeTask task;
            task.id = static_cast<TaskId>(t * 1000 + i);
            try {
              w.submit(std::move(task), 0.0, static_cast<TimeMs>(i));
              ++accepted;
            } catch (const CheckFailure&) {
              break;  // shutdown won the race; all later submits would throw
            }
          }
        });
      }
      go.store(true);
      std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
      w.shutdown();
      for (auto& th : submitters) th.join();
    }  // destructor joins the worker thread after draining the queue
    EXPECT_EQ(completions.load(), accepted.load()) << "round " << round;
  }
}

TEST(Worker, QueueDepthCountsRingAndQueueAndDrainsToZero) {
  // queue_depth() spans both stages of the lock-free submit path (the MPSC
  // ring and the policy queue); after a blocked backlog is released and
  // drained it must return to exactly zero.
  std::atomic<bool> gate{false};
  std::atomic<int> done{0};
  Worker w(
      0, Policy::kTfEdf, 1, [] { return 0.0; },
      [&](ServerId, const RuntimeTask&, TimeMs, TimeMs) { ++done; });
  RuntimeTask blocker;
  blocker.id = 0;
  blocker.work = [&gate] {
    while (!gate.load()) std::this_thread::yield();
  };
  w.submit(std::move(blocker), 0.0, 0.0);
  while (w.queue_depth() != 0) std::this_thread::yield();  // blocker started
  for (int i = 1; i <= 20; ++i) {
    RuntimeTask t;
    t.id = static_cast<TaskId>(i);
    w.submit(std::move(t), 0.0, static_cast<TimeMs>(i));
  }
  EXPECT_EQ(w.queue_depth(), 20u);  // all parked behind the blocker
  gate.store(true);
  while (done.load() < 21) std::this_thread::yield();
  EXPECT_EQ(w.queue_depth(), 0u);
}

// -------------------------------------------------------------- service

TEST(Service, SingleQueryCompletes) {
  TailGuardService svc(basic_options());
  std::atomic<int> executed{0};
  std::vector<ServiceTaskSpec> tasks(3);
  for (auto& t : tasks) t.work = [&executed] { ++executed; };
  const QueryResult r = svc.submit(0, std::move(tasks)).get();
  EXPECT_TRUE(r.admitted);
  EXPECT_EQ(r.fanout, 3u);
  EXPECT_EQ(executed.load(), 3);
  EXPECT_GE(r.latency_ms, 0.0);
  EXPECT_EQ(svc.completed_queries(), 1u);
}

TEST(Service, ManyConcurrentQueriesAllComplete) {
  TailGuardService svc(basic_options(Policy::kTfEdf, 8));
  std::vector<std::future<QueryResult>> futures;
  for (int q = 0; q < 200; ++q) {
    std::vector<ServiceTaskSpec> tasks(1 + q % 8);
    for (auto& t : tasks) t.simulated_service_ms = 0.05;
    futures.push_back(svc.submit(q % 2, std::move(tasks)));
  }
  for (auto& f : futures) {
    const QueryResult r = f.get();
    EXPECT_TRUE(r.admitted);
  }
  EXPECT_EQ(svc.completed_queries(), 200u);
  EXPECT_EQ(svc.rejected_queries(), 0u);
}

TEST(Service, ConcurrentSubmittersMergeEveryQueryOnce) {
  // Four submitting threads share the one query handler: every query
  // resolves once, admitted, with its own fanout and its own id.
  TailGuardService svc(basic_options(Policy::kTfEdf, 4));
  constexpr int kPerThread = 100;
  std::vector<std::vector<QueryResult>> results(4);
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&svc, &results, t] {
      std::vector<std::future<QueryResult>> futures;
      for (int q = 0; q < kPerThread; ++q) {
        std::vector<ServiceTaskSpec> tasks(1 + (t + q) % 3);
        futures.push_back(svc.submit(q % 2, std::move(tasks)));
      }
      for (auto& f : futures) results[t].push_back(f.get());
    });
  }
  for (auto& th : submitters) th.join();
  std::set<QueryId> ids;
  for (int t = 0; t < 4; ++t) {
    for (int q = 0; q < kPerThread; ++q) {
      const QueryResult& r = results[t][q];
      EXPECT_TRUE(r.admitted);
      EXPECT_EQ(r.fanout, 1u + (t + q) % 3);
      ids.insert(r.id);
    }
  }
  EXPECT_EQ(ids.size(), 4u * kPerThread);
  EXPECT_EQ(svc.completed_queries(), 4u * kPerThread);
}

TEST(Service, ExplicitWorkerPlacementHonoured) {
  ServiceOptions opt = basic_options();
  TailGuardService svc(opt);
  std::atomic<std::thread::id> seen{};
  std::vector<ServiceTaskSpec> tasks(2);
  tasks[0].worker = 1;
  tasks[0].work = [] {};
  tasks[1].worker = 1;
  tasks[1].work = [] {};
  const QueryResult r = svc.submit(0, std::move(tasks)).get();
  EXPECT_TRUE(r.admitted);
  // Both tasks target worker 1: its model must have absorbed 2 observations.
  EXPECT_GE(
      static_cast<const StreamingCdfModel&>(*svc.worker_model(1)).observations(),
      2u);
}

TEST(Service, RejectsUnknownWorkerOrClass) {
  TailGuardService svc(basic_options());
  std::vector<ServiceTaskSpec> tasks(1);
  tasks[0].worker = 99;
  EXPECT_THROW(svc.submit(0, std::move(tasks)), CheckFailure);
  std::vector<ServiceTaskSpec> tasks2(1);
  EXPECT_THROW(svc.submit(7, std::move(tasks2)), CheckFailure);
  EXPECT_THROW(svc.submit(0, {}), CheckFailure);
}

TEST(Service, FanoutBeyondWorkersThrows) {
  TailGuardService svc(basic_options(Policy::kTfEdf, 2));
  std::vector<ServiceTaskSpec> tasks(3);  // > 2 workers, no explicit target
  EXPECT_THROW(svc.submit(0, std::move(tasks)), CheckFailure);
}

TEST(Service, ThrowingSubmitLeavesNoTrace) {
  // Validation comes before admission: a submit that throws must not count
  // as admitted or draw the proportional admission coin from the control
  // plane's Rng, which placement draws from too. A service that took one
  // must place every later query exactly like a fresh one.
  enum class Bad { kNone, kTarget, kFanout };
  const auto placements = [](Bad bad) {
    std::vector<std::vector<ServerId>> seen;
    ServiceOptions opt = basic_options(Policy::kTfEdf, 4);
    opt.seed = 7;
    opt.placement = {.kind = PlacementPolicyKind::kPowerOfD, .power_d = 2};
    opt.admission = AdmissionOptions{.mode = AdmissionMode::kProportional};
    opt.placement_observer = [&seen](std::span<const ServerId> servers) {
      seen.emplace_back(servers.begin(), servers.end());
    };
    TailGuardService svc(opt);
    svc.seed_profile(std::vector<double>(100, 1.0));  // no task runs late
    if (bad != Bad::kNone) {
      std::vector<ServiceTaskSpec> tasks(bad == Bad::kFanout ? 5 : 2);
      if (bad == Bad::kTarget) tasks[1].worker = 4;
      EXPECT_THROW(svc.submit(0, std::move(tasks)), CheckFailure);
    }
    for (int q = 0; q < 4; ++q) {
      std::vector<ServiceTaskSpec> tasks(2);
      EXPECT_TRUE(svc.submit(0, std::move(tasks)).get().admitted);
    }
    return seen;
  };
  const auto fresh = placements(Bad::kNone);
  ASSERT_EQ(fresh.size(), 4u);
  EXPECT_EQ(placements(Bad::kTarget), fresh);
  EXPECT_EQ(placements(Bad::kFanout), fresh);
}

TEST(Service, SeedProfileSetsBudgets) {
  ServiceOptions opt = basic_options();
  TailGuardService svc(opt);
  // Seed with ~constant 5 ms post-queuing times.
  std::vector<double> profile(2000, 5.0);
  svc.seed_profile(profile);
  std::vector<ServiceTaskSpec> tasks(2);
  for (auto& t : tasks) t.simulated_service_ms = 0.01;
  const QueryResult r = svc.submit(0, std::move(tasks)).get();
  // Budget = 50 - x99u(2 workers at ~5 ms) ~ 45 ms.
  EXPECT_NEAR(r.deadline_budget_ms, 45.0, 2.0);
}

TEST(Service, OnlineModelLearnsServiceTimes) {
  ServiceOptions opt = basic_options(Policy::kTfEdf, 2);
  TailGuardService svc(opt);
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 100; ++i) {
    std::vector<ServiceTaskSpec> tasks(2);
    for (auto& t : tasks) t.simulated_service_ms = 2.0;
    futures.push_back(svc.submit(0, std::move(tasks)));
  }
  for (auto& f : futures) f.get();
  // Each worker observed ~100 sleeps of ~2 ms; the learned median must be
  // in that vicinity (sleep overshoot makes it >= 2 ms).
  const auto model = svc.worker_model(0);
  EXPECT_GE(model->quantile(0.5), 1.5);
  EXPECT_LE(model->quantile(0.5), 20.0);
}

TEST(Service, WorkerModelSnapshotSafeDuringTraffic) {
  // Regression: worker_model() used to return a reference into the live
  // model, which completion callbacks keep mutating — a reader quantile()
  // racing a StreamingCdfModel refresh (caught by the thread-safety
  // annotation pass). It now deep-copies under the shard locks; the
  // snapshot must stay coherent while traffic pounds the live model.
  ServiceOptions opt = basic_options(Policy::kTfEdf, 2);
  TailGuardService svc(opt);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto snapshot = svc.worker_model(0);
      const double q50 = snapshot->quantile(0.5);
      const double q99 = snapshot->quantile(0.99);
      // A coherent CDF is monotone; a torn read would not be.
      EXPECT_LE(q50, q99);
    }
  });
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 200; ++i) {
    std::vector<ServiceTaskSpec> tasks(2);
    for (auto& t : tasks) t.simulated_service_ms = 0.05;
    futures.push_back(svc.submit(0, std::move(tasks)));
  }
  for (auto& f : futures) f.get();
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(svc.completed_queries(), 200u);
}

TEST(Service, OneSnapshotReadByFourThreadsDuringTraffic) {
  // Streaming lookups fill caches, so a live model needs its owner's lock
  // even for const calls; a worker_model() snapshot comes back with its
  // caches full, so many threads may read one copy at once. No thread
  // touches the readers' snapshot before they start (TSan would flag a
  // lookup that still filled a cache), and a second snapshot of the same
  // state gives the values they must all see.
  ServiceOptions opt = basic_options(Policy::kTfEdf, 2);
  TailGuardService svc(opt);
  std::vector<double> profile(500);
  for (std::size_t i = 0; i < profile.size(); ++i)
    profile[i] = 0.5 + 0.01 * static_cast<double>(i);
  svc.seed_profile(profile);
  const std::shared_ptr<const CdfModel> snapshot = svc.worker_model(0);
  const std::shared_ptr<const CdfModel> reference = svc.worker_model(0);
  std::vector<double> xs;
  std::vector<double> ps;
  for (int i = 0; i <= 64; ++i) {
    xs.push_back(0.05 * std::pow(1.08, i));
    ps.push_back(i / 64.0);
  }
  std::vector<double> want;
  for (double x : xs) want.push_back(reference->cdf(x));
  for (double p : ps) want.push_back(reference->quantile(p));

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      do {
        std::size_t k = 0;
        for (double x : xs) mismatches[t] += snapshot->cdf(x) != want[k++];
        for (double p : ps)
          mismatches[t] += snapshot->quantile(p) != want[k++];
      } while (!done.load(std::memory_order_acquire));
    });
  }
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 200; ++i) {
    std::vector<ServiceTaskSpec> tasks(2);
    for (auto& task : tasks) task.simulated_service_ms = 0.05;
    futures.push_back(svc.submit(0, std::move(tasks)));
  }
  for (auto& f : futures) f.get();
  done.store(true, std::memory_order_release);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(svc.completed_queries(), 200u);
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "reader " << t;
}

TEST(Service, DeadlineMissesTrackedUnderBacklog) {
  // One worker, tight SLO, long queue: later tasks must miss deadlines.
  ServiceOptions opt = basic_options(Policy::kTfEdf, 1);
  opt.classes = {{.slo_ms = 1.0, .percentile = 99.0}};
  TailGuardService svc(opt);
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 40; ++i) {
    std::vector<ServiceTaskSpec> tasks(1);
    tasks[0].simulated_service_ms = 1.0;
    futures.push_back(svc.submit(0, std::move(tasks)));
  }
  std::uint32_t missed = 0;
  for (auto& f : futures) missed += f.get().tasks_missed_deadline;
  EXPECT_GT(missed, 10u);
  EXPECT_GT(svc.deadline_miss_ratio(), 0.25);
}

TEST(Service, AdmissionRejectsUnderOverload) {
  ServiceOptions opt = basic_options(Policy::kTfEdf, 1);
  opt.classes = {{.slo_ms = 2.0, .percentile = 99.0}};
  opt.admission = AdmissionOptions{.window_tasks = 50,
                                   .window_ms = 200.0,
                                   .miss_ratio_threshold = 0.05};
  std::size_t observed = 0;
  opt.placement_observer = [&observed](std::span<const ServerId>) {
    ++observed;
  };
  TailGuardService svc(opt);
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 300; ++i) {
    std::vector<ServiceTaskSpec> tasks(1);
    tasks[0].simulated_service_ms = 1.0;
    futures.push_back(svc.submit(0, std::move(tasks)));
    // Pace submissions at ~2x the worker's capacity so the controller gets
    // to observe dequeues (and their deadline misses) while the overload is
    // still arriving.
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  std::size_t rejected = 0;
  for (auto& f : futures) rejected += !f.get().admitted;
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(svc.rejected_queries(), rejected);
  EXPECT_EQ(svc.completed_queries(), 300u - rejected);
  // Admission runs before placement: a rejected query is never placed or
  // observed.
  EXPECT_EQ(svc.placement_stats().decisions, 300u - rejected);
  EXPECT_EQ(observed, 300u - rejected);
}

TEST(Service, EdfOrderObservedUnderContention) {
  // Stall the single worker, enqueue a late-deadline query then an
  // early-deadline one; TF-EDFQ must run the earlier-deadline query first.
  ServiceOptions opt = basic_options(Policy::kTfEdf, 1);
  // Two classes with very different SLOs -> very different deadlines.
  opt.classes = {{.slo_ms = 1.0, .percentile = 99.0},
                 {.slo_ms = 10000.0, .percentile = 99.0}};
  TailGuardService svc(opt);

  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  std::vector<ServiceTaskSpec> blocker(1);
  blocker[0].work = [gate] { gate.wait(); };
  auto f0 = svc.submit(1, std::move(blocker));

  // Give the worker a moment to start the blocker so the next two queue up.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  std::vector<int> order;
  std::mutex order_mu;
  std::vector<ServiceTaskSpec> late(1), early(1);
  late[0].work = [&] {
    std::lock_guard l(order_mu);
    order.push_back(2);
  };
  early[0].work = [&] {
    std::lock_guard l(order_mu);
    order.push_back(1);
  };
  auto f_late = svc.submit(1, std::move(late));    // loose SLO
  auto f_early = svc.submit(0, std::move(early));  // tight SLO, queued later
  release.set_value();
  f_late.get();
  f_early.get();
  f0.get();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);  // tight-SLO query ran first despite arriving later
  EXPECT_EQ(order[1], 2);
}

TEST(Service, BudgetOverrideSetsDeadline) {
  TailGuardService svc(basic_options());
  std::vector<double> profile(1000, 5.0);
  svc.seed_profile(profile);
  std::vector<ServiceTaskSpec> tasks(2);
  for (auto& t : tasks) t.simulated_service_ms = 0.01;
  const QueryResult r = svc.submit(0, std::move(tasks), 12.5).get();
  EXPECT_NEAR(r.deadline_budget_ms, 12.5, 1e-9);
}

TEST(Service, DestructorDrainsInFlightQueries) {
  std::future<QueryResult> f;
  {
    TailGuardService svc(basic_options(Policy::kTfEdf, 2));
    std::vector<ServiceTaskSpec> tasks(2);
    for (auto& t : tasks) t.simulated_service_ms = 5.0;
    f = svc.submit(0, std::move(tasks));
  }  // service destroyed while query in flight
  const QueryResult r = f.get();  // must not hang or break the promise
  EXPECT_TRUE(r.admitted);
}

}  // namespace
}  // namespace tailguard
