// Hot-path contracts of the simulator event loop:
//
//  * No steady-state mallocs: this binary overrides global operator new with
//    a counting wrapper and installs it as the common/alloc_probe.h hook, so
//    SimResult::event_loop_allocs reports real allocation counts. The loop's
//    structures are slab-pooled and pre-reserved, so the count must not
//    scale with the query count (amortized vector doublings only), with
//    the control-plane paths off or on (pow_d placement, streaming models,
//    admission, a network model, one shard or four synced ones); a warm
//    admission window allocates nothing.
//  * The query tracker stays bounded on a long-running service: its id
//    table drops the dead prefix instead of growing 4 bytes per query.
//  * A warm query front door (the runtime's and the dispatcher's shared
//    admit -> place -> register -> merge path) allocates only each query's
//    promise.
//  * The event set (sim/event_queue.h: a per-server completion calendar
//    merged with a 4-ary heap of network events) pops in exact (time, key)
//    order, checked against a sorted reference under randomized pushes of
//    all three kinds, cross-kind time ties, interleaved pops, a deep heap
//    and several cluster sizes.
//  * Batched same-timestamp completion draining is pure restructuring:
//    repeated runs of one config are bit-identical, with and without a
//    network model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <new>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/alloc_probe.h"
#include "common/rng.h"
#include "core/admission.h"
#include "core/cdf_model.h"
#include "core/query_tracker.h"
#include "dist/standard.h"
#include "shard/query_front_door.h"
#include "sim/event_queue.h"
#include "sim/experiment.h"
#include "sim/simulator.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

// Out of line, like the sized delete below: GCC 12 otherwise inlines the
// malloc into a caller and reports the delete as mismatched with it
// (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
// Out of line: GCC 12 inlines it next to an inlined operator new and then
// reports the malloc/free pair as mismatched (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace tailguard {
namespace {

std::uint64_t news_count() {
  return g_news.load(std::memory_order_relaxed);
}

struct ProbeInstaller {
  ProbeInstaller() { set_alloc_count_fn(&news_count); }
} g_installer;

SimConfig hot_config(std::size_t num_queries, std::uint64_t seed) {
  SimConfig cfg;
  cfg.num_servers = 20;
  cfg.policy = Policy::kTfEdf;
  cfg.classes = {{.slo_ms = 10.0, .percentile = 99.0}};
  cfg.fanout = std::make_shared<CategoricalFanout>(
      std::vector<std::uint32_t>{1, 4, 16},
      std::vector<double>{0.6, 0.3, 0.1});
  cfg.service_time = std::make_shared<Exponential>(1.0);
  cfg.num_queries = num_queries;
  cfg.seed = seed;
  return cfg;
}

/// Bit-exact fingerprint of everything a result reports; any scheduling
/// difference between two runs lands in at least the latency fields.
std::uint64_t fingerprint(const SimResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  const auto mix_d = [&](double d) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    __builtin_memcpy(&bits, &d, sizeof(bits));
    mix(bits);
  };
  mix(r.queries_offered);
  mix(r.queries_admitted);
  mix(r.tasks_admitted);
  mix_d(r.task_deadline_miss_ratio);
  mix_d(r.measured_utilization);
  mix_d(r.end_time);
  for (const auto& g : r.groups) {
    mix(g.cls);
    mix(g.fanout);
    mix(g.queries);
    mix_d(g.tail_latency_ms);
    mix_d(g.mean_latency_ms);
  }
  for (double u : r.server_utilization) mix_d(u);
  return h;
}

TEST(HotPathAlloc, ProbeCountsThisBinarysAllocations) {
  const std::uint64_t before = alloc_count();
  auto* sink = new std::vector<int>(16);
  delete sink;
  EXPECT_GT(alloc_count(), before);
}

TEST(HotPathAlloc, EventLoopAllocsDoNotScaleWithQueries) {
  SimConfig small = hot_config(10000, 3);
  set_load(small, 0.7);
  SimConfig big = hot_config(40000, 3);
  set_load(big, 0.7);
  const SimResult rs = run_simulation(small);
  const SimResult rb = run_simulation(big);
  // The loop processes ~3 events per query; per-event allocation would put
  // these counts in the tens of thousands and make the big run ~4x the
  // small one. Pre-reserved slabs leave only warmup-sized noise: amortized
  // doublings of under-estimated vectors, O(log n) of them.
  EXPECT_LT(rb.event_loop_allocs, 256u) << "event loop allocates per event";
  EXPECT_LT(rb.event_loop_allocs, rs.event_loop_allocs + 128u)
      << "event-loop allocations scale with the query count";
}

/// hot_config with the control-plane paths on: pow_d through
/// control.place(), streaming models re-inverted on every refresh,
/// admission, a network model and a sharded plane, one shard by default.
SimConfig control_path_config(
    std::size_t num_queries,
    ShardingOptions sharding = ShardingOptions{.num_shards = 1}) {
  SimConfig cfg = hot_config(num_queries, 3);
  cfg.classes = {{.slo_ms = 20.0, .percentile = 99.0}};
  cfg.estimation = EstimationMode::kOnlineFromSingleProfile;
  cfg.offline_seed_samples = 2000;
  cfg.placement_policy = PlacementPolicyOptions{
      .kind = PlacementPolicyKind::kPowerOfD, .power_d = 2};
  cfg.admission = AdmissionOptions{};
  cfg.sharding = sharding;
  cfg.dispatch_delay_ms = std::make_shared<Exponential>(0.02);
  cfg.result_delay_ms = std::make_shared<Exponential>(0.02);
  set_load(cfg, 0.7);
  return cfg;
}

TEST(HotPathAlloc, ControlPathEventLoopAllocsDoNotScaleWithQueries) {
  // The bounds of the default-path test above, with every query placed,
  // budgeted from streaming models, admitted and sent over a network model.
  const SimResult rs = run_simulation(control_path_config(10000));
  const SimResult rb = run_simulation(control_path_config(40000));
  EXPECT_LT(rb.event_loop_allocs, 256u) << "control path allocates per query";
  EXPECT_LT(rb.event_loop_allocs, rs.event_loop_allocs + 128u)
      << "control-path allocations scale with the query count";

  // Four shards synced every 5 ms: about 2,000 rounds in the big run. The
  // pending buffers grow once per shard and server (about 530 allocations)
  // and a round allocates nothing after that.
  const ShardingOptions sharded{.num_shards = 4, .sync_interval_ms = 5.0};
  const SimResult ss = run_simulation(control_path_config(10000, sharded));
  const SimResult sb = run_simulation(control_path_config(40000, sharded));
  EXPECT_GT(sb.shard_sync_rounds, 1000u);
  EXPECT_LT(sb.event_loop_allocs, 1024u) << "sync rounds allocate per round";
  EXPECT_LT(sb.event_loop_allocs, ss.event_loop_allocs + 128u)
      << "sharded allocations scale with the query count";
}

TEST(HotPathAlloc, WarmAdmissionWindowDoesNotAllocate) {
  // A 5 ms, 4,000-task window under phases of 1,000 and 250 dequeues per
  // simulated ms, so the count bound and the age bound take turns. Once the
  // ring has grown to the largest window it slides without allocating.
  AdmissionController window(
      AdmissionOptions{.window_tasks = 4000, .window_ms = 5.0});
  TimeMs now = 0.0;
  std::uint64_t admitted = 0;
  const auto dequeue = [&](std::uint64_t i) {
    now += (i / 50000) % 2 == 0 ? 1e-3 : 4e-3;
    window.record_task_dequeue(now, i % 50 == 0);
    if (i % 100 == 0) window.record_remote_dequeues(now, 7, 1);
    if (i % 10 == 0) admitted += window.should_admit(now) ? 1 : 0;
  };
  std::uint64_t i = 0;
  for (; i < 100000; ++i) dequeue(i);
  const std::uint64_t before = alloc_count();
  for (; i < 1100000; ++i) dequeue(i);
  EXPECT_EQ(alloc_count() - before, 0u) << "admission window allocates";
  // 3 misses in every 107 dequeues is over R_th = 1.7%: all rejected.
  EXPECT_NEAR(window.miss_ratio(now), 3.0 / 107.0, 0.002);
  EXPECT_EQ(admitted, 0u);
}

TEST(HotPathAlloc, QueryTrackerDoesNotGrowWithQueriesServed) {
  // A long-running service: 1M queries, at most 64 in flight. The id table
  // drops its dead prefix, so once warm the tracker allocates nothing —
  // without the trim it would keep doubling a 4-byte-per-query table.
  QueryTracker tracker;
  std::vector<QueryId> in_flight;
  in_flight.reserve(64);
  const auto cycle = [&](std::uint64_t i) {
    in_flight.push_back(tracker.begin_query(0.0, 0, 1, 1.0));
    // Complete out of order within the window, as live backends do.
    if (in_flight.size() == 64 || i % 3 == 0) {
      const std::size_t pick = (i * 7) % in_flight.size();
      EXPECT_TRUE(tracker.complete_task(in_flight[pick]));
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  };
  std::uint64_t i = 0;
  for (; i < 100000; ++i) cycle(i);  // warm-up: table and slab reach size
  const std::uint64_t before = alloc_count();
  for (; i < 1100000; ++i) cycle(i);
  const std::uint64_t allocs = alloc_count() - before;
  EXPECT_EQ(allocs, 0u) << "tracker allocations grow with queries served";
  EXPECT_LE(tracker.in_flight(), 64u);
  EXPECT_EQ(tracker.started(), 1100000u);
}

TEST(HotPathAlloc, WarmFrontDoorAllocatesOnlyThePromise) {
  // The live backends' per-query path: admit_and_place -> begin ->
  // finish_task, with admission on, an explicit target in every fifth query
  // and at most 64 queries in flight, completed out of order. Once warm, the
  // pending slots, placement scratch, tracker, budget cache and admission
  // window are all reused, so a query allocates only its promise's shared
  // state (which libstdc++ makes in two blocks: the state and its result).
  constexpr ServerId kServers = 8;
  std::vector<std::shared_ptr<CdfModel>> models;
  for (ServerId s = 0; s < kServers; ++s)
    models.push_back(std::make_shared<StreamingCdfModel>());
  ControlPlaneOptions options;
  options.classes = {{.slo_ms = 10.0, .percentile = 99.0}};
  // A window the warm-up fills: 5 simulated ms is ~1,250 dequeues here.
  options.admission = AdmissionOptions{.window_tasks = 4000, .window_ms = 5.0};
  std::uint64_t observed = 0;
  QueryFrontDoor door(options, models,
                      [&observed](std::span<const ServerId>) { ++observed; });
  const std::vector<double> profile(200, 1.0);
  for (ServerId s = 0; s < kServers; ++s)
    door.control().seed_profile(s, profile);

  struct Task {
    std::optional<ServerId> server;
  };
  struct InFlight {
    QueryId id = 0;
    std::uint32_t fanout = 0;
    std::future<QueryResult> future;
  };
  std::vector<Task> tasks;
  tasks.reserve(4);
  std::vector<InFlight> in_flight;
  in_flight.reserve(64);
  TimeMs now = 0.0;
  std::uint64_t merged = 0;
  const auto cycle = [&](std::uint64_t i) {
    now += 0.01;
    tasks.assign(1 + i % 4, Task{});
    if (i % 5 == 0) tasks[0].server = static_cast<ServerId>(i % kServers);
    std::vector<PlacementCandidate>& view = door.candidate_view();
    for (ServerId s = 0; s < kServers; ++s) view.emplace_back((i + s) % 3, s);
    const std::span<const ServerId> placed =
        door.admit_and_place(now, tasks, &Task::server);
    ASSERT_EQ(placed.size(), tasks.size());
    QueryFrontDoor::Begun begun =
        door.begin(now, 0, placed, /*budget_override=*/std::nullopt);
    in_flight.push_back(
        {begun.plan.id, begun.plan.fanout, std::move(begun.future)});
    if (in_flight.size() == 64 || i % 3 == 0) {
      const std::size_t pick = (i * 7) % in_flight.size();
      InFlight& q = in_flight[pick];
      std::optional<FinishedQuery> done;
      for (std::uint32_t t = 0; t < q.fanout; ++t) {
        ASSERT_FALSE(done.has_value());
        done = door.finish_task(q.id, now, now + 0.5, /*missed=*/false,
                                /*failed=*/false);
      }
      ASSERT_TRUE(done.has_value());
      done->promise.set_value(done->result);
      merged += q.future.get().fanout == q.fanout ? 1 : 0;
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  };
  std::uint64_t i = 0;
  for (; i < 20000; ++i) cycle(i);  // warm-up: scratch and tables reach size

  const std::uint64_t promise_allocs = [] {
    const std::uint64_t before = alloc_count();
    std::promise<QueryResult> promise;
    return alloc_count() - before;
  }();
  ASSERT_GE(promise_allocs, 1u);
  constexpr std::uint64_t kQueries = 10000;
  const std::uint64_t before = alloc_count();
  for (; i < 20000 + kQueries; ++i) cycle(i);
  const std::uint64_t allocs = alloc_count() - before;
  EXPECT_LE(allocs, kQueries * promise_allocs)
      << "the front door allocates more than each query's promise";
  EXPECT_EQ(observed, i);
  EXPECT_EQ(door.control().queries_rejected(), 0u);
  EXPECT_EQ(merged + in_flight.size(), i);
}

TEST(HotPathAlloc, NoHookMeansZeroReported) {
  set_alloc_count_fn(nullptr);
  SimConfig cfg = hot_config(2000, 5);
  set_load(cfg, 0.5);
  const SimResult r = run_simulation(cfg);
  EXPECT_EQ(r.event_loop_allocs, 0u);
  set_alloc_count_fn(&news_count);
}

TEST(EventQueue, PopsInExactTimeKeyOrder) {
  using sim_detail::Event;
  using sim_detail::EventQueue;
  constexpr int kRounds = 2000;
  constexpr std::size_t kDeepHeap = 1000;
  // 1 and 7 servers pad out their one 8-server calendar block, 20 part-fill
  // the last of three, 100 span 13 blocks for the block-minimum rescan, and
  // 513 and 1000 need more than one 64-block word of block-minimum matches.
  for (const std::size_t servers : {1u, 7u, 20u, 100u, 513u, 1000u}) {
    EventQueue queue(servers, 16);
    std::set<std::pair<TimeMs, std::uint64_t>> reference;
    std::vector<bool> busy(servers, false);
    std::size_t in_flight = 0;  // kTaskEnqueue + kResultArrival
    std::uint32_t next_payload = 0;
    Rng rng(servers);
    TimeMs now = 0.0;
    int round = 0;
    const auto check = [&] {
      ASSERT_EQ(queue.empty(), reference.empty())
          << servers << " servers, round " << round;
      if (!reference.empty()) {
        ASSERT_EQ(queue.peek_time(), reference.begin()->first)
            << servers << " servers, round " << round;
      }
    };
    // Times sit on a 0.25 ms grid from `now` on, so every kind ties with
    // the others and with `now`. As in the simulator, a server has at most
    // one kTaskDone pending; network events carry unique payloads.
    const auto push = [&](Event::Kind kind) {
      const TimeMs t = now + 0.25 * static_cast<double>(rng.uniform_index(6));
      const auto sid = static_cast<ServerId>(rng.uniform_index(servers));
      Event e;
      if (kind == Event::kTaskDone) {
        if (busy[sid]) return;
        busy[sid] = true;
        e = Event(t, kind, sid);
      } else {
        ++in_flight;
        e = Event(t, kind, sid, next_payload++);
      }
      queue.push(e);
      ASSERT_TRUE(reference.emplace(e.time, e.key).second);
      check();
    };
    for (; round <= kRounds; ++round) {
      // The middle third keeps at least kDeepHeap network events in flight,
      // so the heap sifts through several levels; the other rounds hold a
      // handful, as the simulator does. The last round drains the queue.
      const bool deep = round >= kRounds / 3 && round < 2 * kRounds / 3;
      const auto pushes = round < kRounds ? rng.uniform_index(servers + 1) : 0;
      for (std::uint64_t i = 0; i < pushes; ++i)
        push(static_cast<Event::Kind>(1 + rng.uniform_index(3)));
      // Beyond servers + kDeepHeap events, at least kDeepHeap are network
      // events, whatever the pops below take.
      const std::size_t keep = deep ? servers + kDeepHeap : 0;
      while (in_flight < keep)
        push(rng.uniform_index(2) == 0 ? Event::kTaskEnqueue
                                       : Event::kResultArrival);
      const std::size_t pops =
          round == kRounds ? reference.size()
                           : rng.uniform_index(reference.size() - keep + 1);
      for (std::size_t i = 0; i < pops; ++i) {
        const Event e = queue.pop();
        ASSERT_EQ(e.time, reference.begin()->first)
            << servers << " servers, round " << round;
        ASSERT_EQ(e.key, reference.begin()->second)
            << servers << " servers, round " << round;
        reference.erase(reference.begin());
        if (e.kind() == Event::kTaskDone) busy[e.server()] = false;
        else --in_flight;
        now = e.time;
        check();
      }
      if (HasFatalFailure()) return;
    }
    EXPECT_TRUE(queue.empty());
  }
}

TEST(BatchedCompletionParity, RerunsAreBitIdentical) {
  // Without a network model every event is a kTaskDone in the completion
  // calendar; with dispatch/result delays every timestamp also carries
  // kTaskEnqueue / kResultArrival payload events on the heap.
  for (const std::uint64_t seed : {1ULL, 7ULL, 13ULL}) {
    for (const double load : {0.3, 0.7, 0.95}) {
      SimConfig cfg = hot_config(8000, seed);
      set_load(cfg, load);
      EXPECT_EQ(fingerprint(run_simulation(cfg)),
                fingerprint(run_simulation(cfg)))
          << "seed " << seed << " load " << load;
      cfg.dispatch_delay_ms = std::make_shared<Deterministic>(0.05);
      cfg.result_delay_ms = std::make_shared<Deterministic>(0.05);
      EXPECT_EQ(fingerprint(run_simulation(cfg)),
                fingerprint(run_simulation(cfg)))
          << "network model, seed " << seed << " load " << load;
    }
  }
}

}  // namespace
}  // namespace tailguard
