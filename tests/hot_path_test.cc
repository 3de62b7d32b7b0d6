// Hot-path contracts of the simulator event loop:
//
//  * No steady-state mallocs: this binary overrides global operator new with
//    a counting wrapper and installs it as the common/alloc_probe.h hook, so
//    SimResult::event_loop_allocs reports real allocation counts. The loop's
//    structures are slab-pooled and pre-reserved, so the count must not
//    scale with the query count (amortized vector doublings only).
//  * The query tracker stays bounded on a long-running service: its id
//    table drops the dead prefix instead of growing 4 bytes per query.
//  * The event set's two backings (sim/event_queue.h) are interchangeable:
//    dense and heap pop the identical (time, key) sequence under randomized
//    pushes, time ties and interleaved pops at several cluster sizes.
//  * Batched same-timestamp completion draining is pure restructuring:
//    repeated runs of one config are bit-identical, with and without a
//    network model.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/alloc_probe.h"
#include "common/rng.h"
#include "core/query_tracker.h"
#include "dist/standard.h"
#include "sim/event_queue.h"
#include "sim/experiment.h"
#include "sim/simulator.h"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t size) {
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
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
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

TEST(HotPathAlloc, NoHookMeansZeroReported) {
  set_alloc_count_fn(nullptr);
  SimConfig cfg = hot_config(2000, 5);
  set_load(cfg, 0.5);
  const SimResult r = run_simulation(cfg);
  EXPECT_EQ(r.event_loop_allocs, 0u);
  set_alloc_count_fn(&news_count);
}

TEST(EventQueue, DenseAndHeapPopIdenticalSequences) {
  using sim_detail::Event;
  using sim_detail::EventQueue;
  constexpr int kRounds = 2000;
  // 1 and 7 servers pad out their one 8-server block, 20 part-fill the
  // last of three, 100 span 13 blocks for the block-minimum rescan.
  for (const std::size_t servers : {1u, 7u, 20u, 100u}) {
    EventQueue dense(0, servers);
    EventQueue heap(servers, 0);
    std::vector<bool> busy(servers, false);
    std::size_t pending = 0;
    Rng rng(servers);
    TimeMs now = 0.0;
    for (int round = 0; round <= kRounds; ++round) {
      // As in the simulator, dense holds at most one kTaskDone per server,
      // so only idle servers get an event. Times sit on a 0.25 ms grid from
      // `now` on: ties, with each other and with `now`, are common.
      const auto pushes = round < kRounds ? rng.uniform_index(servers + 1) : 0;
      for (std::uint64_t i = 0; i < pushes && pending < servers; ++i) {
        auto sid = static_cast<ServerId>(rng.uniform_index(servers));
        while (busy[sid]) sid = static_cast<ServerId>((sid + 1) % servers);
        busy[sid] = true;
        ++pending;
        const Event e(now + 0.25 * static_cast<double>(rng.uniform_index(6)),
                      Event::kTaskDone, sid);
        dense.push(e);
        heap.push(e);
      }
      // The last round drains both.
      const auto pops =
          round < kRounds ? rng.uniform_index(pending + 1) : pending;
      for (std::uint64_t i = 0; i < pops; ++i) {
        ASSERT_EQ(dense.peek_time(), heap.peek_time()) << servers;
        const Event a = dense.pop();
        const Event b = heap.pop();
        ASSERT_EQ(a.time, b.time) << servers << " servers, round " << round;
        ASSERT_EQ(a.key, b.key) << servers << " servers, round " << round;
        busy[a.server()] = false;
        --pending;
        now = a.time;
      }
      ASSERT_EQ(dense.empty(), heap.empty());
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(BatchedCompletionParity, RerunsAreBitIdentical) {
  // Without a network model the run uses the dense event set; with
  // dispatch/result delays every timestamp also carries kTaskEnqueue /
  // kResultArrival payload events on the heap.
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
