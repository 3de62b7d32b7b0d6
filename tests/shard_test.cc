// Tests for the sharded control plane (shard/): router purity and coverage,
// per-shard seed substreams, strided query-id allocation, delta-sync
// exactly-once semantics (collect/absorb/dedup, no echo amplification),
// weighted admission merging, load-gauge gossip, and the two determinism
// contracts — shard=1 bit-parity with the unsharded simulator and
// reproducibility at any shard count.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/admission.h"
#include "core/cdf_model.h"
#include "dist/standard.h"
#include "shard/router.h"
#include "shard/sharded_control_plane.h"
#include "shard/state_sync.h"
#include "sim/experiment.h"
#include "sim/simulator.h"

namespace tailguard {
namespace {

// ------------------------------------------------------------------ router

TEST(ShardRouter, PureInRangeAndStable) {
  for (const RouterKind kind :
       {RouterKind::kHash, RouterKind::kRoundRobin, RouterKind::kClassAffinity}) {
    const auto router = make_router(kind);
    EXPECT_EQ(router->kind(), kind);
    for (std::uint64_t key = 0; key < 200; ++key) {
      const std::uint32_t first = router->route(key, key % 3, 4);
      EXPECT_LT(first, 4u);
      // Pure function of (key, cls, num_shards): no internal state drift.
      EXPECT_EQ(router->route(key, key % 3, 4), first);
    }
  }
}

TEST(ShardRouter, RoundRobinAndClassAffinityAreModular) {
  const auto rr = make_router(RouterKind::kRoundRobin);
  const auto ca = make_router(RouterKind::kClassAffinity);
  for (std::uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(rr->route(key, 2, 5), key % 5);
    EXPECT_EQ(ca->route(key, 2, 5), 2u % 5);
    EXPECT_EQ(ca->route(key, 7, 5), 7u % 5);
  }
}

TEST(ShardRouter, HashCoversEveryShard) {
  const auto router = make_router(RouterKind::kHash);
  std::set<std::uint32_t> seen;
  for (std::uint64_t key = 0; key < 1000; ++key)
    seen.insert(router->route(key, 0, 8));
  EXPECT_EQ(seen.size(), 8u);
}

// ------------------------------------------------------------------- seeds

TEST(ShardSeeds, ShardZeroKeepsBaseSeed) {
  // The shard=1 parity invariant hinges on this: shard 0 must draw from the
  // exact stream an unsharded control plane would.
  EXPECT_EQ(shard_substream_seed(42, 0), 42u);
  EXPECT_EQ(shard_substream_seed(0xdeadbeef, 0), 0xdeadbeefULL);
}

TEST(ShardSeeds, SubstreamsAreDistinctAndDeterministic) {
  std::set<std::uint64_t> seeds;
  for (std::uint32_t shard = 0; shard < 16; ++shard) {
    const std::uint64_t s = shard_substream_seed(42, shard);
    EXPECT_EQ(s, shard_substream_seed(42, shard));
    seeds.insert(s);
  }
  EXPECT_EQ(seeds.size(), 16u);
}

// ------------------------------------------------------------- facade unit

std::vector<std::shared_ptr<CdfModel>> fixed_models(std::size_t n,
                                                    double value_ms) {
  std::vector<std::shared_ptr<CdfModel>> models;
  models.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    models.push_back(std::make_shared<DistributionCdfModel>(
        std::make_shared<Deterministic>(value_ms)));
  return models;
}

std::vector<std::shared_ptr<CdfModel>> streaming_models(std::size_t n) {
  std::vector<std::shared_ptr<CdfModel>> models;
  for (std::size_t i = 0; i < n; ++i)
    models.push_back(std::make_shared<StreamingCdfModel>());
  return models;
}

ControlPlaneOptions one_class_options() {
  ControlPlaneOptions options;
  options.classes = {{.slo_ms = 20.0, .percentile = 99.0}};
  return options;
}

TEST(ShardedControlPlane, StridedQueryIdsRecoverOwningShard) {
  ShardedControlPlane cp(ShardingOptions{.num_shards = 2},
                         one_class_options(), fixed_models(4, 5.0));
  const std::vector<ServerId> servers = {0, 1};
  // Shard i of N hands out ids i, i + N, i + 2N, ...
  EXPECT_EQ(cp.begin_query(0, 0.0, 0, servers).id, 0u);
  EXPECT_EQ(cp.begin_query(1, 0.0, 0, servers).id, 1u);
  EXPECT_EQ(cp.begin_query(0, 1.0, 0, servers).id, 2u);
  EXPECT_EQ(cp.begin_query(1, 1.0, 0, servers).id, 3u);
  EXPECT_EQ(cp.shard_of(2), 0u);
  EXPECT_EQ(cp.shard_of(3), 1u);
  EXPECT_EQ(cp.in_flight(), 4u);
  EXPECT_EQ(cp.queries_started(), 4u);
}

TEST(ShardedControlPlane, SingleShardRoutesEverythingToZero) {
  ShardedControlPlane cp(ShardingOptions{}, one_class_options(),
                         fixed_models(2, 5.0));
  EXPECT_EQ(cp.num_shards(), 1u);
  EXPECT_FALSE(cp.sync_enabled());
  for (std::uint64_t key = 0; key < 32; ++key)
    EXPECT_EQ(cp.route(key, 0), 0u);
  EXPECT_EQ(cp.shard_of(12345), 0u);
}

TEST(ShardedControlPlane, ShardsBudgetIndependentlyFromClonedModels) {
  // Both shards start from clones of the same 5 ms deterministic profile, so
  // Eq. 6 gives the same budget on each before any drift.
  ShardedControlPlane cp(
      ShardingOptions{.num_shards = 2, .sync_interval_ms = 10.0},
      one_class_options(), fixed_models(3, 5.0));
  const std::vector<ServerId> servers = {0, 2};
  EXPECT_DOUBLE_EQ(cp.budget(0, 0, servers), 15.0);
  EXPECT_DOUBLE_EQ(cp.budget(1, 0, servers), 15.0);
}

// -------------------------------------------------------------- delta sync

ShardedControlPlane two_shard_plane(double sync_ms = 10.0,
                                    std::size_t sample_cap = 256) {
  return ShardedControlPlane(
      ShardingOptions{.num_shards = 2,
                      .sync_interval_ms = sync_ms,
                      .max_sync_samples_per_server = sample_cap},
      one_class_options(), streaming_models(3));
}

std::uint64_t observations_of(const ShardedControlPlane& cp,
                              std::uint32_t shard, ServerId server) {
  return static_cast<const StreamingCdfModel&>(cp.model_of(shard, server))
      .observations();
}

TEST(ShardedControlPlane, CollectDeltaConsumesPendingState) {
  auto cp = two_shard_plane();
  cp.observe_post_queuing_on(0, /*server=*/1, 4.0);
  cp.observe_post_queuing_on(0, /*server=*/1, 6.0);

  ShardDelta delta = cp.collect_delta(0);
  EXPECT_EQ(delta.origin, 0u);
  EXPECT_EQ(delta.seq, 1u);
  ASSERT_EQ(delta.servers.size(), 1u);
  EXPECT_EQ(delta.servers[0].server, 1u);
  EXPECT_EQ(delta.servers[0].samples_ms, (std::vector<double>{4.0, 6.0}));

  // Pending state is consumed: the next delta is empty, with seq advanced.
  const ShardDelta again = cp.collect_delta(0);
  EXPECT_TRUE(again.empty());
  EXPECT_EQ(again.seq, 2u);
}

TEST(ShardedControlPlane, AbsorbAppliesOnceAndDedupsRedelivery) {
  auto cp = two_shard_plane();
  for (int i = 0; i < 10; ++i) cp.observe_post_queuing_on(0, 0, 1.0 + i);
  const ShardDelta delta = cp.collect_delta(0);

  ASSERT_TRUE(cp.absorb_remote_delta(1, delta, /*now=*/5.0));
  EXPECT_EQ(observations_of(cp, 1, 0), 10u);

  // Redelivery of the same (origin, seq) must be dropped, not re-applied.
  EXPECT_FALSE(cp.absorb_remote_delta(1, delta, 6.0));
  EXPECT_EQ(observations_of(cp, 1, 0), 10u);
  EXPECT_EQ(cp.sync_stats().duplicates_dropped, 1u);
}

TEST(ShardedControlPlane, AbsorbedSamplesAreNeverRebroadcast) {
  // Echo amplification guard: what shard 1 absorbed from shard 0 must not
  // appear in shard 1's own next outbound delta.
  auto cp = two_shard_plane();
  cp.observe_post_queuing_on(0, 0, 3.0);
  ASSERT_TRUE(cp.absorb_remote_delta(1, cp.collect_delta(0), 1.0));
  const ShardDelta out = cp.collect_delta(1);
  EXPECT_TRUE(out.empty());
}

TEST(ShardedControlPlane, SyncRoundSpreadsSamplesToAllShards) {
  auto cp = two_shard_plane();
  for (int i = 0; i < 8; ++i) cp.observe_post_queuing_on(0, 2, 2.0);
  EXPECT_EQ(observations_of(cp, 1, 2), 0u);
  cp.sync_now(10.0);
  EXPECT_EQ(observations_of(cp, 1, 2), 8u);
  // Each shard keeps counting its own observations exactly once.
  EXPECT_EQ(observations_of(cp, 0, 2), 8u);
  EXPECT_EQ(cp.sync_stats().rounds, 1u);
  EXPECT_EQ(cp.sync_stats().samples_shipped, 8u);

  // A second round with nothing new ships nothing.
  cp.sync_now(20.0);
  EXPECT_EQ(observations_of(cp, 1, 2), 8u);
  EXPECT_EQ(cp.sync_stats().samples_shipped, 8u);
}

TEST(ShardedControlPlane, SampleCapThinsDeterministically) {
  auto cp = two_shard_plane(/*sync_ms=*/10.0, /*sample_cap=*/4);
  for (int i = 0; i < 10; ++i) cp.observe_post_queuing_on(0, 0, 1.0 * i);
  const ShardDelta delta = cp.collect_delta(0);
  ASSERT_EQ(delta.servers.size(), 1u);
  EXPECT_EQ(delta.servers[0].samples_ms.size(), 4u);
  EXPECT_EQ(delta.servers[0].samples_dropped, 6u);
}

TEST(ShardedControlPlane, MaybeSyncHonoursIntervalBoundaries) {
  auto cp = two_shard_plane(/*sync_ms=*/10.0);
  EXPECT_DOUBLE_EQ(cp.next_sync_at(), 10.0);
  EXPECT_FALSE(cp.maybe_sync(9.99));
  cp.observe_post_queuing_on(0, 0, 1.0);
  EXPECT_TRUE(cp.maybe_sync(10.0));
  EXPECT_DOUBLE_EQ(cp.next_sync_at(), 20.0);
  // Skipping several intervals re-arms past `now`, not one-per-interval.
  cp.observe_post_queuing_on(0, 0, 1.0);
  EXPECT_TRUE(cp.maybe_sync(57.0));
  EXPECT_DOUBLE_EQ(cp.next_sync_at(), 60.0);
}

TEST(ShardedControlPlane, RemoteDequeuesFeedAdmissionWindowOnly) {
  ControlPlaneOptions options = one_class_options();
  options.admission = AdmissionOptions{};
  ShardedControlPlane cp(
      ShardingOptions{.num_shards = 2, .sync_interval_ms = 10.0}, options,
      streaming_models(2));
  // Shard 0 records local misses; a sync round must move the admission
  // signal to shard 1 without touching shard 1's per-class task tallies.
  const std::vector<ServerId> servers = {0};
  for (int i = 0; i < 40; ++i) {
    const QueryPlan plan = cp.begin_query(0, 0.0, 0, servers);
    cp.record_task_dequeue(plan.id, 1.0, 0, /*missed=*/true);
    cp.complete_task(plan.id);
  }
  cp.sync_now(5.0);
  EXPECT_GT(cp.admission_miss_ratio(1, 5.0), 0.0);
  // Global per-class accounting still counts each task exactly once.
  EXPECT_EQ(cp.tasks_recorded(), 40u);
  EXPECT_EQ(cp.tasks_missed(), 40u);
}

// ---------------------------------------------------------- dedup and bus

TEST(DeltaDedup, AcceptsStrictlyNewerSeqPerOrigin) {
  DeltaDedup dedup;
  EXPECT_TRUE(dedup.accept(0, 1));
  EXPECT_FALSE(dedup.accept(0, 1));
  EXPECT_TRUE(dedup.accept(0, 3));
  EXPECT_FALSE(dedup.accept(0, 2));  // late arrival below the high-water mark
  EXPECT_TRUE(dedup.accept(1, 1));   // origins are independent
  EXPECT_EQ(dedup.duplicates_dropped(), 2u);
}

TEST(StateSyncBus, BroadcastsToEveryShardExceptOrigin) {
  StateSyncBus bus(3);
  ShardDelta delta;
  delta.origin = 1;
  delta.seq = 1;
  delta.dequeues_recorded = 5;
  bus.publish(delta);
  EXPECT_TRUE(bus.drain(1).empty());
  const auto for_0 = bus.drain(0);
  const auto for_2 = bus.drain(2);
  ASSERT_EQ(for_0.size(), 1u);
  ASSERT_EQ(for_2.size(), 1u);
  EXPECT_EQ(for_0[0], delta);
  // Drain empties the inbox.
  EXPECT_TRUE(bus.drain(0).empty());
  EXPECT_EQ(bus.deltas_published(), 1u);
  EXPECT_EQ(bus.deltas_delivered(), 2u);
}

TEST(StateSyncBus, InboxesAreFifo) {
  StateSyncBus bus(2);
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    ShardDelta delta;
    delta.origin = 0;
    delta.seq = seq;
    delta.dequeues_recorded = seq;
    bus.publish(delta);
  }
  const auto inbox = bus.drain(1);
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_EQ(inbox[0].seq, 1u);
  EXPECT_EQ(inbox[2].seq, 3u);
}

// ------------------------------------------------- weighted admission merge

TEST(Admission, RemoteDeltaMatchesLocalDequeueStream) {
  // absorb_remote_dequeues(now, k, m) must move the miss ratio exactly as k
  // individual record_task_dequeue calls at the same timestamp would.
  AdmissionController local{AdmissionOptions{}};
  AdmissionController merged{AdmissionOptions{}};
  for (int i = 0; i < 30; ++i) local.record_task_dequeue(1.0, i % 3 == 0);
  merged.record_remote_dequeues(1.0, 30, 10);
  EXPECT_DOUBLE_EQ(local.miss_ratio(2.0), merged.miss_ratio(2.0));
  EXPECT_EQ(local.should_admit(2.0, 0.5), merged.should_admit(2.0, 0.5));
}

// ----------------------------------------------------- sim-level contracts

SimConfig sharded_sim_config() {
  SimConfig cfg;
  cfg.num_servers = 12;
  cfg.policy = Policy::kTfEdf;
  cfg.classes = {{.slo_ms = 10.0, .percentile = 99.0}};
  cfg.fanout = std::make_shared<CategoricalFanout>(
      std::vector<std::uint32_t>{1, 4}, std::vector<double>{0.7, 0.3});
  cfg.service_time = std::make_shared<Exponential>(1.0);
  cfg.num_queries = 8000;
  cfg.seed = 42;
  // Online updating: post-queuing observations flow, so sync rounds actually
  // ship samples between shards.
  cfg.estimation = EstimationMode::kOnlineStreaming;
  set_load(cfg, 0.6);
  return cfg;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.queries_offered, b.queries_offered);
  EXPECT_EQ(a.queries_admitted, b.queries_admitted);
  EXPECT_EQ(a.queries_rejected, b.queries_rejected);
  EXPECT_EQ(a.task_deadline_miss_ratio, b.task_deadline_miss_ratio);
  EXPECT_EQ(a.measured_utilization, b.measured_utilization);
  EXPECT_EQ(a.end_time, b.end_time);
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (std::size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].queries, b.groups[i].queries);
    EXPECT_EQ(a.groups[i].tail_latency_ms, b.groups[i].tail_latency_ms);
    EXPECT_EQ(a.groups[i].mean_latency_ms, b.groups[i].mean_latency_ms);
  }
}

TEST(ShardedSim, OneShardNoSyncIsBitIdenticalToUnsharded) {
  // The parity invariant behind the fig4/fig5 md5 check: shard=1 with sync
  // disabled must not perturb a single double anywhere in the result.
  SimConfig plain = sharded_sim_config();
  SimConfig sharded = sharded_sim_config();
  sharded.sharding = ShardingOptions{.num_shards = 1, .sync_interval_ms = 0.0};
  const SimResult a = run_simulation(plain);
  const SimResult b = run_simulation(sharded);
  EXPECT_EQ(b.shards, 1u);
  EXPECT_EQ(b.shard_sync_rounds, 0u);
  expect_identical(a, b);
}

TEST(ShardedSim, FourShardsAreReproducible) {
  SimConfig cfg = sharded_sim_config();
  cfg.sharding = ShardingOptions{.num_shards = 4, .sync_interval_ms = 5.0};
  const SimResult a = run_simulation(cfg);
  const SimResult b = run_simulation(cfg);
  EXPECT_EQ(a.shards, 4u);
  EXPECT_GT(a.shard_sync_rounds, 0u);
  EXPECT_GT(a.shard_samples_shipped, 0u);
  expect_identical(a, b);
  EXPECT_EQ(a.shard_sync_rounds, b.shard_sync_rounds);
  EXPECT_EQ(a.shard_samples_shipped, b.shard_samples_shipped);
}

TEST(ShardedSim, AllWorkIsCountedExactlyOnceAcrossShards) {
  SimConfig cfg = sharded_sim_config();
  cfg.sharding = ShardingOptions{.num_shards = 4, .sync_interval_ms = 5.0};
  const SimResult r = run_simulation(cfg);
  EXPECT_EQ(r.queries_offered, cfg.num_queries);
  EXPECT_EQ(r.queries_admitted, cfg.num_queries);
  std::uint64_t recorded = 0;
  for (const auto& g : r.groups) recorded += g.queries;
  // Post-warmup queries are recorded once, never per-shard.
  EXPECT_NEAR(static_cast<double>(recorded),
              0.9 * static_cast<double>(cfg.num_queries),
              0.03 * static_cast<double>(cfg.num_queries));
}

}  // namespace
}  // namespace tailguard
