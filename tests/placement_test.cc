// Tests for the pluggable placement subsystem (core/placement/):
//
//   * least_loaded is bit-identical to the free-function picker it absorbed
//     (same picks, same Rng stream), kept below as the test oracle;
//   * pow_d is bit-identical to its full-scan form, which refilled an n-entry
//     index on every call (the second oracle below); it is deterministic
//     for a fixed seed, distinct while possible, and degenerates to a
//     global least-loaded scan at d >= n;
//   * neither policy writes to the caller's candidates;
//   * the control plane exposes the per-policy counters;
//   * in-place percentile selection never perturbs the means computed
//     before it (floating-point sums are order-sensitive) and matches the
//     copying percentile exactly;
//   * the three execution backends produce the identical placement sequence
//     under pow_d with a shared seed — the cross-backend parity contract
//     extended to placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/placement/policy.h"
#include "dist/standard.h"
#include "net/dispatcher.h"
#include "net/task_server.h"
#include "runtime/service.h"
#include "shard/sharded_control_plane.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "workloads/trace.h"

namespace tailguard {
namespace {

std::vector<std::shared_ptr<CdfModel>> fixed_models(std::size_t n,
                                                    double value_ms) {
  std::vector<std::shared_ptr<CdfModel>> models;
  models.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    models.push_back(std::make_shared<DistributionCdfModel>(
        std::make_shared<Deterministic>(value_ms)));
  return models;
}

ControlPlaneOptions plane_options(PlacementPolicyKind kind,
                                  std::uint64_t seed = 42) {
  ControlPlaneOptions options;
  options.policy = Policy::kTfEdf;
  options.classes = {{.slo_ms = 20.0, .percentile = 99.0}};
  options.placement.kind = kind;
  options.seed = seed;
  return options;
}

// The least-loaded picker as it stood before LeastLoadedPolicy absorbed it:
// the oracle the policy must match pick for pick and draw for draw.
std::vector<ServerId> pick_least_loaded(
    std::vector<PlacementCandidate> candidates, std::size_t count, Rng& rng) {
  if (count == 0) return {};
  TG_CHECK_MSG(!candidates.empty(), "placement needs at least one candidate");
  // Random tie-break: scale the load so the random component never reorders
  // genuinely different loads.
  for (auto& [load, id] : candidates)
    load = load * candidates.size() + rng.uniform_index(candidates.size());
  std::sort(candidates.begin(), candidates.end());
  std::vector<ServerId> picked;
  picked.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    picked.push_back(candidates[i % candidates.size()].second);
  return picked;
}

// PowerOfDPolicy::place as it stood when every call refilled its n-entry
// index: the oracle the policy must match pick for pick, return value for
// return value and draw for draw. The loop is verbatim; `avail_` became a
// local.
std::size_t power_of_d_full_scan(
    const std::vector<PlacementCandidate>& candidates, std::size_t d_,
    std::size_t count, Rng& rng, std::vector<ServerId>& out) {
  std::vector<std::size_t> avail_;
  out.clear();
  if (count == 0) return 0;
  TG_CHECK_MSG(!candidates.empty(), "placement needs at least one candidate");
  out.reserve(count);
  avail_.clear();
  std::size_t examined = 0;
  for (std::size_t pick = 0; pick < count; ++pick) {
    // Distinct while possible: once every candidate has been picked once,
    // refill and go around again (count > n reuse, as in least_loaded).
    if (avail_.empty()) {
      avail_.resize(candidates.size());
      std::iota(avail_.begin(), avail_.end(), std::size_t{0});
    }
    // Sample d distinct candidates via a partial Fisher–Yates over the
    // still-unpicked indices; keep the least loaded (first-sampled wins
    // ties, and sampling order is random, so ties break uniformly).
    const std::size_t d_eff = std::min(d_, avail_.size());
    std::size_t best = 0;
    for (std::size_t j = 0; j < d_eff; ++j) {
      const std::size_t swap_with =
          j + static_cast<std::size_t>(rng.uniform_index(avail_.size() - j));
      std::swap(avail_[j], avail_[swap_with]);
      if (candidates[avail_[j]].first < candidates[avail_[best]].first)
        best = j;
    }
    examined += d_eff;
    out.push_back(candidates[avail_[best]].second);
    avail_[best] = avail_.back();
    avail_.pop_back();
  }
  return examined;
}

std::vector<PlacementCandidate> random_candidates(std::size_t n, Rng& rng) {
  std::vector<PlacementCandidate> candidates;
  candidates.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    candidates.emplace_back(rng.uniform_index(5), static_cast<ServerId>(i));
  return candidates;
}

// ------------------------------------------------------------ least_loaded

TEST(PlacementPolicy, LeastLoadedBitIdenticalToRawPicker) {
  // Same candidates, same seed: the policy must produce the same picks AND
  // leave the Rng in the same state (the sim's bit-parity contract hinges on
  // identical draw counts).
  Rng fill(7);
  for (std::size_t count : {0u, 1u, 3u, 5u, 9u}) {
    const auto candidates = random_candidates(6, fill);
    Rng raw_rng(123), policy_rng(123);
    const auto raw = pick_least_loaded(candidates, count, raw_rng);

    LeastLoadedPolicy policy;
    auto view = candidates;
    std::vector<ServerId> out;
    const std::size_t examined = policy.place(view, count, policy_rng, out);

    EXPECT_EQ(out, raw) << "count=" << count;
    EXPECT_EQ(view, candidates)
        << "the policy wrote to the caller's candidates, count=" << count;
    EXPECT_EQ(examined, count == 0 ? 0u : candidates.size());
    EXPECT_EQ(raw_rng.uniform_index(1u << 20), policy_rng.uniform_index(1u << 20))
        << "Rng streams diverged at count=" << count;
  }
}

TEST(PlacementPolicy, ControlPlaneDefaultPlaceMatchesRawPicker) {
  // The control plane's place() under the default policy is the pre-refactor
  // place_least_loaded, draw for draw.
  const std::uint64_t seed = 99;
  ShardedControlPlane cp({},
                         plane_options(PlacementPolicyKind::kLeastLoaded, seed),
                         fixed_models(4, 5.0));
  EXPECT_EQ(cp.placement_kind(), PlacementPolicyKind::kLeastLoaded);

  Rng reference(seed);
  Rng fill(11);
  for (int round = 0; round < 5; ++round) {
    const auto candidates = random_candidates(4, fill);
    EXPECT_EQ(cp.place(0, candidates, 2),
              pick_least_loaded(candidates, 2, reference))
        << "round " << round;
  }
  EXPECT_EQ(cp.placement_stats().decisions, 5u);
  EXPECT_EQ(cp.placement_stats().candidates_considered, 20u);
}

// ------------------------------------------------------------------ pow_d

TEST(PlacementPolicy, PowerOfDDeterministicForFixedSeed) {
  const auto run = [](std::uint64_t seed) {
    PowerOfDPolicy policy(2);
    Rng rng(seed);
    Rng fill(3);
    std::vector<std::vector<ServerId>> sequence;
    for (int q = 0; q < 50; ++q) {
      auto candidates = random_candidates(8, fill);
      std::vector<ServerId> out;
      policy.place(candidates, 3, rng, out);
      sequence.push_back(out);
    }
    return sequence;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6)) << "different seeds should explore differently";
}

TEST(PlacementPolicy, PowerOfDMatchesFullScanOracle) {
  // The policy keeps its index at the identity between calls and resets
  // only what a call moved. Each call here draws n in [1, 120] and a count
  // in [0, 3n + 1], so most calls go around the candidates and refill at
  // least once. One policy object per d sees n change from call to call,
  // as the dispatcher's view does when daemons drop out and come back;
  // d = n + 3 samples every unpicked candidate.
  constexpr int kCalls = 20000;
  Rng fill(31);
  Rng policy_rng(57), oracle_rng(57);
  std::map<std::size_t, PowerOfDPolicy> policies;  // by d
  std::vector<ServerId> out, expected;
  for (int call = 0; call < kCalls; ++call) {
    const std::size_t n = 1 + fill.uniform_index(120);
    const std::size_t ds[] = {1, 2, 3, 7, n + 3};
    const std::size_t d = ds[fill.uniform_index(5)];
    const std::size_t count = fill.uniform_index(3 * n + 2);
    // Few distinct loads, so ties are common; ids are not the indices.
    std::vector<PlacementCandidate> candidates;
    for (std::size_t i = 0; i < n; ++i)
      candidates.emplace_back(fill.uniform_index(4),
                              static_cast<ServerId>(1000 + 7 * i));
    const auto pristine = candidates;

    PowerOfDPolicy& policy = policies.try_emplace(d, d).first->second;
    const std::size_t examined =
        policy.place(candidates, count, policy_rng, out);
    const std::size_t oracle_examined =
        power_of_d_full_scan(candidates, d, count, oracle_rng, expected);

    const auto where = [&] {
      return ::testing::Message() << "call " << call << ": n=" << n
                                  << " d=" << d << " count=" << count;
    };
    ASSERT_EQ(out, expected) << where();
    ASSERT_EQ(examined, oracle_examined) << where();
    ASSERT_EQ(policy_rng.uniform_index(1u << 20),
              oracle_rng.uniform_index(1u << 20))
        << "Rng streams diverged, " << where();
    ASSERT_EQ(candidates, pristine) << where();
  }
}

TEST(PlacementPolicy, PowerOfDPicksAreDistinctWhilePossible) {
  PowerOfDPolicy policy(2);
  Rng rng(17);
  for (int round = 0; round < 20; ++round) {
    std::vector<PlacementCandidate> candidates;
    for (std::size_t i = 0; i < 5; ++i)
      candidates.emplace_back(1, static_cast<ServerId>(i));
    std::vector<ServerId> out;
    // count == n: every server exactly once (a permutation).
    policy.place(candidates, 5, rng, out);
    EXPECT_EQ(std::set<ServerId>(out.begin(), out.end()).size(), 5u);
    // count > n: round-robin reuse — each server appears exactly twice.
    policy.place(candidates, 10, rng, out);
    for (ServerId s = 0; s < 5; ++s)
      EXPECT_EQ(std::count(out.begin(), out.end(), s), 2) << "server " << s;
  }
}

TEST(PlacementPolicy, PowerOfDDegeneratesToGlobalScanAtLargeD) {
  // d >= n examines every remaining candidate per pick, so with distinct
  // loads the result is the globally least-loaded set in ascending order —
  // no randomness left in the outcome.
  PowerOfDPolicy policy(64);
  Rng rng(29);
  std::vector<PlacementCandidate> candidates = {
      {7, 0}, {2, 1}, {9, 2}, {1, 3}, {4, 4}, {6, 5}};
  std::vector<ServerId> out;
  const std::size_t examined = policy.place(candidates, 3, rng, out);
  EXPECT_EQ(out, (std::vector<ServerId>{3, 1, 4}));
  EXPECT_EQ(examined, 6u + 5u + 4u);
}

// ------------------------------------------------- in-place percentile math

TEST(PlacementStatsMath, PercentileInplaceMatchesCopyingPercentile) {
  Rng rng(41);
  std::vector<double> values(997);
  for (auto& v : values) v = rng.uniform() * 100.0;
  const std::vector<double> pristine = values;

  // Stacked in-place calls: selection permutes but never changes the
  // multiset, so later percentiles still see the same sample.
  for (double p : {50.0, 95.0, 99.0, 0.0, 100.0}) {
    EXPECT_DOUBLE_EQ(percentile_inplace(values, p), percentile(pristine, p))
        << "p=" << p;
  }
  auto sorted_now = values;
  auto sorted_orig = pristine;
  std::sort(sorted_now.begin(), sorted_now.end());
  std::sort(sorted_orig.begin(), sorted_orig.end());
  EXPECT_EQ(sorted_now, sorted_orig) << "selection must preserve the multiset";
}

TEST(PlacementStatsMath, MeansAreComputedBeforeInPlaceSelection) {
  // Floating-point sums are order-sensitive: 1e17's ulp is 16, so summing
  // this sample in insertion order fully absorbs the 3
  // (1e17 + 3 - 1e17 + 4 = 4, mean 1.0), while any order nth_element would
  // leave behind — -1e17 partitioned to the front, 1e17 to the back —
  // absorbs both small values (mean 0.0). tail_and_mean must report the
  // insertion-order mean, i.e. take the mean BEFORE selecting.
  LatencySample sample;
  sample.add(1e17);
  sample.add(3.0);
  sample.add(-1e17);
  sample.add(4.0);
  const auto tm = sample.tail_and_mean(50.0);
  EXPECT_DOUBLE_EQ(tm.mean_ms, 1.0);
  const std::vector<double> pristine = {1e17, 3.0, -1e17, 4.0};
  EXPECT_DOUBLE_EQ(tm.tail_ms, percentile(pristine, 50.0));
}

// ------------------------------------------------------ policy selection

TEST(PlacementConfig, SimulatorHonoursPolicySelection) {
  SimConfig config;
  config.num_servers = 8;
  config.policy = Policy::kTfEdf;
  config.classes = {{.slo_ms = 50.0, .percentile = 99.0}};
  config.service_time = std::make_shared<Exponential>(1.0);
  config.fanout = std::make_shared<FixedFanout>(2);
  config.arrival_rate = 0.5;
  config.num_queries = 500;
  config.seed = 4;

  SimConfig pow_d = config;
  pow_d.placement_policy =
      PlacementPolicyOptions{.kind = PlacementPolicyKind::kPowerOfD};
  const SimResult informed = run_simulation(pow_d);
  EXPECT_EQ(informed.placement_kind, PlacementPolicyKind::kPowerOfD);
  EXPECT_GT(informed.placement_decisions, 0u);
  EXPECT_GT(informed.placement_candidates_considered,
            informed.placement_decisions);

  const SimResult legacy = run_simulation(config);
  EXPECT_EQ(legacy.placement_kind, PlacementPolicyKind::kLeastLoaded);
  EXPECT_EQ(legacy.placement_decisions, 0u)
      << "default placement keeps the legacy sampling path";
}

TEST(PlacementConfig, ExplicitLeastLoadedIsBitIdenticalToDefault) {
  SimConfig config;
  config.num_servers = 10;
  config.policy = Policy::kTfEdf;
  config.classes = {{.slo_ms = 50.0, .percentile = 99.0}};
  config.service_time = std::make_shared<Exponential>(1.0);
  config.fanout = std::make_shared<FixedFanout>(3);
  config.arrival_rate = 1.0;
  config.num_queries = 2000;
  config.seed = 13;

  const SimResult implicit_default = run_simulation(config);
  config.placement_policy =
      PlacementPolicyOptions{.kind = PlacementPolicyKind::kLeastLoaded};
  const SimResult explicit_ll = run_simulation(config);

  ASSERT_EQ(implicit_default.class_results.size(),
            explicit_ll.class_results.size());
  EXPECT_EQ(implicit_default.class_results[0].tail_latency_ms,
            explicit_ll.class_results[0].tail_latency_ms);
  EXPECT_EQ(implicit_default.class_results[0].mean_latency_ms,
            explicit_ll.class_results[0].mean_latency_ms);
  EXPECT_EQ(implicit_default.task_deadline_miss_ratio,
            explicit_ll.task_deadline_miss_ratio);
  EXPECT_EQ(implicit_default.end_time, explicit_ll.end_time);
}

TEST(PlacementConfig, PowDSweepIsIdenticalToSerialRuns) {
  // sweep_loads fans points over the thread pool; a pow_d run must come out
  // bit-identical to the serial single-point runs at any thread count (the
  // policy draws only from the control plane's own Rng).
  SimConfig config;
  config.num_servers = 12;
  config.policy = Policy::kTfEdf;
  config.classes = {{.slo_ms = 20.0, .percentile = 99.0}};
  config.service_time = std::make_shared<Exponential>(0.8);
  config.fanout = std::make_shared<FixedFanout>(3);
  config.num_queries = 3000;
  config.seed = 21;
  config.placement_policy = PlacementPolicyOptions{
      .kind = PlacementPolicyKind::kPowerOfD, .power_d = 3};

  const std::vector<double> loads = {0.3, 0.6};
  const auto points = sweep_loads(config, loads);
  ASSERT_EQ(points.size(), loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    SimConfig serial = config;
    set_load(serial, loads[i]);
    const SimResult reference = run_simulation(serial);
    EXPECT_EQ(points[i].result.class_results[0].tail_latency_ms,
              reference.class_results[0].tail_latency_ms);
    EXPECT_EQ(points[i].result.placement_decisions,
              reference.placement_decisions);
    EXPECT_EQ(points[i].result.placement_candidates_considered,
              reference.placement_candidates_considered);
  }
}

// -------------------------------------------------- cross-backend parity

constexpr std::uint64_t kNoRefresh = 1ull << 30;
constexpr std::size_t kParityServers = 4;
constexpr std::uint64_t kParitySeed = 42;

StreamingCdfModel::Options frozen_model_options() {
  StreamingCdfModel::Options options;
  options.histogram = {.min_value = 1e-3,
                       .max_value = 1e6,
                       .buckets_per_decade = 100,
                       .decay_every = 0,
                       .decay_factor = 0.5};
  options.refresh_every = kNoRefresh;
  return options;
}

std::uint32_t parity_fanout(std::size_t q) {
  return static_cast<std::uint32_t>(1 + q % 3);
}

TEST(PlacementParity, IdenticalPowDSequencesAcrossSimRuntimeAndNet) {
  // Queries are submitted strictly one at a time and drained before the
  // next, so every backend sees the same candidate view (all servers at
  // load 0) — the placement sequence is then a pure function of the shared
  // control-plane seed, and must be identical across the simulator, the
  // in-process runtime and the loopback remote dispatcher.
  constexpr std::size_t kQueries = 24;
  PlacementPolicyOptions pow_d;
  pow_d.kind = PlacementPolicyKind::kPowerOfD;
  pow_d.power_d = 2;

  using Sequence = std::vector<std::vector<ServerId>>;

  // --- simulator: a well-spaced trace of tiny deterministic tasks.
  Sequence sim_seq;
  {
    SimConfig config;
    config.num_servers = kParityServers;
    config.policy = Policy::kTfEdf;
    config.classes = {{.slo_ms = 80.0, .percentile = 99.0}};
    config.service_time = std::make_shared<Deterministic>(0.5);
    for (std::size_t q = 0; q < kQueries; ++q)
      config.trace.push_back({.arrival_ms = 50.0 * static_cast<double>(q),
                              .class_id = 0,
                              .fanout = parity_fanout(q)});
    config.seed = kParitySeed;
    config.placement_policy = pow_d;
    config.on_query_placed = [&](ClassId, std::span<const ServerId> servers) {
      sim_seq.emplace_back(servers.begin(), servers.end());
    };
    const SimResult result = run_simulation(config);
    EXPECT_EQ(result.placement_kind, PlacementPolicyKind::kPowerOfD);
    EXPECT_EQ(result.placement_decisions, kQueries);
  }
  ASSERT_EQ(sim_seq.size(), kQueries);

  // --- in-process runtime.
  Sequence runtime_seq;
  {
    ServiceOptions options;
    options.num_workers = kParityServers;
    options.policy = Policy::kTfEdf;
    options.classes = {{.slo_ms = 80.0, .percentile = 99.0}};
    options.model_options = frozen_model_options();
    options.seed = kParitySeed;
    options.placement = pow_d;
    options.placement_observer = [&](std::span<const ServerId> servers) {
      runtime_seq.emplace_back(servers.begin(), servers.end());
    };
    TailGuardService service(options);
    EXPECT_EQ(service.placement_kind(), PlacementPolicyKind::kPowerOfD);
    for (std::size_t q = 0; q < kQueries; ++q) {
      std::vector<ServiceTaskSpec> tasks(parity_fanout(q));
      for (auto& t : tasks) t.simulated_service_ms = 0.5;
      service.submit(0, std::move(tasks)).get();
    }
    EXPECT_EQ(service.placement_stats().decisions, kQueries);
  }
  ASSERT_EQ(runtime_seq.size(), kQueries);

  // --- remote dispatcher over loopback TCP.
  Sequence net_seq;
  {
    std::vector<std::unique_ptr<net::TaskServer>> fleet;
    for (std::size_t i = 0; i < kParityServers; ++i) {
      net::TaskServerOptions server_options;
      server_options.policy = Policy::kTfEdf;
      server_options.num_classes = 1;
      fleet.push_back(std::make_unique<net::TaskServer>(server_options));
    }
    net::DispatcherOptions options;
    for (const auto& server : fleet)
      options.servers.push_back({"127.0.0.1", server->port()});
    options.policy = Policy::kTfEdf;
    options.classes = {{.slo_ms = 80.0, .percentile = 99.0}};
    options.model_options = frozen_model_options();
    options.seed = kParitySeed;
    options.placement = pow_d;
    options.placement_observer = [&](std::span<const ServerId> servers) {
      net_seq.emplace_back(servers.begin(), servers.end());
    };
    net::RemoteDispatcher dispatcher(options);
    ASSERT_TRUE(dispatcher.wait_for_servers(kParityServers, 5000.0));
    EXPECT_EQ(dispatcher.placement_kind(), PlacementPolicyKind::kPowerOfD);
    for (std::size_t q = 0; q < kQueries; ++q) {
      std::vector<net::RemoteTaskSpec> tasks(parity_fanout(q));
      for (auto& t : tasks) t.simulated_service_ms = 0.5;
      const QueryResult r = dispatcher.submit(0, std::move(tasks)).get();
      EXPECT_EQ(r.tasks_failed, 0u);
    }
    EXPECT_EQ(dispatcher.placement_stats().decisions, kQueries);
  }
  ASSERT_EQ(net_seq.size(), kQueries);

  EXPECT_EQ(sim_seq, runtime_seq);
  EXPECT_EQ(sim_seq, net_seq);
}

}  // namespace
}  // namespace tailguard
