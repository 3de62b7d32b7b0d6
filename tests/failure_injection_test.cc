// Failure-injection and degradation tests: brownouts, stragglers and load
// spikes through the service_scale hook. Invariants must hold under every
// injected fault.
#include <gtest/gtest.h>

#include "common/check.h"
#include "sim/cluster.h"
#include "sim/experiment.h"
#include "workloads/tailbench.h"

namespace tailguard {
namespace {

SimConfig faulty_base() {
  SimConfig cfg;
  cfg.num_servers = 20;
  cfg.policy = Policy::kTfEdf;
  cfg.classes = {{.slo_ms = 10.0, .percentile = 99.0}};
  cfg.fanout = std::make_shared<CategoricalFanout>(
      std::vector<std::uint32_t>{1, 4, 16},
      std::vector<double>{0.6, 0.3, 0.1});
  cfg.service_time = std::make_shared<Exponential>(1.0);
  cfg.num_queries = 20000;
  cfg.seed = 42;
  return cfg;
}

// A mid-run brownout (every server 3x slower for a window) must not break
// conservation: all offered queries still complete.
TEST(FailureInjection, BrownoutConservesQueries) {
  SimConfig cfg = faulty_base();
  set_load(cfg, 0.4);
  const double horizon = cfg.num_queries / cfg.arrival_rate;
  cfg.service_scale = [horizon](TimeMs t, ServerId) {
    return (t > 0.4 * horizon && t < 0.6 * horizon) ? 3.0 : 1.0;
  };
  const SimResult r = run_simulation(cfg);
  EXPECT_EQ(r.queries_admitted, cfg.num_queries);
  std::uint64_t recorded = 0;
  for (const auto& g : r.groups) recorded += g.queries;
  EXPECT_GT(recorded, 0u);
}

// The brownout must strictly degrade the tail versus the healthy run.
TEST(FailureInjection, BrownoutDegradesTail) {
  SimConfig cfg = faulty_base();
  set_load(cfg, 0.4);
  const SimResult healthy = run_simulation(cfg);
  const double horizon = cfg.num_queries / cfg.arrival_rate;
  cfg.service_scale = [horizon](TimeMs t, ServerId) {
    return (t > 0.4 * horizon && t < 0.6 * horizon) ? 3.0 : 1.0;
  };
  const SimResult browned = run_simulation(cfg);
  EXPECT_GT(browned.groups[0].tail_latency_ms, healthy.groups[0].tail_latency_ms);
}

// A single frozen-slow server (simulating a failing node) must hurt the
// high-fanout group far more than the fanout-1 group — the paper's §I
// outlier argument.
TEST(FailureInjection, SingleStragglerHitsHighFanoutHardest) {
  SimConfig cfg = faulty_base();
  // Load and slowdown chosen so the bad server stays stable (local
  // utilization 0.75): otherwise its queue diverges and every group's tail
  // is dominated by it.
  set_load(cfg, 0.25);
  const SimResult healthy = run_simulation(cfg);
  cfg.service_scale = [](TimeMs, ServerId sid) {
    return sid == 0 ? 3.0 : 1.0;
  };
  const SimResult degraded = run_simulation(cfg);
  const auto ratio = [](const SimResult& r, std::uint32_t kf,
                        const SimResult& base) {
    return r.find_group(0, kf)->tail_latency_ms /
           base.find_group(0, kf)->tail_latency_ms;
  };
  // kf=16 touches the bad server with prob ~16/20; kf=1 with ~1/20.
  EXPECT_GT(ratio(degraded, 16, healthy), ratio(degraded, 1, healthy));
}

// Admission control + brownout: with the controller on, the deadline-miss
// ratio during/after the brownout stays bounded and some queries are shed.
TEST(FailureInjection, AdmissionShedsLoadDuringBrownout) {
  SimConfig cfg = faulty_base();
  set_load(cfg, 0.5);
  const double horizon = cfg.num_queries / cfg.arrival_rate;
  cfg.service_scale = [horizon](TimeMs t, ServerId) {
    return (t > 0.3 * horizon && t < 0.7 * horizon) ? 4.0 : 1.0;
  };
  const SimResult open = run_simulation(cfg);
  cfg.admission = AdmissionOptions{.window_tasks = 5000,
                                   .window_ms = 100.0,
                                   .miss_ratio_threshold = 0.02};
  const SimResult guarded = run_simulation(cfg);
  EXPECT_GT(guarded.queries_rejected, 0u);
  EXPECT_LT(guarded.task_deadline_miss_ratio,
            open.task_deadline_miss_ratio);
}

// Online estimation under permanent degradation: after the model adapts,
// the system keeps running and deadline misses stay finite (liveness).
TEST(FailureInjection, OnlineEstimatorSurvivesPermanentSlowdown) {
  SimConfig cfg = faulty_base();
  // SLO loose enough to stay feasible after the 2x slowdown (post-drift
  // x99u(16) ~ 14.8 ms for exp(1) service); misses then reflect queueing,
  // not a structurally impossible budget.
  cfg.classes = {{.slo_ms = 30.0, .percentile = 99.0}};
  cfg.estimation = EstimationMode::kOnlineStreaming;
  set_load(cfg, 0.2);
  const double horizon = cfg.num_queries / cfg.arrival_rate;
  cfg.service_scale = [horizon](TimeMs t, ServerId) {
    return t > 0.5 * horizon ? 2.0 : 1.0;
  };
  const SimResult r = run_simulation(cfg);
  EXPECT_EQ(r.queries_admitted, cfg.num_queries);
  EXPECT_LT(r.task_deadline_miss_ratio, 0.25);
}

}  // namespace
}  // namespace tailguard
