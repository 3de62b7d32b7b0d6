// Extension: placement policies head-to-head — p99 vs offered load.
//
// The paper's simulations place each query's tasks on distinct servers
// chosen uniformly. The `uniform` row is that default: the simulator runs
// the least_loaded kind as load-blind uniform distinct sampling (every
// server is an equal candidate). This bench pits it against the two
// informed policies (core/placement/policy.h) on the scenarios where
// placement should matter:
//
//   * heterogeneous speeds — a Masstree cluster where half the servers run
//     1.6x slower (cluster_with_stragglers), so a load-blind placement
//     keeps feeding the slow half;
//   * heavy-tailed service — homogeneous lognormal (sigma = 1.2) and
//     Pareto (alpha = 1.7) clusters, where one straggling task is enough
//     to blow a query's tail and queue depth is a noisy signal of it.
//
// Estimation is kOnlineStreaming: tail_risk ranks candidates by slack
// histograms fed from live enqueues plus per-server service CDFs learned
// from completions, so it needs the online pipeline (kExact never observes
// post-queuing times). Every policy sees the same seed and load grid.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dist/standard.h"
#include "sim/cluster.h"
#include "sim/experiment.h"
#include "workloads/tailbench.h"

using namespace tailguard;

namespace {

struct Scenario {
  std::string name;
  std::vector<DistributionPtr> per_server;
  double slo_ms;
};

struct PolicyUnderTest {
  std::string name;
  PlacementPolicyOptions options;
};

std::vector<Scenario> make_scenarios(std::size_t num_servers) {
  std::vector<Scenario> scenarios;
  {
    const auto base = make_service_time_model(TailbenchApp::kMasstree);
    scenarios.push_back(
        {"masstree_stragglers",
         cluster_with_stragglers(base, num_servers, 0.5, 1.6), 2.0});
  }
  {
    // Lognormal with sigma=1.2: mean exp(mu + sigma^2/2) ~ 0.62 ms,
    // p99 ~ 4.9 ms — a heavy right tail at sub-ms medians.
    const auto heavy = std::make_shared<Lognormal>(-1.2, 1.2);
    scenarios.push_back(
        {"lognormal_heavy", homogeneous_cluster(heavy, num_servers), 8.0});
  }
  {
    // Pareto alpha=1.7: infinite variance, the adversarial tail case.
    const auto pareto = std::make_shared<Pareto>(Pareto::with_mean(0.5, 1.7));
    scenarios.push_back(
        {"pareto_heavy", homogeneous_cluster(pareto, num_servers), 10.0});
  }
  return scenarios;
}

SimConfig base_config(const Scenario& scenario,
                      const PolicyUnderTest& policy) {
  SimConfig cfg;
  cfg.num_servers = scenario.per_server.size();
  cfg.per_server_service = scenario.per_server;
  // Small fanouts relative to the cluster — the regime where *which* kf
  // servers matters (kf == n degenerates to "all of them" for any policy).
  cfg.fanout = std::make_shared<CategoricalFanout>(
      std::vector<std::uint32_t>{1, 4, 8}, std::vector<double>{0.5, 0.3, 0.2});
  cfg.classes = {{.slo_ms = scenario.slo_ms, .percentile = 99.0}};
  cfg.estimation = EstimationMode::kOnlineStreaming;
  cfg.num_queries = bench::queries(60000);
  cfg.seed = 11;
  cfg.placement_policy = policy.options;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  tailguard::bench::init(argc, argv);
  bench::title("Extension",
               "placement policies head-to-head: p99 vs offered load on "
               "heterogeneous / heavy-tailed clusters");
  bench::JsonReport report("placement_policies");

  const std::size_t num_servers = 40;
  const std::vector<double> loads = {0.3, 0.5, 0.7};

  std::vector<PolicyUnderTest> policies;
  {
    PolicyUnderTest p;
    p.name = "uniform";
    p.options.kind = PlacementPolicyKind::kLeastLoaded;
    policies.push_back(p);
    p.name = "pow_d";
    p.options.kind = PlacementPolicyKind::kPowerOfD;
    p.options.power_d = 3;
    policies.push_back(p);
    p.name = "tail_risk";
    p.options.kind = PlacementPolicyKind::kTailRisk;
    policies.push_back(p);
  }

  for (const Scenario& scenario : make_scenarios(num_servers)) {
    bench::section(scenario.name);
    std::printf("%-13s %-6s %10s %10s %12s %12s %14s\n", "policy", "load",
                "p99_ms", "mean_ms", "miss_ratio", "decisions",
                "cand/decision");
    for (const PolicyUnderTest& policy : policies) {
      const SimConfig cfg = base_config(scenario, policy);
      const auto points = sweep_loads(cfg, loads);
      for (const LoadPoint& pt : points) {
        const SimResult& r = pt.result;
        const double cand_per_decision =
            r.placement_decisions > 0
                ? static_cast<double>(r.placement_candidates_considered) /
                      static_cast<double>(r.placement_decisions)
                : 0.0;
        std::printf("%-13s %-6.2f %10.3f %10.3f %12.4f %12llu %14.1f\n",
                    policy.name.c_str(), pt.load,
                    r.class_tail_latency(0), r.class_results.empty()
                        ? 0.0
                        : r.class_results[0].mean_latency_ms,
                    r.task_deadline_miss_ratio,
                    static_cast<unsigned long long>(r.placement_decisions),
                    cand_per_decision);
        report.row()
            .add("scenario", scenario.name)
            .add("policy", policy.name)
            .add("load", pt.load)
            .add("p99_ms", r.class_tail_latency(0))
            .add("mean_ms", r.class_results.empty()
                                ? 0.0
                                : r.class_results[0].mean_latency_ms)
            .add("miss_ratio", r.task_deadline_miss_ratio)
            .add("slo_ms", scenario.slo_ms)
            .add("placement_decisions",
                 static_cast<double>(r.placement_decisions))
            .add("candidates_per_decision", cand_per_decision)
            .add("mean_staleness_ms", r.placement_mean_staleness_ms);
      }
    }
  }

  bench::note(
      "measured shape (see EXPERIMENTS.md): uniform placement is "
      "load-blind, so both informed policies beat it on p99 everywhere it "
      "is loaded — by 3-4x at load 0.7 on the straggler and Pareto "
      "clusters; pow_d's d-sample queue-depth ranking is the strongest "
      "overall (depth is a very direct risk signal here), while tail_risk "
      "sits between the two: its slack-histogram ranking consistently "
      "clears uniform but pays for scanning all n candidates and for "
      "histogram staleness");
  return 0;
}
