// Tests for the shared query control plane (shard/sharded_control_plane.h):
// unit coverage of the admission -> budget -> placement -> t_D -> tracking
// pipeline on one shard, plus the cross-backend parity contract — the
// simulator, the in-process runtime and the loopback remote dispatcher must
// produce identical per-task budgets (hence identical t_D offsets) and
// identical admission decisions when driven with the same profile and query
// stream.
#include <gtest/gtest.h>

#include <future>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/cdf_model.h"
#include "dist/standard.h"
#include "net/dispatcher.h"
#include "net/task_server.h"
#include "runtime/service.h"
#include "shard/sharded_control_plane.h"
#include "sim/simulator.h"
#include "workloads/trace.h"

namespace tailguard {
namespace {

// ------------------------------------------------------------------- unit

std::vector<std::shared_ptr<CdfModel>> fixed_models(std::size_t n,
                                                    double value_ms) {
  std::vector<std::shared_ptr<CdfModel>> models;
  models.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    models.push_back(std::make_shared<DistributionCdfModel>(
        std::make_shared<Deterministic>(value_ms)));
  return models;
}

ControlPlaneOptions basic_options(Policy policy) {
  ControlPlaneOptions options;
  options.policy = policy;
  options.classes = {{.slo_ms = 20.0, .percentile = 99.0},
                     {.slo_ms = 50.0, .percentile = 99.0}};
  return options;
}

TEST(ControlPlane, Eq6BudgetAndDeadline) {
  // Deterministic 5 ms unloaded tasks: x_p^u(kf) = 5 for every fanout, so
  // T_b = SLO - 5 regardless of the server subset.
  ShardedControlPlane cp({}, basic_options(Policy::kTfEdf),
                         fixed_models(4, 5.0));
  const std::vector<ServerId> two = {0, 1};
  EXPECT_DOUBLE_EQ(cp.budget(0, 0, two), 15.0);
  EXPECT_DOUBLE_EQ(cp.budget(0, 1, two), 45.0);

  const QueryPlan plan = cp.begin_query(0, 100.0, 0, two);
  EXPECT_EQ(plan.cls, 0u);
  EXPECT_EQ(plan.fanout, 2u);
  EXPECT_DOUBLE_EQ(plan.t0, 100.0);
  EXPECT_DOUBLE_EQ(plan.budget_ms, 15.0);
  EXPECT_DOUBLE_EQ(plan.tail_deadline, 115.0);
  EXPECT_DOUBLE_EQ(plan.order_deadline, 115.0);  // TF-EDFQ orders by t_D
  EXPECT_DOUBLE_EQ(cp.query_state(plan.id).deadline, 115.0);
}

TEST(ControlPlane, OrderingKeyFollowsPolicy) {
  const std::vector<ServerId> two = {0, 1};
  {
    ShardedControlPlane cp({}, basic_options(Policy::kTEdf),
                           fixed_models(4, 5.0));
    // T-EDFQ orders by t0 + SLO, fanout-unaware.
    EXPECT_DOUBLE_EQ(cp.begin_query(0, 100.0, 0, two).order_deadline, 120.0);
    // Request mode supplies the request-level SLO for the ordering key.
    EXPECT_DOUBLE_EQ(
        cp.begin_query(0, 100.0, 0, two, std::nullopt, 70.0).order_deadline,
        170.0);
  }
  for (const Policy policy : {Policy::kFifo, Policy::kPriq}) {
    ShardedControlPlane cp({}, basic_options(policy), fixed_models(4, 5.0));
    const QueryPlan plan = cp.begin_query(0, 100.0, 0, two);
    EXPECT_DOUBLE_EQ(plan.order_deadline, 100.0);  // arrival order
    EXPECT_DOUBLE_EQ(plan.tail_deadline, 115.0);   // t_D still Eq. 6
  }
}

TEST(ControlPlane, BudgetOverrideReplacesEq6) {
  ShardedControlPlane cp({}, basic_options(Policy::kTfEdf),
                         fixed_models(4, 5.0));
  const std::vector<ServerId> two = {0, 1};
  const QueryPlan plan = cp.begin_query(0, 10.0, 0, two, 3.5);
  EXPECT_DOUBLE_EQ(plan.budget_ms, 3.5);
  EXPECT_DOUBLE_EQ(plan.tail_deadline, 13.5);
}

TEST(ControlPlane, TracksQueriesAndPerClassAccounting) {
  ShardedControlPlane cp({}, basic_options(Policy::kTfEdf),
                         fixed_models(4, 5.0));
  const std::vector<ServerId> two = {0, 1};
  const QueryPlan plan = cp.begin_query(0, 0.0, 1, two);
  EXPECT_EQ(cp.in_flight(), 1u);
  EXPECT_EQ(cp.queries_started(), 1u);

  cp.record_task_dequeue(plan.id, 1.0, 1, false);
  cp.record_task_dequeue(plan.id, 2.0, 1, true);
  EXPECT_EQ(cp.tasks_recorded(), 2u);
  EXPECT_EQ(cp.tasks_missed(), 1u);
  EXPECT_DOUBLE_EQ(cp.task_miss_ratio(), 0.5);

  EXPECT_FALSE(cp.complete_task(plan.id));
  QueryState finished;
  EXPECT_TRUE(cp.complete_task(plan.id, &finished));
  EXPECT_EQ(finished.fanout, 2u);
  EXPECT_EQ(cp.in_flight(), 0u);
  EXPECT_EQ(cp.queries_completed(), 1u);
  EXPECT_EQ(cp.class_accounting(1).queries_completed, 1u);
  EXPECT_EQ(cp.class_accounting(1).tasks_recorded, 2u);
  EXPECT_EQ(cp.class_accounting(1).tasks_missed, 1u);
  EXPECT_EQ(cp.class_accounting(0).tasks_recorded, 0u);
}

TEST(ControlPlane, AdmissionDisabledAlwaysAdmits) {
  ShardedControlPlane cp({}, basic_options(Policy::kTfEdf),
                         fixed_models(4, 5.0));
  EXPECT_FALSE(cp.admission_enabled());
  EXPECT_TRUE(cp.should_admit(0, 0.0));
  EXPECT_TRUE(cp.should_admit(0, 0.0, 0.99));
  EXPECT_DOUBLE_EQ(cp.admission_miss_ratio(0, 0.0), 0.0);
}

TEST(ControlPlane, OnOffAdmissionFollowsMissWindow) {
  ControlPlaneOptions options = basic_options(Policy::kTfEdf);
  options.admission = AdmissionOptions{.window_tasks = 1000,
                                       .window_ms = 1e9,
                                       .miss_ratio_threshold = 0.1,
                                       .mode = AdmissionMode::kOnOff};
  ShardedControlPlane cp({}, std::move(options), fixed_models(4, 5.0));
  EXPECT_TRUE(cp.admission_enabled());
  EXPECT_TRUE(cp.should_admit(0, 0.0));  // empty window admits
  cp.count_admitted(0);

  cp.record_task_dequeue(0, 1.0, 0, true);
  EXPECT_DOUBLE_EQ(cp.admission_miss_ratio(0, 2.0), 1.0);
  EXPECT_FALSE(cp.should_admit(0, 2.0));
  cp.count_rejected(0);

  EXPECT_EQ(cp.queries_admitted(), 1u);
  EXPECT_EQ(cp.queries_rejected(), 1u);

  // Enough hits dilute the window below R_th and admission resumes.
  for (int i = 0; i < 20; ++i) cp.record_task_dequeue(0, 3.0, 0, false);
  EXPECT_TRUE(cp.should_admit(0, 4.0));
}

TEST(ControlPlane, ProportionalAdmissionConsumesTheCoin) {
  ControlPlaneOptions options = basic_options(Policy::kTfEdf);
  options.admission = AdmissionOptions{.window_tasks = 1000,
                                       .window_ms = 1e9,
                                       .miss_ratio_threshold = 0.1,
                                       .mode = AdmissionMode::kProportional,
                                       .proportional_gain = 1.0};
  ShardedControlPlane cp({}, std::move(options), fixed_models(4, 5.0));
  cp.record_task_dequeue(0, 0.0, 0, true);  // ratio 1.0 >= 2 * R_th
  // Rejection probability is 1: every coin — internal or supplied — rejects.
  EXPECT_FALSE(cp.should_admit(0, 1.0));
  EXPECT_FALSE(cp.should_admit(0, 1.0, 0.0));
  EXPECT_FALSE(cp.should_admit(0, 1.0, 0.999999));
}

TEST(ControlPlane, PlacementPicksLeastLoaded) {
  ShardedControlPlane cp({}, basic_options(Policy::kTfEdf),
                         fixed_models(4, 5.0));
  const auto picked = cp.place(0, {{3, 0}, {0, 1}, {1, 2}}, 2);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked[0], 1u);
  EXPECT_EQ(picked[1], 2u);
}

// ----------------------------------------------------- cross-backend parity
//
// The three execution backends share one ShardedControlPlane implementation;
// these tests pin the contract that makes that sharing observable: identical
// inputs produce identical scheduling decisions everywhere.
//
// Exactness hinges on freezing the streaming models' refresh cadence
// (refresh_every larger than any observation count in the test): quantile
// caches then never invalidate, so the budget each backend memoises from the
// shared offline profile — before any online observation lands — is the one
// it keeps for the whole run.

constexpr std::uint64_t kNoRefresh = 1ull << 30;

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

std::vector<double> shared_profile() {
  Rng rng(42);
  std::vector<double> profile(3000);
  for (auto& x : profile) x = 0.5 + rng.uniform();
  return profile;
}

constexpr std::size_t kParityServers = 4;

const std::vector<ClassSpec>& parity_classes() {
  static const std::vector<ClassSpec> classes = {
      {.slo_ms = 80.0, .percentile = 99.0},
      {.slo_ms = 160.0, .percentile = 99.0}};
  return classes;
}

std::uint32_t parity_fanout(ClassId cls) { return cls == 0 ? 2 : 4; }

TEST(ControlPlaneParity, IdenticalBudgetsAcrossSimRuntimeAndNet) {
  const std::vector<double> profile = shared_profile();

  // --- simulator: injected models seeded through the same observe() path
  // the runtime and dispatcher use, pinned first-k placement, budgets
  // captured via the on_query_planned hook.
  std::map<std::pair<ClassId, std::uint32_t>, double> sim_budget_ms;
  {
    std::vector<std::shared_ptr<CdfModel>> models;
    for (std::size_t i = 0; i < kParityServers; ++i) {
      auto model = std::make_shared<StreamingCdfModel>(frozen_model_options());
      for (double s : profile) model->observe(s);
      models.push_back(std::move(model));
    }
    SimConfig config;
    config.num_servers = kParityServers;
    config.policy = Policy::kTfEdf;
    config.classes = parity_classes();
    config.service_time = std::make_shared<Exponential>(1.0);
    config.server_models = models;
    config.placement = [](Rng&, ClassId, std::uint32_t kf,
                          std::vector<ServerId>& out) {
      out.resize(kf);
      for (std::uint32_t i = 0; i < kf; ++i) out[i] = i;
    };
    for (std::size_t q = 0; q < 40; ++q) {
      const auto cls = static_cast<ClassId>(q % 2);
      config.trace.push_back({.arrival_ms = 5.0 * static_cast<double>(q),
                              .class_id = cls,
                              .fanout = parity_fanout(cls)});
    }
    config.seed = 9;
    config.on_query_planned = [&](const QueryPlan& plan) {
      const auto key = std::make_pair(plan.cls, plan.fanout);
      const auto [it, inserted] = sim_budget_ms.emplace(key, plan.budget_ms);
      if (!inserted) {
        // Frozen models: every query of a combo gets the same budget.
        EXPECT_EQ(it->second, plan.budget_ms);
      }
      EXPECT_NEAR(plan.tail_deadline - plan.t0, plan.budget_ms, 1e-9);
    };
    run_simulation(config);
  }
  ASSERT_EQ(sim_budget_ms.size(), 2u);

  // Warm + measure one backend: two pinned-placement queries submitted
  // back-to-back (their 5 ms tasks cannot complete before both budgets are
  // memoised from the pristine profile), then a closed loop that checks the
  // budgets survive online observations unchanged.
  const auto drive_backend = [&](auto&& submit_pinned) {
    std::map<std::pair<ClassId, std::uint32_t>, double> budget_ms;
    auto warm0 = submit_pinned(ClassId{0}, 5.0);
    auto warm1 = submit_pinned(ClassId{1}, 5.0);
    budget_ms[{0, parity_fanout(0)}] = warm0.get().deadline_budget_ms;
    budget_ms[{1, parity_fanout(1)}] = warm1.get().deadline_budget_ms;
    for (int q = 0; q < 6; ++q) {
      const auto cls = static_cast<ClassId>(q % 2);
      const QueryResult r = submit_pinned(cls, 0.5).get();
      EXPECT_EQ(r.deadline_budget_ms, budget_ms.at({cls, parity_fanout(cls)}))
          << "online observations must not perturb the frozen budget";
    }
    return budget_ms;
  };

  // --- in-process runtime.
  ServiceOptions svc_options;
  svc_options.num_workers = kParityServers;
  svc_options.policy = Policy::kTfEdf;
  svc_options.classes = parity_classes();
  svc_options.model_options = frozen_model_options();
  TailGuardService service(svc_options);
  service.seed_profile(profile);
  const auto runtime_budget_ms =
      drive_backend([&](ClassId cls, TimeMs service_ms) {
        std::vector<ServiceTaskSpec> tasks(parity_fanout(cls));
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          tasks[i].worker = static_cast<ServerId>(i);
          tasks[i].simulated_service_ms = service_ms;
        }
        return service.submit(cls, std::move(tasks));
      });

  // --- remote dispatcher over loopback TCP.
  std::vector<std::unique_ptr<net::TaskServer>> fleet;
  for (std::size_t i = 0; i < kParityServers; ++i) {
    net::TaskServerOptions server_options;
    server_options.policy = Policy::kTfEdf;
    server_options.num_classes = parity_classes().size();
    fleet.push_back(std::make_unique<net::TaskServer>(server_options));
  }
  net::DispatcherOptions dispatcher_options;
  for (const auto& server : fleet)
    dispatcher_options.servers.push_back({"127.0.0.1", server->port()});
  dispatcher_options.policy = Policy::kTfEdf;
  dispatcher_options.classes = parity_classes();
  dispatcher_options.model_options = frozen_model_options();
  net::RemoteDispatcher dispatcher(dispatcher_options);
  ASSERT_TRUE(dispatcher.wait_for_servers(kParityServers, 5000.0));
  dispatcher.seed_profile(profile);
  const auto net_budget_ms =
      drive_backend([&](ClassId cls, TimeMs service_ms) {
        std::vector<net::RemoteTaskSpec> tasks(parity_fanout(cls));
        for (std::size_t i = 0; i < tasks.size(); ++i) {
          tasks[i].server = static_cast<ServerId>(i);
          tasks[i].simulated_service_ms = service_ms;
        }
        return dispatcher.submit(cls, std::move(tasks));
      });

  // --- parity: bit-identical Eq. 6 budgets (hence t_D - t0) everywhere.
  for (ClassId cls = 0; cls < 2; ++cls) {
    const auto key = std::make_pair(cls, parity_fanout(cls));
    SCOPED_TRACE(::testing::Message() << "class " << static_cast<int>(cls));
    EXPECT_GT(sim_budget_ms.at(key), 0.0);
    EXPECT_EQ(sim_budget_ms.at(key), runtime_budget_ms.at(key));
    EXPECT_EQ(sim_budget_ms.at(key), net_budget_ms.at(key));
  }
}

TEST(ControlPlaneParity, IdenticalAdmissionDecisionsAcrossBackends) {
  // One always-late query poisons the miss window, then every later query
  // is rejected: the decision sequence [admit, reject x 9] must come out of
  // all three backends.
  constexpr int kQueries = 10;
  AdmissionOptions admission;
  admission.window_tasks = 100000;
  admission.window_ms = 1e9;
  admission.miss_ratio_threshold = 0.0005;
  admission.mode = AdmissionMode::kOnOff;

  // --- simulator: a 1 ms-spaced deterministic trace with an SLO far below
  // the unloaded tail, so Eq. 6 yields a negative budget and every dequeue
  // misses t_D.
  std::uint64_t sim_admitted = 0, sim_rejected = 0;
  {
    SimConfig config;
    config.num_servers = 2;
    config.policy = Policy::kTfEdf;
    config.classes = {{.slo_ms = 1e-4, .percentile = 99.0}};
    config.service_time = std::make_shared<Exponential>(1.0);
    for (int q = 0; q < kQueries; ++q)
      config.trace.push_back({.arrival_ms = 1000.0 * q,
                              .class_id = 0,
                              .fanout = 1});
    config.admission = admission;
    config.seed = 3;
    const SimResult result = run_simulation(config);
    sim_admitted = result.queries_admitted;
    sim_rejected = result.queries_rejected;
    EXPECT_EQ(result.queries_offered, static_cast<std::uint64_t>(kQueries));
  }

  // --- runtime and dispatcher: closed loop with a negative budget override
  // (the explicit Eq. 7 path) making every admitted task late on arrival.
  std::vector<bool> runtime_decisions;
  {
    ServiceOptions options;
    options.num_workers = 2;
    options.policy = Policy::kTfEdf;
    options.classes = {{.slo_ms = 50.0, .percentile = 99.0}};
    options.admission = admission;
    TailGuardService service(options);
    for (int q = 0; q < kQueries; ++q) {
      std::vector<ServiceTaskSpec> tasks(1);
      tasks[0].simulated_service_ms = 0.2;
      runtime_decisions.push_back(
          service.submit(0, std::move(tasks), -1.0).get().admitted);
    }
    EXPECT_EQ(service.rejected_queries(), sim_rejected);
  }

  std::vector<bool> net_decisions;
  {
    net::TaskServerOptions server_options;
    server_options.num_classes = 1;
    net::TaskServer server(server_options);
    net::DispatcherOptions options;
    options.servers = {{"127.0.0.1", server.port()}};
    options.classes = {{.slo_ms = 50.0, .percentile = 99.0}};
    options.admission = admission;
    net::RemoteDispatcher dispatcher(options);
    ASSERT_TRUE(dispatcher.wait_for_servers(1, 5000.0));
    for (int q = 0; q < kQueries; ++q) {
      std::vector<net::RemoteTaskSpec> tasks(1);
      tasks[0].simulated_service_ms = 0.2;
      net_decisions.push_back(
          dispatcher.submit(0, std::move(tasks), -1.0).get().admitted);
    }
    EXPECT_EQ(dispatcher.rejected_queries(), sim_rejected);
  }

  // --- parity: [admit, reject, reject, ...] everywhere.
  EXPECT_EQ(sim_admitted, 1u);
  EXPECT_EQ(sim_rejected, static_cast<std::uint64_t>(kQueries - 1));
  std::vector<bool> expected(kQueries, false);
  expected[0] = true;
  EXPECT_EQ(runtime_decisions, expected);
  EXPECT_EQ(net_decisions, expected);
}

}  // namespace
}  // namespace tailguard
