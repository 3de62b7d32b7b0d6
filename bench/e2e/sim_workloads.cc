// sim_paper and sim_control: back-to-back run_simulation calls of 20,000
// queries each, at seeds seed, seed+1, ... for the measured window.
//
// sim_paper is the paper's main setup (§IV.A) and the BM_SimulatorThroughput
// configuration: the event loop, the EDF timer wheel and service sampling do
// nearly all the work while the control plane only hits cached budgets.
// sim_control turns on every control-plane path that setup leaves cold:
// stragglers, two classes, online estimation from one profile, pow_d
// placement through control.place(), admission, four delta-synced handler
// shards, a network model and Pareto arrivals. An event-loop gain shows on
// both; a control-plane gain shows on sim_control only.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "dist/arrival.h"
#include "replay.h"
#include "sim/cluster.h"
#include "sim/experiment.h"
#include "workloads/tailbench.h"

namespace tailguard::e2e {

namespace {

/// Seed of the known-answer run made in every set-up. Its digest is
/// committed in reference/seed.json; matching it is the bit-parity check.
constexpr std::uint64_t kReferenceSeed = 20231;
constexpr std::size_t kQueriesPerRun = 20000;

bool is_control(std::string_view workload) { return workload == "sim_control"; }

SimConfig make_config(std::string_view workload) {
  SimConfig cfg;
  cfg.num_servers = 100;
  cfg.policy = Policy::kTfEdf;
  cfg.fanout =
      std::make_shared<CategoricalFanout>(CategoricalFanout::paper_mix());
  cfg.num_queries = kQueriesPerRun;
  cfg.sharding = ShardingOptions{};
  cfg.placement_policy = PlacementPolicyOptions{};
  const DistributionPtr masstree =
      make_service_time_model(TailbenchApp::kMasstree);
  if (!is_control(workload)) {
    cfg.classes = {{.slo_ms = 1.0, .percentile = 99.0}};
    cfg.service_time = masstree;
    cfg.estimation = EstimationMode::kExact;
    set_load(cfg, 0.5);
    return cfg;
  }
  cfg.classes = {{.slo_ms = 1.6, .percentile = 99.0},
                 {.slo_ms = 2.4, .percentile = 99.0}};
  cfg.class_probabilities = {0.5, 0.5};
  cfg.per_server_service =
      cluster_with_stragglers(masstree, cfg.num_servers, 0.5, 1.6);
  cfg.estimation = EstimationMode::kOnlineFromSingleProfile;
  cfg.placement_policy =
      PlacementPolicyOptions{.kind = PlacementPolicyKind::kPowerOfD,
                             .power_d = 2};
  cfg.admission = AdmissionOptions{};
  cfg.sharding = ShardingOptions{
      .num_shards = 4, .sync_interval_ms = 5.0, .router = RouterKind::kHash};
  cfg.dispatch_delay_ms = std::make_shared<Exponential>(0.02);
  cfg.result_delay_ms = std::make_shared<Exponential>(0.02);
  cfg.arrival_kind = ArrivalKind::kPareto;
  set_load(cfg, 0.6);
  return cfg;
}

double target_load(std::string_view workload) {
  return is_control(workload) ? 0.6 : 0.5;
}

/// FNV-1a over the simulator's outputs: per-(class, fanout) tail and mean
/// latency and counts, admission counts, miss ratio and utilization.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const SimResult& r) {
    for (const GroupResult& g : r.groups) {
      add(std::uint64_t{g.cls});
      add(std::uint64_t{g.fanout});
      add(g.queries);
      add(g.tail_latency_ms);
      add(g.mean_latency_ms);
    }
    add(r.queries_offered);
    add(r.queries_admitted);
    add(r.queries_rejected);
    add(r.tasks_admitted);
    add(r.tasks_rejected);
    add(r.task_deadline_miss_ratio);
    add(r.measured_utilization);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string digest_of(const SimResult& r) {
  Digest d;
  d.add(r);
  return d.hex();
}

/// Conservation and range checks every run must pass. Returns false (and
/// records why) on the first violation.
bool check_run(const SimResult& r, const SimConfig& cfg, double load,
               std::uint64_t seed, Report& report) {
  const auto bad = [&](const std::string& what) {
    report.fail("seed " + std::to_string(seed) + ": " + what);
    return false;
  };
  if (r.queries_offered != cfg.num_queries) return bad("queries offered");
  if (r.queries_admitted + r.queries_rejected != r.queries_offered)
    return bad("admitted + rejected != offered");
  if (!cfg.admission && r.queries_rejected != 0)
    return bad("rejections without admission control");
  std::uint64_t recorded = 0;
  for (const GroupResult& g : r.groups) {
    if (g.cls >= cfg.classes.size()) return bad("unknown class in results");
    if (g.fanout != 1 && g.fanout != 10 && g.fanout != 100)
      return bad("fanout outside the mix");
    if (!(g.tail_latency_ms > 0.0) || !(g.mean_latency_ms > 0.0) ||
        g.tail_latency_ms < g.mean_latency_ms * 0.5)
      return bad("implausible group latency");
    recorded += g.queries;
  }
  // A burst can trip admission early and, with the default 1 s window longer
  // than a 20,000-query run, keep it refusing to the end: then no query
  // after warm-up is recorded.
  if (recorded > r.queries_admitted ||
      (recorded == 0 && r.queries_rejected == 0))
    return bad("recorded query count");
  if (!(r.task_deadline_miss_ratio >= 0.0 && r.task_deadline_miss_ratio <= 1.0))
    return bad("miss ratio out of range");
  // Pareto inter-arrivals have infinite variance, so only Poisson runs pin
  // the realized load. On sim_paper one run's utilization has standard
  // deviation 0.013 around the offered load (5,776 seeds, extremes -0.055
  // and +0.052), and every seed must pass: 0.15 is over 11 deviations and
  // still catches lost or duplicated work.
  const double expected = load * r.task_admit_fraction();
  if (cfg.arrival_kind == ArrivalKind::kPoisson &&
      std::abs(r.measured_utilization - expected) > 0.15)
    return bad("utilization " + std::to_string(r.measured_utilization) +
               " far from offered load " + std::to_string(expected));
  if (!(r.measured_utilization > 0.0 && r.measured_utilization <= 1.0))
    return bad("utilization out of range");
  return true;
}

/// The workload's query stream as the replay sees it: same arrival process,
/// class mix and fanout law, drawn from the run seed.
std::vector<ReplayQuery> replay_stream(const SimConfig& cfg,
                                       std::uint64_t seed) {
  Rng rng(seed);
  std::unique_ptr<ArrivalProcess> arrivals;
  if (cfg.arrival_kind == ArrivalKind::kPareto)
    arrivals = std::make_unique<ParetoProcess>(cfg.arrival_rate,
                                               cfg.pareto_shape);
  else
    arrivals = std::make_unique<PoissonProcess>(cfg.arrival_rate);
  std::vector<ReplayQuery> out(cfg.num_queries);
  TimeMs t = 0.0;
  for (ReplayQuery& q : out) {
    t += arrivals->next_interarrival(rng);
    q.t_ms = t;
    if (!cfg.class_probabilities.empty())
      q.cls = rng.uniform() < cfg.class_probabilities[0] ? 0 : 1;
    q.fanout = cfg.fanout->sample(rng);
  }
  return out;
}

/// The per-server models run_simulation starts from, for the two estimation
/// modes the workloads use. A copy of build_models in src/sim/simulator.cc,
/// which is private to the simulator: same estimation stream (the first
/// split of Rng(cfg.seed)), same histogram options, same sharing of one
/// model among servers with the same distribution. Keep the two in step.
std::vector<std::shared_ptr<CdfModel>> replay_models(
    const SimConfig& cfg, const std::vector<DistributionPtr>& per_server) {
  Rng rng(cfg.seed);
  Rng estimation_rng = rng.split();
  const EstimationMode mode = cfg.estimation;
  if (mode != EstimationMode::kExact &&
      mode != EstimationMode::kOnlineFromSingleProfile)
    throw std::logic_error("replay_models: estimation mode not mirrored");

  // kOnlineFromSingleProfile: every model is seeded from server 0's profile,
  // with a histogram range widened a further 100x for the unknown servers.
  std::vector<double> profile;
  StreamingCdfModel::Options opt;
  if (mode == EstimationMode::kOnlineFromSingleProfile) {
    const Distribution& first = *per_server.front();
    profile.resize(cfg.offline_seed_samples);
    for (double& x : profile) x = first.sample(estimation_rng);
    opt.histogram.min_value = std::max(1e-6, first.quantile(0.001) / 10.0);
    opt.histogram.max_value = std::max(first.quantile(0.9999) * 100.0,
                                       opt.histogram.min_value * 10.0);
    opt.histogram.buckets_per_decade = 200;
    opt.histogram.decay_every = 50000;
    opt.histogram.decay_factor = 0.5;
    opt.refresh_every = 2000;
    opt.histogram.max_value *= 100.0;
  }
  std::vector<std::shared_ptr<CdfModel>> models;
  std::vector<std::pair<const Distribution*, std::shared_ptr<CdfModel>>> groups;
  for (const DistributionPtr& dist : per_server) {
    const auto it =
        std::find_if(groups.begin(), groups.end(),
                     [&](const auto& g) { return g.first == dist.get(); });
    if (it != groups.end()) {
      models.push_back(it->second);
      continue;
    }
    std::shared_ptr<CdfModel> model;
    if (mode == EstimationMode::kExact) {
      model = std::make_shared<DistributionCdfModel>(dist);
    } else {
      auto streaming = std::make_shared<StreamingCdfModel>(opt);
      streaming->seed(profile);
      model = std::move(streaming);
    }
    groups.emplace_back(dist.get(), model);
    models.push_back(model);
  }
  return models;
}

}  // namespace

void run_sim_workload(const RunOptions& options, Report& report,
                      TraceLog* trace) {
  const double load = target_load(options.workload);

  // The simulator generates its own inputs, so its memory counts from here.
  const PeakRssProbe rss;

  // Set-up: config and model build plus one known-answer run. The first
  // serves the window; the others run inside it (see SetupTimes).
  SimConfig cfg;
  std::string known_answer;
  SetupTimes setups;
  std::uint64_t setup_allocs = 0;
  const auto set_up = [&] {
    const std::uint64_t allocs0 = allocations();
    SimConfig made;
    SimResult result;
    setups.time([&] {
      made = make_config(options.workload);
      made.seed = kReferenceSeed;
      result = run_simulation(made);
    });
    setup_allocs += allocations() - allocs0;
    const std::string digest = digest_of(result);
    if (setups.count() == 1) {
      known_answer = digest;
      cfg = std::move(made);
    } else if (digest != known_answer) {
      report.fail("known-answer run is not deterministic");
    }
  };
  set_up();
  report.set_digest(known_answer);
  if (!options.expect_digest.empty() && known_answer != options.expect_digest)
    report.fail("known-answer digest " + known_answer +
                " differs from the reference " + options.expect_digest);

  if (options.trace) set_alloc_counting(true);
  const std::uint64_t allocs_before = allocations();
  std::vector<double> run_us;
  std::vector<double> run_cpu_us;
  std::uint64_t tasks = 0;
  std::uint64_t queries = 0;
  std::uint64_t admitted = 0;
  std::uint64_t failed = 0;
  std::uint64_t event_loop_allocs = 0;
  double utilization_sum = 0.0;
  double miss_sum = 0.0;
  std::vector<double> mean_latency_ms;  // per run, over recorded queries
  std::string first_digest;
  const auto window_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  const std::int64_t start_ns = now_ns();
  const std::int64_t end_ns = start_ns + window_ns;
  for (std::uint64_t i = 0;; ++i) {
    cfg.seed = options.seed + i;
    const double cpu0_us = cpu_us(false);
    const std::int64_t t0 = now_ns();
    const SimResult r = run_simulation(cfg);
    const std::int64_t t1 = now_ns();
    run_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    run_cpu_us.push_back(cpu_us(false) - cpu0_us);
    if (trace != nullptr) trace->add(i, "run", "", t0, t1);
    if (i == 0) first_digest = digest_of(r);
    if (!check_run(r, cfg, load, cfg.seed, report)) failed += cfg.num_queries;
    queries += r.queries_offered;
    admitted += r.queries_admitted;
    tasks += r.tasks_admitted;
    event_loop_allocs += r.event_loop_allocs;
    utilization_sum += r.measured_utilization;
    miss_sum += r.task_deadline_miss_ratio;
    double weighted_ms = 0.0;
    double recorded = 0.0;
    for (const ClassResult& c : r.class_results) {
      weighted_ms += c.mean_latency_ms * static_cast<double>(c.queries);
      recorded += static_cast<double>(c.queries);
    }
    if (recorded > 0.0) mean_latency_ms.push_back(weighted_ms / recorded);
    if (t1 >= end_ns) break;
    if (setups.due(static_cast<double>(t1 - start_ns) /
                   static_cast<double>(window_ns)))
      set_up();
  }
  // A window shorter than a few runs leaves set-ups over.
  while (setups.count() < kSetups) set_up();
  const std::uint64_t allocs = allocations() - allocs_before - setup_allocs;
  if (options.trace) set_alloc_counting(false);
  report.metric("peak_rss_mb", rss.peak_mb(), "MB");

  cfg.seed = options.seed;
  if (digest_of(run_simulation(cfg)) != first_digest)
    report.fail("rerun of seed " + std::to_string(options.seed) +
                " gave a different result");
  report.set_counts(queries, failed);

  // Medians throughout: neighbours on a shared host slow whole stretches of
  // runs, which moves a mean far more than a median.
  const auto runs = static_cast<double>(run_us.size());
  const double median_run_us = median(run_us);
  report.metric("tasks_per_s",
                static_cast<double>(tasks) / runs / (median_run_us * 1e-6),
                "1/s");
  report.metric("cpu_us_per_query",
                median(run_cpu_us) / static_cast<double>(cfg.num_queries),
                "us");
  report.metric("path.latency_p50_us", median_run_us, "us");
  report.metric("path.latency_p90_us", percentile(run_us, 90.0), "us");
  report.metric("setup_s", setups.median_s(), "s");
  report.metric("bench.latency_samples", runs, "count");
  report.metric("path.admit_frac",
                static_cast<double>(admitted) / static_cast<double>(queries),
                "ratio");
  report.metric("sim.utilization", utilization_sum / runs, "ratio");
  report.metric("sim.miss_ratio", miss_sum / runs, "ratio");
  if (!options.trace) return;

  report.metric("path.allocs_per_query",
                static_cast<double>(allocs) / static_cast<double>(queries),
                "count");
  report.metric("sim.event_loop_allocs",
                static_cast<double>(event_loop_allocs) / runs, "count");

  ReplaySetup setup;
  setup.sharding = *cfg.sharding;
  setup.control.policy = cfg.policy;
  setup.control.classes = cfg.classes;
  setup.control.admission = cfg.admission;
  setup.control.placement = *cfg.placement_policy;
  setup.control.seed = options.seed;
  setup.service = cfg.per_server_service.empty()
                      ? homogeneous_cluster(cfg.service_time, cfg.num_servers)
                      : cfg.per_server_service;
  setup.models = replay_models(cfg, setup.service);
  setup.queries = replay_stream(cfg, options.seed);
  // Little's law on the typical run: a Pareto burst can back one run up
  // by orders of magnitude, so the median run sets the depth.
  setup.in_flight = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::lround(cfg.arrival_rate * median(mean_latency_ms))));
  setup.seed = options.seed;
  // The simulator's default placement is its own uniform shuffle; only the
  // informed policies go through control.place().
  setup.placement_on_path =
      setup.control.placement.kind != PlacementPolicyKind::kLeastLoaded;
  setup.path_ns_per_query =
      median_run_us * 1e3 / static_cast<double>(cfg.num_queries);
  replay_layers(std::move(setup), report, trace);
}

}  // namespace tailguard::e2e
