// Discrete-event simulator of the TailGuard query processing model (Fig. 2).
//
// A renewal arrival process delivers queries to the query handler; each query
// draws a service class and a fanout, is (optionally) screened by admission
// control, is assigned its task queuing deadline, and fans out to distinct
// task servers. Each task server is a single non-preemptive work-conserving
// server fronted by one policy queue. The query completes when its slowest
// task finishes; the query latency is that completion time minus arrival.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/admission.h"
#include "core/policy.h"
#include "dist/distribution.h"
#include "shard/sharded_control_plane.h"
#include "sim/metrics.h"
#include "workloads/fanout.h"
#include "workloads/trace.h"

namespace tailguard {

/// Where the deadline estimator's per-server CDF models come from.
enum class EstimationMode {
  /// Analytic ground-truth CDFs (the paper's simulation setting, where
  /// F_l(t) is assumed known and fixed).
  kExact,
  /// Frozen empirical CDFs, one per server group, each profiled from its
  /// own group (an idealised offline estimation).
  kOfflineEmpirical,
  /// Frozen empirical CDF profiled from server 0 only and shared by every
  /// server — the paper's §III.B.2 "offline estimation process" (profile a
  /// single task server, use it as the initial distribution for all)
  /// *without* the online updating step.
  kOfflineSingleProfile,
  /// Streaming histograms seeded per group and updated with every observed
  /// post-queuing time.
  kOnlineStreaming,
  /// Streaming histograms all seeded from server 0's profile and then
  /// updated online per server group — the paper's full §III.B.2 pipeline
  /// (single offline profile + periodical online updating that captures
  /// heterogeneity).
  kOnlineFromSingleProfile,
};

enum class ArrivalKind { kPoisson, kPareto };

struct SimConfig {
  std::size_t num_servers = 100;
  Policy policy = Policy::kTfEdf;

  /// Service classes ordered by priority: class 0 is the highest class
  /// (tightest SLO) — PRIQ serves lower ids strictly first.
  std::vector<ClassSpec> classes;
  /// P(class = i); empty means always class 0.
  std::vector<double> class_probabilities;

  FanoutModelPtr fanout;
  /// Optional class-coupled fanout: when set it overrides `fanout` and draws
  /// the fanout given the query's class (the SaS testbed's use cases have
  /// one fixed fanout per class). Load conversion then needs explicit
  /// MaxLoadOptions overrides since expected_work_per_query requires a
  /// fanout model.
  std::function<std::uint32_t(Rng&, ClassId)> class_fanout;

  /// Homogeneous task service-time distribution, or per-server distributions
  /// (exactly one of the two must be set; per_server_service wins).
  DistributionPtr service_time;
  std::vector<DistributionPtr> per_server_service;

  /// Optional multiplicative drift applied to sampled service times as a
  /// function of simulation time and server; identity when empty. Used by
  /// the online-updating ablation (e.g. one server group slows down
  /// mid-run). The estimator only tracks this in kOnlineStreaming.
  std::function<double(TimeMs, ServerId)> service_scale;

  /// Network model (paper Fig. 2 with queuing at the task servers): each
  /// task reaches its server's queue `dispatch_delay_ms` after the query is
  /// processed, and each result reaches the query handler `result_delay_ms`
  /// after the task finishes. Both count against the paper's latency
  /// decomposition correctly: dispatch is part of the pre-dequeuing time
  /// t_pr (it consumes budget), the return path is part of the
  /// post-queuing time t_po (the online estimator observes it; kExact
  /// estimation does not see it and is correspondingly optimistic).
  /// Unset = zero-delay (central queuing at the handler, the default).
  /// The dispatch and result events in flight go to the event set's heap;
  /// completions stay in its per-server calendar (sim/event_queue.h).
  DistributionPtr dispatch_delay_ms;
  DistributionPtr result_delay_ms;

  ArrivalKind arrival_kind = ArrivalKind::kPoisson;
  double pareto_shape = 1.5;
  /// Mean query arrival rate in queries per millisecond.
  double arrival_rate = 0.0;

  /// Trace replay: when non-empty, arrival times, classes and fanouts come
  /// from these records instead of the generative models (`arrival_rate`,
  /// `fanout`, `class_probabilities` are then ignored and `num_queries` is
  /// the trace length).
  std::vector<QueryRecord> trace;

  /// Total queries offered (admitted + rejected). Warmup queries are
  /// simulated but excluded from metrics.
  std::size_t num_queries = 100000;
  double warmup_fraction = 0.1;

  std::uint64_t seed = 1;

  EstimationMode estimation = EstimationMode::kExact;
  /// Offline profiling sample size per model (kOfflineEmpirical /
  /// kOnlineStreaming).
  std::size_t offline_seed_samples = 20000;

  /// When non-empty, these models (one per server; shared_ptr identity forms
  /// the groups) are handed to the control plane verbatim and `estimation` /
  /// `offline_seed_samples` are ignored. Lets cross-backend tests drive the
  /// simulator with the exact models another backend uses. The run reads
  /// and updates them from its own thread without a lock (a streaming
  /// model's lookups fill caches, see CdfModel), so a model must not be
  /// shared across runs that execute concurrently; give each run clones.
  std::vector<std::shared_ptr<CdfModel>> server_models;

  /// Observer called once per admitted query with the control plane's
  /// decision (budget, t_D, ordering key). Purely observational — used by
  /// the cross-backend parity tests.
  std::function<void(const QueryPlan&)> on_query_planned;

  /// Admission control (paper §III.C); disabled when unset.
  std::optional<AdmissionOptions> admission;

  /// Query-handler sharding: a ShardedControlPlane of N shards with periodic
  /// delta-sync (src/shard). Unset means default ShardingOptions: a single
  /// shard with sync disabled, which is bit-identical to the unsharded
  /// control plane (the parity invariant).
  std::optional<ShardingOptions> sharding;

  /// Request mode (paper §III.B remark, Eq. 7): each arrival is a *request*
  /// of `queries_per_request` queries issued sequentially — query i+1 is
  /// issued the instant query i's last task result merges. Task deadlines
  /// come from the per-query budgets instead of Eq. 6; classes/fanout are
  /// drawn per query as usual. Disabled when unset.
  struct RequestSpec {
    std::size_t queries_per_request = 1;  ///< M
    /// Per-query pre-dequeuing budgets T_{b,i} (size M), e.g. from
    /// split_request_budget(). Query i's task deadline is issue_i + budget_i.
    std::vector<TimeMs> query_budgets;
    /// Optional fixed fanout per request position (size M); empty means the
    /// fanout model draws each query's fanout. Position-fixed fanouts are
    /// what make position-indexed budgets meaningful for heterogeneous
    /// requests.
    std::vector<std::uint32_t> query_fanouts;
    /// Request-level SLO used to judge request tail latency.
    ClassSpec request_slo;
  };
  std::optional<RequestSpec> request;

  /// Footnote-4 ablation: when > 0, each task of a TF-EDFQ query gets an
  /// individually jittered ordering budget T_b * (1 + jitter * u), with u
  /// uniform in [-1, 1] per task, instead of the shared budget the paper
  /// argues is optimal. Deadline-miss statistics still use the shared t_D.
  double task_budget_jitter = 0.0;

  /// Task placement: fills `servers` with `fanout` distinct server ids.
  /// Default: uniform distinct sampling over all servers (fanout == N means
  /// all servers, the OLDI case). Takes precedence over `placement_policy`.
  /// The one class-aware route: sas/testbed.cc places Fig. 9's classes
  /// through it, and tests pin exact placements with it.
  std::function<void(Rng&, ClassId, std::uint32_t, std::vector<ServerId>&)>
      placement;

  /// Control-plane placement policy (core/placement/policy.h). Unset means
  /// default PlacementPolicyOptions: least_loaded, which in the simulator
  /// keeps the exact legacy uniform distinct sampling path (all servers are
  /// equal candidates, so least-loaded over an unweighted view degenerates
  /// to it). pow_d routes each query through ShardedControlPlane::place()
  /// over live queue-depth candidates.
  std::optional<PlacementPolicyOptions> placement_policy;

  /// Observer called once per admitted query with the servers its tasks
  /// landed on, in placement order. Purely observational — used by the
  /// cross-backend placement parity tests.
  std::function<void(ClassId, std::span<const ServerId>)> on_query_placed;
};

struct GroupResult {
  ClassId cls = 0;
  std::uint32_t fanout = 0;
  std::uint64_t queries = 0;
  TimeMs tail_latency_ms = 0.0;  ///< latency at the class percentile
  TimeMs mean_latency_ms = 0.0;
  TimeMs slo = 0.0;
  bool met = false;
};

struct ClassResult {
  ClassId cls = 0;
  std::uint64_t queries = 0;
  TimeMs tail_latency_ms = 0.0;  ///< latency at the class percentile
  TimeMs mean_latency_ms = 0.0;
  TimeMs slo = 0.0;
  bool met = false;
};

struct SimResult {
  std::vector<GroupResult> groups;        ///< sorted by (class, fanout)
  std::vector<ClassResult> class_results; ///< aggregated over fanouts

  std::uint64_t queries_offered = 0;
  std::uint64_t queries_admitted = 0;
  std::uint64_t queries_rejected = 0;
  std::uint64_t tasks_admitted = 0;
  std::uint64_t tasks_rejected = 0;

  double task_deadline_miss_ratio = 0.0;
  /// Mean server busy fraction over the whole run.
  double measured_utilization = 0.0;
  /// Per-server busy fraction (index = ServerId) — exposes load imbalance,
  /// e.g. the SaS testbed's hot Server-room cluster vs the idle Wet-lab.
  std::vector<double> server_utilization;
  TimeMs end_time = 0.0;

  /// Request mode only: tail latency of whole requests at the request SLO
  /// percentile, and how many requests were recorded.
  TimeMs request_tail_latency_ms = 0.0;
  TimeMs request_mean_latency_ms = 0.0;
  std::uint64_t requests_recorded = 0;
  bool request_slo_met = false;

  /// Sharding: how many query-handler shards ran and how many delta-sync
  /// rounds / shipped samples the run performed (0 when sync is disabled).
  std::uint32_t shards = 1;
  std::uint64_t shard_sync_rounds = 0;
  std::uint64_t shard_samples_shipped = 0;

  /// Placement observability: which policy ran and its per-decision
  /// counters. `placement_decisions` counts control-plane place() calls
  /// (0 under the default least_loaded, which keeps the legacy sampling
  /// path, and under a custom `placement` functor).
  PlacementPolicyKind placement_kind = PlacementPolicyKind::kLeastLoaded;
  std::uint64_t placement_decisions = 0;
  std::uint64_t placement_candidates_considered = 0;

  /// Heap allocations made inside the event loop, as observed through the
  /// common/alloc_probe.h hook — always 0 unless the running binary installed
  /// a counter (the hot-path no-malloc test does). Steady-state event
  /// processing is slab-pooled and pre-reserved, so this should stay O(log n)
  /// in the query count (amortized vector doublings), not O(n).
  std::uint64_t event_loop_allocs = 0;

  /// True when every group met its SLO (groups with zero queries are
  /// ignored). `epsilon` is a relative tolerance.
  bool all_slos_met(double epsilon = 0.0) const;

  /// Fraction of offered tasks admitted (1.0 without admission control).
  double task_admit_fraction() const;

  const GroupResult* find_group(ClassId cls, std::uint32_t fanout) const;
  /// Tail latency at the class percentile across all fanouts of a class.
  TimeMs class_tail_latency(ClassId cls) const;
};

SimResult run_simulation(const SimConfig& config);

/// Expected service-time demand (ms of server time) per query, from the
/// fanout model and the mean of the service-time distribution(s); the basis
/// of the offered-load <-> arrival-rate conversion.
double expected_work_per_query(const SimConfig& config);

/// Arrival rate (queries/ms) that offers `load` (0..1) to the cluster:
/// rate = load * num_servers / expected_work_per_query.
double rate_for_load(const SimConfig& config, double load);

}  // namespace tailguard
