#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "common/alloc_probe.h"
#include "common/check.h"
#include "common/slab_map.h"
#include "common/stats.h"
#include "dist/arrival.h"
#include "dist/piecewise_linear_quantile.h"
#include "sim/event_queue.h"

namespace tailguard {

namespace {

using sim_detail::Event;
using sim_detail::EventQueue;

// Payload carried by kTaskEnqueue (the task in flight) and kResultArrival
// (the completed task's accounting), pooled with a freelist.
struct EventPayload {
  QueuedTask task;         // kTaskEnqueue
  QueryId query = 0;       // kResultArrival
  TimeMs dequeue_time = 0; // kResultArrival
  bool missed = false;     // kResultArrival
  bool recorded = false;   // kResultArrival
  std::uint32_t next_free = 0;
};

class PayloadPool {
 public:
  void reserve(std::size_t n) { pool_.reserve(n); }

  std::uint32_t alloc() {
    if (free_head_ != kNone) {
      const std::uint32_t idx = free_head_;
      free_head_ = pool_[idx].next_free;
      return idx;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  EventPayload& operator[](std::uint32_t idx) { return pool_[idx]; }

  void free(std::uint32_t idx) {
    pool_[idx].next_free = free_head_;
    free_head_ = idx;
  }

 private:
  static constexpr std::uint32_t kNone = ~0u;
  std::vector<EventPayload> pool_;
  std::uint32_t free_head_ = kNone;
};

struct ServerState {
  std::unique_ptr<TaskQueue> queue;
  /// Concrete views of `queue` for the two disciplines the figure runs
  /// exercise most (TF-EDFQ/T-EDFQ on the timer wheel, FIFO), set once at
  /// setup — the same pattern as service_plq below: both classes are final,
  /// so the per-task push/pop devirtualizes and inlines through the typed
  /// pointer. All servers share one discipline, so the dispatch branch is
  /// perfectly predicted; other disciplines fall back to the virtual call.
  TimerWheelEdfQueue* queue_wheel = nullptr;
  FifoTaskQueue* queue_fifo = nullptr;
  /// Mirrors queue->size(); the idle/backlog checks run per task and the
  /// counter spares them a virtual call into the discipline.
  std::uint32_t queue_len = 0;
  DistributionPtr service;
  /// Non-null when `service` is a PiecewiseLinearQuantile (the calibrated
  /// Tailbench workloads — i.e. nearly every figure run): the per-task draw
  /// then goes through the concrete final class, which devirtualizes and
  /// inlines. Falls back to the virtual sample() for other distributions.
  const PiecewiseLinearQuantile* service_plq = nullptr;
  bool busy = false;
  QueuedTask current;
  TimeMs current_started = 0.0;
  bool current_recorded = false;  // post-warmup accounting for current task
  bool current_missed = false;    // dequeued past its deadline
  TimeMs busy_since = 0.0;
  double busy_accum = 0.0;
};

// Builds the per-server CDF models for the deadline estimator according to
// the estimation mode, preserving the "servers with the same service-time
// distribution share a model" grouping.
std::vector<std::shared_ptr<CdfModel>> build_models(
    const std::vector<DistributionPtr>& per_server, EstimationMode mode,
    std::size_t offline_samples, Rng& rng) {
  // Single-profile modes seed everything from server 0's distribution
  // (§III.B.2: profile one task server offline).
  const bool single_profile =
      mode == EstimationMode::kOfflineSingleProfile ||
      mode == EstimationMode::kOnlineFromSingleProfile;
  std::vector<double> profile;
  if (single_profile) {
    profile.resize(offline_samples);
    for (auto& x : profile) x = per_server.front()->sample(rng);
  }

  const auto make_streaming_options = [&](const Distribution& dist) {
    StreamingCdfModel::Options opt;
    const double hi = dist.quantile(0.9999);
    const double lo = dist.quantile(0.001);
    opt.histogram.min_value = std::max(1e-6, lo / 10.0);
    opt.histogram.max_value =
        std::max(hi * 100.0, opt.histogram.min_value * 10.0);
    opt.histogram.buckets_per_decade = 200;
    // Age out roughly half the window every 50k observations so the model
    // tracks drift without forgetting the tail too fast.
    opt.histogram.decay_every = 50000;
    opt.histogram.decay_factor = 0.5;
    opt.refresh_every = 2000;
    return opt;
  };

  std::vector<DistributionPtr> distinct;
  std::vector<std::shared_ptr<CdfModel>> group_models;
  std::vector<std::shared_ptr<CdfModel>> result;
  result.reserve(per_server.size());
  for (const auto& dist : per_server) {
    auto it = std::find(distinct.begin(), distinct.end(), dist);
    if (it == distinct.end()) {
      distinct.push_back(dist);
      std::shared_ptr<CdfModel> model;
      switch (mode) {
        case EstimationMode::kExact:
          model = std::make_shared<DistributionCdfModel>(dist);
          break;
        case EstimationMode::kOfflineEmpirical: {
          std::vector<double> sample(offline_samples);
          for (auto& x : sample) x = dist->sample(rng);
          model = std::make_shared<EmpiricalCdfModel>(sample);
          break;
        }
        case EstimationMode::kOfflineSingleProfile:
          model = std::make_shared<EmpiricalCdfModel>(profile);
          break;
        case EstimationMode::kOnlineStreaming: {
          auto streaming =
              std::make_shared<StreamingCdfModel>(make_streaming_options(*dist));
          std::vector<double> sample(offline_samples);
          for (auto& x : sample) x = dist->sample(rng);
          streaming->seed(sample);
          model = std::move(streaming);
          break;
        }
        case EstimationMode::kOnlineFromSingleProfile: {
          // Histogram range must accommodate the (unknown) true latencies,
          // not just the profiled server's: widen generously.
          auto opt = make_streaming_options(*per_server.front());
          opt.histogram.max_value *= 100.0;
          auto streaming = std::make_shared<StreamingCdfModel>(opt);
          streaming->seed(profile);
          model = std::move(streaming);
          break;
        }
      }
      group_models.push_back(std::move(model));
      result.push_back(group_models.back());
    } else {
      result.push_back(
          group_models[static_cast<std::size_t>(it - distinct.begin())]);
    }
  }
  return result;
}

}  // namespace

double expected_work_per_query(const SimConfig& config) {
  TG_CHECK_MSG(config.fanout != nullptr, "fanout model is required");
  double mean_service = 0.0;
  if (!config.per_server_service.empty()) {
    for (const auto& d : config.per_server_service) {
      TG_CHECK_MSG(d != nullptr, "null per-server service distribution");
      mean_service += d->mean();
    }
    mean_service /= static_cast<double>(config.per_server_service.size());
  } else {
    TG_CHECK_MSG(config.service_time != nullptr,
                 "service-time distribution is required");
    mean_service = config.service_time->mean();
  }
  return config.fanout->mean() * mean_service;
}

double rate_for_load(const SimConfig& config, double load) {
  TG_CHECK_MSG(load > 0.0 && load < 1.0, "load must be in (0,1): " << load);
  return load * static_cast<double>(config.num_servers) /
         expected_work_per_query(config);
}

bool SimResult::all_slos_met(double epsilon) const {
  for (const auto& g : groups) {
    if (g.queries == 0) continue;
    if (g.tail_latency_ms > g.slo * (1.0 + epsilon)) return false;
  }
  return true;
}

double SimResult::task_admit_fraction() const {
  const auto total = tasks_admitted + tasks_rejected;
  return total == 0 ? 1.0
                    : static_cast<double>(tasks_admitted) /
                          static_cast<double>(total);
}

const GroupResult* SimResult::find_group(ClassId cls,
                                         std::uint32_t fanout) const {
  for (const auto& g : groups)
    if (g.cls == cls && g.fanout == fanout) return &g;
  return nullptr;
}

TimeMs SimResult::class_tail_latency(ClassId cls) const {
  for (const auto& c : class_results)
    if (c.cls == cls) return c.tail_latency_ms;
  return 0.0;
}

SimResult run_simulation(const SimConfig& config) {
  const bool use_trace = !config.trace.empty();
  const bool request_mode = config.request.has_value();
  const std::size_t total_arrivals =
      use_trace ? config.trace.size() : config.num_queries;

  TG_CHECK_MSG(config.num_servers >= 1, "need at least one server");
  TG_CHECK_MSG(!config.classes.empty(), "need at least one service class");
  TG_CHECK_MSG(total_arrivals > 0, "need at least one query");
  if (!use_trace) {
    TG_CHECK_MSG(config.arrival_rate > 0.0, "arrival rate must be positive");
    const bool request_fanouts =
        request_mode && !config.request->query_fanouts.empty();
    TG_CHECK_MSG(request_fanouts || config.fanout != nullptr ||
                     config.class_fanout != nullptr,
                 "a fanout model or class_fanout function is required");
  }
  TG_CHECK_MSG(
      config.class_probabilities.empty() ||
          config.class_probabilities.size() == config.classes.size(),
      "class_probabilities size must match classes");
  if (request_mode) {
    TG_CHECK_MSG(!use_trace, "request mode does not combine with trace replay");
    TG_CHECK_MSG(config.request->queries_per_request >= 1,
                 "requests need at least one query");
    TG_CHECK_MSG(config.request->query_budgets.size() ==
                     config.request->queries_per_request,
                 "one budget per request query required");
    TG_CHECK_MSG(config.request->query_fanouts.empty() ||
                     config.request->query_fanouts.size() ==
                         config.request->queries_per_request,
                 "query_fanouts must be empty or one per request query");
  }
  TG_CHECK_MSG(config.task_budget_jitter >= 0.0,
               "task budget jitter must be non-negative");

  Rng rng(config.seed);
  Rng estimation_rng = rng.split();

  // --- per-server service-time distributions -----------------------------
  std::vector<DistributionPtr> per_server = config.per_server_service;
  if (per_server.empty()) {
    TG_CHECK_MSG(config.service_time != nullptr,
                 "service-time distribution is required");
    per_server.assign(config.num_servers, config.service_time);
  }
  TG_CHECK_MSG(per_server.size() == config.num_servers,
               "per_server_service size must equal num_servers");
  TG_CHECK_MSG(config.server_models.empty() ||
                   config.server_models.size() == config.num_servers,
               "server_models size must equal num_servers");

  // --- control plane -------------------------------------------------------
  // Owns the whole Fig. 2 query-handler pipeline (admission, Eq. 6/7
  // budgets, t_D, tracking, per-class accounting); the simulator is just the
  // event-driven execution backend around it. Sharded: N query-handler
  // shards, queries routed by arrival index, delta-sync at simulated-time
  // interval boundaries (a single shard is the transparent default).
  const ShardingOptions sharding = config.sharding.value_or(ShardingOptions{});
  const PlacementPolicyOptions placement_opts =
      config.placement_policy.value_or(PlacementPolicyOptions{});
  ControlPlaneOptions cp_options;
  cp_options.policy = config.policy;
  cp_options.classes = config.classes;
  cp_options.admission = config.admission;
  cp_options.placement = placement_opts;
  cp_options.seed = config.seed;
  ShardedControlPlane control(
      sharding, std::move(cp_options),
      !config.server_models.empty()
          ? config.server_models
          : build_models(per_server, config.estimation,
                         config.offline_seed_samples, estimation_rng));

  // --- arrival process ------------------------------------------------------
  std::unique_ptr<ArrivalProcess> arrivals;
  if (!use_trace) {
    switch (config.arrival_kind) {
      case ArrivalKind::kPoisson:
        arrivals = std::make_unique<PoissonProcess>(config.arrival_rate);
        break;
      case ArrivalKind::kPareto:
        arrivals = std::make_unique<ParetoProcess>(config.arrival_rate,
                                                   config.pareto_shape);
        break;
    }
  }

  // --- class mix -------------------------------------------------------------
  std::vector<double> class_cum;
  if (!config.class_probabilities.empty()) {
    double total = 0.0;
    for (double p : config.class_probabilities) {
      TG_CHECK_MSG(p >= 0.0, "negative class probability");
      total += p;
    }
    TG_CHECK_MSG(total > 0.0, "class probabilities must not all be zero");
    double cum = 0.0;
    for (double p : config.class_probabilities) {
      cum += p / total;
      class_cum.push_back(cum);
    }
    class_cum.back() = 1.0;
  }

  // --- servers ---------------------------------------------------------------
  std::vector<ServerState> servers(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s) {
    servers[s].queue = make_task_queue(config.policy, config.classes.size());
    servers[s].queue_wheel =
        dynamic_cast<TimerWheelEdfQueue*>(servers[s].queue.get());
    servers[s].queue_fifo =
        dynamic_cast<FifoTaskQueue*>(servers[s].queue.get());
    servers[s].service = per_server[s];
    servers[s].service_plq =
        dynamic_cast<const PiecewiseLinearQuantile*>(per_server[s].get());
  }

  // --- default placement: uniform distinct servers ----------------------------
  std::vector<ServerId> perm(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s)
    perm[s] = static_cast<ServerId>(s);
  auto default_placement = [&perm](Rng& r, ClassId, std::uint32_t kf) {
    TG_CHECK_MSG(kf <= perm.size(),
                 "fanout " << kf << " exceeds cluster size " << perm.size());
    for (std::uint32_t i = 0; i < kf; ++i) {
      const auto j =
          i + static_cast<std::size_t>(r.uniform_index(perm.size() - i));
      std::swap(perm[i], perm[j]);
    }
  };
  // Dispatch placement with a branch instead of wrapping the default in a
  // std::function: the default shuffle then inlines into issue_query.
  // A custom `placement` functor takes precedence over the policy knob
  // (tests pin exact placements through it). least_loaded keeps the legacy
  // shuffle path above byte-for-byte: every simulator server is an equal
  // candidate, so least-loaded over an unweighted candidate view is exactly
  // uniform distinct sampling — and the Rng stream (one draw per replica)
  // stays bit-identical to the pre-policy simulator. The informed policies
  // route through the control plane over live queue-depth candidates.
  const bool custom_placement = static_cast<bool>(config.placement);
  const bool informed_placement =
      !custom_placement &&
      placement_opts.kind != PlacementPolicyKind::kLeastLoaded;

  // --- bookkeeping -------------------------------------------------------------
  std::vector<bool> record_query_flag;  // indexed by admitted QueryId
  MetricsCollector metrics;

  // Request mode state. Follow-up queries stay on the head query's shard
  // (shard affinity: the request's Eq. 7 budget chain lives in one handler).
  // Request ids are the dense 0, 1, 2, ... and query ids cover every shard's
  // progression, so both maps live in SlabMaps (stride 1): the per-result
  // link/unlink on the hot path is array loads plus freelist pushes, never a
  // hash probe or node allocation.
  struct RequestState {
    TimeMs t0 = 0.0;
    std::size_t next_query = 0;  // index of the next query to issue
    std::uint32_t shard = 0;
    bool record = false;
  };
  SlabMap<RequestState> requests;          // request id -> state
  SlabMap<std::uint64_t> query_request;    // QueryId -> request id
  std::vector<double> request_latencies;
  std::uint64_t next_request_id = 0;

  const auto warmup_offered = static_cast<std::size_t>(
      config.warmup_fraction * static_cast<double>(total_arrivals));

  SimResult result;

  // Size hint for the network model's dispatch/result events in flight
  // (each holds one pooled payload; kTaskDone lives in the event set's
  // per-server calendar). The in-flight population scales with the shard
  // count: each shard's admission window meters its own slice of the
  // arrivals, so N shards sustain roughly N times the single-shard
  // dispatch/result backlog.
  const bool network_model = config.dispatch_delay_ms != nullptr ||
                             config.result_delay_ms != nullptr;
  const std::size_t network_events =
      network_model
          ? std::size_t{4} * config.num_servers * sharding.num_shards + 64
          : 0;
  EventQueue events(config.num_servers, network_events);
  std::size_t offered = 0;
  TimeMs now = 0.0;

  const auto scale_at = [&config](TimeMs t, ServerId sid) {
    return config.service_scale ? config.service_scale(t, sid) : 1.0;
  };

  PayloadPool payloads;
  // With a result-path delay, the query handler only learns about a dequeue
  // (and its deadline miss, piggybacked on the result — §III.C) when the
  // result arrives; with central queuing it knows immediately.
  const bool defer_result_accounting = config.result_delay_ms != nullptr;

  // Starts `task` on idle server `sid` at time `t`.
  const auto start_task = [&](ServerState& sv, ServerId sid,
                              const QueuedTask& task, TimeMs t) {
    TG_DCHECK(!sv.busy);
    sv.busy = true;
    sv.busy_since = t;
    sv.current = task;
    sv.current_started = t;
    sv.current_recorded =
        task.query < record_query_flag.size() && record_query_flag[task.query];
    sv.current_missed =
        t > control.query_state(task.query).deadline + 1e-12;
    if (!defer_result_accounting) {
      control.record_task_dequeue(task.query, t, task.cls, sv.current_missed);
      if (sv.current_recorded) metrics.record_task_dequeue(sv.current_missed);
    }
    const TimeMs service = task.service_time * scale_at(t, sid);
    events.push(Event{t + service, Event::kTaskDone, sid});
  };

  // pow_d's candidate view, kept for the whole run: each server's load
  // (queued + in service) goes up by one in deliver_task and down by one at
  // its kTaskDone, so a placement reads only the candidates it samples.
  std::vector<PlacementCandidate> candidates(config.num_servers);
  for (std::size_t s = 0; s < config.num_servers; ++s)
    candidates[s] = {0, static_cast<ServerId>(s)};

  // Hands a task to its server's queue (or straight into service). The
  // queue-empty check matters: inside the completion handler the server is
  // momentarily idle *with* a non-empty queue (the head is popped after the
  // result is processed), and a request-chained follow-up task must not
  // jump that queue.
  const auto deliver_task = [&](const QueuedTask& task, ServerId sid,
                                TimeMs t) {
    ServerState& sv = servers[sid];
    ++candidates[sid].first;
    if (sv.busy || sv.queue_len != 0) {
      // Concrete-pointer dispatch (see ServerState): the wheel/FIFO push
      // inlines here instead of going through the vtable.
      if (sv.queue_wheel != nullptr) sv.queue_wheel->push(task);
      else if (sv.queue_fifo != nullptr) sv.queue_fifo->push(task);
      else sv.queue->push(task);
      ++sv.queue_len;
    } else {
      start_task(sv, sid, task, t);
    }
    TG_DCHECK(candidates[sid].first == sv.queue_len + (sv.busy ? 1u : 0u));
  };

  std::vector<ServerId> chosen;
  chosen.reserve(config.num_servers);

  // Draws a class id from the configured mix.
  const auto sample_class = [&]() -> ClassId {
    if (class_cum.empty()) return 0;
    const double u = rng.uniform();
    const auto it = std::upper_bound(class_cum.begin(), class_cum.end(), u);
    return static_cast<ClassId>(
        std::min<std::size_t>(static_cast<std::size_t>(it - class_cum.begin()),
                              class_cum.size() - 1));
  };

  // Issues one query at time `t`: places tasks, computes deadlines, registers
  // with the tracker and enqueues/starts the tasks. `request_id` links the
  // query to a request (request mode); `request_query_idx` selects the
  // request budget.
  const auto issue_query = [&](TimeMs t, std::uint32_t shard, ClassId cls,
                               std::uint32_t kf, bool record,
                               std::uint64_t request_id = ~0ULL,
                               std::size_t request_query_idx = 0) {
    // The default shuffle leaves the placed set in perm's prefix, so the
    // common path hands a span straight over it — no copy into `chosen`.
    std::span<const ServerId> placed;
    if (custom_placement) {
      config.placement(rng, cls, kf, chosen);
      TG_DCHECK(chosen.size() == kf);
      placed = chosen;
    } else if (informed_placement) {
      // pow_d over the run-long candidate view, decided by the shard's
      // policy: a decision reads the d sampled candidates per pick and
      // nothing else, and the picks reuse run-long scratch, so this path
      // allocates nothing either.
      TG_CHECK_MSG(kf <= servers.size(),
                   "fanout " << kf << " exceeds cluster size "
                             << servers.size());
      control.place(shard, candidates, kf, chosen);
      placed = chosen;
    } else {
      default_placement(rng, cls, kf);
      placed = std::span<const ServerId>(perm.data(), kf);
    }
    if (config.on_query_placed) config.on_query_placed(cls, placed);

    // The control plane computes the budget (Eq. 6, or the Eq. 7 request
    // decomposition via the override), the shared t_D and the policy
    // ordering key, and registers the query. Request mode judges T-EDFQ
    // ordering by the request-level SLO.
    std::optional<TimeMs> budget_override;
    std::optional<TimeMs> order_slo_ms;
    if (request_mode) {
      budget_override = config.request->query_budgets[request_query_idx];
      order_slo_ms = config.request->request_slo.slo_ms;
    }
    const QueryPlan plan =
        control.begin_query(shard, t, cls, placed, budget_override,
                            order_slo_ms);
    const QueryId qid = plan.id;
    // Strided shard ids leave holes; the flag table is indexed by id, so
    // grow it to cover qid (the dense single-shard case grows by one).
    if (qid >= record_query_flag.size()) record_query_flag.resize(qid + 1);
    record_query_flag[qid] = record;
    if (request_id != ~0ULL) query_request.emplace(qid) = request_id;
    if (config.on_query_planned) config.on_query_planned(plan);

    for (std::uint32_t k = 0; k < kf; ++k) {
      const ServerId sid = placed[k];
      QueuedTask task;
      task.query = qid;
      task.cls = cls;
      task.enqueue_time = t;
      task.deadline = plan.order_deadline;
      if (config.policy == Policy::kTfEdf && config.task_budget_jitter > 0.0) {
        // Footnote-4 ablation: individually jittered ordering budgets.
        const double u = rng.uniform(-1.0, 1.0);
        task.deadline =
            t + plan.budget_ms * (1.0 + config.task_budget_jitter * u);
      }
      // Pre-sample the service demand (common random numbers across
      // policies). The concrete-pointer branch inlines the whole draw.
      const ServerState& placed_sv = servers[sid];
      task.service_time = placed_sv.service_plq != nullptr
                              ? placed_sv.service_plq->sample(rng)
                              : placed_sv.service->sample(rng);
      if (config.dispatch_delay_ms != nullptr) {
        const std::uint32_t idx = payloads.alloc();
        payloads[idx].task = task;
        events.push(Event{t + config.dispatch_delay_ms->sample(rng),
                          Event::kTaskEnqueue, sid, idx});
      } else {
        deliver_task(task, sid, t);
      }
    }
  };

  // Handles a task result reaching the query handler at time `t`: feeds the
  // online estimator, records deferred accounting, merges the result and —
  // in request mode — issues the request's next query.
  const auto handle_result = [&](TimeMs t, QueryId query, ServerId server,
                                 TimeMs dequeue_time, bool missed,
                                 bool recorded) {
    if (config.estimation == EstimationMode::kOnlineStreaming ||
        config.estimation == EstimationMode::kOnlineFromSingleProfile)
      control.observe_post_queuing(query, server, t - dequeue_time);

    if (defer_result_accounting) {
      control.record_task_dequeue(query, t, control.query_state(query).cls,
                                  missed);
      if (recorded) metrics.record_task_dequeue(missed);
    }

    QueryState finished;
    if (!control.complete_task(query, &finished)) return;
    if (recorded)
      metrics.record_query(finished.cls, finished.fanout, t - finished.t0);

    if (request_mode) {
      const std::uint64_t* link = query_request.find(query);
      TG_CHECK_MSG(link != nullptr, "query without request");
      const std::uint64_t rid = *link;
      query_request.erase(query);
      RequestState* req = requests.find(rid);
      TG_CHECK_MSG(req != nullptr, "unknown request");
      if (req->next_query < config.request->queries_per_request) {
        const std::size_t qidx = req->next_query++;
        const ClassId next_cls = sample_class();
        const std::uint32_t next_kf =
            !config.request->query_fanouts.empty()
                ? config.request->query_fanouts[qidx]
                : (config.class_fanout ? config.class_fanout(rng, next_cls)
                                       : config.fanout->sample(rng));
        issue_query(t, req->shard, next_cls, next_kf, req->record, rid, qidx);
      } else {
        if (req->record) request_latencies.push_back(t - req->t0);
        requests.erase(rid);
      }
    }
  };

  // Pre-size the per-run bookkeeping from the workload bounds so the event
  // loop below runs malloc-free in steady state (pinned by the alloc-probe
  // test): what remains are the amortized doublings of structures whose size
  // the config genuinely does not bound up front (per-group latency samples,
  // per-server queue backlogs).
  {
    const std::size_t queries_per_arrival =
        request_mode ? config.request->queries_per_request : 1;
    const std::size_t total_queries = total_arrivals * queries_per_arrival;
    const std::uint32_t shards = control.num_shards();
    // Strided shard ids leave holes: the id-indexed tables span up to
    // shards * total_queries ids even though only total_queries go live.
    record_query_flag.reserve(total_queries * shards);
    control.reserve_queries(total_queries / shards + 1, config.num_servers);
    payloads.reserve(network_events);
    if (request_mode) {
      requests.reserve(total_arrivals, config.num_servers);
      query_request.reserve(total_queries * shards, config.num_servers);
      request_latencies.reserve(total_arrivals);
    }
  }

  // Arrivals stay out of the event queue entirely: the stream is generated
  // in time order, so one pending arrival time merged against the queue head
  // reproduces the old pop order exactly (at a time tie the arrival pops
  // first, as kArrival used to sort before every other kind) while roughly a
  // quarter of all queue traffic disappears.
  TimeMs next_arrival = use_trace ? config.trace.front().arrival_ms
                                  : arrivals->next_interarrival(rng);
  bool arrival_pending = true;
  ++offered;

  const std::uint64_t allocs_at_loop_entry = alloc_count();

  while (arrival_pending || !events.empty()) {
    if (arrival_pending &&
        (events.empty() || next_arrival <= events.peek_time())) {
      now = next_arrival;
      control.maybe_sync(now);
      const std::size_t arrival_idx = offered - 1;
      // Draw the next arrival first so the process is independent of
      // admission decisions.
      if (offered < total_arrivals) {
        next_arrival = use_trace ? config.trace[offered].arrival_ms
                                 : now + arrivals->next_interarrival(rng);
        ++offered;
      } else {
        arrival_pending = false;
      }

      // Query (or first-query-of-request) attributes.
      ClassId cls = 0;
      std::uint32_t kf = 1;
      if (use_trace) {
        const QueryRecord& rec = config.trace[arrival_idx];
        TG_CHECK_MSG(rec.class_id < config.classes.size(),
                     "trace class " << rec.class_id << " unknown");
        cls = rec.class_id;
        kf = rec.fanout;
      } else {
        cls = sample_class();
        if (request_mode && !config.request->query_fanouts.empty()) {
          kf = config.request->query_fanouts[0];
        } else {
          kf = config.class_fanout ? config.class_fanout(rng, cls)
                                   : config.fanout->sample(rng);
        }
      }

      // Route the arrival to its query-handler shard (the arrival index is
      // the routing key: deterministic, and a single shard always routes
      // to 0 with no extra work).
      const std::uint32_t shard = control.route(arrival_idx, cls);

      // Admission decision (per arrival: per query, or per request). The
      // coin is drawn from the simulator's own Rng so the event stream stays
      // replayable; the short-circuit keeps the draw out of admission-free
      // runs.
      if (control.admission_enabled() &&
          !control.should_admit(shard, now, rng.uniform())) {
        control.count_rejected(shard);
        ++result.queries_rejected;
        result.tasks_rejected += kf;
        continue;
      }
      control.count_admitted(shard);
      ++result.queries_admitted;
      result.tasks_admitted += kf;

      const bool record = arrival_idx + 1 > warmup_offered;
      if (request_mode) {
        const std::uint64_t rid = next_request_id++;
        requests.emplace(rid) = RequestState{.t0 = now, .next_query = 1,
                                             .shard = shard, .record = record};
        issue_query(now, shard, cls, kf, record, rid, 0);
      } else {
        issue_query(now, shard, cls, kf, record);
      }
      continue;
    }

    Event ev = events.pop();
    now = ev.time;
    control.maybe_sync(now);

    // Batched completion handling: drain every event sharing this timestamp
    // in one pass. An arrival cannot preempt the batch (the merge above
    // guarantees next_arrival > now, and event processing never draws
    // arrivals), re-popping between items keeps the exact (time, key) order
    // even for same-time events pushed mid-batch, and maybe_sync — a no-op
    // on a second call at the same time — runs once per timestamp instead of
    // once per event. Bit-identical to the one-event-at-a-time path.
    for (;;) {
      if (ev.kind() == Event::kTaskEnqueue) {
        // A dispatched task reaches its server.
        const QueuedTask task = payloads[ev.payload()].task;
        payloads.free(ev.payload());
        deliver_task(task, ev.server(), now);
      } else if (ev.kind() == Event::kTaskDone) {
        // Task completion on ev.server.
        ServerState& sv = servers[ev.server()];
        TG_DCHECK(sv.busy);
        const QueuedTask done = sv.current;
        const TimeMs dequeue_time = sv.current_started;
        const bool missed = sv.current_missed;
        const bool recorded = sv.current_recorded;

        // Free the server before the result handling possibly issues
        // follow-up queries that could land on this very server.
        sv.busy = false;
        sv.busy_accum += now - sv.busy_since;
        --candidates[ev.server()].first;

        if (config.result_delay_ms != nullptr) {
          const std::uint32_t idx = payloads.alloc();
          payloads[idx].query = done.query;
          payloads[idx].dequeue_time = dequeue_time;
          payloads[idx].missed = missed;
          payloads[idx].recorded = recorded;
          events.push(Event{now + config.result_delay_ms->sample(rng),
                            Event::kResultArrival, ev.server(), idx});
        } else {
          handle_result(now, done.query, ev.server(), dequeue_time, missed,
                        recorded);
        }

        if (sv.queue_len != 0 && !sv.busy) {
          QueuedTask next = sv.queue_wheel != nullptr ? sv.queue_wheel->pop()
                            : sv.queue_fifo != nullptr ? sv.queue_fifo->pop()
                                                       : sv.queue->pop();
          --sv.queue_len;
          start_task(sv, ev.server(), next, now);
        }
        TG_DCHECK(candidates[ev.server()].first ==
                  sv.queue_len + (sv.busy ? 1u : 0u));
      } else {
        // A task result reaches the query handler.
        const EventPayload payload = payloads[ev.payload()];
        payloads.free(ev.payload());
        handle_result(now, payload.query, ev.server(), payload.dequeue_time,
                      payload.missed, payload.recorded);
      }
      if (events.empty() || events.peek_time() != now) break;
      ev = events.pop();
    }
  }

  // --- collect results ----------------------------------------------------
  result.event_loop_allocs = alloc_count() - allocs_at_loop_entry;
  result.queries_offered = result.queries_admitted + result.queries_rejected;
  result.end_time = now;
  result.task_deadline_miss_ratio = metrics.task_deadline_miss_ratio();
  result.shards = control.num_shards();
  result.shard_sync_rounds = control.sync_stats().rounds;
  result.shard_samples_shipped = control.sync_stats().samples_shipped;
  result.placement_kind = control.placement_kind();
  {
    const PlacementStats pstats = control.placement_stats();
    result.placement_decisions = pstats.decisions;
    result.placement_candidates_considered = pstats.candidates_considered;
  }

  double busy_total = 0.0;
  result.server_utilization.reserve(servers.size());
  for (const auto& sv : servers) {
    busy_total += sv.busy_accum;
    result.server_utilization.push_back(now > 0.0 ? sv.busy_accum / now : 0.0);
  }
  result.measured_utilization =
      now > 0.0 ? busy_total / (static_cast<double>(config.num_servers) * now)
                : 0.0;

  std::vector<std::pair<GroupKey, LatencySample>*> sorted_groups;
  sorted_groups.reserve(metrics.groups().size());
  for (auto& group : metrics.mutable_groups()) sorted_groups.push_back(&group);
  std::sort(sorted_groups.begin(), sorted_groups.end(),
            [](const auto* a, const auto* b) {
              return a->first.cls != b->first.cls
                         ? a->first.cls < b->first.cls
                         : a->first.fanout < b->first.fanout;
            });

  // Percentiles select in place (no copy, no full sort), permuting each
  // sample buffer — so everything that depends on insertion order happens
  // strictly before the selection that consumes it: per-class concatenation
  // and means first (floating-point sums are order-sensitive; the reported
  // means are pinned to insertion order by stats_test), then the destructive
  // tail extraction.
  std::vector<std::vector<double>> per_class_values(config.classes.size());
  for (const auto* group : sorted_groups) {
    auto& acc = per_class_values[group->first.cls];
    const std::vector<double>& values = group->second.values();
    acc.insert(acc.end(), values.begin(), values.end());
  }
  for (auto* group : sorted_groups) {
    const GroupKey& key = group->first;
    const ClassSpec& spec = config.classes[key.cls];
    GroupResult g;
    g.cls = key.cls;
    g.fanout = key.fanout;
    g.queries = group->second.count();
    const auto tm = group->second.tail_and_mean(spec.percentile);
    g.tail_latency_ms = tm.tail_ms;
    g.mean_latency_ms = tm.mean_ms;
    g.slo = spec.slo_ms;
    g.met = g.tail_latency_ms <= spec.slo_ms;
    result.groups.push_back(g);
  }

  for (std::size_t cls = 0; cls < config.classes.size(); ++cls) {
    if (per_class_values[cls].empty()) continue;
    const ClassSpec& spec = config.classes[cls];
    ClassResult c;
    c.cls = static_cast<ClassId>(cls);
    c.queries = per_class_values[cls].size();
    c.mean_latency_ms = mean_of(per_class_values[cls]);
    c.tail_latency_ms =
        percentile_inplace(per_class_values[cls], spec.percentile);
    c.slo = spec.slo_ms;
    c.met = c.tail_latency_ms <= spec.slo_ms;
    result.class_results.push_back(c);
  }

  if (request_mode && !request_latencies.empty()) {
    const ClassSpec& rslo = config.request->request_slo;
    result.requests_recorded = request_latencies.size();
    result.request_mean_latency_ms = mean_of(request_latencies);
    result.request_tail_latency_ms =
        percentile_inplace(request_latencies, rslo.percentile);
    result.request_slo_met = result.request_tail_latency_ms <= rslo.slo_ms;
  }

  return result;
}

}  // namespace tailguard
