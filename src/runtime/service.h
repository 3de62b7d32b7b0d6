// TailGuardService — the in-process, multi-threaded TailGuard runtime.
//
// This is the "implemented and tested" counterpart of the paper's testbed
// software: a central query handler (Fig. 2) that fans queries out to worker
// threads, computes task queuing deadlines from per-worker CDF models,
// updates those models online from observed post-queuing times (§III.B.2),
// and optionally applies query admission control (§III.C).
//
// Typical use (see examples/quickstart.cpp):
//
//   ServiceOptions opt;
//   opt.num_workers = 8;
//   opt.policy = Policy::kTfEdf;
//   opt.classes = {{.slo_ms = 20.0, .percentile = 99.0}};
//   TailGuardService svc(opt);
//   svc.seed_profile(offline_samples);                  // offline estimation
//   auto fut = svc.submit(/*cls=*/0, tasks);            // fan out
//   QueryResult r = fut.get();                          // merged result
#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/thread_annotations.h"
#include "core/admission.h"
#include "runtime/worker.h"
#include "shard/query_front_door.h"

namespace tailguard {

struct ServiceOptions {
  std::size_t num_workers = 4;
  Policy policy = Policy::kTfEdf;
  /// Service classes ordered by priority (class 0 tightest, as PRIQ expects).
  std::vector<ClassSpec> classes;
  /// Streaming-model knobs for the per-worker CDFs (default histogram).
  StreamingCdfModel::Options model_options = {.refresh_every = 500};
  /// Admission control; disabled when unset.
  std::optional<AdmissionOptions> admission;
  std::uint64_t seed = 42;
  /// Query-handler sharding (src/shard): submissions are routed across this
  /// many control-plane shards, each behind its own mutex, with periodic
  /// delta-sync of model and admission state. 1 (the default) preserves the
  /// single-handler behaviour exactly.
  std::uint32_t num_handler_shards = 1;
  /// Delta-sync period (service-clock ms); <= 0 disables sync.
  TimeMs shard_sync_interval_ms = 0.0;
  /// Round-robin keeps concurrent submitters evenly spread by default.
  RouterKind shard_router = RouterKind::kRoundRobin;
  /// Placement policy for auto-placed tasks (core/placement/policy.h).
  PlacementPolicyOptions placement;
  /// Called once per admitted query with its workers (see
  /// QueryFrontDoor::Observer); keep it cheap. For the parity tests.
  QueryFrontDoor::Observer placement_observer;
};

/// One task of a submitted query.
struct ServiceTaskSpec {
  /// Target worker; unset means the handler picks the least-loaded workers,
  /// distinct per query.
  std::optional<ServerId> worker;
  std::function<void()> work;
  TimeMs simulated_service_ms = 0.0;
};

class TailGuardService {
 public:
  explicit TailGuardService(ServiceOptions options);
  /// Blocks until all in-flight queries finish, then stops the workers.
  ~TailGuardService();

  TailGuardService(const TailGuardService&) = delete;
  TailGuardService& operator=(const TailGuardService&) = delete;

  /// Offline estimation: seeds every worker's CDF model with a profiled
  /// post-queuing-time sample (ms).
  void seed_profile(std::span<const double> samples_ms);

  /// Submits a query of class `cls` with one entry per task. The future
  /// resolves when all task results are merged (or immediately with
  /// admitted=false when admission control rejects the query).
  ///
  /// `budget_override` replaces the Eq. 6 pre-dequeuing budget with an
  /// explicit one (the task deadline becomes now + budget). Request-level
  /// decomposition (Eq. 7) uses this to impose per-query budgets computed
  /// by split_request_budget().
  std::future<QueryResult> submit(ClassId cls,
                                  std::vector<ServiceTaskSpec> tasks,
                                  std::optional<TimeMs> budget_override = {});

  /// Monotonic service clock (ms since construction).
  TimeMs now_ms() const;

  std::uint64_t completed_queries() const;
  std::uint64_t rejected_queries() const;
  double deadline_miss_ratio() const;
  std::size_t num_workers() const { return workers_.size(); }

  /// Placement observability: which policy ran and its per-decision
  /// counters, summed across handler shards.
  PlacementPolicyKind placement_kind() const;
  PlacementStats placement_stats() const;

  /// Snapshot of a worker's CDF model (e.g. to inspect learned quantiles):
  /// a deep copy taken under the shard locks, safe to read while queries are
  /// still in flight. (Returning a reference here used to let the model
  /// escape its lock while worker threads kept updating it — the annotation
  /// pass caught that.)
  std::shared_ptr<const CdfModel> worker_model(ServerId worker) const;

 private:
  void on_task_complete(ServerId worker, const RuntimeTask& task,
                        TimeMs dequeue_ms, TimeMs complete_ms);
  /// N-ary ordered acquisition through a dynamic container: inherently
  /// outside TSA's static capability model, like std::lock. unique_lock
  /// works on the annotated Mutex (a Lockable); the std header is simply
  /// not analyzed.
  std::vector<std::unique_lock<Mutex>> lock_all() const;
  /// Runs a delta-sync round when the interval boundary has passed; cheap
  /// atomic check on the fast path, all-shard lock only when a round is due.
  void maybe_sync(TimeMs now);

  // tg-lint: allow(guarded-member): immutable after construction.
  ServiceOptions options_;
  // tg-lint: allow(guarded-member): immutable after construction.
  std::chrono::steady_clock::time_point epoch_;

  /// The query handler over N control-plane shards with delta-sync. Calls
  /// on shard i hold shard_mu_[i] (all its mutable state is per-shard; i is
  /// a runtime value, so TSA cannot express it); cross-shard ones hold every
  /// shard's mutex in index order (lock_all).
  // tg-lint: allow(guarded-member): guarded per shard, as documented above.
  QueryFrontDoor door_;
  std::vector<std::unique_ptr<Mutex>> shard_mu_;
  std::atomic<TaskId> next_task_id_{0};
  /// Routing key source: one monotone counter across all submitters.
  std::atomic<std::uint64_t> submit_seq_{0};
  /// Racy mirror of the plane's next_sync_at(), so non-due completions skip
  /// the all-shard lock.
  std::atomic<double> next_sync_hint_;

  // Workers last: their threads must stop before the state above dies, and
  // member destruction order (reverse declaration) guarantees it.
  // tg-lint: allow(guarded-member): immutable after construction.
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace tailguard
