// The query control plane: one policy-agnostic implementation of the paper's
// Fig. 2 query-handler pipeline, shared by every execution backend.
//
// Admission check (§III.C) → per-task budget (Eq. 6 / Eq. 7 override) →
// distinct-server placement (core/placement) → t_D computation → query
// registration → per-class completion/miss accounting → online CDF-model
// updating (§III.B.2). The discrete-event simulator, the threaded in-process
// runtime, the TCP remote dispatcher and the SaS testbed are thin backends:
// they own execution (queues, threads, sockets, events) and drive this class
// for every scheduling decision. Backends must not instantiate
// DeadlineEstimator / QueryTracker / AdmissionController directly — the
// tg_lint rule `control-plane-boundary` enforces exactly that.
//
// Thread safety: none. Callers with concurrent submitters (runtime, net)
// already serialise the query handler under their own mutex; the simulator
// is single-threaded per simulation. Keeping the control plane lock-free
// keeps it usable from the simulator's hot loop unchanged.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/admission.h"
#include "core/deadline.h"
#include "core/placement/policy.h"
#include "core/query_tracker.h"

namespace tailguard {

struct ControlPlaneOptions {
  Policy policy = Policy::kTfEdf;
  /// Service classes ordered by priority (class 0 = tightest SLO).
  std::vector<ClassSpec> classes;
  /// Admission control (§III.C); disabled when unset.
  std::optional<AdmissionOptions> admission;
  /// Distinct-server placement policy (core/placement/policy.h). The
  /// default, least_loaded, reproduces the paper's behaviour bit-for-bit.
  PlacementPolicyOptions placement;
  /// Seeds the control plane's own Rng (placement tie-breaks, proportional
  /// admission coins). Backends that need replayable randomness (the sim)
  /// pass their own draws instead and never touch this stream.
  std::uint64_t seed = 42;
  /// Query-id progression: ids handed out are id_start, id_start + id_stride,
  /// ... The defaults give the dense 0, 1, 2, ... A sharded deployment runs
  /// shard i of N with (i, N), so ids are globally unique and id % N is the
  /// owning shard. Requires id_start < id_stride.
  QueryId id_start = 0;
  QueryId id_stride = 1;
};

/// Everything the control plane decided about one admitted query: identity,
/// the Eq. 6 pre-dequeuing budget, the shared task queuing deadline t_D and
/// the policy ordering key the backend must enqueue every task under.
struct QueryPlan {
  QueryId id = 0;
  ClassId cls = 0;
  std::uint32_t fanout = 0;
  TimeMs t0 = 0.0;
  /// Pre-dequeuing budget T_b (Eq. 6), or the caller's Eq. 7 override.
  TimeMs budget_ms = 0.0;
  /// Shared task queuing deadline t_D = t0 + budget_ms; miss accounting
  /// compares dequeue times against this.
  TimeMs tail_deadline = 0.0;
  /// Policy ordering key: t_D for TF-EDFQ, t0 + SLO for T-EDFQ, t0 for
  /// FIFO/PRIQ (unused for ordering there).
  TimeMs order_deadline = 0.0;
};

/// Placement observability: per-decision counters so benches can correlate
/// policy choice with placement cost.
struct PlacementStats {
  std::uint64_t decisions = 0;
  /// Candidates the policy actually examined (pow_d looks at d per pick,
  /// least_loaded at all n per decision).
  std::uint64_t candidates_considered = 0;
};

/// Per-class completion/miss tallies, maintained by complete_task and
/// record_task_dequeue.
struct ClassAccounting {
  std::uint64_t queries_completed = 0;
  std::uint64_t tasks_recorded = 0;
  std::uint64_t tasks_missed = 0;
};

class QueryControlPlane {
 public:
  /// One CdfModel per task server; servers sharing a model form a
  /// homogeneous group (shared_ptr identity, as in DeadlineEstimator).
  QueryControlPlane(ControlPlaneOptions options,
                    std::vector<std::shared_ptr<CdfModel>> server_models);

  // --- Admission (§III.C) -------------------------------------------------

  bool admission_enabled() const { return admission_.has_value(); }

  /// Whether a query arriving at `now` should be admitted; true when
  /// admission control is disabled. Draws the kProportional coin from the
  /// control plane's own Rng (kOnOff consumes no randomness).
  bool should_admit(TimeMs now);
  /// Replayable-randomness variant: the caller supplies the coin (the sim
  /// passes rng.uniform() so its event stream stays bit-reproducible).
  bool should_admit(TimeMs now, double coin);

  /// Outcome bookkeeping, called once per offered query.
  void count_admitted();
  void count_rejected();

  std::uint64_t queries_admitted() const { return queries_admitted_; }
  std::uint64_t queries_rejected() const { return queries_rejected_; }
  std::uint64_t queries_completed() const { return queries_completed_; }

  /// Current admission-window miss ratio (0 when admission is disabled).
  double admission_miss_ratio(TimeMs now);

  // --- Placement ----------------------------------------------------------

  /// Picks `count` servers from `candidates` under the configured placement
  /// policy, drawing randomness from the control plane's Rng (see
  /// core/placement/policy.h for the per-policy contracts and costs). The
  /// picks replace the contents of `out`; `candidates` is only read, so a
  /// caller may keep one view across decisions. A caller that also reuses
  /// `out` places without allocating.
  void place(std::span<const PlacementCandidate> candidates,
             std::size_t count, std::vector<ServerId>& out) {
    ++placement_stats_.decisions;
    placement_stats_.candidates_considered +=
        placement_policy_->place(candidates, count, rng_, out);
  }
  /// The same decision, returned in a new vector.
  std::vector<ServerId> place(std::vector<PlacementCandidate> candidates,
                              std::size_t count) {
    std::vector<ServerId> out;
    place(candidates, count, out);
    return out;
  }

  PlacementPolicyKind placement_kind() const {
    return placement_policy_->kind();
  }
  const PlacementStats& placement_stats() const { return placement_stats_; }

  // --- Deadlines & query lifecycle ---------------------------------------

  /// Eq. 6 budget T_b = x_p^SLO - x_p^u for class `cls` fanning out to
  /// exactly `servers`.
  TimeMs budget(ClassId cls, std::span<const ServerId> servers);

  /// Admits one query into the pipeline: computes its budget (Eq. 6, or
  /// `budget_override` for Eq. 7 request decomposition), the shared t_D and
  /// the policy ordering key, and registers it with the tracker. For kTEdf,
  /// `order_slo_ms` overrides the class SLO in the ordering key (request
  /// mode judges ordering by the request-level SLO).
  QueryPlan begin_query(TimeMs t0, ClassId cls,
                        std::span<const ServerId> servers,
                        std::optional<TimeMs> budget_override = std::nullopt,
                        std::optional<TimeMs> order_slo_ms = std::nullopt);

  /// State of an in-flight query (alive until its last complete_task).
  /// Inline: this and the two calls below run once (or kf times) per task in
  /// every backend's hot loop, and the whole facade -> plane -> tracker ->
  /// slab chain must flatten into the caller.
  const QueryState& query_state(QueryId id) const { return tracker_.state(id); }

  /// Merges one task result; returns true when the query is complete (and
  /// bumps the per-class completion tally). `finished` (if non-null)
  /// receives the final state before erase.
  bool complete_task(QueryId id, QueryState* finished = nullptr) {
    QueryState local;
    QueryState* out = finished ? finished : &local;
    const bool last = tracker_.complete_task(id, out);
    if (last) {
      ++queries_completed_;
      ++per_class_[out->cls].queries_completed;
    }
    return last;
  }

  /// Records one task dequeue for admission + per-class miss accounting;
  /// `missed` is whether the dequeue happened past the query's t_D.
  void record_task_dequeue(TimeMs now, ClassId cls, bool missed) {
    ClassAccounting& acct = per_class_[cls];
    ++acct.tasks_recorded;
    if (missed) ++acct.tasks_missed;
    if (admission_) admission_->record_task_dequeue(now, missed);
  }

  /// Capacity hint: `queries` expected begin_query calls this plane will see
  /// and `in_flight` a bound on simultaneously live queries. Purely an
  /// allocation pre-size — behaviour is identical without it.
  void reserve_queries(std::size_t queries, std::size_t in_flight) {
    tracker_.reserve(queries, in_flight);
  }

  /// Merges a remote shard's dequeue delta (`recorded` tasks, `missed` of
  /// them late) into the admission window only. Per-class tallies stay
  /// local-only: each shard's SimResult/serve metrics must count every task
  /// exactly once globally, while the admission signal deliberately reflects
  /// the merged cluster-wide miss ratio.
  void absorb_remote_dequeues(TimeMs now, std::uint64_t recorded,
                              std::uint64_t missed);

  /// §III.B.2 online updating: one observed post-queuing time for `server`.
  void observe_post_queuing(ServerId server, TimeMs post_queuing_ms);

  // --- Introspection ------------------------------------------------------

  Policy policy() const { return options_.policy; }
  std::size_t num_classes() const { return options_.classes.size(); }
  const ClassSpec& class_spec(ClassId cls) const;
  const ClassAccounting& class_accounting(ClassId cls) const;

  /// Tasks recorded / missed across all classes, and their ratio.
  std::uint64_t tasks_recorded() const;
  std::uint64_t tasks_missed() const;
  double task_miss_ratio() const;

  std::size_t in_flight() const { return tracker_.in_flight(); }
  std::uint64_t queries_started() const { return tracker_.started(); }
  const CdfModel& model_of(ServerId server) const;

 private:
  ControlPlaneOptions options_;
  DeadlineEstimator estimator_;
  QueryTracker tracker_;
  std::optional<AdmissionController> admission_;
  Rng rng_;
  std::unique_ptr<PlacementPolicy> placement_policy_;
  PlacementStats placement_stats_;
  std::vector<ClassAccounting> per_class_;
  std::uint64_t queries_admitted_ = 0;
  std::uint64_t queries_rejected_ = 0;
  std::uint64_t queries_completed_ = 0;
};

}  // namespace tailguard
