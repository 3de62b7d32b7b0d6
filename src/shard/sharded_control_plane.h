// The query control plane: one policy-agnostic implementation of the paper's
// Fig. 2 query-handler pipeline, shared by every execution backend and run as
// N query-handler shards, plus the periodic delta sync that keeps the
// shards' views of per-server CDF models and admission windows from drifting
// apart forever.
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
// A shard is private data of this class (struct Shard below), so state moves
// between shards only in the sync round. Identity scheme: shard i of N
// allocates query ids i, i+N, i+2N, ... (the QueryTracker stride form), so
// ids are globally unique and `id % N` recovers the owning shard —
// task-completion paths route by query id alone, with no extra lookup table.
// Shard 0 of 1 degenerates to the dense 0, 1, 2, ... progression, the base
// seed and the original (uncloned) models: a 1-shard plane with sync
// disabled runs the unsharded pipeline bit for bit (pinned by tests and the
// fig4/fig5 md5 parity check).
//
// Each shard > 0 gets deep *clones* of the server models (group identity —
// servers sharing one model shared_ptr share one clone) and an Rng seeded
// from a splitmix64 substream of the base seed, so sharded runs are
// reproducible at any shard count and shards never share mutable state.
//
// Thread safety: none here, deliberately — this class owns no mutex, so the
// tg_lint guarded-member rule and the TSA annotation layer
// (common/thread_annotations.h) have nothing to check in it. Single-threaded
// callers (sim) just call in. The live backends reach it through
// QueryFrontDoor, one shard with sync off, held as a TG_GUARDED_BY(mu_)
// member and called under that one lock. Only the simulator runs N shards.
#pragma once

#include <cstdint>
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

/// Query-to-shard routing. Each kind is a pure function of (key, cls,
/// num_shards), so sharded runs stay bit-reproducible and a replayed key
/// always lands on the same shard.
enum class RouterKind {
  /// splitmix64 of the key: decorrelates shard choice from arrival order.
  kHash,
  /// key % num_shards: perfectly balanced for sequential keys.
  kRoundRobin,
  /// cls % num_shards: all queries of a class share one shard, so that
  /// shard's admission window sees the class's full miss signal locally.
  kClassAffinity,
};

struct ShardingOptions {
  std::uint32_t num_shards = 1;
  /// Delta-sync period; <= 0 disables sync entirely (shards drift freely).
  /// The staleness knob: bench/shard_staleness sweeps it.
  TimeMs sync_interval_ms = 0.0;
  RouterKind router = RouterKind::kHash;

  bool sync_enabled() const {
    return num_shards > 1 && sync_interval_ms > 0.0;
  }
};

/// Deterministic per-shard seed substream. Shard 0 keeps the base seed
/// unchanged (the shard=1 parity invariant); shard i > 0 derives an
/// independent stream via splitmix64.
inline std::uint64_t shard_substream_seed(std::uint64_t base_seed,
                                          std::uint32_t shard) {
  if (shard == 0) return base_seed;
  std::uint64_t state = base_seed + 0x9e3779b97f4a7c15ULL * shard;
  return splitmix64(state);
}

class ShardedControlPlane {
 public:
  /// `base` configures every shard (shard i seeds its Rng from
  /// shard_substream_seed(base.seed, i)). One CdfModel per task server;
  /// servers sharing a model form a homogeneous group (shared_ptr identity,
  /// as in DeadlineEstimator). Shards > 0 receive clones.
  ShardedControlPlane(ShardingOptions sharding, ControlPlaneOptions base,
                      std::vector<std::shared_ptr<CdfModel>> server_models);

  // --- Topology -----------------------------------------------------------

  std::uint32_t num_shards() const { return num_shards_; }
  bool sync_enabled() const { return accumulate_; }

  /// Shard for a new query with routing key `key` (arrival index, submission
  /// counter, connection id, ...) in class `cls`, under sharding_.router.
  std::uint32_t route(std::uint64_t key, ClassId cls) const {
    if (num_shards_ == 1) return 0;
    switch (sharding_.router) {
      case RouterKind::kRoundRobin:
        return static_cast<std::uint32_t>(key % num_shards_);
      case RouterKind::kClassAffinity:
        return cls % num_shards_;
      case RouterKind::kHash:
        break;
    }
    return static_cast<std::uint32_t>(splitmix64(key) % num_shards_);
  }

  /// Owning shard of an already-issued query id.
  std::uint32_t shard_of(QueryId id) const {
    return num_shards_ == 1 ? 0
                            : static_cast<std::uint32_t>(id % num_shards_);
  }

  // --- Admission (§III.C) -------------------------------------------------

  bool admission_enabled() const { return options_.admission.has_value(); }

  /// Whether a query arriving at `now` should be admitted on `shard`; true
  /// when admission control is disabled. Draws the kProportional coin from
  /// the shard's own Rng (kOnOff consumes no randomness).
  bool should_admit(std::uint32_t shard, TimeMs now);
  /// Replayable-randomness variant: the caller supplies the coin (the sim
  /// passes rng.uniform() so its event stream stays bit-reproducible).
  bool should_admit(std::uint32_t shard, TimeMs now, double coin);

  /// Outcome bookkeeping, called once per offered query.
  void count_admitted(std::uint32_t shard) {
    ++shards_[shard].queries_admitted;
  }
  void count_rejected(std::uint32_t shard) {
    ++shards_[shard].queries_rejected;
  }

  /// `shard`'s admission-window miss ratio (0 when admission is disabled).
  double admission_miss_ratio(std::uint32_t shard, TimeMs now);

  // --- Placement ----------------------------------------------------------

  /// Picks `count` servers from `candidates` under the configured placement
  /// policy, drawing randomness from `shard`'s Rng (see
  /// core/placement/policy.h for the per-policy contracts and costs). The
  /// picks replace the contents of `out`; `candidates` is only read, so a
  /// caller may keep one view across decisions. A caller that also reuses
  /// `out` places without allocating.
  void place(std::uint32_t shard,
             std::span<const PlacementCandidate> candidates, std::size_t count,
             std::vector<ServerId>& out) {
    Shard& s = shards_[shard];
    ++s.placement_stats.decisions;
    s.placement_stats.candidates_considered +=
        s.placement_policy->place(candidates, count, s.rng, out);
  }
  /// The same decision, returned in a new vector. The trailing ClassId /
  /// TimeMs are unused: bench/e2e's replay passes them.
  std::vector<ServerId> place(std::uint32_t shard,
                              std::vector<PlacementCandidate> candidates,
                              std::size_t count, ClassId = 0, TimeMs = 0.0) {
    std::vector<ServerId> out;
    place(shard, candidates, count, out);
    return out;
  }

  PlacementPolicyKind placement_kind() const {
    return options_.placement.kind;
  }
  /// Placement counters summed across shards.
  PlacementStats placement_stats() const;

  // --- Deadlines & query lifecycle ---------------------------------------

  /// Eq. 6 budget T_b = x_p^SLO - x_p^u for class `cls` fanning out to
  /// exactly `servers`, from `shard`'s models.
  TimeMs budget(std::uint32_t shard, ClassId cls,
                std::span<const ServerId> servers) {
    return shards_[shard].estimator.budget(cls, servers);
  }

  /// Admits one query into `shard`'s pipeline: computes its budget (Eq. 6,
  /// or `budget_override` for Eq. 7 request decomposition), the shared t_D
  /// and the policy ordering key, and registers it with the tracker. For
  /// kTEdf, `order_slo_ms` overrides the class SLO in the ordering key
  /// (request mode judges ordering by the request-level SLO).
  QueryPlan begin_query(std::uint32_t shard, TimeMs t0, ClassId cls,
                        std::span<const ServerId> servers,
                        std::optional<TimeMs> budget_override = std::nullopt,
                        std::optional<TimeMs> order_slo_ms = std::nullopt);

  /// Capacity hint: about `queries_per_shard` begin_query calls and
  /// `in_flight` simultaneously live queries per shard. Backends sizing from
  /// a known workload call this once so the trackers never reallocate on the
  /// per-task hot path. Behaviour is identical without it.
  void reserve_queries(std::size_t queries_per_shard, std::size_t in_flight) {
    for (Shard& s : shards_) s.tracker.reserve(queries_per_shard, in_flight);
  }

  // --- Query-id-routed paths (per-task hot path) --------------------------
  //
  // Inline: these run once (or kf times) per task in every backend's hot
  // loop, and the whole plane -> tracker -> slab chain must flatten into the
  // caller.

  /// State of an in-flight query (alive until its last complete_task).
  const QueryState& query_state(QueryId id) const {
    return shards_[shard_of(id)].tracker.state(id);
  }

  /// Merges one task result; returns true when the query is complete (and
  /// bumps the per-class completion tally). `finished` (if non-null)
  /// receives the final state before erase.
  bool complete_task(QueryId id, QueryState* finished = nullptr) {
    Shard& s = shards_[shard_of(id)];
    QueryState local;
    QueryState* out = finished ? finished : &local;
    const bool last = s.tracker.complete_task(id, out);
    if (last) {
      ++s.queries_completed;
      ++s.per_class[out->cls].queries_completed;
    }
    return last;
  }

  /// Records one task dequeue for admission + per-class miss accounting on
  /// the query's shard; `missed` is whether the dequeue happened past the
  /// query's t_D. With sync on it also counts toward the shard's next delta.
  void record_task_dequeue(QueryId id, TimeMs now, ClassId cls, bool missed) {
    Shard& s = shards_[shard_of(id)];
    ClassAccounting& acct = s.per_class[cls];
    ++acct.tasks_recorded;
    if (missed) ++acct.tasks_missed;
    if (s.admission) s.admission->record_task_dequeue(now, missed);
    if (accumulate_) {
      ++s.pending.recorded;
      if (missed) ++s.pending.missed;
      s.pending.any = true;
    }
  }

  /// §III.B.2 online updating of the owning shard's model of `server`.
  void observe_post_queuing(QueryId id, ServerId server, TimeMs post_ms) {
    observe_post_queuing_on(shard_of(id), server, post_ms);
  }
  void observe_post_queuing_on(std::uint32_t shard, ServerId server,
                               TimeMs post_ms);

  /// Seeds every shard's model of `server` with an offline profile sample.
  /// Bypasses delta accumulation: the profile is distributed out-of-band,
  /// not gossip traffic.
  void seed_profile(ServerId server, std::span<const double> sample);

  // --- Delta sync ---------------------------------------------------------

  /// Runs one sync round iff sync is enabled and `now` has crossed the next
  /// interval boundary; then re-arms for the first boundary after `now`.
  /// Returns whether a round ran. O(1) when no round is due.
  bool maybe_sync(TimeMs now) {
    if (!accumulate_ || now < next_sync_ms_) return false;
    run_sync_round(now);
    rearm_after(now);
    return true;
  }

  /// Forces one sync round immediately (tests, drains at shutdown).
  void sync_now(TimeMs now) {
    if (num_shards_ > 1) run_sync_round(now);
  }

  TimeMs next_sync_at() const { return next_sync_ms_; }

  /// Feeds remotely-observed dequeues (`recorded` tasks, `missed` of them
  /// late) straight into `shard`'s admission window only (the wire-gossip
  /// path, where the dispatcher dedups per connection itself). Per-class
  /// tallies stay local-only: each shard's metrics must count every task
  /// exactly once globally, while the admission signal deliberately reflects
  /// the merged cluster-wide miss ratio. Bypasses delta accumulation, as a
  /// sync round's absorption does: absorbed state must never be
  /// re-broadcast.
  void absorb_remote_dequeues(std::uint32_t shard, TimeMs now,
                              std::uint64_t recorded, std::uint64_t missed) {
    Shard& s = shards_[shard];
    if (s.admission) s.admission->record_remote_dequeues(now, recorded, missed);
  }

  struct SyncStats {
    std::uint64_t rounds = 0;
    /// Samples absorbed, summed over receiving shards.
    std::uint64_t samples_shipped = 0;
  };
  const SyncStats& sync_stats() const { return stats_; }

  // --- Aggregated introspection (reads every shard) -----------------------

  Policy policy() const { return options_.policy; }
  std::size_t num_classes() const { return options_.classes.size(); }
  const ClassSpec& class_spec(ClassId cls) const {
    return shards_[0].estimator.class_spec(cls);
  }
  const CdfModel& model_of(std::uint32_t shard, ServerId server) const {
    return shards_[shard].estimator.model_of(server);
  }

  std::uint64_t queries_admitted() const;
  std::uint64_t queries_rejected() const;
  std::uint64_t queries_completed() const;
  std::uint64_t queries_started() const;
  std::size_t in_flight() const;
  std::uint64_t tasks_recorded() const;
  std::uint64_t tasks_missed() const;
  double task_miss_ratio() const;
  /// Per-class tallies summed across shards.
  ClassAccounting class_accounting(ClassId cls) const;

 private:
  /// Shard state pending for the next sync round. Flat per-server vectors;
  /// `kMaxPendingPerServer` hard-bounds memory between rounds.
  struct PendingDelta {
    std::vector<std::vector<double>> samples;  ///< server -> new samples
    std::uint64_t recorded = 0;
    std::uint64_t missed = 0;
    bool any = false;
  };
  static constexpr std::size_t kMaxPendingPerServer = 4096;
  /// Samples per server a round ships from one shard; past it every
  /// receiver takes the same evenly strided subset.
  static constexpr std::size_t kMaxSyncSamplesPerServer = 256;

  /// One query handler: the pipeline's state for the queries routed to it.
  struct Shard {
    Shard(const ControlPlaneOptions& options, std::uint32_t index,
          std::uint32_t num_shards,
          std::vector<std::shared_ptr<CdfModel>> models);

    DeadlineEstimator estimator;
    QueryTracker tracker;
    std::optional<AdmissionController> admission;
    Rng rng;
    std::unique_ptr<PlacementPolicy> placement_policy;
    PlacementStats placement_stats;
    std::vector<ClassAccounting> per_class;
    std::uint64_t queries_admitted = 0;
    std::uint64_t queries_rejected = 0;
    std::uint64_t queries_completed = 0;
    PendingDelta pending;
  };

  void run_sync_round(TimeMs now);
  void rearm_after(TimeMs now);

  ControlPlaneOptions options_;
  ShardingOptions sharding_;
  std::uint32_t num_shards_;
  bool accumulate_;  ///< cache of sharding_.sync_enabled()
  std::size_t num_servers_;
  std::vector<Shard> shards_;
  TimeMs next_sync_ms_ = 0.0;
  SyncStats stats_;
};

}  // namespace tailguard
