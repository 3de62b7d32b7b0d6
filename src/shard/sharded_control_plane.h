// N query-handler shards, each owning a private QueryControlPlane replica,
// behind one facade — plus the periodic delta-sync that keeps the replicas'
// views of per-server CDF models and admission windows from drifting apart
// forever.
//
// Identity scheme: shard i of N allocates query ids i, i+N, i+2N, ... (the
// QueryTracker stride form), so ids are globally unique and `id % N` recovers
// the owning shard — task-completion paths route by query id alone, with no
// extra lookup table. Shard 0 of 1 degenerates to the dense 0, 1, 2, ...
// progression, the base seed and the original (uncloned) models: a 1-shard
// plane with sync disabled is *bit-identical* to an unsharded
// QueryControlPlane (pinned by tests and the fig4/fig5 md5 parity check).
//
// Each shard > 0 gets deep *clones* of the server models (group identity —
// servers sharing one model shared_ptr share one clone) and an Rng seeded
// from a splitmix64 substream of the base seed, so sharded runs are
// reproducible at any shard count and shards never share mutable state.
// All cross-shard flow goes through the sync round, which feeds each shard
// the others' pending samples and dequeue increments; the tg_lint
// control-plane-boundary rule enforces that nothing else in the tree reaches
// into another shard's QueryControlPlane.
//
// Thread safety: none here, deliberately — this class owns no mutex, so the
// tg_lint guarded-member rule and the TSA annotation layer
// (common/thread_annotations.h) have nothing to check in it. Single-threaded
// callers (sim) just call in. The live backends reach it through
// QueryFrontDoor: the runtime holds shard i's mutex for shard i's calls —
// sound because every mutable member here is per-shard — and every shard's
// (in index order) around maybe_sync()/aggregated accessors; the dispatcher
// runs one shard under its mu_.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/control_plane.h"

namespace tailguard {

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
  /// `base` is the per-replica configuration (its seed / id_start / id_stride
  /// are overridden per shard as described above). `server_models` follows
  /// the QueryControlPlane contract; shards > 0 receive clones.
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

  // --- Per-shard pipeline (forwarders to the shard's replica) -------------

  bool admission_enabled() const { return shards_[0]->admission_enabled(); }

  bool should_admit(std::uint32_t shard, TimeMs now) {
    return shards_[shard]->should_admit(now);
  }
  bool should_admit(std::uint32_t shard, TimeMs now, double coin) {
    return shards_[shard]->should_admit(now, coin);
  }
  void count_admitted(std::uint32_t shard) { shards_[shard]->count_admitted(); }
  void count_rejected(std::uint32_t shard) { shards_[shard]->count_rejected(); }
  double admission_miss_ratio(std::uint32_t shard, TimeMs now) {
    return shards_[shard]->admission_miss_ratio(now);
  }

  /// Placement under the shard's configured policy (every shard shares one
  /// PlacementPolicyOptions; see QueryControlPlane::place for the
  /// out-parameter contract).
  void place(std::uint32_t shard, std::vector<PlacementCandidate>& candidates,
             std::size_t count, std::vector<ServerId>& out) {
    shards_[shard]->place(candidates, count, out);
  }
  /// The trailing ClassId / TimeMs are unused: bench/e2e's replay passes them.
  std::vector<ServerId> place(std::uint32_t shard,
                              std::vector<PlacementCandidate> candidates,
                              std::size_t count, ClassId = 0, TimeMs = 0.0) {
    return shards_[shard]->place(std::move(candidates), count);
  }

  PlacementPolicyKind placement_kind() const {
    return shards_[0]->placement_kind();
  }
  /// Placement counters summed across shards.
  PlacementStats placement_stats() const;

  TimeMs budget(std::uint32_t shard, ClassId cls,
                std::span<const ServerId> servers) {
    return shards_[shard]->budget(cls, servers);
  }

  QueryPlan begin_query(std::uint32_t shard, TimeMs t0, ClassId cls,
                        std::span<const ServerId> servers,
                        std::optional<TimeMs> budget_override = std::nullopt,
                        std::optional<TimeMs> order_slo_ms = std::nullopt) {
    return shards_[shard]->begin_query(t0, cls, servers, budget_override,
                                       order_slo_ms);
  }

  /// Capacity hint: about `queries_per_shard` begin_query calls and
  /// `in_flight` simultaneously live queries per shard. Backends sizing from
  /// a known workload call this once so the trackers never reallocate on the
  /// per-task hot path.
  void reserve_queries(std::size_t queries_per_shard, std::size_t in_flight) {
    for (auto& s : shards_) s->reserve_queries(queries_per_shard, in_flight);
  }

  // --- Query-id-routed paths (per-task hot path) --------------------------

  const QueryState& query_state(QueryId id) const {
    return shards_[shard_of(id)]->query_state(id);
  }

  bool complete_task(QueryId id, QueryState* finished = nullptr) {
    return shards_[shard_of(id)]->complete_task(id, finished);
  }

  /// Per-task hot path: inline so the common no-sync case flattens into the
  /// backend's loop; only the delta-accumulation tail stays out of line.
  void record_task_dequeue(QueryId id, TimeMs now, ClassId cls, bool missed) {
    const std::uint32_t shard = shard_of(id);
    shards_[shard]->record_task_dequeue(now, cls, missed);
    if (accumulate_) accumulate_dequeue(shard, missed);
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

  /// Feeds remotely-observed dequeues straight into `shard`'s admission
  /// window (the wire-gossip path, where the dispatcher dedups per
  /// connection itself). Bypasses delta accumulation, as a sync round's
  /// absorption does: absorbed state must never be re-broadcast.
  void absorb_remote_dequeues(std::uint32_t shard, TimeMs now,
                              std::uint64_t recorded, std::uint64_t missed) {
    shards_[shard]->absorb_remote_dequeues(now, recorded, missed);
  }

  struct SyncStats {
    std::uint64_t rounds = 0;
    /// Samples absorbed, summed over receiving shards.
    std::uint64_t samples_shipped = 0;
  };
  const SyncStats& sync_stats() const { return stats_; }

  // --- Aggregated introspection (reads every shard) -----------------------

  Policy policy() const { return shards_[0]->policy(); }
  std::size_t num_classes() const { return shards_[0]->num_classes(); }
  const ClassSpec& class_spec(ClassId cls) const {
    return shards_[0]->class_spec(cls);
  }
  const CdfModel& model_of(std::uint32_t shard, ServerId server) const {
    return shards_[shard]->model_of(server);
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
  /// Per-shard state pending for the next sync round. Flat per-server
  /// vectors; `kMaxPendingPerServer` hard-bounds memory between rounds.
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

  void accumulate_dequeue(std::uint32_t shard, bool missed);
  void run_sync_round(TimeMs now);
  void rearm_after(TimeMs now);

  ShardingOptions sharding_;
  std::uint32_t num_shards_;
  bool accumulate_;  ///< cache of sharding_.sync_enabled()
  std::size_t num_servers_;
  std::vector<std::unique_ptr<QueryControlPlane>> shards_;
  std::vector<PendingDelta> pending_;
  TimeMs next_sync_ms_ = 0.0;
  SyncStats stats_;
};

}  // namespace tailguard
