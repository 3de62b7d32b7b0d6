// QueryFrontDoor — the Fig. 2 query handler's per-query sequence, written
// once for both live backends (runtime/service.h, net/dispatcher.h), which
// keep only their transport. admit_and_place validates explicit targets,
// admits (§III.C), places and tells the observer; begin plans (Eq. 6 or an
// Eq. 7 override) and parks the query's promise in a SlabMap on the
// query-id progression; finish_task accounts each task and hands back the
// promise with the last one. Scratch is reused, so a warm front door
// allocates only each query's promise. It is one handler: its plane has one
// shard and no sync. The simulator, which has no futures, draws its own
// admission coin and runs N synced shards, drives ShardedControlPlane
// directly.
//
// Thread safety: none, like ShardedControlPlane. Each backend guards its
// front door with its one lock (TG_GUARDED_BY) and holds it for every call.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/slab_map.h"
#include "shard/sharded_control_plane.h"

namespace tailguard {

struct QueryResult {
  QueryId id = 0;
  ClassId cls = 0;
  std::uint32_t fanout = 0;
  bool admitted = true;
  TimeMs latency_ms = 0.0;       ///< submit -> last merge
  TimeMs deadline_budget_ms = 0.0;  ///< T_b assigned at submit
  std::uint32_t tasks_missed_deadline = 0;
  /// Tasks that produced no result (a remote server died or timed out), so
  /// the query degraded rather than hung. Always 0 in the in-process runtime.
  std::uint32_t tasks_failed = 0;
};

/// A finished query, to resolve once the caller's lock is released.
struct FinishedQuery {
  std::promise<QueryResult> promise;
  QueryResult result;
};

class QueryFrontDoor {
 public:
  /// Sees each admitted query's servers in task order, explicit targets
  /// included, under the caller's lock.
  using Observer = std::function<void(std::span<const ServerId>)>;

  /// An untargeted task's server when the candidate view was empty.
  static constexpr ServerId kNoServer = std::numeric_limits<ServerId>::max();

  /// A live backend's front door from its options (ServiceOptions or
  /// DispatcherOptions: policy, classes, admission, placement, seed,
  /// model_options, placement_observer), one streaming model per server.
  template <typename BackendOptions>
  QueryFrontDoor(const BackendOptions& options, std::size_t num_servers)
      : QueryFrontDoor({.policy = options.policy,
                        .classes = options.classes,
                        .admission = options.admission,
                        .placement = options.placement,
                        .seed = options.seed},
                       streaming_models(options.model_options, num_servers),
                       options.placement_observer) {}
  QueryFrontDoor(ControlPlaneOptions base,
                 std::vector<std::shared_ptr<CdfModel>> server_models,
                 Observer observer);

  ShardedControlPlane& control() { return control_; }
  const ShardedControlPlane& control() const { return control_; }

  /// The candidate view, cleared, for the caller to fill with (load,
  /// server) pairs before each admit_and_place.
  std::vector<PlacementCandidate>& candidate_view() {
    view_.clear();
    return view_;
  }

  /// Checks that the query has tasks and each explicit target
  /// `task.*target` exists, then decides admission. A rejected query is
  /// neither placed nor observed and gets an empty span; an admitted one its
  /// servers in task order, policy picks over candidate_view() for the
  /// untargeted tasks. The span is scratch, valid until the next
  /// admit_and_place.
  template <typename Task>
  std::span<const ServerId> admit_and_place(
      TimeMs now, const std::vector<Task>& tasks,
      std::optional<ServerId> Task::*target) {
    TG_CHECK_MSG(!tasks.empty(), "query must contain at least one task");
    placement_.clear();
    std::size_t untargeted = 0;
    for (const Task& task : tasks) {
      const std::optional<ServerId>& server = task.*target;
      TG_CHECK_MSG(!server || *server < num_servers_,
                   "unknown server " << *server);
      placement_.push_back(server.value_or(kNoServer));
      untargeted += server ? 0 : 1;
    }
    return admit_then_place(now, untargeted);
  }

  struct Begun {
    QueryPlan plan;
    std::future<QueryResult> future;
  };
  /// Registers an admitted query on `servers`: its plan (Eq. 6 over them,
  /// or `budget_override`) and the future of its result.
  Begun begin(TimeMs t0, ClassId cls, std::span<const ServerId> servers,
              std::optional<TimeMs> budget_override);

  /// One task of `query` ended: failed (no result), or dequeued at
  /// `dequeue_ms`, past t_D if `missed`. Returns the query once its last
  /// task lands, latency measured to `done_ms`.
  std::optional<FinishedQuery> finish_task(QueryId query, TimeMs dequeue_ms,
                                           TimeMs done_ms, bool missed,
                                           bool failed);

  /// A future already holding `result`: a query that never began.
  static std::future<QueryResult> ready(const QueryResult& result);

 private:
  struct Pending {
    /// Engaged by begin(), so recycling a slot allocates nothing.
    std::optional<std::promise<QueryResult>> promise;
    QueryResult result;
  };

  static std::vector<std::shared_ptr<CdfModel>> streaming_models(
      const StreamingCdfModel::Options& options, std::size_t num_servers);
  std::span<const ServerId> admit_then_place(TimeMs now,
                                            std::size_t untargeted);

  ShardedControlPlane control_;
  Observer observer_;
  std::size_t num_servers_;
  /// Pending queries by id, on the plane's dense 0, 1, 2, ... progression.
  SlabMap<Pending> pending_;
  std::vector<PlacementCandidate> view_;
  std::vector<ServerId> placement_;
  std::vector<ServerId> picks_;
};

}  // namespace tailguard
