// In-flight query bookkeeping shared by the simulator and the runtime.
//
// Models the query-handler side of Fig. 2: a query spawns kf tasks; the
// query finishes when the last task result has been merged, and the query
// response time is that completion time minus t_0.
//
// Storage: query ids form an arithmetic progression (begin_query hands out
// start, start+stride, start+2*stride, ...; the default (0, 1) yields the
// dense 0, 1, 2, ...), so the state lives in a SlabMap (common/slab_map.h,
// the generalization of the slab + freelist scheme this class pioneered) —
// every lookup is two array loads instead of a hash probe. complete_task and
// state() sit on the per-task hot path of all three backends, so they are
// defined inline here: the simulator's event loop inlines the whole chain
// (control plane -> tracker -> slab) with no cross-TU calls. The
// strided form exists for the sharded control plane: shard i of N allocates
// (i, N), so ids are globally unique across shards and id % N recovers the
// owning shard. Ids only grow, so begin_query drops the id table's dead
// prefix when the table is full (SlabMap::drop_dead_prefix): it spans the
// oldest in-flight query onwards, and a long-running service does not grow
// 4 bytes per query. A simulator run pre-sized by reserve() never fills it.
// Slots of finished queries are recycled through a freelist, so resident
// state is proportional to the in-flight count.
#pragma once

#include <cstdint>

#include "common/check.h"
#include "common/slab_map.h"
#include "core/types.h"

namespace tailguard {

struct QueryState {
  TimeMs t0 = 0.0;             ///< arrival time
  ClassId cls = 0;             ///< service class
  std::uint32_t fanout = 0;    ///< number of tasks spawned
  std::uint32_t remaining = 0; ///< tasks not yet merged
  TimeMs deadline = 0.0;       ///< shared task queuing deadline t_D
};

class QueryTracker {
 public:
  QueryTracker() = default;
  /// Ids handed out are start, start + stride, start + 2*stride, ...
  /// Requires stride >= 1 and start < stride.
  QueryTracker(QueryId id_start, QueryId id_stride)
      : start_(id_start), stride_(id_stride), states_(id_start, id_stride) {}

  /// Pre-sizes for `queries` total begin_query calls and `in_flight`
  /// simultaneously live queries (capacity hint; exceeding it only costs the
  /// usual amortized growth).
  void reserve(std::size_t queries, std::size_t in_flight) {
    states_.reserve(queries, in_flight);
  }

  /// Registers a new query; returns its id.
  QueryId begin_query(TimeMs t0, ClassId cls, std::uint32_t fanout,
                      TimeMs deadline) {
    TG_CHECK_MSG(fanout >= 1, "query must spawn at least one task");
    const QueryId id = start_ + started_++ * stride_;
    states_.drop_dead_prefix();
    states_.emplace(id) = QueryState{.t0 = t0,
                                     .cls = cls,
                                     .fanout = fanout,
                                     .remaining = fanout,
                                     .deadline = deadline};
    return id;
  }

  /// Merges one task result. Returns true when this was the last outstanding
  /// task; `finished` (if non-null) receives the final state before erase.
  bool complete_task(QueryId id, QueryState* finished = nullptr) {
    QueryState* st = states_.find(id);
    TG_CHECK_MSG(st != nullptr, "unknown query " << id);
    TG_CHECK_MSG(st->remaining > 0, "query " << id << " over-completed");
    if (--st->remaining > 0) return false;
    if (finished != nullptr) *finished = *st;
    states_.erase(id);
    return true;
  }

  const QueryState& state(QueryId id) const {
    const QueryState* st = states_.find(id);
    TG_CHECK_MSG(st != nullptr, "unknown query " << id);
    return *st;
  }

  std::size_t in_flight() const { return states_.size(); }
  std::uint64_t started() const { return started_; }

 private:
  std::uint64_t started_ = 0;
  QueryId start_ = 0;
  QueryId stride_ = 1;
  SlabMap<QueryState> states_;
};

}  // namespace tailguard
