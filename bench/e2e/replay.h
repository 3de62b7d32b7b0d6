// Layer replay: a workload's own generated query stream, driven with
// simulated timestamps through the same public calls a backend makes —
// ShardedControlPlane (admission, placement, Eq. 6 begin_query, dequeue
// accounting, online model updates, completion, delta-sync), the policy task
// queues, service-time sampling and the net/wire.h codec. Each family is
// timed in batches of calls, so timer reads do not swamp calls that take a
// few nanoseconds, and reported as mean ns per call.
#pragma once

#include <memory>
#include <vector>

#include "core/cdf_model.h"
#include "dist/distribution.h"
#include "e2e.h"
#include "shard/sharded_control_plane.h"

namespace tailguard::e2e {

struct ReplayQuery {
  TimeMs t_ms = 0.0;
  ClassId cls = 0;
  std::uint32_t fanout = 1;
};

struct ReplaySetup {
  ShardingOptions sharding;
  ControlPlaneOptions control;
  /// One model per server; shared_ptr identity forms groups, as in the
  /// backends.
  std::vector<std::shared_ptr<CdfModel>> models;
  /// Per-server post-queuing time distribution (what the online models
  /// observe).
  std::vector<DistributionPtr> service;
  std::vector<ReplayQuery> queries;
  /// Queries kept in flight (Little's law on the workload's own run), which
  /// sets the queue depths the push/pop and placement calls see.
  std::size_t in_flight = 1;
  std::uint64_t seed = 1;
  /// Whether the workload's backend places through control.place(); when
  /// not, core.place_ns is still measured but left out of
  /// core.replay_share_pct.
  bool placement_on_path = true;
  /// The measured path's cost per query, for core.replay_share_pct.
  double path_ns_per_query = 0.0;
};

/// Replays `setup` and reports the core.*, shard.*, dist.* and net.wire_*
/// per-layer metrics; aggregates also go to `trace` when given.
void replay_layers(ReplaySetup setup, Report& report, TraceLog* trace);

}  // namespace tailguard::e2e
