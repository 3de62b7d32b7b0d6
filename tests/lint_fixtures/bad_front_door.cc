// A live backend running a query's lifecycle on the plane itself instead of
// through QueryFrontDoor. Linted under src/runtime/ or src/net/ each of the
// three lifecycle calls below must fire control-plane-boundary. Under
// src/sim/, src/sas/ and src/shard/ the same bytes are legal: the simulator
// drives the plane directly, and the front door is built from these calls.
#include "shard/sharded_control_plane.h"

namespace tailguard {

void run_query(ShardedControlPlane& control,
               std::span<const ServerId> servers, TimeMs now_ms) {
  const QueryPlan plan = control.begin_query(0, now_ms, 0, servers);
  control.record_task_dequeue(plan.id, now_ms, 0, /*missed=*/false);
  control.complete_task(plan.id);
}

}  // namespace tailguard
