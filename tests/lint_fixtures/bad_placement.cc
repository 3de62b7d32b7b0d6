// A backend hard-wiring a placement strategy. Linted under src/sim/,
// src/runtime/, src/net/, src/sas/ or src/shard/ — the control plane
// included — every placement token below must fire control-plane-boundary:
// placement is pluggable behind ShardedControlPlane::place(), selected via
// PlacementPolicyOptions, and naming a concrete policy class pins one
// strategy into this backend. The same bytes are legal in core (which owns
// the policies), tests and tools.
#include "core/placement/policy.h"

namespace tailguard {

struct HardwiredBackend {
  LeastLoadedPolicy fallback;
  PowerOfDPolicy sampler{2};
};

}  // namespace tailguard
