// The same backend done right: placement goes through the control plane's
// place() and the strategy arrives as data (PlacementPolicyOptions), so no
// concrete policy name appears and the file lints clean even under the
// backend directories the boundary rule watches.
#include "shard/sharded_control_plane.h"

namespace tailguard {

struct PolicyAgnosticBackend {
  ShardedControlPlane control{ShardingOptions{}, ControlPlaneOptions{}, {}};
};

std::vector<ServerId> place_via_facade(PolicyAgnosticBackend& b,
                                       std::vector<PlacementCandidate> cand) {
  return b.control.place(0, std::move(cand), 2);
}

}  // namespace tailguard
