// The same backend built the sanctioned way: it drives the control plane
// (ShardedControlPlane, a single shard here) and never names the underlying
// components, so it lints clean even under the backend directories the
// boundary rule watches.
#include "shard/sharded_control_plane.h"

namespace tailguard {

struct ThinBackend {
  ShardedControlPlane control{ShardingOptions{}, ControlPlaneOptions{}, {}};
};

double plan_next(ThinBackend& b, TimeMs now_ms) {
  if (b.control.admission_enabled() && !b.control.should_admit(0, now_ms)) {
    b.control.count_rejected(0);
    return -1.0;
  }
  b.control.count_admitted(0);
  return b.control.budget(0, 0, {});
}

}  // namespace tailguard
