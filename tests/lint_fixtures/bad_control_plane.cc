// A backend owning the scheduling components directly. Linted under
// src/sim/, src/runtime/, src/net/, src/sas/ or src/shard/ every component
// mention below must fire control-plane-boundary, except in the control
// plane itself (shard/sharded_control_plane.{h,cc}), which owns them.
// Anywhere else the same bytes are legal (core owns the parts, tests may
// poke them).
#include "core/admission.h"
#include "core/deadline.h"
#include "core/query_tracker.h"

namespace tailguard {

struct HomegrownBackend {
  DeadlineEstimator estimator;
  QueryTracker tracker;
  AdmissionController admission{AdmissionOptions{}};
};

double plan_next(HomegrownBackend& b) {
  if (!b.admission.should_admit(0.0, 0.5)) return -1.0;
  return b.estimator.budget(0, {});
}

}  // namespace tailguard
