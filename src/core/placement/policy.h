// Pluggable distinct-server placement policies.
//
// The Fig. 2 query handler fans each admitted query out to kf *distinct*
// task servers; which kf is a policy decision, not pipeline structure. Both
// policies decide from the live queue depth of each candidate alone:
//
//   least_loaded  — sort every candidate by load, random tie-break, take the
//                   first kf; the default, and the paper's behaviour.
//   pow_d         — power-of-d-choices: per replica, sample d candidates
//                   uniformly (without replacement) and take the least
//                   loaded. O(d·kf) instead of O(n log n), and all draws
//                   come from the caller's Rng, so runs are deterministic
//                   for a fixed seed at any thread count.
//
// Backends never name these classes: they call the control-plane facade's
// place(), and selection is configuration (PlacementPolicyOptions). The
// tg_lint `control-plane-boundary` rule enforces that.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/types.h"

namespace tailguard {

/// One placement candidate: current load (queue depth or in-flight tasks)
/// and the server it belongs to.
using PlacementCandidate = std::pair<std::size_t, ServerId>;

enum class PlacementPolicyKind { kLeastLoaded, kPowerOfD };

/// Stable lowercase name ("least_loaded" | "pow_d").
const char* placement_kind_name(PlacementPolicyKind kind);

struct PlacementPolicyOptions {
  PlacementPolicyKind kind = PlacementPolicyKind::kLeastLoaded;
  /// pow_d: candidates sampled per replica pick (d >= 1; d >= n degenerates
  /// to a global least-loaded scan).
  std::size_t power_d = 2;
};

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  virtual PlacementPolicyKind kind() const = 0;

  /// Fills `out` with `count` servers drawn from `candidates` (load, server)
  /// pairs — distinct while count <= candidates.size(), round-robin reuse
  /// beyond that (a server is down and the rest must absorb its share).
  /// `candidates` is caller-owned scratch the policy may reorder or rewrite.
  /// All randomness comes from `rng`. Returns the number of candidates the
  /// policy examined (observability: pow_d looks at d per pick,
  /// least_loaded at all n).
  /// Precondition: !candidates.empty() when count > 0.
  virtual std::size_t place(std::vector<PlacementCandidate>& candidates,
                            std::size_t count, Rng& rng,
                            std::vector<ServerId>& out) = 0;
};

/// The default: the `count` least-loaded candidates, ties broken randomly so
/// equally-loaded servers share tasks evenly. One Rng draw per candidate.
class LeastLoadedPolicy final : public PlacementPolicy {
 public:
  PlacementPolicyKind kind() const override {
    return PlacementPolicyKind::kLeastLoaded;
  }
  std::size_t place(std::vector<PlacementCandidate>& candidates,
                    std::size_t count, Rng& rng,
                    std::vector<ServerId>& out) override;
};

class PowerOfDPolicy final : public PlacementPolicy {
 public:
  explicit PowerOfDPolicy(std::size_t d);

  PlacementPolicyKind kind() const override {
    return PlacementPolicyKind::kPowerOfD;
  }
  std::size_t place(std::vector<PlacementCandidate>& candidates,
                    std::size_t count, Rng& rng,
                    std::vector<ServerId>& out) override;

 private:
  std::size_t d_;
  std::vector<std::size_t> avail_;  // scratch: candidate indices still unpicked
};

std::unique_ptr<PlacementPolicy> make_placement_policy(
    const PlacementPolicyOptions& options);

}  // namespace tailguard
