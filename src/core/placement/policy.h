// Pluggable distinct-server placement policies.
//
// The Fig. 2 query handler fans each admitted query out to kf *distinct*
// task servers; which kf is a policy decision, not pipeline structure. Both
// policies decide from the live queue depth of each candidate alone:
//
//   least_loaded  — sort every candidate by load, random tie-break, take the
//                   first kf; the default, and the paper's behaviour.
//                   O(n log n) per call, one draw per candidate.
//   pow_d         — power-of-d-choices: per replica, sample d candidates
//                   uniformly (without replacement) and take the least
//                   loaded. A call costs O(kf·d) reads, writes and draws
//                   whatever n is, plus O(n) once when n first exceeds
//                   every earlier call's.
//
// All draws come from the caller's Rng, so runs are deterministic for a
// fixed seed at any thread count.
//
// Backends never name these classes: they call
// ShardedControlPlane::place(), and selection is configuration
// (PlacementPolicyOptions). The tg_lint `control-plane-boundary` rule
// enforces that.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
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
  /// `candidates` is read only, so a caller may keep one view across calls.
  /// All randomness comes from `rng`. Returns the number of candidates the
  /// policy examined (observability: pow_d looks at d per pick,
  /// least_loaded at all n).
  /// Precondition: !candidates.empty() when count > 0.
  virtual std::size_t place(std::span<const PlacementCandidate> candidates,
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
  std::size_t place(std::span<const PlacementCandidate> candidates,
                    std::size_t count, Rng& rng,
                    std::vector<ServerId>& out) override;

 private:
  std::vector<PlacementCandidate> sorted_;  // scratch: the ranked copy
};

class PowerOfDPolicy final : public PlacementPolicy {
 public:
  explicit PowerOfDPolicy(std::size_t d);

  PlacementPolicyKind kind() const override {
    return PlacementPolicyKind::kPowerOfD;
  }
  std::size_t place(std::span<const PlacementCandidate> candidates,
                    std::size_t count, Rng& rng,
                    std::vector<ServerId>& out) override;

 private:
  /// Puts the slots the current round moved back to the identity.
  void reset_touched();

  std::size_t d_;
  /// Candidate indices, unpicked ones first. The identity between calls, so
  /// a round starts without an O(n) refill; a call resets what it moved:
  /// the sampled prefix avail_[0, prefix_) and the slots in touched_.
  std::vector<std::size_t> avail_;
  std::size_t prefix_ = 0;
  std::vector<std::size_t> touched_;  // slots swapped into the prefix
};

std::unique_ptr<PlacementPolicy> make_placement_policy(
    const PlacementPolicyOptions& options);

}  // namespace tailguard
