#include "core/placement/policy.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace tailguard {

const char* placement_kind_name(PlacementPolicyKind kind) {
  switch (kind) {
    case PlacementPolicyKind::kLeastLoaded:
      return "least_loaded";
    case PlacementPolicyKind::kPowerOfD:
      return "pow_d";
  }
  return "unknown";
}

// --- least_loaded ----------------------------------------------------------

std::size_t LeastLoadedPolicy::place(std::vector<PlacementCandidate>& candidates,
                                     std::size_t count, Rng& rng,
                                     std::vector<ServerId>& out) {
  out.clear();
  if (count == 0) return 0;
  TG_CHECK_MSG(!candidates.empty(), "placement needs at least one candidate");
  // Random tie-break: scale the load so the random component never reorders
  // genuinely different loads.
  for (auto& [load, id] : candidates)
    load = load * candidates.size() + rng.uniform_index(candidates.size());
  std::sort(candidates.begin(), candidates.end());
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(candidates[i % candidates.size()].second);
  return candidates.size();
}

// --- pow_d -----------------------------------------------------------------

PowerOfDPolicy::PowerOfDPolicy(std::size_t d) : d_(d) {
  TG_CHECK_MSG(d_ >= 1, "power-of-d needs d >= 1");
}

std::size_t PowerOfDPolicy::place(std::vector<PlacementCandidate>& candidates,
                                  std::size_t count, Rng& rng,
                                  std::vector<ServerId>& out) {
  out.clear();
  if (count == 0) return 0;
  TG_CHECK_MSG(!candidates.empty(), "placement needs at least one candidate");
  out.reserve(count);
  avail_.clear();
  std::size_t examined = 0;
  for (std::size_t pick = 0; pick < count; ++pick) {
    // Distinct while possible: once every candidate has been picked once,
    // refill and go around again (count > n reuse, as in least_loaded).
    if (avail_.empty()) {
      avail_.resize(candidates.size());
      std::iota(avail_.begin(), avail_.end(), std::size_t{0});
    }
    // Sample d distinct candidates via a partial Fisher–Yates over the
    // still-unpicked indices; keep the least loaded (first-sampled wins
    // ties, and sampling order is random, so ties break uniformly).
    const std::size_t d_eff = std::min(d_, avail_.size());
    std::size_t best = 0;
    for (std::size_t j = 0; j < d_eff; ++j) {
      const std::size_t swap_with =
          j + static_cast<std::size_t>(rng.uniform_index(avail_.size() - j));
      std::swap(avail_[j], avail_[swap_with]);
      if (candidates[avail_[j]].first < candidates[avail_[best]].first)
        best = j;
    }
    examined += d_eff;
    out.push_back(candidates[avail_[best]].second);
    avail_[best] = avail_.back();
    avail_.pop_back();
  }
  return examined;
}

std::unique_ptr<PlacementPolicy> make_placement_policy(
    const PlacementPolicyOptions& options) {
  switch (options.kind) {
    case PlacementPolicyKind::kLeastLoaded:
      return std::make_unique<LeastLoadedPolicy>();
    case PlacementPolicyKind::kPowerOfD:
      return std::make_unique<PowerOfDPolicy>(options.power_d);
  }
  TG_CHECK_MSG(false, "unknown placement policy kind");
  return nullptr;
}

}  // namespace tailguard
