#include "core/placement/policy.h"

#include <algorithm>

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

std::size_t LeastLoadedPolicy::place(
    std::span<const PlacementCandidate> candidates, std::size_t count,
    Rng& rng, std::vector<ServerId>& out) {
  out.clear();
  if (count == 0) return 0;
  TG_CHECK_MSG(!candidates.empty(), "placement needs at least one candidate");
  // Random tie-break: scale the load so the random component never reorders
  // genuinely different loads.
  sorted_.assign(candidates.begin(), candidates.end());
  for (auto& [load, id] : sorted_)
    load = load * sorted_.size() + rng.uniform_index(sorted_.size());
  std::sort(sorted_.begin(), sorted_.end());
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    out.push_back(sorted_[i % sorted_.size()].second);
  return sorted_.size();
}

// --- pow_d -----------------------------------------------------------------

PowerOfDPolicy::PowerOfDPolicy(std::size_t d) : d_(d) {
  TG_CHECK_MSG(d_ >= 1, "power-of-d needs d >= 1");
}

std::size_t PowerOfDPolicy::place(
    std::span<const PlacementCandidate> candidates, std::size_t count,
    Rng& rng, std::vector<ServerId>& out) {
  out.clear();
  if (count == 0) return 0;
  TG_CHECK_MSG(!candidates.empty(), "placement needs at least one candidate");
  out.reserve(count);
  const std::size_t n = candidates.size();
  for (std::size_t i = avail_.size(); i < n; ++i) avail_.push_back(i);
  std::size_t unpicked = n;  // avail_[0, unpicked) are still unpicked
  std::size_t examined = 0;
  for (std::size_t pick = 0; pick < count; ++pick) {
    // Distinct while possible: once every candidate has been picked once,
    // refill and go around again (count > n reuse, as in least_loaded).
    if (unpicked == 0) {
      reset_touched();
      unpicked = n;
    }
    // Sample d distinct candidates via a partial Fisher–Yates over the
    // still-unpicked indices; keep the least loaded (first-sampled wins
    // ties, and sampling order is random, so ties break uniformly).
    const std::size_t d_eff = std::min(d_, unpicked);
    prefix_ = std::max(prefix_, d_eff);
    std::size_t best = 0;
    for (std::size_t j = 0; j < d_eff; ++j) {
      const std::size_t swap_with =
          j + static_cast<std::size_t>(rng.uniform_index(unpicked - j));
      std::swap(avail_[j], avail_[swap_with]);
      touched_.push_back(swap_with);
      if (candidates[avail_[j]].first < candidates[avail_[best]].first)
        best = j;
    }
    examined += d_eff;
    out.push_back(candidates[avail_[best]].second);
    // The picked index leaves the unpicked prefix; the last one takes its
    // slot, which is inside prefix_ as best < d_eff.
    avail_[best] = avail_[--unpicked];
  }
  reset_touched();
  return examined;
}

void PowerOfDPolicy::reset_touched() {
  for (std::size_t slot = 0; slot < prefix_; ++slot) avail_[slot] = slot;
  for (const std::size_t slot : touched_) avail_[slot] = slot;
  prefix_ = 0;
  touched_.clear();
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
