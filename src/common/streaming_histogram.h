// Online-updatable CDF estimator.
//
// Implements the paper's *online updating process* (§III.B.2): every task
// completion contributes one post-queuing-time observation per server, and
// the per-server CDF F_l(t) must track drift (skew, uneven resources) at O(1)
// cost per observation.
//
// The estimator is a histogram with log-spaced bucket edges (constant
// relative resolution across several orders of magnitude of latency) and
// optional exponential decay so that old observations age out.
//
// Lookups are O(1) amortised (cdf) and O(log n) (quantile): a prefix-sum
// array over the bucket weights is extended lazily up to a watermark that
// add() lowers to the bucket it touched and decay or clear() reset to 0, and
// the log of every bucket edge is memoised on first use. The cached values
// are the same left-to-right sums and logs that a scan from bucket 0
// computes, so every result is bit-identical to such a scan (DESIGN.md
// §8.5). Both caches are allocated on the first lookup; constructing or
// filling a histogram costs nothing extra.
//
// Thread safety: none. cdf() and quantile() are const but fill the caches,
// so even concurrent const calls on one histogram need the owner's lock.
// A copy after materialize() has full caches, and const calls on it then
// only read: that is what makes CdfModel::clone() snapshots safe to share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace tailguard {

struct StreamingHistogramOptions {
  /// Lower edge of the first finite bucket. Observations below are clamped.
  double min_value = 1e-3;
  /// Upper edge of the last finite bucket. Observations above land in an
  /// overflow bucket represented by `max_value`.
  double max_value = 1e6;
  /// Buckets per decade; 100 gives ~2.3% relative quantile resolution.
  std::size_t buckets_per_decade = 100;
  /// After every `decay_every` observations all bucket weights are scaled by
  /// `decay_factor`, implementing a sliding exponential window. Set
  /// decay_every = 0 to disable aging (cumulative histogram).
  std::size_t decay_every = 0;
  double decay_factor = 0.5;
};

class StreamingHistogram {
 public:
  explicit StreamingHistogram(StreamingHistogramOptions options = {});

  /// Records one observation. O(1).
  void add(double x);

  /// Total (decayed) observation weight.
  double total_weight() const { return total_; }
  /// Number of add() calls since construction (not decayed).
  std::uint64_t observations() const { return observations_; }

  /// Estimated F(x); 0 when no observations have been recorded.
  double cdf(double x) const;

  /// Estimated quantile, p in [0, 1]. Interpolates within the bucket
  /// (log-linearly, matching the bucket geometry).
  double quantile(double p) const;

  /// Decayed-weight mean of the observations.
  double mean() const;

  void clear();

  /// Fills both lookup caches completely, so later const calls write
  /// nothing until the next add(). Costs one log per bucket edge.
  void materialize() const;

 private:
  std::size_t bucket_index(double x) const;
  double bucket_lower(std::size_t i) const;
  double bucket_upper(std::size_t i) const;
  /// Allocates the caches on the first lookup.
  void allocate_caches() const;
  /// Makes prefix_[0..i] valid.
  void extend_prefix(std::size_t i) const;
  /// log(lower edge of bucket i); i == weights_.size() gives log(max_value).
  double log_edge(std::size_t i) const;

  StreamingHistogramOptions options_;
  double log_min_;
  double inv_log_width_;  // buckets per unit of ln(x)
  std::vector<double> weights_;
  double total_ = 0.0;
  double weighted_sum_ = 0.0;
  std::uint64_t observations_ = 0;
  std::uint64_t since_decay_ = 0;

  // Lookup caches, sized weights_.size() + 1 once allocated.
  // prefix_[i] = weights_[0] + ... + weights_[i - 1], summed left to right,
  // valid for i <= prefix_valid_. log_edges_ holds NaN until computed.
  mutable std::vector<double> prefix_;
  mutable std::size_t prefix_valid_ = 0;
  mutable std::vector<double> log_edges_;
};

}  // namespace tailguard
