#include "common/streaming_histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace tailguard {

StreamingHistogram::StreamingHistogram(StreamingHistogramOptions options)
    : options_(options) {
  TG_CHECK_MSG(options_.min_value > 0.0, "log buckets need min_value > 0");
  TG_CHECK(options_.max_value > options_.min_value);
  TG_CHECK(options_.buckets_per_decade > 0);
  TG_CHECK(options_.decay_factor > 0.0 && options_.decay_factor <= 1.0);
  log_min_ = std::log(options_.min_value);
  const double per_ln = static_cast<double>(options_.buckets_per_decade) /
                        std::log(10.0);
  inv_log_width_ = per_ln;
  const double span = std::log(options_.max_value) - log_min_;
  const auto finite = static_cast<std::size_t>(std::ceil(span * per_ln));
  // +1 overflow bucket for observations above max_value.
  weights_.assign(finite + 1, 0.0);
}

std::size_t StreamingHistogram::bucket_index(double x) const {
  if (!(x > options_.min_value)) return 0;
  if (x >= options_.max_value) return weights_.size() - 1;
  const double pos = (std::log(x) - log_min_) * inv_log_width_;
  auto idx = static_cast<std::size_t>(pos);
  return std::min(idx, weights_.size() - 2);
}

double StreamingHistogram::bucket_lower(std::size_t i) const {
  return std::exp(log_min_ + static_cast<double>(i) / inv_log_width_);
}

double StreamingHistogram::bucket_upper(std::size_t i) const {
  if (i + 1 >= weights_.size()) return options_.max_value;
  return std::exp(log_min_ + static_cast<double>(i + 1) / inv_log_width_);
}

void StreamingHistogram::allocate_caches() const {
  if (!prefix_.empty()) return;
  prefix_.assign(weights_.size() + 1, 0.0);
  log_edges_.assign(weights_.size() + 1,
                    std::numeric_limits<double>::quiet_NaN());
}

void StreamingHistogram::extend_prefix(std::size_t i) const {
  allocate_caches();
  // Writes only while extending: a complete copy's readers must not store.
  for (std::size_t k = prefix_valid_; k < i; ++k) {
    prefix_[k + 1] = prefix_[k] + weights_[k];
    prefix_valid_ = k + 1;
  }
}

double StreamingHistogram::log_edge(std::size_t i) const {
  // bucket_upper(i) is bucket_lower(i + 1) below the overflow bucket, so one
  // table serves both edges of every bucket.
  double& v = log_edges_[i];
  if (std::isnan(v)) {
    v = std::log(i < weights_.size() ? bucket_lower(i) : options_.max_value);
  }
  return v;
}

void StreamingHistogram::materialize() const {
  extend_prefix(weights_.size());
  for (std::size_t i = 0; i < log_edges_.size(); ++i) log_edge(i);
}

void StreamingHistogram::add(double x) {
  const std::size_t idx = bucket_index(x);
  weights_[idx] += 1.0;
  // prefix_[0..idx] does not include weights_[idx]; everything above does.
  prefix_valid_ = std::min(prefix_valid_, idx);
  total_ += 1.0;
  weighted_sum_ += std::max(x, options_.min_value);
  ++observations_;
  if (options_.decay_every != 0 && ++since_decay_ >= options_.decay_every) {
    since_decay_ = 0;
    for (auto& w : weights_) w *= options_.decay_factor;
    total_ *= options_.decay_factor;
    weighted_sum_ *= options_.decay_factor;
    prefix_valid_ = 0;
  }
}

double StreamingHistogram::cdf(double x) const {
  if (total_ <= 0.0) return 0.0;
  if (x >= options_.max_value) return 1.0;
  if (x <= options_.min_value) return 0.0;
  // bucket_index(x) with its log kept for the interpolation. A NaN x lands
  // in the last finite bucket and yields NaN.
  const double log_x = std::log(x);
  const double pos = (log_x - log_min_) * inv_log_width_;
  const std::size_t last = weights_.size() - 2;
  const std::size_t idx =
      pos < static_cast<double>(last) ? static_cast<std::size_t>(pos) : last;
  extend_prefix(idx);
  // Log-linear interpolation within the bucket containing x. The edge test
  // falls back to the edges themselves only when their logs tie.
  const double lo = log_edge(idx);
  const double hi = log_edge(idx + 1);
  const double frac = hi > lo || bucket_upper(idx) > bucket_lower(idx)
                          ? (log_x - lo) / (hi - lo)
                          : 1.0;
  return (prefix_[idx] + frac * weights_[idx]) / total_;
}

double StreamingHistogram::quantile(double p) const {
  TG_CHECK_MSG(p >= 0.0 && p <= 1.0, "quantile prob out of range: " << p);
  if (total_ <= 0.0) return 0.0;
  const double target = p * total_;
  allocate_caches();
  // A scan from bucket 0 stops at the first non-empty bucket i whose running
  // sum prefix_[i + 1] reaches the target. The prefix never decreases, so
  // that is the first non-empty bucket at or after the first i with
  // prefix_[i + 1] >= target: search below the watermark when the target is
  // already reached there, otherwise extend only until it is.
  const std::size_t n = weights_.size();
  std::size_t i = prefix_valid_;
  if (i > 0 && prefix_[i] >= target) {
    i = static_cast<std::size_t>(
        std::lower_bound(prefix_.begin() + 1, prefix_.begin() + i + 1, target) -
        prefix_.begin() - 1);
  } else {
    for (; i < n; ++i) {
      prefix_[i + 1] = prefix_[i] + weights_[i];
      prefix_valid_ = i + 1;
      if (prefix_[i + 1] >= target) break;
    }
  }
  if (i == n) return options_.max_value;
  // Only p * total_ == 0 can stop on an empty bucket (then i == 0); the
  // buckets skipped here add nothing to the running sum.
  const double cum = prefix_[i];
  while (!(weights_[i] > 0.0)) {
    if (++i == n) return options_.max_value;
  }
  const double frac = std::clamp((target - cum) / weights_[i], 0.0, 1.0);
  const double lo = log_edge(i);
  const double hi = log_edge(i + 1);
  // The geometric bucket grid may slightly overshoot max_value; clamp so
  // the estimate never exceeds the configured domain.
  return std::min(options_.max_value, std::exp(lo + frac * (hi - lo)));
}

double StreamingHistogram::mean() const {
  return total_ > 0.0 ? weighted_sum_ / total_ : 0.0;
}

void StreamingHistogram::clear() {
  std::fill(weights_.begin(), weights_.end(), 0.0);
  total_ = 0.0;
  weighted_sum_ = 0.0;
  observations_ = 0;
  since_decay_ = 0;
  prefix_valid_ = 0;
}

}  // namespace tailguard
