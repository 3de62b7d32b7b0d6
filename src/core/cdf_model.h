// Per-task-server CDF models of the *unloaded task response time* F_l^u(t).
//
// The deadline estimator (Eq. 6) only needs two operations from a model —
// evaluate F(t) and invert it — plus, for the online updating process
// (§III.B.2), the ability to absorb new post-queuing-time observations.
// Three implementations cover the paper's lifecycle:
//   * DistributionCdfModel — analytic ground truth (simulation input).
//   * EmpiricalCdfModel    — frozen offline profile (initial estimation).
//   * StreamingCdfModel    — online-updated histogram (periodic updating).
#pragma once

#include <memory>
#include <span>

#include "common/empirical_cdf.h"
#include "common/streaming_histogram.h"
#include "core/types.h"
#include "dist/distribution.h"

namespace tailguard {

/// Thread safety: a live model is read and updated under its owner's lock
/// (TailGuardService's and RemoteDispatcher's mu_) or by one thread (a
/// simulation run). That covers const calls too:
/// StreamingCdfModel::cdf() and quantile() fill lookup caches, so two
/// threads may not call them on one live model at once. A clone() comes back
/// with every cache filled, so any number of threads may read a clone while
/// nobody updates it (the snapshots of TailGuardService::worker_model() and
/// RemoteDispatcher::server_model()).
class CdfModel {
 public:
  virtual ~CdfModel() = default;

  /// F(t) = P[unloaded task response time <= t].
  virtual double cdf(TimeMs t) const = 0;

  /// Inverse CDF, p in [0, 1].
  virtual TimeMs quantile(double p) const = 0;

  /// Records one observed post-queuing time. No-op for frozen models.
  virtual void observe(TimeMs /*t*/) {}

  /// Monotone version counter: bumps whenever quantiles may have changed, so
  /// callers (e.g. the order-statistics cache) can invalidate lazily.
  virtual std::uint64_t version() const { return 0; }

  /// Deep copy of the model's *current* state. Shards > 0 clone the seed
  /// models so each shard evolves its own online view (sharing a mutable
  /// model across shards would make every observation instantly global and
  /// defeat the staleness semantics the delta-sync is meant to expose).
  /// The copy's const calls write nothing until it is next updated.
  virtual std::shared_ptr<CdfModel> clone() const = 0;
};

/// Wraps an analytic Distribution. Immutable.
class DistributionCdfModel final : public CdfModel {
 public:
  explicit DistributionCdfModel(DistributionPtr dist);
  double cdf(TimeMs t) const override { return dist_->cdf(t); }
  TimeMs quantile(double p) const override { return dist_->quantile(p); }
  std::shared_ptr<CdfModel> clone() const override;
  const Distribution& distribution() const { return *dist_; }

 private:
  DistributionPtr dist_;
};

/// Frozen empirical CDF from an offline profiling sample.
class EmpiricalCdfModel final : public CdfModel {
 public:
  explicit EmpiricalCdfModel(std::span<const double> sample);
  double cdf(TimeMs t) const override { return ecdf_.cdf(t); }
  TimeMs quantile(double p) const override { return ecdf_.quantile(p); }
  std::shared_ptr<CdfModel> clone() const override;

 private:
  EmpiricalCdf ecdf_;
};

/// Online-updated model: starts from an optional seed sample (the paper's
/// offline estimation) and keeps absorbing observations. `version()` advances
/// every `refresh_every` observations — between refreshes the model reports
/// the same version so quantile caches stay valid, matching the paper's
/// "periodical online updating".
class StreamingCdfModel final : public CdfModel {
 public:
  struct Options {
    StreamingHistogramOptions histogram = {};
    /// Version bump cadence, in observations.
    std::uint64_t refresh_every = 1000;
  };

  StreamingCdfModel() : StreamingCdfModel(Options{}) {}
  explicit StreamingCdfModel(Options options);

  /// Seeds the histogram with an offline sample.
  void seed(std::span<const double> sample);

  double cdf(TimeMs t) const override;
  TimeMs quantile(double p) const override;
  void observe(TimeMs t) override;
  std::uint64_t version() const override { return version_; }
  std::shared_ptr<CdfModel> clone() const override;

  std::uint64_t observations() const { return hist_.observations(); }

 private:
  StreamingHistogram hist_;
  std::uint64_t refresh_every_;
  std::uint64_t since_refresh_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace tailguard
