#include "core/cdf_model.h"

#include "common/check.h"

namespace tailguard {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::kFifo:
      return "FIFO";
    case Policy::kPriq:
      return "PRIQ";
    case Policy::kTEdf:
      return "T-EDFQ";
    case Policy::kTfEdf:
      return "TailGuard";
  }
  return "?";
}

DistributionCdfModel::DistributionCdfModel(DistributionPtr dist)
    : dist_(std::move(dist)) {
  TG_CHECK_MSG(dist_ != nullptr, "null distribution");
}

std::shared_ptr<CdfModel> DistributionCdfModel::clone() const {
  // The wrapped Distribution is immutable, so the clone shares it.
  return std::make_shared<DistributionCdfModel>(dist_);
}

EmpiricalCdfModel::EmpiricalCdfModel(std::span<const double> sample)
    : ecdf_(sample) {}

std::shared_ptr<CdfModel> EmpiricalCdfModel::clone() const {
  return std::shared_ptr<CdfModel>(new EmpiricalCdfModel(*this));
}

StreamingCdfModel::StreamingCdfModel(Options options)
    : hist_(options.histogram), refresh_every_(options.refresh_every) {
  TG_CHECK_MSG(refresh_every_ > 0, "refresh_every must be positive");
}

void StreamingCdfModel::seed(std::span<const double> sample) {
  for (double x : sample) hist_.add(x);
  ++version_;
  since_refresh_ = 0;
}

double StreamingCdfModel::cdf(TimeMs t) const { return hist_.cdf(t); }

TimeMs StreamingCdfModel::quantile(double p) const { return hist_.quantile(p); }

void StreamingCdfModel::observe(TimeMs t) {
  hist_.add(t);
  if (++since_refresh_ >= refresh_every_) {
    since_refresh_ = 0;
    ++version_;
  }
}

std::shared_ptr<CdfModel> StreamingCdfModel::clone() const {
  // Histogram weights, refresh phase and version all copy; the clone then
  // evolves independently of the original. The lookup caches are filled on
  // this model first (callers hold its owner's lock, as for any const call)
  // and copied with it, so concurrent readers of a snapshot never write to
  // it, and a later clone only tops up the prefix.
  hist_.materialize();
  return std::shared_ptr<CdfModel>(new StreamingCdfModel(*this));
}

}  // namespace tailguard
