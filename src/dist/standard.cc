#include "dist/standard.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/check.h"

namespace tailguard {

// ---------------------------------------------------------------- helpers

double invert_cdf_bisect(const Distribution& d, double p, double lo, double hi,
                         int max_iter, double tol) {
  TG_CHECK(p >= 0.0 && p <= 1.0);
  TG_CHECK(hi >= lo);
  for (int i = 0; i < max_iter && hi - lo > tol * std::max(1.0, std::abs(hi));
       ++i) {
    const double mid = 0.5 * (lo + hi);
    if (d.cdf(mid) < p) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

namespace {
// Standard normal CDF / quantile (Acklam's rational approximation for the
// inverse; accurate to ~1e-9 which is far below workload-model noise).
double norm_cdf(double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }

double norm_quantile(double p) {
  TG_CHECK(p > 0.0 && p < 1.0);
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - plow) {
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}
}  // namespace

// ----------------------------------------------------------- Deterministic

Deterministic::Deterministic(double value) : value_(value) {
  TG_CHECK_MSG(std::isfinite(value), "deterministic value must be finite");
}

std::string Deterministic::name() const {
  std::ostringstream os;
  os << "Deterministic(" << value_ << ")";
  return os.str();
}

// ----------------------------------------------------------------- Uniform

Uniform::Uniform(double lo, double hi) : lo_(lo), hi_(hi) {
  TG_CHECK_MSG(hi > lo, "uniform needs hi > lo");
}

double Uniform::cdf(double x) const {
  if (x <= lo_) return 0.0;
  if (x >= hi_) return 1.0;
  return (x - lo_) / (hi_ - lo_);
}

double Uniform::quantile(double p) const {
  TG_CHECK(p >= 0.0 && p <= 1.0);
  return lo_ + p * (hi_ - lo_);
}

std::string Uniform::name() const {
  std::ostringstream os;
  os << "Uniform(" << lo_ << ", " << hi_ << ")";
  return os.str();
}

// ------------------------------------------------------------- Exponential

Exponential::Exponential(double mean) : mean_(mean) {
  TG_CHECK_MSG(mean > 0.0, "exponential mean must be positive");
}

double Exponential::sample(Rng& rng) const {
  return -mean_ * std::log(rng.uniform_pos());
}

double Exponential::cdf(double x) const {
  return x <= 0.0 ? 0.0 : 1.0 - std::exp(-x / mean_);
}

double Exponential::quantile(double p) const {
  TG_CHECK(p >= 0.0 && p < 1.0 + 1e-15);
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  return -mean_ * std::log(1.0 - p);
}

std::string Exponential::name() const {
  std::ostringstream os;
  os << "Exponential(mean=" << mean_ << ")";
  return os.str();
}

// ------------------------------------------------------------------ Pareto

Pareto::Pareto(double scale, double shape) : scale_(scale), shape_(shape) {
  TG_CHECK_MSG(scale > 0.0, "Pareto scale must be positive");
  TG_CHECK_MSG(shape > 0.0, "Pareto shape must be positive");
}

double Pareto::cdf(double x) const {
  if (x <= scale_) return 0.0;
  return 1.0 - std::pow(scale_ / x, shape_);
}

double Pareto::quantile(double p) const {
  TG_CHECK(p >= 0.0 && p <= 1.0);
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  return scale_ * std::pow(1.0 - p, -1.0 / shape_);
}

double Pareto::mean() const {
  if (shape_ <= 1.0) return std::numeric_limits<double>::infinity();
  return scale_ * shape_ / (shape_ - 1.0);
}

Pareto Pareto::with_mean(double mean, double shape) {
  TG_CHECK_MSG(shape > 1.0, "finite-mean Pareto needs shape > 1");
  TG_CHECK_MSG(mean > 0.0, "Pareto mean must be positive");
  return Pareto(mean * (shape - 1.0) / shape, shape);
}

std::string Pareto::name() const {
  std::ostringstream os;
  os << "Pareto(scale=" << scale_ << ", shape=" << shape_ << ")";
  return os.str();
}

// --------------------------------------------------------------- Lognormal

Lognormal::Lognormal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  TG_CHECK_MSG(sigma > 0.0, "lognormal sigma must be positive");
}

double Lognormal::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return norm_cdf((std::log(x) - mu_) / sigma_);
}

double Lognormal::quantile(double p) const {
  TG_CHECK(p >= 0.0 && p <= 1.0);
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  return std::exp(mu_ + sigma_ * norm_quantile(p));
}

double Lognormal::mean() const {
  return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

std::string Lognormal::name() const {
  std::ostringstream os;
  os << "Lognormal(mu=" << mu_ << ", sigma=" << sigma_ << ")";
  return os.str();
}

// ----------------------------------------------------------------- Weibull

Weibull::Weibull(double shape, double scale) : shape_(shape), scale_(scale) {
  TG_CHECK_MSG(shape > 0.0, "Weibull shape must be positive");
  TG_CHECK_MSG(scale > 0.0, "Weibull scale must be positive");
}

double Weibull::sample(Rng& rng) const {
  return scale_ * std::pow(-std::log(rng.uniform_pos()), 1.0 / shape_);
}

double Weibull::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return 1.0 - std::exp(-std::pow(x / scale_, shape_));
}

double Weibull::quantile(double p) const {
  TG_CHECK(p >= 0.0 && p <= 1.0);
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  return scale_ * std::pow(-std::log(1.0 - p), 1.0 / shape_);
}

double Weibull::mean() const {
  return scale_ * std::tgamma(1.0 + 1.0 / shape_);
}

Weibull Weibull::with_mean(double mean, double shape) {
  TG_CHECK_MSG(mean > 0.0, "Weibull mean must be positive");
  TG_CHECK_MSG(shape > 0.0, "Weibull shape must be positive");
  return Weibull(shape, mean / std::tgamma(1.0 + 1.0 / shape));
}

std::string Weibull::name() const {
  std::ostringstream os;
  os << "Weibull(k=" << shape_ << ", scale=" << scale_ << ")";
  return os.str();
}

// ------------------------------------------------------------------- Gamma

double regularized_gamma_p(double a, double x) {
  TG_CHECK_MSG(a > 0.0, "gamma shape must be positive");
  if (x <= 0.0) return 0.0;
  // lgamma_r, not std::lgamma: glibc's lgamma also writes the global
  // signgam, a data race when simulations run on several threads.
  int sign = 0;
  const double log_gamma_a = lgamma_r(a, &sign);
  if (x < a + 1.0) {
    // Series representation.
    double term = 1.0 / a;
    double sum = term;
    double ap = a;
    for (int i = 0; i < 500; ++i) {
      ap += 1.0;
      term *= x / ap;
      sum += term;
      if (std::abs(term) < std::abs(sum) * 1e-15) break;
    }
    return sum * std::exp(-x + a * std::log(x) - log_gamma_a);
  }
  // Continued fraction for Q(a, x), then P = 1 - Q (Lentz's algorithm).
  const double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-15) break;
  }
  const double q = std::exp(-x + a * std::log(x) - log_gamma_a) * h;
  return 1.0 - q;
}

Gamma::Gamma(double shape, double scale) : shape_(shape), scale_(scale) {
  TG_CHECK_MSG(shape > 0.0, "Gamma shape must be positive");
  TG_CHECK_MSG(scale > 0.0, "Gamma scale must be positive");
}

double Gamma::sample(Rng& rng) const {
  // Marsaglia & Tsang (2000); the alpha < 1 case boosts via U^{1/alpha}.
  double alpha = shape_;
  double boost = 1.0;
  if (alpha < 1.0) {
    boost = std::pow(rng.uniform_pos(), 1.0 / alpha);
    alpha += 1.0;
  }
  const double d = alpha - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    // Standard normal via Box-Muller (only one draw used).
    const double u1 = rng.uniform_pos();
    const double u2 = rng.uniform();
    const double z =
        std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
    const double v = std::pow(1.0 + c * z, 3.0);
    if (v <= 0.0) continue;
    const double u = rng.uniform_pos();
    if (std::log(u) < 0.5 * z * z + d - d * v + d * std::log(v)) {
      return boost * d * v * scale_;
    }
  }
}

double Gamma::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return regularized_gamma_p(shape_, x / scale_);
}

double Gamma::quantile(double p) const {
  TG_CHECK(p >= 0.0 && p <= 1.0);
  if (p <= 0.0) return 0.0;
  if (p >= 1.0) return std::numeric_limits<double>::infinity();
  // Bracket: the mean plus enough standard deviations covers any p < 1-1e-12.
  const double sigma = std::sqrt(shape_) * scale_;
  double hi = mean() + 40.0 * sigma;
  while (cdf(hi) < p) hi *= 2.0;
  return invert_cdf_bisect(*this, p, 0.0, hi);
}

std::string Gamma::name() const {
  std::ostringstream os;
  os << "Gamma(shape=" << shape_ << ", scale=" << scale_ << ")";
  return os.str();
}

// ------------------------------------------------------------------ Scaled

Scaled::Scaled(DistributionPtr base, double factor, double shift)
    : base_(std::move(base)), factor_(factor), shift_(shift) {
  TG_CHECK_MSG(base_ != nullptr, "null base distribution");
  TG_CHECK_MSG(factor > 0.0, "scale factor must be positive");
}

double Scaled::sample(Rng& rng) const {
  return shift_ + factor_ * base_->sample(rng);
}

double Scaled::cdf(double x) const {
  return base_->cdf((x - shift_) / factor_);
}

double Scaled::quantile(double p) const {
  return shift_ + factor_ * base_->quantile(p);
}

double Scaled::mean() const { return shift_ + factor_ * base_->mean(); }

std::string Scaled::name() const {
  std::ostringstream os;
  os << "Scaled(" << base_->name() << " * " << factor_;
  if (shift_ != 0.0) os << " + " << shift_;
  os << ")";
  return os.str();
}

// ----------------------------------------------------------------- Mixture

Mixture::Mixture(std::vector<DistributionPtr> components,
                 std::vector<double> weights)
    : components_(std::move(components)), weights_(std::move(weights)) {
  TG_CHECK_MSG(!components_.empty(), "mixture needs at least one component");
  TG_CHECK_MSG(components_.size() == weights_.size(),
               "mixture component/weight count mismatch");
  double total = 0.0;
  for (double w : weights_) {
    TG_CHECK_MSG(w >= 0.0, "mixture weights must be non-negative");
    total += w;
  }
  TG_CHECK_MSG(total > 0.0, "mixture weights must not all be zero");
  double cum = 0.0;
  cum_.reserve(weights_.size());
  for (auto& w : weights_) {
    w /= total;
    cum += w;
    cum_.push_back(cum);
  }
  cum_.back() = 1.0;
}

double Mixture::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), u);
  const auto idx = std::min<std::size_t>(
      static_cast<std::size_t>(it - cum_.begin()), components_.size() - 1);
  return components_[idx]->sample(rng);
}

double Mixture::cdf(double x) const {
  double f = 0.0;
  for (std::size_t i = 0; i < components_.size(); ++i)
    f += weights_[i] * components_[i]->cdf(x);
  return f;
}

double Mixture::quantile(double p) const {
  TG_CHECK(p >= 0.0 && p <= 1.0);
  // Bracket with the extreme component quantiles, then bisect.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const auto& c : components_) {
    lo = std::min(lo, c->quantile(std::min(p, 0.999999999)));
    hi = std::max(hi, c->quantile(std::min(p, 0.999999999)));
  }
  if (lo >= hi) return lo;
  return invert_cdf_bisect(*this, p, lo, hi);
}

double Mixture::mean() const {
  double m = 0.0;
  for (std::size_t i = 0; i < components_.size(); ++i)
    m += weights_[i] * components_[i]->mean();
  return m;
}

std::string Mixture::name() const {
  std::ostringstream os;
  os << "Mixture(" << components_.size() << " components)";
  return os.str();
}

}  // namespace tailguard
