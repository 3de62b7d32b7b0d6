// Unit tests for src/common: RNG, statistics, empirical CDF, streaming
// histogram.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/empirical_cdf.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/streaming_histogram.h"

namespace tailguard {
namespace {

// ----------------------------------------------------------------- checks

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(TG_CHECK(false), CheckFailure);
  try {
    TG_CHECK_MSG(1 == 2, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { EXPECT_NO_THROW(TG_CHECK(1 + 1 == 2)); }

// -------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, UniformPosNeverZero) {
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) ASSERT_GT(rng.uniform_pos(), 0.0);
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 100);
}

TEST(Rng, SplitStreamsAreIndependent) {
  Rng parent(99);
  Rng child = parent.split();
  // The child stream should not replicate the parent stream.
  Rng parent2(99);
  (void)parent2();  // advance past the split draw
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (child() == parent2());
  EXPECT_LT(same, 3);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// ------------------------------------------------------------------ stats

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Summary, MergeMatchesSequential) {
  Rng rng(3);
  Summary all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
}

TEST(Summary, MergeIntoEmpty) {
  Summary a, b;
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v{10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90.0), 90.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 10.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 10.1), 20.0);
}

TEST(Percentile, UnsortedInput) {
  std::vector<double> v{3, 1, 2};
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 34.0), 2.0);
}

TEST(Percentile, EmptyGivesNaN) {
  EXPECT_TRUE(std::isnan(percentile(std::vector<double>{}, 99.0)));
}

TEST(Percentile, SingleElement) {
  std::vector<double> v{42.0};
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(v, 99.0), 42.0);
}

// --------------------------------------------------------- empirical CDF

TEST(EmpiricalCdf, QuantileInterpolates) {
  std::vector<double> sample{0.0, 1.0, 2.0, 3.0, 4.0};
  EmpiricalCdf cdf(sample);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.625), 2.5);
}

TEST(EmpiricalCdf, CdfMonotone) {
  Rng rng(17);
  std::vector<double> sample(1000);
  for (auto& x : sample) x = rng.uniform();
  EmpiricalCdf cdf(sample);
  double prev = -1.0;
  for (double x = -0.1; x <= 1.1; x += 0.01) {
    const double f = cdf.cdf(x);
    EXPECT_GE(f, prev);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
}

TEST(EmpiricalCdf, CdfQuantileRoundTrip) {
  Rng rng(23);
  std::vector<double> sample(5000);
  for (auto& x : sample) x = rng.uniform() * 10.0;
  EmpiricalCdf cdf(sample);
  for (double p : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double x = cdf.quantile(p);
    EXPECT_NEAR(cdf.cdf(x), p, 0.01) << "p=" << p;
  }
}

TEST(EmpiricalCdf, MatchesUniformDistribution) {
  Rng rng(31);
  std::vector<double> sample(200000);
  for (auto& x : sample) x = rng.uniform();
  EmpiricalCdf cdf(sample);
  EXPECT_NEAR(cdf.mean(), 0.5, 0.005);
  EXPECT_NEAR(cdf.quantile(0.99), 0.99, 0.005);
  EXPECT_NEAR(cdf.cdf(0.35), 0.35, 0.005);
}

TEST(EmpiricalCdf, RejectsEmptySample) {
  EXPECT_THROW(EmpiricalCdf(std::vector<double>{}), CheckFailure);
}

// ---------------------------------------------------- streaming histogram

TEST(StreamingHistogram, QuantilesOfKnownSample) {
  StreamingHistogramOptions opt;
  opt.min_value = 1e-3;
  opt.max_value = 1e3;
  opt.buckets_per_decade = 300;
  StreamingHistogram h(opt);
  Rng rng(41);
  for (int i = 0; i < 200000; ++i) h.add(1.0 + 9.0 * rng.uniform());
  // Uniform(1, 10): q(p) = 1 + 9p.
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(h.quantile(p), 1.0 + 9.0 * p, 0.15) << "p=" << p;
  }
  EXPECT_NEAR(h.mean(), 5.5, 0.05);
}

TEST(StreamingHistogram, CdfQuantileConsistent) {
  StreamingHistogram h;
  Rng rng(43);
  for (int i = 0; i < 50000; ++i) h.add(std::exp(rng.uniform() * 3.0));
  for (double p : {0.2, 0.5, 0.8, 0.95}) {
    const double x = h.quantile(p);
    EXPECT_NEAR(h.cdf(x), p, 0.02) << "p=" << p;
  }
}

TEST(StreamingHistogram, EmptyReturnsZero) {
  StreamingHistogram h;
  EXPECT_DOUBLE_EQ(h.cdf(1.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(StreamingHistogram, DecayTracksDrift) {
  StreamingHistogramOptions opt;
  opt.decay_every = 1000;
  opt.decay_factor = 0.3;
  StreamingHistogram h(opt);
  Rng rng(47);
  // Phase 1: values around 1. Phase 2: values around 100.
  for (int i = 0; i < 20000; ++i) h.add(0.5 + rng.uniform());
  for (int i = 0; i < 20000; ++i) h.add(50.0 + 100.0 * rng.uniform());
  // After decay, the median should reflect the new regime.
  EXPECT_GT(h.quantile(0.5), 30.0);
}

TEST(StreamingHistogram, NoDecayRemembersEverything) {
  StreamingHistogram h;
  for (int i = 0; i < 1000; ++i) h.add(1.0);
  EXPECT_EQ(h.observations(), 1000u);
  EXPECT_NEAR(h.total_weight(), 1000.0, 1e-9);
}

TEST(StreamingHistogram, ClearResets) {
  StreamingHistogram h;
  h.add(5.0);
  h.clear();
  EXPECT_DOUBLE_EQ(h.total_weight(), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(StreamingHistogram, OverflowBucketClamps) {
  StreamingHistogramOptions opt;
  opt.min_value = 0.1;
  opt.max_value = 10.0;
  StreamingHistogram h(opt);
  h.add(1e9);
  EXPECT_DOUBLE_EQ(h.cdf(10.0), 1.0);
  EXPECT_LE(h.quantile(0.99), 10.0);
}

// The scan lookups that StreamingHistogram's prefix and edge caches
// replaced, kept verbatim as the oracle of the differential test below. The
// buckets, add(), decay and clear() are the histogram's own; cdf() re-sums
// every bucket below x and quantile() scans from bucket 0 on every call.
class ScanHistogram {
 public:
  explicit ScanHistogram(StreamingHistogramOptions options)
      : options_(options) {
    log_min_ = std::log(options_.min_value);
    const double per_ln = static_cast<double>(options_.buckets_per_decade) /
                          std::log(10.0);
    inv_log_width_ = per_ln;
    const double span = std::log(options_.max_value) - log_min_;
    const auto finite = static_cast<std::size_t>(std::ceil(span * per_ln));
    weights_.assign(finite + 1, 0.0);
  }

  std::size_t buckets() const { return weights_.size(); }

  void add(double x) {
    weights_[bucket_index(x)] += 1.0;
    total_ += 1.0;
    if (options_.decay_every != 0 && ++since_decay_ >= options_.decay_every) {
      since_decay_ = 0;
      for (auto& w : weights_) w *= options_.decay_factor;
      total_ *= options_.decay_factor;
    }
  }

  void clear() {
    std::fill(weights_.begin(), weights_.end(), 0.0);
    total_ = 0.0;
    since_decay_ = 0;
  }

  double cdf(double x) const {
    if (total_ <= 0.0) return 0.0;
    if (x >= options_.max_value) return 1.0;
    if (x <= options_.min_value) return 0.0;
    const std::size_t idx = bucket_index(x);
    double below = 0.0;
    for (std::size_t i = 0; i < idx; ++i) below += weights_[i];
    const double lo = bucket_lower(idx);
    const double hi = bucket_upper(idx);
    const double frac =
        hi > lo ? (std::log(x) - std::log(lo)) / (std::log(hi) - std::log(lo))
                : 1.0;
    return (below + frac * weights_[idx]) / total_;
  }

  double quantile(double p) const {
    if (total_ <= 0.0) return 0.0;
    const double target = p * total_;
    double cum = 0.0;
    for (std::size_t i = 0; i < weights_.size(); ++i) {
      if (weights_[i] <= 0.0) continue;
      if (cum + weights_[i] >= target) {
        const double frac =
            weights_[i] > 0.0
                ? std::clamp((target - cum) / weights_[i], 0.0, 1.0)
                : 1.0;
        const double lo = std::log(bucket_lower(i));
        const double hi = std::log(bucket_upper(i));
        return std::min(options_.max_value, std::exp(lo + frac * (hi - lo)));
      }
      cum += weights_[i];
    }
    return options_.max_value;
  }

  double bucket_lower(std::size_t i) const {
    return std::exp(log_min_ + static_cast<double>(i) / inv_log_width_);
  }

 private:
  std::size_t bucket_index(double x) const {
    if (!(x > options_.min_value)) return 0;
    if (x >= options_.max_value) return weights_.size() - 1;
    const double pos = (std::log(x) - log_min_) * inv_log_width_;
    auto idx = static_cast<std::size_t>(pos);
    return std::min(idx, weights_.size() - 2);
  }
  double bucket_upper(std::size_t i) const {
    if (i + 1 >= weights_.size()) return options_.max_value;
    return std::exp(log_min_ + static_cast<double>(i + 1) / inv_log_width_);
  }

  StreamingHistogramOptions options_;
  double log_min_;
  double inv_log_width_;
  std::vector<double> weights_;
  double total_ = 0.0;
  std::uint64_t since_decay_ = 0;
};

TEST(StreamingHistogram, LookupsBitIdenticalToScanOracle) {
  // Random add / decay / clear sequences, probed between operations so the
  // prefix watermark is lowered, reset and re-extended from every position.
  const StreamingHistogramOptions configs[] = {
      {},  // defaults: 901 buckets, no decay
      {.min_value = 1e-2, .max_value = 1e3, .buckets_per_decade = 50,
       .decay_every = 97, .decay_factor = 0.5},
      {.min_value = 1e-4, .max_value = 1e4, .buckets_per_decade = 200,
       .decay_every = 31, .decay_factor = 0.3},
  };
  std::uint64_t probes = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  const auto expect_same = [&](double got, double want, const char* what,
                               double arg) {
    ++probes;
    if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want))
      return;
    if (mismatches++ == 0) {
      std::ostringstream os;
      os.precision(17);
      os << what << "(" << arg << ") = " << got << ", scan gives " << want;
      first_mismatch = os.str();
    }
  };
  std::uint64_t seed = 71;
  for (const StreamingHistogramOptions& opt : configs) {
    StreamingHistogram h(opt);
    ScanHistogram ref(opt);
    Rng rng(seed++);
    const double log_lo = std::log(opt.min_value) - 1.0;
    const double log_hi = std::log(opt.max_value) + 1.0;
    const auto probe = [&](const StreamingHistogram& hist) {
      // On, just below and just above a random bucket edge (the edge values
      // the lookups interpolate from), at and next to min and max, and at a
      // random point.
      const double edge = ref.bucket_lower(rng.uniform_index(ref.buckets()));
      const double xs[] = {edge,
                           std::nextafter(edge, 0.0),
                           std::nextafter(edge, HUGE_VAL),
                           opt.min_value,
                           std::nextafter(opt.min_value, HUGE_VAL),
                           opt.max_value,
                           std::nextafter(opt.max_value, 0.0),
                           std::exp(log_lo + (log_hi - log_lo) * rng.uniform())};
      for (double x : xs) expect_same(hist.cdf(x), ref.cdf(x), "cdf", x);
      for (double p : {0.0, 1.0, 5e-324, rng.uniform(), rng.uniform()})
        expect_same(hist.quantile(p), ref.quantile(p), "quantile", p);
    };
    for (int step = 0; step < 40000; ++step) {
      const double u = rng.uniform();
      if (u < 0.0005) {
        h.clear();
        ref.clear();
      } else if (u < 0.75) {
        // Runs of adds between probes, sometimes exactly on an edge.
        const double x =
            u < 0.05 ? ref.bucket_lower(rng.uniform_index(ref.buckets()))
                     : std::exp(log_lo + (log_hi - log_lo) * rng.uniform());
        h.add(x);
        ref.add(x);
      } else if (u < 0.995) {
        probe(h);
      } else {
        // A materialised copy answers identically and stays independent.
        StreamingHistogram copy = h;
        copy.materialize();
        probe(copy);
        copy.add(1.0);
      }
    }
  }
  EXPECT_GT(probes, 300000u);
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
}

}  // namespace
}  // namespace tailguard
