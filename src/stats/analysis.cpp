#include "stats/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "core/checksum.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"

namespace nodebench::stats {

namespace {

/// Regularized incomplete beta I_x(a, b) via Lentz's modified continued
/// fraction (the classic betacf construction). Converges in a few dozen
/// iterations for the (df/2, 1/2) arguments the t CDF uses.
double betaContinuedFraction(double a, double b, double x) {
  constexpr int kMaxIter = 300;
  constexpr double kEps = 3e-15;
  constexpr double kTiny = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) {
    d = kTiny;
  }
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIter; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) {
      d = kTiny;
    }
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) {
      c = kTiny;
    }
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) {
      d = kTiny;
    }
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) {
      c = kTiny;
    }
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) {
      break;
    }
  }
  return h;
}

/// ln Γ(x) for x > 0. std::lgamma stores the sign of Γ(x) in the global
/// `signgam`, a data race when compare workers call it at once;
/// lgamma_r returns the sign instead, and for x > 0 it is +1.
double logGamma(double x) {
  int sign = 0;
  const double lg = ::lgamma_r(x, &sign);
  NB_ENSURES(sign == 1);
  return lg;
}

double regularizedIncompleteBeta(double a, double b, double x) {
  NB_EXPECTS(a > 0.0 && b > 0.0 && x >= 0.0 && x <= 1.0);
  if (x == 0.0 || x == 1.0) {
    return x;
  }
  const double lnFront = logGamma(a + b) - logGamma(a) - logGamma(b) +
                         a * std::log(x) + b * std::log1p(-x);
  // Use the continued fraction on the side where it converges fastest.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return std::exp(lnFront) * betaContinuedFraction(a, b, x) / a;
  }
  return 1.0 - std::exp(lnFront) * betaContinuedFraction(b, a, 1.0 - x) / b;
}

double mean(std::span<const double> xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

double sampleVariance(std::span<const double> xs, double mu) {
  double acc = 0.0;
  for (const double x : xs) {
    acc += (x - mu) * (x - mu);
  }
  return acc / static_cast<double>(xs.size() - 1);
}

}  // namespace

std::uint64_t sampleFingerprint(std::span<const double> xs) {
  std::uint64_t h = Fnv1a::init();
  h = Fnv1a::mix(h, static_cast<std::uint64_t>(xs.size()));
  for (const double x : xs) {
    h = Fnv1a::mix(h, x);
  }
  return h;
}

double normalCdf(double z) {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double studentTCdf(double t, double df) {
  NB_EXPECTS(df > 0.0);
  if (std::isinf(t)) {
    return t > 0.0 ? 1.0 : 0.0;
  }
  const double x = df / (df + t * t);
  const double tail = 0.5 * regularizedIncompleteBeta(df / 2.0, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

BootstrapCi bootstrapMeanCi(std::span<const double> xs, double level,
                            int resamples) {
  NB_EXPECTS(!xs.empty());
  NB_EXPECTS(level > 0.0 && level < 1.0);
  NB_EXPECTS(resamples > 0);
  Xoshiro256 rng(sampleFingerprint(xs) ^ 0xb0075742b0075742ull);
  const std::uint64_t n = xs.size();
  std::vector<double> means(static_cast<std::size_t>(resamples));
  for (double& m : means) {
    double acc = 0.0;
    for (std::uint64_t i = 0; i < n; ++i) {
      acc += xs[static_cast<std::size_t>(rng.uniformInt(n))];
    }
    m = acc / static_cast<double>(n);
  }
  const double tailPct = 100.0 * (1.0 - level) / 2.0;
  BootstrapCi ci;
  ci.lo = percentile(means, tailPct);
  ci.hi = percentile(means, 100.0 - tailPct);
  ci.level = level;
  ci.resamples = resamples;
  return ci;
}

WelchResult welchTTest(std::span<const double> a, std::span<const double> b) {
  NB_EXPECTS(a.size() >= 2 && b.size() >= 2);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double ma = mean(a);
  const double mb = mean(b);
  const double va = sampleVariance(a, ma);
  const double vb = sampleVariance(b, mb);
  const double se2 = va / na + vb / nb;

  WelchResult out;
  if (se2 == 0.0) {
    // Both samples are constant: the test degenerates to exact equality.
    out.df = na + nb - 2.0;
    if (ma == mb) {
      out.t = 0.0;
      out.p = 1.0;
    } else {
      out.t = mb > ma ? std::numeric_limits<double>::infinity()
                      : -std::numeric_limits<double>::infinity();
      out.p = 0.0;
    }
    return out;
  }
  out.t = (mb - ma) / std::sqrt(se2);
  out.df = se2 * se2 /
           ((va / na) * (va / na) / (na - 1.0) +
            (vb / nb) * (vb / nb) / (nb - 1.0));
  out.p = 2.0 * (1.0 - studentTCdf(std::fabs(out.t), out.df));
  out.p = std::clamp(out.p, 0.0, 1.0);
  return out;
}

MannWhitneyResult mannWhitneyU(std::span<const double> a,
                               std::span<const double> b) {
  NB_EXPECTS(!a.empty() && !b.empty());
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  const std::size_t n = na + nb;

  // Joint ascending sort with provenance, then midrank assignment for
  // ties plus the variance tie-correction term sum(t^3 - t).
  struct Tagged {
    double value;
    bool fromA;
  };
  std::vector<Tagged> all;
  all.reserve(n);
  for (const double x : a) {
    all.push_back({x, true});
  }
  for (const double x : b) {
    all.push_back({x, false});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Tagged& x, const Tagged& y) {
                     return x.value < y.value;
                   });
  double rankSumA = 0.0;
  double tieTerm = 0.0;
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && all[j].value == all[i].value) {
      ++j;
    }
    const double midRank = (static_cast<double>(i + 1) +
                            static_cast<double>(j)) / 2.0;
    const double t = static_cast<double>(j - i);
    if (j - i > 1) {
      tieTerm += t * t * t - t;
    }
    for (std::size_t k = i; k < j; ++k) {
      if (all[k].fromA) {
        rankSumA += midRank;
      }
    }
    i = j;
  }

  const double dna = static_cast<double>(na);
  const double dnb = static_cast<double>(nb);
  const double dn = static_cast<double>(n);
  MannWhitneyResult out;
  out.u = rankSumA - dna * (dna + 1.0) / 2.0;
  const double mu = dna * dnb / 2.0;
  const double var =
      dna * dnb / 12.0 *
      ((dn + 1.0) - tieTerm / (dn * (dn - 1.0)));
  if (var <= 0.0) {
    // Every observation tied: no evidence of a shift either way.
    out.z = 0.0;
    out.p = 1.0;
    return out;
  }
  // Continuity correction toward the null.
  const double diff = out.u - mu;
  const double corrected =
      diff > 0.5 ? diff - 0.5 : (diff < -0.5 ? diff + 0.5 : 0.0);
  out.z = corrected / std::sqrt(var);
  out.p = std::clamp(2.0 * (1.0 - normalCdf(std::fabs(out.z))), 0.0, 1.0);
  return out;
}

double cohensD(std::span<const double> a, std::span<const double> b) {
  NB_EXPECTS(a.size() >= 2 && b.size() >= 2);
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double ma = mean(a);
  const double mb = mean(b);
  const double va = sampleVariance(a, ma);
  const double vb = sampleVariance(b, mb);
  const double pooled =
      ((na - 1.0) * va + (nb - 1.0) * vb) / (na + nb - 2.0);
  if (pooled <= 0.0) {
    return 0.0;
  }
  return (mb - ma) / std::sqrt(pooled);
}

double cliffsDelta(std::span<const double> a, std::span<const double> b) {
  NB_EXPECTS(!a.empty() && !b.empty());
  // O(n log n) via sorted baseline + binary search (the sample vectors
  // are 100 elements in the paper's methodology, but campaign stores can
  // carry far more).
  std::vector<double> sortedA(a.begin(), a.end());
  std::sort(sortedA.begin(), sortedA.end());
  const double na = static_cast<double>(a.size());
  std::int64_t dominance = 0;
  for (const double y : b) {
    const auto lower = std::lower_bound(sortedA.begin(), sortedA.end(), y);
    const auto upper = std::upper_bound(lower, sortedA.end(), y);
    const auto less = lower - sortedA.begin();            // a < y
    const auto greater = sortedA.end() - upper;           // a > y
    dominance += static_cast<std::int64_t>(less) -
                 static_cast<std::int64_t>(greater);
  }
  return static_cast<double>(dominance) /
         (na * static_cast<double>(b.size()));
}

}  // namespace nodebench::stats
