#include "stats/special.hpp"

#include <cmath>
#include <limits>

#include "common/contracts.hpp"

namespace bmfusion::stats {

namespace {
constexpr double kPi = 3.141592653589793238462643383279502884;
constexpr double kSqrt2 = 1.414213562373095048801688724209698079;
constexpr double kLogSqrt2Pi = 0.918938533204672741780329736405617639;
}  // namespace

double log_multivariate_gamma(double a, std::size_t d) {
  BMFUSION_REQUIRE(d >= 1, "dimension must be positive");
  BMFUSION_REQUIRE(a > 0.5 * (static_cast<double>(d) - 1.0),
                   "multivariate gamma requires a > (d-1)/2");
  double acc = 0.25 * static_cast<double>(d) * static_cast<double>(d - 1) *
               std::log(kPi);
  for (std::size_t j = 1; j <= d; ++j) {
    acc += std::lgamma(a + 0.5 * (1.0 - static_cast<double>(j)));
  }
  return acc;
}

double standard_normal_pdf(double x) {
  return std::exp(-0.5 * x * x - kLogSqrt2Pi);
}

double standard_normal_cdf(double x) {
  return 0.5 * std::erfc(-x / kSqrt2);
}

double standard_normal_quantile(double p) {
  BMFUSION_REQUIRE(p > 0.0 && p < 1.0,
                   "normal quantile requires p in (0, 1)");
  // Acklam's algorithm: rational approximations on the central region and
  // the two tails.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double dd[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                  2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x = 0.0;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((dd[0] * q + dd[1]) * q + dd[2]) * q + dd[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log1p(-p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((dd[0] * q + dd[1]) * q + dd[2]) * q + dd[3]) * q + 1.0);
  }
  // One Halley refinement step drives the error to ~1e-15.
  const double e = standard_normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * kPi) * std::exp(0.5 * x * x);
  x = x - u / (1.0 + 0.5 * x * u);
  return x;
}

double log_beta(double a, double b) {
  BMFUSION_REQUIRE(a > 0.0 && b > 0.0, "log_beta needs positive arguments");
  return std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
}

double log_sum_exp(double a, double b) {
  const double hi = a > b ? a : b;
  const double lo = a > b ? b : a;
  if (hi == -std::numeric_limits<double>::infinity()) return hi;
  return hi + std::log1p(std::exp(lo - hi));
}

}  // namespace bmfusion::stats
