#include "stats/univariate.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace bmfusion::stats {

namespace {
constexpr double kLogSqrt2Pi = 0.918938533204672741780329736405617639;
}

double sample_standard_normal(Xoshiro256pp& rng) {
  // Marsaglia polar method, discarding the second variate for a stateless
  // interface. Every die's mismatch and noise draws are defined by exactly
  // this sequence of uniforms, so the algorithm is part of the
  // reproducibility contract: a faster sampler (ziggurat, a cached second
  // variate) would re-roll every die of every recorded figure and the
  // pinned-die hashes. Its cost is real — these draws are a quarter to a
  // third of a flash-ADC die (4096 noise samples) — which is why the
  // uniform draws underneath are inline.
  while (true) {
    const double u = rng.next_uniform(-1.0, 1.0);
    const double v = rng.next_uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double sample_normal(Xoshiro256pp& rng, double mean, double stddev) {
  BMFUSION_REQUIRE(stddev >= 0.0, "normal sampling needs stddev >= 0");
  return mean + stddev * sample_standard_normal(rng);
}

void sample_normal_into(Xoshiro256pp& rng, double mean, double stddev,
                        std::span<double> out) {
  BMFUSION_REQUIRE(stddev >= 0.0, "normal sampling needs stddev >= 0");
  // sample_standard_normal's polar method, one block of draws at a time in
  // two passes. The accept pass runs the uniforms and the 0 < s < 1 test,
  // keeping each candidate and advancing only on acceptance, so the RNG is
  // consumed in exactly the scalar order. The transform pass then applies
  // sample_normal's arithmetic, operation for operation, with no branch
  // between one draw's log -> sqrt -> divide chain and the next, so no
  // mispredicted accept test discards transforms already in flight.
  constexpr std::size_t kBlock = 256;
  double us[kBlock]{};
  double ss[kBlock]{};
  for (std::size_t base = 0; base < out.size(); base += kBlock) {
    const std::size_t count = std::min(kBlock, out.size() - base);
    for (std::size_t i = 0; i < count;) {
      const double u = rng.next_uniform(-1.0, 1.0);
      const double v = rng.next_uniform(-1.0, 1.0);
      const double s = u * u + v * v;
      us[i] = u;
      ss[i] = s;
      i += static_cast<std::size_t>((s > 0.0) & (s < 1.0));
    }
    for (std::size_t i = 0; i < count; ++i) {
      const double s = ss[i];
      out[base + i] =
          mean + stddev * (us[i] * std::sqrt(-2.0 * std::log(s) / s));
    }
  }
}

double sample_gamma(Xoshiro256pp& rng, double shape, double scale) {
  BMFUSION_REQUIRE(shape > 0.0 && scale > 0.0,
                   "gamma sampling needs positive shape and scale");
  // Marsaglia & Tsang (2000). For shape < 1 boost via the standard
  // U^(1/shape) trick.
  if (shape < 1.0) {
    const double boost =
        std::pow(rng.next_double() + 1e-300, 1.0 / shape);
    return boost * sample_gamma(rng, shape + 1.0, scale);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = sample_standard_normal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.next_double();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return scale * d * v;
    if (u > 0.0 &&
        std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) {
      return scale * d * v;
    }
  }
}

double sample_chi_squared(Xoshiro256pp& rng, double dof) {
  BMFUSION_REQUIRE(dof > 0.0, "chi-squared sampling needs dof > 0");
  return sample_gamma(rng, 0.5 * dof, 2.0);
}

double sample_exponential(Xoshiro256pp& rng, double rate) {
  BMFUSION_REQUIRE(rate > 0.0, "exponential sampling needs rate > 0");
  return -std::log1p(-rng.next_double()) / rate;
}

double normal_log_pdf(double x, double mean, double stddev) {
  BMFUSION_REQUIRE(stddev > 0.0, "normal log-pdf needs stddev > 0");
  const double z = (x - mean) / stddev;
  return -0.5 * z * z - std::log(stddev) - kLogSqrt2Pi;
}

double gamma_log_pdf(double x, double shape, double scale) {
  BMFUSION_REQUIRE(shape > 0.0 && scale > 0.0,
                   "gamma log-pdf needs positive shape and scale");
  BMFUSION_REQUIRE(x > 0.0, "gamma log-pdf needs x > 0");
  return (shape - 1.0) * std::log(x) - x / scale - std::lgamma(shape) -
         shape * std::log(scale);
}

}  // namespace bmfusion::stats
