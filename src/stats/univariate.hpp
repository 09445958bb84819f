// Scalar distribution sampling and densities.
//
// All samplers draw from a caller-supplied Xoshiro256pp so experiments are
// reproducible and parallel streams are explicit.
#pragma once

#include <span>

#include "stats/rng.hpp"

namespace bmfusion::stats {

/// One N(0,1) draw (Marsaglia polar method; exact, no table setup).
[[nodiscard]] double sample_standard_normal(Xoshiro256pp& rng);

/// One N(mean, stddev^2) draw; requires stddev >= 0.
[[nodiscard]] double sample_normal(Xoshiro256pp& rng, double mean,
                                   double stddev);

/// Fills `out` with N(mean, stddev^2) draws; requires stddev >= 0. The
/// values, and the state `rng` is left in, are bitwise those of
/// `out.size()` sample_normal calls: same uniforms, same accept test, same
/// transform. Only the loop structure differs (see the definition).
void sample_normal_into(Xoshiro256pp& rng, double mean, double stddev,
                        std::span<double> out);

/// One Gamma(shape, scale) draw (Marsaglia-Tsang squeeze; shape > 0,
/// scale > 0). Mean is shape*scale.
[[nodiscard]] double sample_gamma(Xoshiro256pp& rng, double shape,
                                  double scale);

/// One chi-squared draw with `dof` degrees of freedom (dof > 0).
[[nodiscard]] double sample_chi_squared(Xoshiro256pp& rng, double dof);

/// One Exponential(rate) draw; rate > 0.
[[nodiscard]] double sample_exponential(Xoshiro256pp& rng, double rate);

/// Log-density of N(mean, stddev^2) at x; stddev > 0.
[[nodiscard]] double normal_log_pdf(double x, double mean, double stddev);

/// Log-density of Gamma(shape, scale) at x > 0.
[[nodiscard]] double gamma_log_pdf(double x, double shape, double scale);

}  // namespace bmfusion::stats
