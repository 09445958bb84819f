// Bit-for-bit comparison of two EstimateResults, for the tests that hold a
// batch estimate to the snapshot of a stream that observed the same rows.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

#include "core/estimator.hpp"

namespace bmfusion::testing_support {

/// Same bit pattern; two NaNs (an unselected kappa0/nu0/score) count as
/// equal.
inline bool same_bits(double a, double b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Every field of `a` and `b`: moments, scaled moments, kappa0, nu0, score
/// and the whole cv_grid. Names the first field that differs.
inline ::testing::AssertionResult same_estimate(const core::EstimateResult& a,
                                                const core::EstimateResult& b) {
  const auto differs = [](const std::string& field, double x, double y) {
    std::ostringstream os;
    os.precision(17);
    os << field << ": " << x << " vs " << y;
    return ::testing::AssertionFailure() << os.str();
  };
  const auto same_moments =
      [&](const char* which, const core::GaussianMoments& x,
          const core::GaussianMoments& y) -> ::testing::AssertionResult {
    if (x.mean.size() != y.mean.size() ||
        x.covariance.rows() != y.covariance.rows() ||
        x.covariance.cols() != y.covariance.cols()) {
      return ::testing::AssertionFailure() << which << ": shapes differ";
    }
    for (std::size_t i = 0; i < x.mean.size(); ++i) {
      if (!same_bits(x.mean[i], y.mean[i])) {
        return differs(
            std::string(which) + ".mean[" + std::to_string(i) + "]",
            x.mean[i], y.mean[i]);
      }
    }
    for (std::size_t r = 0; r < x.covariance.rows(); ++r) {
      for (std::size_t c = 0; c < x.covariance.cols(); ++c) {
        if (!same_bits(x.covariance(r, c), y.covariance(r, c))) {
          return differs(std::string(which) + ".covariance(" +
                             std::to_string(r) + "," + std::to_string(c) +
                             ")",
                         x.covariance(r, c), y.covariance(r, c));
        }
      }
    }
    return ::testing::AssertionSuccess();
  };
  if (auto m = same_moments("moments", a.moments, b.moments); !m) return m;
  if (auto m = same_moments("scaled_moments", a.scaled_moments,
                            b.scaled_moments);
      !m) {
    return m;
  }
  if (!same_bits(a.kappa0, b.kappa0)) {
    return differs("kappa0", a.kappa0, b.kappa0);
  }
  if (!same_bits(a.nu0, b.nu0)) return differs("nu0", a.nu0, b.nu0);
  if (!same_bits(a.score, b.score)) return differs("score", a.score, b.score);
  if (a.cv_grid.size() != b.cv_grid.size()) {
    return ::testing::AssertionFailure() << "cv_grid sizes differ";
  }
  for (std::size_t i = 0; i < a.cv_grid.size(); ++i) {
    const std::string at = "cv_grid[" + std::to_string(i) + "]";
    if (!same_bits(a.cv_grid[i].kappa0, b.cv_grid[i].kappa0) ||
        !same_bits(a.cv_grid[i].nu0, b.cv_grid[i].nu0)) {
      return ::testing::AssertionFailure() << at << ": grid points differ";
    }
    if (!same_bits(a.cv_grid[i].score, b.cv_grid[i].score)) {
      return differs(at + ".score", a.cv_grid[i].score, b.cv_grid[i].score);
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace bmfusion::testing_support
