// BMF-PDF: distribution-level Bayesian model fusion (in the spirit of
// ref. [8] of the paper, Li et al., ICCAD 2012).
//
// Ref. [8] estimates a single metric's late-stage *probability density*
// (not just its moments) by re-using the early-stage density as prior
// knowledge. This module implements that idea with the same conjugate
// machinery the rest of the library uses: the density is represented as a
// binned histogram, the early-stage histogram anchors a Dirichlet prior
// over the bin probabilities, the few late-stage samples update it by
// conjugacy, and the prior strength (how much the early-stage shape is
// trusted) is selected by maximizing the closed-form Dirichlet-multinomial
// evidence — the direct analogue of Section 4.2's hyper-parameter search.
//
// Compared to the moment-level estimator this captures non-Gaussian shape
// (skew, multimodality) of a single metric; compared to the multivariate
// method it cannot see correlations.
#pragma once

#include <cstddef>
#include <vector>

namespace bmfusion::core {

/// Piecewise-constant density on uniform bins over [lo, hi].
class HistogramPdf {
 public:
  /// `probabilities` must be non-negative and sum to ~1 (renormalized).
  HistogramPdf(double lo, double hi, std::vector<double> probabilities);

  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::size_t bin_count() const { return prob_.size(); }
  [[nodiscard]] double bin_width() const {
    return (hi_ - lo_) / static_cast<double>(prob_.size());
  }
  [[nodiscard]] const std::vector<double>& probabilities() const {
    return prob_;
  }

  /// Density at x (0 outside [lo, hi)).
  [[nodiscard]] double pdf(double x) const;

  /// P(X <= x), piecewise linear.
  [[nodiscard]] double cdf(double x) const;

  /// Mean and standard deviation of the binned density (midpoint rule).
  [[nodiscard]] double mean() const;
  [[nodiscard]] double stddev() const;

  /// Bin index of x, clamped into range.
  [[nodiscard]] std::size_t bin_of(double x) const;

 private:
  double lo_;
  double hi_;
  std::vector<double> prob_;
};

struct PdfBmfConfig {
  std::size_t bins = 32;
  /// Prior concentrations (total pseudo-counts) searched, log-spaced.
  double concentration_min = 4.0;
  double concentration_max = 1e5;
  std::size_t concentration_points = 25;
  /// Additive smoothing applied to the early histogram so no bin has an
  /// exactly-zero prior probability.
  double smoothing = 0.5;
};

struct PdfBmfResult {
  HistogramPdf pdf;            ///< fused density (posterior mean)
  double concentration = 0.0;  ///< selected prior strength
  double log_evidence = 0.0;   ///< of the selected model (per sample)
};

/// Fuses the early-stage sample set (large, cheap) with the late-stage
/// samples (few, expensive) into a late-stage density estimate. The bin
/// range spans both sample sets with a small margin. Requires >= 10 early
/// and >= 1 late samples.
[[nodiscard]] PdfBmfResult estimate_pdf_bmf(
    const std::vector<double>& early_samples,
    const std::vector<double>& late_samples, const PdfBmfConfig& config = {});

/// Closed-form log evidence of counts under a Dirichlet(alpha) prior:
/// log [ B(alpha + counts) / B(alpha) ] with B the multivariate beta.
[[nodiscard]] double dirichlet_multinomial_log_evidence(
    const std::vector<double>& alpha, const std::vector<double>& counts);

}  // namespace bmfusion::core
