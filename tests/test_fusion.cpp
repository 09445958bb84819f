// Multi-population fusion contracts: exact degeneration to independent
// BMF at zero correlation, bitwise-stable merges across population-
// interleaved absorb orders and shard splits, fault containment, the
// correlation estimator/regularizer, and the headline fused-beats-
// independent assertion on a correlated synthetic corner grid.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "core/bmf_estimator.hpp"
#include "core/estimator.hpp"
#include "fusion/correlation.hpp"
#include "fusion/multi_population.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "stats/rng.hpp"
#include "stats/stat_wire.hpp"
#include "stats/sufficient_stats.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion {
namespace {

using core::BmfEstimator;
using core::EstimateResult;
using fusion::FusionConfig;
using fusion::FusionSnapshot;
using fusion::MultiPopulationEstimator;
using fusion::PopulationSpec;
using linalg::Matrix;
using linalg::Vector;
using stats::StatsShard;

// ------------------------------------------------------------- test data

double max_abs_diff(const Vector& a, const Vector& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

double max_abs_diff(const Matrix& a, const Matrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double worst = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      worst = std::max(worst, std::abs(a(r, c) - b(r, c)));
    }
  }
  return worst;
}

void expect_bitwise_equal(const EstimateResult& a, const EstimateResult& b) {
  EXPECT_EQ(max_abs_diff(a.moments.mean, b.moments.mean), 0.0);
  EXPECT_EQ(max_abs_diff(a.moments.covariance, b.moments.covariance), 0.0);
  // Bits, not ==: an unobserved population's hyper-parameters are NaN.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.kappa0),
            std::bit_cast<std::uint64_t>(b.kappa0));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.nu0),
            std::bit_cast<std::uint64_t>(b.nu0));
}

double next_gaussian(stats::Xoshiro256pp& rng) {
  // Box-Muller; one value per call keeps the stream layout obvious.
  const double u = std::max(rng.next_double(), 1e-300);
  const double v = rng.next_double();
  return std::sqrt(-2.0 * std::log(u)) * std::cos(6.283185307179586 * v);
}

/// `rows` draws of N(mean, diag(sigma^2)).
Matrix gaussian_samples(std::size_t rows, const Vector& mean,
                        const Vector& sigma, stats::Xoshiro256pp& rng) {
  Matrix out(rows, mean.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < mean.size(); ++c) {
      out(r, c) = mean[c] + sigma[c] * next_gaussian(rng);
    }
  }
  return out;
}

/// Fast CV grid + no shift/scale (synthetic data is already O(1)).
FusionConfig fast_config() {
  FusionConfig config;
  config.bmf.apply_shift_scale = false;
  config.bmf.cv.kappa_points = 5;
  config.bmf.cv.nu_points = 5;
  return config;
}

/// N populations sharing one early-stage model (mean zero-ish, diagonal
/// covariance); names "pop0".."popN-1".
std::vector<PopulationSpec> shared_early_specs(std::size_t n,
                                               std::size_t dim) {
  std::vector<PopulationSpec> specs(n);
  for (std::size_t p = 0; p < n; ++p) {
    specs[p].name = "pop" + std::to_string(p);
    Vector mean(dim);
    Matrix covariance = Matrix::zeros(dim, dim);
    for (std::size_t c = 0; c < dim; ++c) {
      mean[c] = 0.1 * static_cast<double>(c);
      covariance(c, c) = 0.5 + 0.1 * static_cast<double>(c);
    }
    specs[p].early.moments.mean = mean;
    specs[p].early.moments.covariance = covariance;
    specs[p].early.nominal = mean;
  }
  return specs;
}

Vector sigma_of(const PopulationSpec& spec) {
  Vector sigma(spec.early.moments.mean.size());
  for (std::size_t c = 0; c < sigma.size(); ++c) {
    sigma[c] = std::sqrt(spec.early.moments.covariance(c, c));
  }
  return sigma;
}

// ---------------------------------------------- zero-correlation parity

TEST(MultiPopulation, IdentityCorrelationMatchesIndependentBitwise) {
  // With Gamma = I there is nothing to borrow: every population's fused
  // estimate must equal a standalone BmfEstimator on the same stream, bit
  // for bit (well within the issue's 1e-9 contract).
  const std::size_t n = 3;
  const FusionConfig config = fast_config();
  const std::vector<PopulationSpec> specs = shared_early_specs(n, 3);
  MultiPopulationEstimator fused(specs, config);

  std::vector<Matrix> samples;
  for (std::size_t p = 0; p < n; ++p) {
    stats::Xoshiro256pp rng(1000 + p);
    Vector mean = specs[p].early.moments.mean;
    mean[0] += 0.05 * static_cast<double>(p + 1);
    samples.push_back(gaussian_samples(160, mean, sigma_of(specs[p]), rng));
    fused.observe(p, samples[p]);
  }

  const FusionSnapshot snapshot = fused.snapshot();
  EXPECT_EQ(snapshot.observed_populations, n);
  for (std::size_t p = 0; p < n; ++p) {
    BmfEstimator solo(specs[p].early, config.bmf);
    solo.observe(samples[p]);
    const EstimateResult reference = solo.snapshot();
    EXPECT_TRUE(snapshot.populations[p].error.empty());
    EXPECT_EQ(snapshot.populations[p].borrowed_kappa, 0.0);
    EXPECT_EQ(snapshot.populations[p].anchor_shift, 0.0);
    expect_bitwise_equal(snapshot.populations[p].fused, reference);
    expect_bitwise_equal(snapshot.populations[p].independent, reference);
  }
}

// ------------------------------------------------- bitwise-stable merges

TEST(MultiPopulation, AbsorbOrdersAndShardSplitsAreBitwiseStable) {
  // The same per-population data delivered as direct observes, as 2-way
  // shard splits in two different population-interleaved orders, and as a
  // 4-way split must produce bitwise-identical joint snapshots. Splits are
  // 64-sample-block aligned per fold (1024 rows / 4 folds), the same
  // alignment contract as the single-population shard grid.
  const std::size_t n = 3;
  const std::size_t rows = 1024;
  FusionConfig config = fast_config();
  const std::vector<PopulationSpec> specs = shared_early_specs(n, 2);
  Matrix correlation = Matrix::identity(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r != c) correlation(r, c) = 0.5;
    }
  }

  std::vector<Matrix> samples;
  for (std::size_t p = 0; p < n; ++p) {
    stats::Xoshiro256pp rng(7000 + p);
    Vector mean = specs[p].early.moments.mean;
    mean[1] += 0.04 * static_cast<double>(p + 1);
    samples.push_back(gaussian_samples(rows, mean, sigma_of(specs[p]), rng));
  }

  Matrix sub(rows, 2);
  const auto shard_of = [&](std::size_t p, std::size_t begin,
                            std::size_t end) {
    MultiPopulationEstimator producer(specs, config);
    Matrix part(end - begin, samples[p].cols());
    for (std::size_t r = begin; r < end; ++r) {
      for (std::size_t c = 0; c < samples[p].cols(); ++c) {
        part(r - begin, c) = samples[p](r, c);
      }
    }
    producer.observe(p, part);
    return producer.export_shard(p, 100 * p + begin);
  };
  (void)sub;

  MultiPopulationEstimator whole(specs, config);
  whole.set_correlation(correlation);
  for (std::size_t p = 0; p < n; ++p) whole.observe(p, samples[p]);
  const FusionSnapshot reference = whole.snapshot();

  // 2-way split, forward population-interleaved order.
  MultiPopulationEstimator forward(specs, config);
  forward.set_correlation(correlation);
  for (std::size_t half = 0; half < 2; ++half) {
    for (std::size_t p = 0; p < n; ++p) {
      forward.absorb(shard_of(p, half * 512, (half + 1) * 512));
    }
  }
  // 2-way split, reversed delivery order.
  MultiPopulationEstimator backward(specs, config);
  backward.set_correlation(correlation);
  for (std::size_t half = 2; half-- > 0;) {
    for (std::size_t p = n; p-- > 0;) {
      backward.absorb(shard_of(p, half * 512, (half + 1) * 512));
    }
  }
  // 4-way split, population-major interleave.
  MultiPopulationEstimator quarters(specs, config);
  quarters.set_correlation(correlation);
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t q = 0; q < 4; ++q) {
      quarters.absorb(shard_of(p, q * 256, (q + 1) * 256));
    }
  }

  for (MultiPopulationEstimator* variant :
       {&forward, &backward, &quarters}) {
    const FusionSnapshot snapshot = variant->snapshot();
    ASSERT_EQ(snapshot.populations.size(), reference.populations.size());
    EXPECT_EQ(snapshot.signal_variance, reference.signal_variance);
    for (std::size_t p = 0; p < n; ++p) {
      EXPECT_EQ(variant->observed_count(p), rows);
      expect_bitwise_equal(snapshot.populations[p].fused,
                           reference.populations[p].fused);
      EXPECT_EQ(snapshot.populations[p].borrowed_kappa,
                reference.populations[p].borrowed_kappa);
      EXPECT_EQ(snapshot.populations[p].anchor_shift,
                reference.populations[p].anchor_shift);
    }
  }

  // merge() of a 2-way estimator split agrees with the single estimator.
  MultiPopulationEstimator site_a(specs, config);
  site_a.set_correlation(correlation);
  MultiPopulationEstimator site_b(specs, config);
  for (std::size_t p = 0; p < n; ++p) {
    site_a.absorb(shard_of(p, 0, 512));
    site_b.absorb(shard_of(p, 512, 1024));
  }
  site_a.merge(site_b);
  const FusionSnapshot merged = site_a.snapshot();
  for (std::size_t p = 0; p < n; ++p) {
    expect_bitwise_equal(merged.populations[p].fused,
                         reference.populations[p].fused);
  }
}

// ------------------------------------------------------ fault containment

TEST(MultiPopulation, OutOfRangePopulationRejectedWithoutMutation) {
  const std::vector<PopulationSpec> specs = shared_early_specs(2, 2);
  MultiPopulationEstimator fused(specs, fast_config());
  stats::Xoshiro256pp rng(5);
  const Matrix good =
      gaussian_samples(8, specs[0].early.moments.mean, sigma_of(specs[0]),
                       rng);
  fused.observe(0, good);

  EXPECT_THROW(fused.observe(2, good), DataError);
  EXPECT_THROW((void)fused.observed_count(7), DataError);

  StatsShard foreign = fused.export_shard(0, 9);
  foreign.population_id = 5;
  EXPECT_THROW(fused.absorb(foreign), DataError);
  EXPECT_EQ(fused.observed_count(0), 8u);
  EXPECT_EQ(fused.observed_count(1), 0u);
}

TEST(MultiPopulation, NonFiniteSampleRejectedAndSiblingsUntouched) {
  const std::size_t n = 3;
  const FusionConfig config = fast_config();
  const std::vector<PopulationSpec> specs = shared_early_specs(n, 2);
  MultiPopulationEstimator fused(specs, config);

  std::vector<Matrix> samples;
  for (std::size_t p = 0; p < n; ++p) {
    stats::Xoshiro256pp rng(300 + p);
    samples.push_back(gaussian_samples(96, specs[p].early.moments.mean,
                                       sigma_of(specs[p]), rng));
    fused.observe(p, samples[p]);
  }
  const FusionSnapshot before = fused.snapshot();

  Vector poison{1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(fused.observe(1, poison), DataError);
  EXPECT_EQ(fused.observed_count(1), 96u);

  // The rejected sample left every stream untouched: identical snapshot.
  const FusionSnapshot after = fused.snapshot();
  for (std::size_t p = 0; p < n; ++p) {
    expect_bitwise_equal(after.populations[p].fused,
                         before.populations[p].fused);
  }
}

TEST(MultiPopulation, CorruptedPopulationIsContained) {
  // Population 1's stream accumulates values whose outer products overflow
  // to +inf, so its own snapshot raises a typed numeric error. The joint
  // snapshot must contain that failure in the population's slot and leave
  // the siblings' independent posteriors bitwise identical to standalone
  // estimators.
  const std::size_t n = 3;
  const FusionConfig config = fast_config();
  const std::vector<PopulationSpec> specs = shared_early_specs(n, 2);
  MultiPopulationEstimator fused(specs, config);

  std::vector<Matrix> samples;
  for (std::size_t p = 0; p < n; ++p) {
    stats::Xoshiro256pp rng(900 + p);
    samples.push_back(gaussian_samples(128, specs[p].early.moments.mean,
                                       sigma_of(specs[p]), rng));
    fused.observe(p, samples[p]);
  }
  Matrix huge(8, 2);
  for (std::size_t r = 0; r < huge.rows(); ++r) {
    huge(r, 0) = 1e160;
    huge(r, 1) = -1e160;
  }
  fused.observe(1, huge);

  const FusionSnapshot snapshot = fused.snapshot();
  EXPECT_FALSE(snapshot.populations[1].error.empty());
  EXPECT_EQ(snapshot.observed_populations, 2u);
  for (const std::size_t p : {std::size_t{0}, std::size_t{2}}) {
    EXPECT_TRUE(snapshot.populations[p].error.empty()) << p;
    BmfEstimator solo(specs[p].early, config.bmf);
    solo.observe(samples[p]);
    expect_bitwise_equal(snapshot.populations[p].independent,
                         solo.snapshot());
  }
}

// --------------------------------------------------- correlation toolbox

TEST(Correlation, PairedCorrelationRecoversSharedFactor) {
  const std::size_t rows = 400;
  stats::Xoshiro256pp rng(42);
  Matrix a(rows, 2);
  Matrix b(rows, 2);
  Matrix c(rows, 2);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t m = 0; m < 2; ++m) {
      const double shared = next_gaussian(rng);
      a(r, m) = shared + 0.1 * next_gaussian(rng);
      b(r, m) = 0.7 * shared + 0.1 * next_gaussian(rng);
      c(r, m) = next_gaussian(rng);  // independent of the shared factor
    }
  }
  const Matrix raw = fusion::paired_correlation({a, b, c});
  EXPECT_EQ(raw.rows(), 3u);
  EXPECT_NEAR(raw(0, 0), 1.0, 1e-12);
  EXPECT_GT(raw(0, 1), 0.9);
  EXPECT_EQ(raw(0, 1), raw(1, 0));
  EXPECT_LT(std::abs(raw(0, 2)), 0.2);

  Matrix ragged(rows + 1, 2);
  EXPECT_THROW((void)fusion::paired_correlation({a, ragged}), DataError);
}

TEST(Correlation, ShrinkProjectsToUnitDiagonalPsd) {
  // lambda = 1 is exactly the identity.
  Matrix raw = Matrix::identity(3);
  raw(0, 1) = raw(1, 0) = 0.9;
  EXPECT_EQ(max_abs_diff(fusion::shrink_correlation(raw, 1.0, 1e-8),
                         Matrix::identity(3)),
            0.0);

  // An indefinite "correlation" (impossible sign pattern) comes back as a
  // valid one: symmetric, unit diagonal, eigenvalues >= 0.
  Matrix bad = Matrix::identity(3);
  bad(0, 1) = bad(1, 0) = 0.95;
  bad(1, 2) = bad(2, 1) = 0.95;
  bad(0, 2) = bad(2, 0) = -0.95;
  const Matrix fixed = fusion::shrink_correlation(bad, 0.1, 1e-6);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(fixed(i, i), 1.0);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(fixed(i, j), fixed(j, i));
      EXPECT_LE(std::abs(fixed(i, j)), 1.0 + 1e-12);
    }
  }
  linalg::JacobiEigenSolver eigen(fixed);
  for (const double w : eigen.eigenvalues()) EXPECT_GE(w, -1e-12);

  EXPECT_THROW((void)fusion::shrink_correlation(raw, 1.5, 1e-8),
               ContractError);
  EXPECT_THROW((void)fusion::shrink_correlation(Matrix::zeros(2, 3), 0.1,
                                                1e-8),
               ContractError);
}

// ------------------------------------- fused beats independent (gated)

TEST(MultiPopulation, FusedBeatsIndependentOnHeldOutPopulation) {
  // Corner-grid structure in miniature: every population's true mean is
  // its early anchor plus a *shared* deviation (the common modeling error
  // the paper's Section 4 exploits). Three populations are well sampled;
  // the held-out one gets a small late-stage budget. The fused estimate of
  // the held-out mean must beat the independent BMF estimate built from
  // the same budget — aggregated over trials, which is the ctest gate for
  // the subsystem's reason to exist.
  const std::size_t n = 4;
  const std::size_t held_out = 3;
  const std::size_t dim = 2;
  FusionConfig config = fast_config();
  config.shrinkage = 0.1;

  Matrix correlation = Matrix::identity(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r != c) correlation(r, c) = 0.9;
    }
  }
  const Vector shared_delta{0.45, -0.35};
  const double scale[4] = {1.0, 0.92, 1.08, 0.97};

  double fused_sq = 0.0;
  double independent_sq = 0.0;
  std::size_t terms = 0;
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    const std::vector<PopulationSpec> specs = shared_early_specs(n, dim);
    MultiPopulationEstimator fused(specs, config);
    fused.set_correlation(correlation);

    Matrix held_samples(1, 1);
    for (std::size_t p = 0; p < n; ++p) {
      Vector truth = specs[p].early.moments.mean;
      for (std::size_t c = 0; c < dim; ++c) {
        truth[c] += scale[p] * shared_delta[c];
      }
      stats::Xoshiro256pp rng(10'000 * (trial + 1) + p);
      const std::size_t budget = p == held_out ? 12 : 300;
      Matrix draws =
          gaussian_samples(budget, truth, sigma_of(specs[p]), rng);
      fused.observe(p, draws);
      if (p == held_out) held_samples = draws;
    }

    Vector truth = specs[held_out].early.moments.mean;
    for (std::size_t c = 0; c < dim; ++c) {
      truth[c] += scale[held_out] * shared_delta[c];
    }
    const FusionSnapshot snapshot = fused.snapshot();
    BmfEstimator solo(specs[held_out].early, config.bmf);
    solo.observe(held_samples);
    const EstimateResult independent = solo.snapshot();

    EXPECT_GT(snapshot.populations[held_out].borrowed_kappa, 0.0);
    for (std::size_t c = 0; c < dim; ++c) {
      const double fe =
          snapshot.populations[held_out].fused.moments.mean[c] - truth[c];
      const double ie = independent.moments.mean[c] - truth[c];
      fused_sq += fe * fe;
      independent_sq += ie * ie;
      ++terms;
    }
  }
  const double fused_rmse = std::sqrt(fused_sq / terms);
  const double independent_rmse = std::sqrt(independent_sq / terms);
  EXPECT_LT(fused_rmse, independent_rmse)
      << "fused " << fused_rmse << " vs independent " << independent_rmse;
}

// ------------------------------------------------------- snapshot reuse

void expect_same_snapshot(const FusionSnapshot& a, const FusionSnapshot& b) {
  ASSERT_EQ(a.populations.size(), b.populations.size());
  EXPECT_EQ(a.signal_variance, b.signal_variance);
  EXPECT_EQ(a.observed_populations, b.observed_populations);
  for (std::size_t p = 0; p < a.populations.size(); ++p) {
    SCOPED_TRACE("population " + std::to_string(p));
    EXPECT_EQ(a.populations[p].observed, b.populations[p].observed);
    EXPECT_EQ(a.populations[p].borrowed_kappa, b.populations[p].borrowed_kappa);
    EXPECT_EQ(a.populations[p].anchor_shift, b.populations[p].anchor_shift);
    expect_bitwise_equal(a.populations[p].independent,
                         b.populations[p].independent);
    expect_bitwise_equal(a.populations[p].fused, b.populations[p].fused);
  }
}

std::uint64_t counter_total(const char* name) {
  return telemetry::Registry::instance().counter(name).total();
}

std::uint64_t grid_points() { return counter_total("core.cv.grid_points"); }

/// Three correlated corners whose means drift apart in metric 0, each
/// shipped as one 128-row shard, plus a second 64-row shard for population 1.
struct CornerShards {
  std::vector<PopulationSpec> specs = shared_early_specs(3, 2);
  Matrix correlation = Matrix::identity(3);
  std::vector<StatsShard> first;
  StatsShard extra;

  CornerShards() {
    for (std::size_t r = 0; r < 3; ++r) {
      for (std::size_t c = 0; c < 3; ++c) {
        if (r != c) correlation(r, c) = 0.7;
      }
    }
    for (std::size_t p = 0; p < 3; ++p) {
      stats::Xoshiro256pp rng(5100 + p);
      Vector mean = specs[p].early.moments.mean;
      mean[0] += 0.3 * static_cast<double>(p + 1);
      const Vector sigma = sigma_of(specs[p]);
      first.push_back(
          shard_of(p, 10 + p, gaussian_samples(128, mean, sigma, rng)));
      if (p == 1) {
        extra = shard_of(p, 20, gaussian_samples(64, mean, sigma, rng));
      }
    }
  }

  StatsShard shard_of(std::size_t p, std::uint64_t id,
                      const Matrix& rows) const {
    MultiPopulationEstimator producer(specs, fast_config());
    producer.observe(p, rows);
    return producer.export_shard(p, id);
  }
};

TEST(MultiPopulation, AbsorbAfterSnapshotRerunsOnlyThatPopulationsGrid) {
  const CornerShards data;
  const FusionConfig config = fast_config();
  MultiPopulationEstimator cached(data.specs, config);
  cached.set_correlation(data.correlation);
  for (const StatsShard& shard : data.first) cached.absorb(shard);
  (void)cached.snapshot();

  const std::uint64_t before = grid_points();
  cached.absorb(data.extra);
  const FusionSnapshot after = cached.snapshot();
  if (telemetry::enabled()) {
    EXPECT_EQ(grid_points() - before,
              config.bmf.cv.kappa_points * config.bmf.cv.nu_points);
  }

  MultiPopulationEstimator fresh(data.specs, config);
  fresh.set_correlation(data.correlation);
  for (const StatsShard& shard : data.first) fresh.absorb(shard);
  fresh.absorb(data.extra);
  expect_same_snapshot(after, fresh.snapshot());

  // Every mutator, each after a cached joint snapshot: the next snapshot
  // must equal a fresh estimator's fed the same calls, bit for bit, and
  // re-run the grids of the populations the call touched, no others.
  // Shift/scale is on so that a new nominal moves population 2's estimate
  // (its shifted prior: it has no samples until a mutation adds some).
  FusionConfig scaled = fast_config();
  scaled.bmf.apply_shift_scale = true;
  std::vector<PopulationSpec> specs = data.specs;
  for (PopulationSpec& spec : specs) spec.late_nominal = spec.early.nominal;
  stats::Xoshiro256pp rng(5200);
  const auto rows = [&](std::size_t count, double shift) {
    Vector mean = specs[0].early.moments.mean;
    mean[0] += shift;
    return gaussian_samples(count, mean, sigma_of(specs[0]), rng);
  };
  const Matrix rows0 = rows(96, 0.3);
  const Matrix rows1 = rows(96, 0.6);
  const Matrix extra_rows = rows(16, 0.6);
  const Vector extra_row = rows(1, 0.3).row(0);
  MultiPopulationEstimator producer(specs, scaled);
  producer.observe(2, rows(64, 0.9));
  const StatsShard shard2 = producer.export_shard(2, 30);
  MultiPopulationEstimator sibling(specs, scaled);
  sibling.observe(2, rows(48, 0.9));
  Matrix weaker = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      if (r != c) weaker(r, c) = 0.3;
    }
  }
  Vector moved = specs[2].late_nominal;
  moved[0] += 0.25;

  struct Mutation {
    const char* name;
    std::function<void(MultiPopulationEstimator&)> apply;
    std::size_t grids;  ///< populations whose CV grid must re-run
  };
  const Mutation mutations[] = {
      {"set_correlation",
       [&](MultiPopulationEstimator& e) { e.set_correlation(weaker); }, 0},
      {"set_nominal",
       [&](MultiPopulationEstimator& e) { e.set_nominal(2, moved); }, 0},
      {"observe(sample)",
       [&](MultiPopulationEstimator& e) { e.observe(0, extra_row); }, 1},
      {"observe(samples)",
       [&](MultiPopulationEstimator& e) { e.observe(1, extra_rows); }, 1},
      {"absorb(stats)",
       [&](MultiPopulationEstimator& e) {
         e.absorb(0, stats::SufficientStats::from_samples(extra_rows));
       },
       1},
      {"absorb(shard)",
       [&](MultiPopulationEstimator& e) { e.absorb(shard2); }, 1},
      {"merge", [&](MultiPopulationEstimator& e) { e.merge(sibling); }, 1},
  };
  const auto feed = [&](MultiPopulationEstimator& e) {
    e.set_correlation(data.correlation);
    e.observe(0, rows0);
    e.observe(1, rows1);
  };
  const std::size_t grid =
      scaled.bmf.cv.kappa_points * scaled.bmf.cv.nu_points;
  for (const Mutation& mutation : mutations) {
    SCOPED_TRACE(mutation.name);
    MultiPopulationEstimator mutated(specs, scaled);
    feed(mutated);
    (void)mutated.snapshot();
    const std::uint64_t grid_before = grid_points();
    mutation.apply(mutated);
    const FusionSnapshot mutated_snapshot = mutated.snapshot();
    if (telemetry::enabled()) {
      EXPECT_EQ(grid_points() - grid_before, mutation.grids * grid);
    }

    MultiPopulationEstimator replayed(specs, scaled);
    feed(replayed);
    mutation.apply(replayed);
    expect_same_snapshot(mutated_snapshot, replayed.snapshot());
  }
}

TEST(MultiPopulation, RepeatSnapshotIsACopyAndAThrowingOneCachesNothing) {
  const CornerShards data;
  MultiPopulationEstimator fused(data.specs, fast_config());
  fused.set_correlation(data.correlation);
  const std::uint64_t reuses_before = counter_total("fusion.snapshot_reuses");
  EXPECT_THROW((void)fused.snapshot(), ContractError);  // nothing observed
  EXPECT_THROW((void)fused.snapshot(), ContractError);

  for (const StatsShard& shard : data.first) fused.absorb(shard);
  const FusionSnapshot first = fused.snapshot();
  const std::uint64_t grid_before = grid_points();
  const std::uint64_t snapshots_before = counter_total("fusion.snapshots");
  const FusionSnapshot repeat = fused.snapshot();
  expect_same_snapshot(first, repeat);
  EXPECT_EQ(max_abs_diff(repeat.correlation, first.correlation), 0.0);
  if (telemetry::enabled()) {
    EXPECT_EQ(grid_points(), grid_before);
    EXPECT_EQ(counter_total("fusion.snapshots"), snapshots_before + 1);
    EXPECT_EQ(counter_total("fusion.snapshot_reuses"), reuses_before + 1);
  }
}

TEST(MultiPopulation, SetCorrelationAfterSnapshotChangesTheFusedResult) {
  // set_correlation clears the joint snapshot cache, so a new correlation
  // takes effect at once; the per-population estimates are reused.
  const CornerShards data;
  const FusionConfig config = fast_config();
  MultiPopulationEstimator cached(data.specs, config);
  for (const StatsShard& shard : data.first) cached.absorb(shard);
  const FusionSnapshot independent = cached.snapshot();

  const std::uint64_t before = grid_points();
  cached.set_correlation(data.correlation);
  const FusionSnapshot correlated = cached.snapshot();
  if (telemetry::enabled()) EXPECT_EQ(grid_points(), before);
  EXPECT_GT(correlated.populations[0].borrowed_kappa, 0.0);
  EXPECT_GT(max_abs_diff(correlated.populations[0].fused.moments.mean,
                         independent.populations[0].fused.moments.mean),
            0.0);

  MultiPopulationEstimator fresh(data.specs, config);
  fresh.set_correlation(data.correlation);
  for (const StatsShard& shard : data.first) fresh.absorb(shard);
  expect_same_snapshot(correlated, fresh.snapshot());
}

// ------------------------------------------------------ config contracts

TEST(MultiPopulation, ConfigAndSpecValidation) {
  std::vector<PopulationSpec> specs = shared_early_specs(2, 2);
  FusionConfig bad = fast_config();
  bad.shrinkage = 1.5;
  EXPECT_THROW(MultiPopulationEstimator(specs, bad), ContractError);

  EXPECT_THROW(MultiPopulationEstimator({}, fast_config()), ContractError);

  std::vector<PopulationSpec> ragged = shared_early_specs(2, 2);
  ragged[1] = shared_early_specs(1, 3)[0];
  EXPECT_THROW(MultiPopulationEstimator(ragged, fast_config()),
               ContractError);

  MultiPopulationEstimator fused(specs, fast_config());
  EXPECT_THROW(fused.set_correlation(Matrix::identity(3)), ContractError);
  EXPECT_THROW((void)fused.snapshot(), ContractError);  // nothing observed
}

}  // namespace
}  // namespace bmfusion
