// Streaming estimation contracts: the StatStream reduction grid, the
// sharded wire format (binary + JSON, incl. corrupt-frame rejection), and
// streaming-vs-batch parity of the MomentEstimator surface on the paper's
// fig. 4 op-amp experiment.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "circuit/montecarlo.hpp"
#include "circuit/opamp.hpp"
#include "common/contracts.hpp"
#include "core/bmf_estimator.hpp"
#include "core/estimator.hpp"
#include "core/mle.hpp"
#include "core/univariate_bmf.hpp"
#include "same_estimate.hpp"
#include "stats/stat_stream.hpp"
#include "stats/stat_wire.hpp"
#include "stats/sufficient_stats.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion {
namespace {

using circuit::Dataset;
using circuit::DesignStage;
using circuit::MonteCarloConfig;
using circuit::ProcessModel;
using circuit::TwoStageOpAmp;
using core::BmfEstimator;
using core::EarlyStageKnowledge;
using core::EstimateResult;
using core::MleEstimator;
using core::estimate_mle;
using linalg::Matrix;
using linalg::Vector;
using stats::StatStream;
using stats::StatsShard;
using stats::SufficientStats;
using testing_support::same_estimate;

// ------------------------------------------------------------- test data

std::uint64_t splitmix(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Deterministic, dimension-correlated sample matrix (values O(1)).
Matrix synthetic_samples(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
  Matrix out(rows, cols);
  std::uint64_t state = seed;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double u =
          static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
      out(r, c) = u - 0.5 + 0.1 * static_cast<double>(c);
    }
  }
  return out;
}

StatStream stream_of(const Matrix& samples, std::size_t begin,
                     std::size_t end) {
  StatStream stream(samples.cols());
  for (std::size_t r = begin; r < end; ++r) stream.add(samples.row(r));
  return stream;
}

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

// ------------------------------------------------- StatStream reduction

TEST(StatStreamGrid, ShardSplitsReassembleBitwise) {
  // 8192 samples = 128 blocks; 1/2/8 contiguous shards put 128/64/16
  // blocks (all powers of two) in each shard, so the reassembled reduction
  // tree must match the single stream run for run and bit for bit.
  const std::size_t rows = 8192;
  const Matrix samples = synthetic_samples(rows, 3, 17);
  const StatStream single = stream_of(samples, 0, rows);
  const SufficientStats single_totals = single.totals();

  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    const std::size_t per_shard = rows / shards;
    StatStream merged = stream_of(samples, 0, per_shard);
    for (std::size_t s = 1; s < shards; ++s) {
      merged.merge(
          stream_of(samples, s * per_shard, (s + 1) * per_shard));
    }
    EXPECT_TRUE(merged == single) << shards << " shards";
    EXPECT_TRUE(merged.totals() == single_totals) << shards << " shards";
  }
}

TEST(StatStreamGrid, MisalignedSplitStillExactInSetSemantics) {
  const Matrix samples = synthetic_samples(1000, 2, 3);
  StatStream merged = stream_of(samples, 0, 333);   // cuts a block
  merged.merge(stream_of(samples, 333, 1000));
  const SufficientStats single = stream_of(samples, 0, 1000).totals();
  const SufficientStats totals = merged.totals();
  EXPECT_EQ(totals.count(), single.count());
  EXPECT_LE(max_abs_diff(totals.sum(), single.sum()), 1e-10);
  EXPECT_LE(max_abs_diff(totals.sum_outer(), single.sum_outer()), 1e-10);
}

TEST(StatStreamGrid, MatchesMonteCarloReduction) {
  // The stream's binary-counter carries must reproduce the Monte Carlo
  // driver's pairwise tree exactly — one shared reduction grid.
  const TwoStageOpAmp bench(DesignStage::kPostLayout, ProcessModel::cmos45());
  MonteCarloConfig cfg;
  cfg.sample_count = 600;  // not a multiple of 64: exercises the tail
  cfg.seed = 22;
  const SufficientStats direct = circuit::run_monte_carlo_stats(bench, cfg);
  const Dataset dataset = circuit::run_monte_carlo(bench, cfg);
  StatStream stream(dataset.metric_count());
  stream.add_rows(dataset.samples());
  EXPECT_TRUE(stream.totals() == direct);
}

// --------------------------------------------------------- shard merging

StatsShard shard_with(std::uint64_t id, const Matrix& samples,
                      std::size_t begin, std::size_t end) {
  StatsShard shard;
  shard.shard_id = id;
  shard.folds.push_back(stream_of(samples, begin, end));
  return shard;
}

TEST(ShardMerge, OrderInsensitive) {
  const Matrix samples = synthetic_samples(8192, 2, 29);
  const StatsShard a = shard_with(1, samples, 0, 4096);
  const StatsShard b = shard_with(2, samples, 4096, 6144);
  const StatsShard c = shard_with(3, samples, 6144, 8192);

  const StatsShard canonical = stats::merge_shards({a, b, c});
  for (const auto& permutation :
       std::vector<std::vector<StatsShard>>{{a, c, b},
                                            {b, a, c},
                                            {b, c, a},
                                            {c, a, b},
                                            {c, b, a}}) {
    const StatsShard merged = stats::merge_shards(permutation);
    EXPECT_EQ(merged.shard_id, canonical.shard_id);
    ASSERT_EQ(merged.folds.size(), canonical.folds.size());
    EXPECT_TRUE(merged.folds[0] == canonical.folds[0]);
  }
}

TEST(ShardMerge, AssociativeAcrossIntermediateCombiners) {
  const Matrix samples = synthetic_samples(8192, 2, 31);
  const StatsShard a = shard_with(1, samples, 0, 2048);
  const StatsShard b = shard_with(2, samples, 2048, 4096);
  const StatsShard c = shard_with(3, samples, 4096, 8192);

  const StatsShard flat = stats::merge_shards({a, b, c});
  const StatsShard left =
      stats::merge_shards({stats::merge_shards({a, b}), c});
  const StatsShard right =
      stats::merge_shards({a, stats::merge_shards({b, c})});
  EXPECT_TRUE(flat.folds[0] == left.folds[0]);
  EXPECT_TRUE(flat.folds[0] == right.folds[0]);
  // ... and the canonical combine reproduces the single-stream bits.
  EXPECT_TRUE(flat.folds[0] == stream_of(samples, 0, 8192));
}

TEST(ShardMerge, InconsistentShardsRejected) {
  const Matrix samples = synthetic_samples(128, 2, 5);
  StatsShard a = shard_with(1, samples, 0, 64);
  StatsShard two_folds = shard_with(2, samples, 64, 128);
  two_folds.folds.push_back(StatStream(2));
  EXPECT_THROW((void)stats::merge_shards({a, two_folds}), DataError);

  StatsShard tagged = shard_with(2, samples, 64, 128);
  tagged.estimator = "bmf";
  StatsShard other_tag = shard_with(3, samples, 0, 64);
  other_tag.estimator = "mle";
  EXPECT_THROW((void)stats::merge_shards({tagged, other_tag}), DataError);

  EXPECT_THROW((void)stats::merge_shards({}), ContractError);
}

TEST(ShardMerge, CrossPopulationMergeRejected) {
  // Shards from different populations summarize different conditions;
  // folding them together would silently mix corners.
  const Matrix samples = synthetic_samples(128, 2, 7);
  StatsShard tt = shard_with(1, samples, 0, 64);
  tt.population_id = 0;
  StatsShard ff = shard_with(2, samples, 64, 128);
  ff.population_id = 3;
  try {
    (void)stats::merge_shards({tt, ff});
    FAIL() << "cross-population merge must throw";
  } catch (const DataError& e) {
    EXPECT_NE(std::string(e.what()).find("population"), std::string::npos);
  }
  // Same population id merges fine and keeps the tag.
  ff.population_id = 0;
  EXPECT_EQ(stats::merge_shards({tt, ff}).population_id, 0u);
}

// ----------------------------------------------------------- wire format

StatsShard representative_shard() {
  const Matrix samples = synthetic_samples(200, 3, 41);
  StatsShard shard;
  shard.shard_id = 77;
  shard.population_id = 3;
  shard.estimator = "bmf";
  shard.nominal = Vector{1.5, -2.25, 0.875};
  shard.folds.push_back(stream_of(samples, 0, 130));  // partial block open
  StatStream second = stream_of(samples, 130, 190);
  second.absorb(SufficientStats::from_samples(
      synthetic_samples(10, 3, 43)));  // irregular run
  shard.folds.push_back(second);
  shard.folds.push_back(StatStream(3));  // empty fold
  return shard;
}

void expect_same_shard(const StatsShard& a, const StatsShard& b) {
  EXPECT_EQ(a.shard_id, b.shard_id);
  EXPECT_EQ(a.population_id, b.population_id);
  EXPECT_EQ(a.estimator, b.estimator);
  ASSERT_EQ(a.nominal.size(), b.nominal.size());
  EXPECT_EQ(max_abs_diff(a.nominal, b.nominal), 0.0);
  ASSERT_EQ(a.folds.size(), b.folds.size());
  for (std::size_t f = 0; f < a.folds.size(); ++f) {
    EXPECT_TRUE(a.folds[f] == b.folds[f]) << "fold " << f;
  }
}

TEST(WireFormat, BinaryRoundTripsExactly) {
  const StatsShard shard = representative_shard();
  const std::string bytes = stats::serialize_shard(shard);
  expect_same_shard(stats::parse_shard(bytes), shard);
}

TEST(WireFormat, JsonRoundTripsExactly) {
  const StatsShard shard = representative_shard();
  const std::string json = stats::shard_to_json(shard);
  expect_same_shard(stats::shard_from_json_text(json), shard);
}

TEST(WireFormat, EveryTruncationRejected) {
  const std::string bytes = stats::serialize_shard(representative_shard());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)stats::parse_shard(bytes.substr(0, len)), DataError)
        << "prefix length " << len;
  }
}

TEST(WireFormat, EveryByteFlipRejected) {
  // The header checks catch structural damage; the FNV-1a trailer catches
  // everything else, so no single-byte corruption can parse silently.
  const std::string bytes = stats::serialize_shard(representative_shard());
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x5A);
    EXPECT_THROW((void)stats::parse_shard(corrupt), DataError)
        << "byte " << pos;
  }
}

TEST(WireFormat, TrailingBytesRejected) {
  const std::string bytes = stats::serialize_shard(representative_shard());
  EXPECT_THROW((void)stats::parse_shard(bytes + "x"), DataError);
}

TEST(WireFormat, MalformedJsonRejected) {
  const StatsShard shard = representative_shard();
  std::string json = stats::shard_to_json(shard);
  EXPECT_THROW((void)stats::shard_from_json_text("{\"format\":\"nope\"}"),
               DataError);
  EXPECT_THROW((void)stats::shard_from_json_text("not json"), DataError);
  EXPECT_THROW((void)stats::shard_from_json_text("[]"), DataError);
  // Version bump must be refused, not misread.
  const std::string versioned = json;
  const std::size_t at = versioned.find("\"version\":2");
  ASSERT_NE(at, std::string::npos);
  std::string bumped = versioned;
  bumped.replace(at, 11, "\"version\":9");
  EXPECT_THROW((void)stats::shard_from_json_text(bumped), DataError);
}

TEST(WireFormat, VersionOneShardsStillParseAsPopulationZero) {
  // Pre-population producers keep working: a v1 record (no "population"
  // member) reads back with the default population id 0.
  const StatsShard shard = representative_shard();
  std::string json = stats::shard_to_json(shard);
  const std::size_t version_at = json.find("\"version\":2");
  ASSERT_NE(version_at, std::string::npos);
  json.replace(version_at, 11, "\"version\":1");
  const std::size_t population_at = json.find(",\"population\":3");
  ASSERT_NE(population_at, std::string::npos);
  json.erase(population_at, std::string(",\"population\":3").size());

  StatsShard expected = shard;
  expected.population_id = 0;
  expect_same_shard(stats::shard_from_json_text(json), expected);
}

// ------------------------------------------- streaming vs batch parity

/// Shared op-amp datasets (trimmed-down fig. 4 experiment).
class StreamingParity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const TwoStageOpAmp early_bench(DesignStage::kSchematic,
                                    ProcessModel::cmos45());
    const TwoStageOpAmp late_bench(DesignStage::kPostLayout,
                                   ProcessModel::cmos45());
    MonteCarloConfig cfg;
    cfg.sample_count = 600;
    cfg.seed = 11;
    early_ = new Dataset(circuit::run_monte_carlo(early_bench, cfg));
    cfg.seed = 22;
    cfg.sample_count = 200;
    late_ = new Dataset(circuit::run_monte_carlo(late_bench, cfg));
    early_nominal_ = new Vector(early_bench.nominal_metrics());
    late_nominal_ = new Vector(late_bench.nominal_metrics());
  }
  static void TearDownTestSuite() {
    delete early_;
    delete late_;
    delete early_nominal_;
    delete late_nominal_;
    early_ = nullptr;
    late_ = nullptr;
    early_nominal_ = nullptr;
    late_nominal_ = nullptr;
  }

  static BmfEstimator make_bmf() {
    EarlyStageKnowledge early;
    early.moments = estimate_mle(early_->samples());
    early.nominal = *early_nominal_;
    core::BmfConfig config;
    config.cv.kappa_points = 6;
    config.cv.nu_points = 6;
    return BmfEstimator(early, config);
  }

  /// Largest |a-b| over mean and covariance, relative to the metric scale.
  static double relative_gap(const EstimateResult& a,
                             const EstimateResult& b) {
    double worst = 0.0;
    for (std::size_t j = 0; j < a.moments.mean.size(); ++j) {
      const double scale = std::max(1.0, std::abs(b.moments.mean[j]));
      worst = std::max(
          worst, std::abs(a.moments.mean[j] - b.moments.mean[j]) / scale);
    }
    for (std::size_t r = 0; r < a.moments.covariance.rows(); ++r) {
      for (std::size_t c = 0; c < a.moments.covariance.cols(); ++c) {
        const double scale =
            std::max(1.0, std::abs(b.moments.covariance(r, c)));
        worst = std::max(worst, std::abs(a.moments.covariance(r, c) -
                                         b.moments.covariance(r, c)) /
                                    scale);
      }
    }
    return worst;
  }

  static Dataset* early_;
  static Dataset* late_;
  static Vector* early_nominal_;
  static Vector* late_nominal_;
};

Dataset* StreamingParity::early_ = nullptr;
Dataset* StreamingParity::late_ = nullptr;
Vector* StreamingParity::early_nominal_ = nullptr;
Vector* StreamingParity::late_nominal_ = nullptr;

TEST_F(StreamingParity, MleSnapshotMatchesBatchFit) {
  // Normalized metrics (O(1), unit spread): the parity gap is pure
  // summation grouping, well under 1e-12.
  const core::ShiftScale transform = make_bmf().late_transform(*late_nominal_);
  const Matrix scaled = transform.apply(late_->samples());
  MleEstimator mle;
  const EstimateResult batch = mle.estimate(scaled);
  for (std::size_t r = 0; r < scaled.rows(); ++r) {
    mle.observe(scaled.row(r));
  }
  EXPECT_EQ(mle.observed_count(), late_->sample_count());
  const EstimateResult streamed = mle.snapshot();
  EXPECT_LE(relative_gap(streamed, batch), 1e-12);
}

TEST_F(StreamingParity, MleRawSpaceParityWithinConditioningBound) {
  // On raw op-amp metrics the batch fit is a two-pass centered covariance
  // while the stream is one-pass; their difference is amplified by the
  // metric conditioning (mean/sigma)^2, so the gate is looser here. The
  // tight 1e-12 contract belongs to the spaces estimators stream in.
  MleEstimator mle;
  const EstimateResult batch = mle.estimate(late_->samples());
  for (std::size_t r = 0; r < late_->sample_count(); ++r) {
    mle.observe(late_->samples().row(r));
  }
  EXPECT_LE(relative_gap(mle.snapshot(), batch), 1e-9);
}

TEST_F(StreamingParity, BmfSnapshotMatchesBatchFit) {
  // A batch estimate folds its rows through the stream's own accumulators,
  // stream space and core: bit for bit the snapshot.
  BmfEstimator bmf = make_bmf();
  const EstimateResult batch =
      bmf.estimate(late_->samples(), *late_nominal_);
  bmf.set_nominal(*late_nominal_);
  for (std::size_t r = 0; r < late_->sample_count(); ++r) {
    bmf.observe(late_->samples().row(r));
  }
  EXPECT_TRUE(same_estimate(bmf.snapshot(), batch));
}

TEST_F(StreamingParity, UnivariateSnapshotMatchesBatchFit) {
  // The univariate baseline works in caller-normalized space, so normalize
  // the fig. 4 data first.
  const core::ShiftScale transform = make_bmf().late_transform(*late_nominal_);
  const Matrix scaled = transform.apply(late_->samples());
  const core::GaussianMoments early_scaled = estimate_mle(
      make_bmf().late_transform(*early_nominal_).apply(early_->samples()));
  core::UnivariateBmfEstimator uni(early_scaled);
  const EstimateResult batch = uni.estimate(scaled);
  for (std::size_t r = 0; r < scaled.rows(); ++r) {
    uni.observe(scaled.row(r));
  }
  EXPECT_TRUE(same_estimate(uni.snapshot(), batch));
}

TEST_F(StreamingParity, MergedEstimatorsMatchSingleStream) {
  // Two measurement sites each stream half the samples; merging the two
  // estimators must agree with one estimator that saw everything. The
  // split is a multiple of the fold count, so fold assignment lines up.
  BmfEstimator whole = make_bmf();
  whole.set_nominal(*late_nominal_);
  BmfEstimator site_a = make_bmf();
  site_a.set_nominal(*late_nominal_);
  BmfEstimator site_b = make_bmf();
  site_b.set_nominal(*late_nominal_);

  const std::size_t split = 100;
  for (std::size_t r = 0; r < late_->sample_count(); ++r) {
    whole.observe(late_->samples().row(r));
    (r < split ? site_a : site_b).observe(late_->samples().row(r));
  }
  site_a.merge(site_b);
  EXPECT_EQ(site_a.observed_count(), whole.observed_count());
  EXPECT_LE(relative_gap(site_a.snapshot(), whole.snapshot()), 1e-12);
}

TEST_F(StreamingParity, ExportAbsorbRoundTripMatches) {
  // Shard the stream over the wire (binary bytes) and absorb it into a
  // fresh estimator: same snapshot.
  BmfEstimator source = make_bmf();
  source.set_nominal(*late_nominal_);
  source.observe(late_->samples());
  const std::string bytes =
      stats::serialize_shard(source.export_shard(11));

  BmfEstimator sink = make_bmf();
  sink.absorb(stats::parse_shard(bytes));
  EXPECT_EQ(sink.observed_count(), source.observed_count());
  EXPECT_LE(relative_gap(sink.snapshot(), source.snapshot()), 0.0);
}

// ----------------------------------------------- streaming API contracts

TEST_F(StreamingParity, AbsorbedSummarySelectsByEvidence) {
  // One absorbed raw-space summary fills one fold, so snapshot() cannot
  // cross-validate: it selects by evidence on the summary carried into the
  // scaled space, and fuses there.
  const SufficientStats stats =
      SufficientStats::from_samples(late_->samples());
  BmfEstimator streaming = make_bmf();
  streaming.set_nominal(*late_nominal_);
  streaming.absorb(stats);
  const EstimateResult absorbed = streaming.snapshot();

  const core::StageTransforms transforms = core::make_stage_transforms(
      streaming.early().nominal, *late_nominal_, streaming.early().moments);
  const core::GaussianMoments early_scaled =
      transforms.early.apply(streaming.early().moments);
  const SufficientStats late_scaled = transforms.late.apply(stats);
  const core::CrossValidationResult evidence =
      core::select_hyperparameters_evidence(early_scaled, late_scaled,
                                            streaming.config().cv);
  EXPECT_EQ(absorbed.kappa0, evidence.kappa0);
  EXPECT_EQ(absorbed.nu0, evidence.nu0);
  EXPECT_EQ(absorbed.score, evidence.score);
  const core::GaussianMoments fused = BmfEstimator::fuse_at(
      early_scaled, late_scaled, evidence.kappa0, evidence.nu0);
  EXPECT_EQ(max_abs_diff(absorbed.scaled_moments.mean, fused.mean), 0.0);
  EXPECT_EQ(max_abs_diff(absorbed.scaled_moments.covariance,
                         fused.covariance),
            0.0);
}

TEST_F(StreamingParity, NominalImmutableOnceObserved) {
  BmfEstimator bmf = make_bmf();
  bmf.set_nominal(*late_nominal_);
  bmf.observe(late_->samples().row(0));
  EXPECT_THROW(bmf.set_nominal(*late_nominal_), ContractError);
  bmf.reset_stream();
  EXPECT_EQ(bmf.observed_count(), 0u);
  EXPECT_NO_THROW(bmf.set_nominal(*late_nominal_));
}

TEST_F(StreamingParity, MismatchedMergeAndAbsorbRejected) {
  MleEstimator mle;
  mle.observe(late_->samples().row(0));
  BmfEstimator bmf = make_bmf();
  bmf.set_nominal(*late_nominal_);
  EXPECT_THROW(bmf.merge(mle), ContractError);

  StatsShard shard = mle.export_shard(1);
  EXPECT_EQ(shard.estimator, "mle");
  EXPECT_THROW(bmf.absorb(shard), DataError);

  StatsShard wrong_folds = shard;
  wrong_folds.estimator.clear();
  MleEstimator sink;
  sink.observe(late_->samples().row(1));
  wrong_folds.folds.push_back(StatStream(shard.dimension()));
  EXPECT_THROW(sink.absorb(wrong_folds), DataError);
}

TEST(StreamingApi, DimensionMismatchedShardNamesBothDimensions) {
  // A shard of the wrong metric dimension must be refused before it touches
  // the stream, with a message naming the estimator's dimension, the
  // shard's dimension and the shard id.
  MleEstimator sink;
  sink.observe(synthetic_samples(8, 3, 61));

  MleEstimator other;
  other.observe(synthetic_samples(8, 2, 63));
  const StatsShard shard = other.export_shard(123);
  try {
    sink.absorb(shard);
    FAIL() << "dimension-mismatched absorb must throw";
  } catch (const DataError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("dimension"), std::string::npos) << message;
    EXPECT_NE(message.find('3'), std::string::npos) << message;
    EXPECT_NE(message.find('2'), std::string::npos) << message;
    EXPECT_NE(message.find("123"), std::string::npos) << message;
  }
  // The stream is untouched and still serves its own dimension.
  EXPECT_EQ(sink.observed_count(), 8u);
  EXPECT_EQ(sink.snapshot().moments.mean.size(), 3u);
}

TEST(StreamingApi, SnapshotOfEmptyStreamThrows) {
  MleEstimator mle;
  EXPECT_THROW((void)mle.snapshot(), ContractError);
}

TEST(StreamingApi, ObserveScreensNonFiniteSamples) {
  MleEstimator mle;
  Vector bad{1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(mle.observe(bad), DataError);
  EXPECT_EQ(mle.observed_count(), 0u);
}

// ------------------------------------------------------- snapshot cache

/// Bit-for-bit equality of every EstimateResult field (NaN equals NaN).
void expect_same_bits(const EstimateResult& a, const EstimateResult& b) {
  const auto same = [](double x, double y) {
    return (std::isnan(x) && std::isnan(y)) || x == y;
  };
  EXPECT_TRUE(a.moments.mean == b.moments.mean);
  EXPECT_TRUE(a.moments.covariance == b.moments.covariance);
  EXPECT_TRUE(a.scaled_moments.mean == b.scaled_moments.mean);
  EXPECT_TRUE(a.scaled_moments.covariance == b.scaled_moments.covariance);
  EXPECT_TRUE(same(a.kappa0, b.kappa0));
  EXPECT_TRUE(same(a.nu0, b.nu0));
  EXPECT_TRUE(same(a.score, b.score));
  ASSERT_EQ(a.cv_grid.size(), b.cv_grid.size());
  for (std::size_t i = 0; i < a.cv_grid.size(); ++i) {
    EXPECT_EQ(a.cv_grid[i].kappa0, b.cv_grid[i].kappa0);
    EXPECT_EQ(a.cv_grid[i].nu0, b.cv_grid[i].nu0);
    EXPECT_TRUE(same(a.cv_grid[i].score, b.cv_grid[i].score)) << i;
  }
}

std::uint64_t counter_total(const char* name) {
  return telemetry::Registry::instance().counter(name).total();
}

/// A 3-metric BMF estimator over O(1) synthetic data with a small CV grid
/// (4 folds x 4 x 4 points), streaming relative to `nominal`.
BmfEstimator cache_bmf(const Vector& nominal) {
  EarlyStageKnowledge early;
  early.moments = estimate_mle(synthetic_samples(400, 3, 71));
  early.nominal = Vector{0.0, 0.1, 0.2};
  core::BmfConfig config;
  config.cv.kappa_points = 4;
  config.cv.nu_points = 4;
  BmfEstimator bmf(early, config);
  bmf.set_nominal(nominal);
  return bmf;
}

const Vector kCacheNominal{0.02, 0.08, 0.25};

TEST(SnapshotCache, RepeatSnapshotIsACopyWithoutAGridRun) {
  BmfEstimator bmf = cache_bmf(kCacheNominal);
  bmf.observe(synthetic_samples(64, 3, 73));
  const EstimateResult first = bmf.snapshot();
  const std::uint64_t grid_before = counter_total("core.cv.grid_points");
  const std::uint64_t reuses_before =
      counter_total("core.stream.snapshot_reuses");
  const std::uint64_t snapshots_before = counter_total("core.stream.snapshots");
  const EstimateResult second = bmf.snapshot();
  expect_same_bits(second, first);
  if (telemetry::enabled()) {
    EXPECT_EQ(counter_total("core.cv.grid_points"), grid_before);
    EXPECT_EQ(counter_total("core.stream.snapshot_reuses"), reuses_before + 1);
    EXPECT_EQ(counter_total("core.stream.snapshots"), snapshots_before + 1);
  }
}

TEST(SnapshotCache, EveryMutatorInvalidates) {
  const Matrix base = synthetic_samples(64, 3, 75);
  const Matrix more = synthetic_samples(24, 3, 77);
  const SufficientStats summary =
      SufficientStats::from_samples(synthetic_samples(16, 3, 79));
  BmfEstimator donor = cache_bmf(kCacheNominal);
  donor.observe(synthetic_samples(32, 3, 81));
  const StatsShard shard = donor.export_shard(5);

  // Each case applies one mutator to an estimator whose cache holds the
  // snapshot of `base`; the next snapshot must match a fresh estimator
  // that never cached anything and saw the same calls.
  const std::vector<std::pair<const char*, std::function<void(BmfEstimator&)>>>
      cases = {
          {"observe(Vector)", [&](BmfEstimator& e) { e.observe(more.row(0)); }},
          {"observe(Matrix)", [&](BmfEstimator& e) { e.observe(more); }},
          {"absorb(SufficientStats)",
           [&](BmfEstimator& e) { e.absorb(summary); }},
          {"absorb(StatsShard)", [&](BmfEstimator& e) { e.absorb(shard); }},
          {"merge", [&](BmfEstimator& e) { e.merge(donor); }},
      };
  for (const auto& [name, mutate] : cases) {
    BmfEstimator cached = cache_bmf(kCacheNominal);
    cached.observe(base);
    (void)cached.snapshot();
    mutate(cached);

    BmfEstimator fresh = cache_bmf(kCacheNominal);
    fresh.observe(base);
    mutate(fresh);
    SCOPED_TRACE(name);
    expect_same_bits(cached.snapshot(), fresh.snapshot());
  }
}

TEST(SnapshotCache, ResetThenSameCountOfDifferentRowsIsRecomputed) {
  // A cache keyed by observed_count() would serve the old estimate here:
  // the stream holds as many rows as before, but different ones.
  const Matrix old_rows = synthetic_samples(64, 3, 83);
  const Matrix new_rows = synthetic_samples(64, 3, 85);
  BmfEstimator cached = cache_bmf(kCacheNominal);
  cached.observe(old_rows);
  const EstimateResult before = cached.snapshot();
  cached.reset_stream();
  cached.observe(new_rows);

  BmfEstimator fresh = cache_bmf(kCacheNominal);
  fresh.observe(new_rows);
  const EstimateResult after = cached.snapshot();
  expect_same_bits(after, fresh.snapshot());
  EXPECT_FALSE(after.moments.mean == before.moments.mean);
}

TEST(SnapshotCache, NewNominalAfterResetIsRecomputed) {
  const Matrix rows = synthetic_samples(64, 3, 87);
  const Vector other_nominal{-0.05, 0.15, 0.3};
  BmfEstimator cached = cache_bmf(kCacheNominal);
  cached.observe(rows);
  (void)cached.snapshot();
  cached.reset_stream();
  cached.set_nominal(other_nominal);
  cached.observe(rows);

  BmfEstimator fresh = cache_bmf(other_nominal);
  fresh.observe(rows);
  expect_same_bits(cached.snapshot(), fresh.snapshot());
}

TEST(SnapshotCache, BatchThatThrowsMidwayKeepsItsLeadingRows) {
  // observe(Matrix) refuses row k after streaming rows 0..k-1; the cached
  // snapshot must not survive those rows.
  const Matrix base = synthetic_samples(64, 3, 89);
  Matrix batch = synthetic_samples(12, 3, 91);
  const std::size_t k = 5;
  batch(k, 1) = std::numeric_limits<double>::quiet_NaN();

  BmfEstimator cached = cache_bmf(kCacheNominal);
  cached.observe(base);
  (void)cached.snapshot();
  EXPECT_THROW(cached.observe(batch), DataError);
  EXPECT_EQ(cached.observed_count(), base.rows() + k);

  BmfEstimator fresh = cache_bmf(kCacheNominal);
  fresh.observe(base);
  for (std::size_t r = 0; r < k; ++r) fresh.observe(batch.row(r));
  expect_same_bits(cached.snapshot(), fresh.snapshot());
}

TEST(SnapshotCache, ThrowingSnapshotIsNotCached) {
  // Rows whose outer products overflow to +inf make the snapshot throw. The
  // estimate cached before them must not come back, and every retry must
  // run (and throw) again.
  BmfEstimator bmf = cache_bmf(kCacheNominal);
  bmf.observe(synthetic_samples(64, 3, 93));
  (void)bmf.snapshot();
  Matrix huge(8, 3);
  for (std::size_t r = 0; r < huge.rows(); ++r) {
    huge(r, 0) = 1e160;
    huge(r, 1) = -1e160;
    huge(r, 2) = 1e160;
  }
  bmf.observe(huge);
  const std::uint64_t reuses_before =
      counter_total("core.stream.snapshot_reuses");
  EXPECT_THROW((void)bmf.snapshot(), NumericError);
  EXPECT_THROW((void)bmf.snapshot(), NumericError);
  if (telemetry::enabled()) {
    EXPECT_EQ(counter_total("core.stream.snapshot_reuses"), reuses_before);
  }
}

TEST(StreamingApi, RejectedShardLeavesTheNominalUnset) {
  // A 5-fold producer's shard is refused by a 4-fold session; it must not
  // fix its nominal, or every later shard with another nominal would be
  // refused too.
  const Matrix rows = synthetic_samples(40, 3, 95);
  EarlyStageKnowledge early;
  early.moments = estimate_mle(synthetic_samples(400, 3, 71));
  early.nominal = Vector{0.0, 0.1, 0.2};
  core::BmfConfig four_folds;
  four_folds.cv.kappa_points = 4;
  four_folds.cv.nu_points = 4;
  core::BmfConfig five_folds = four_folds;
  five_folds.cv.folds = 5;

  BmfEstimator producer_a(early, five_folds);
  producer_a.set_nominal(Vector{0.01, 0.11, 0.21});
  producer_a.observe(rows);
  BmfEstimator producer_b(early, four_folds);
  producer_b.set_nominal(kCacheNominal);
  producer_b.observe(rows);
  const StatsShard shard_b = producer_b.export_shard(2);

  // A hand-built shard whose nominal disagrees with its folds' dimension
  // is refused before its nominal is adopted, too.
  StatsShard mislabeled = producer_b.export_shard(3);
  mislabeled.nominal = Vector{0.01, 0.11};

  BmfEstimator session(early, four_folds);
  EXPECT_THROW(session.absorb(producer_a.export_shard(1)), DataError);
  EXPECT_THROW(session.absorb(mislabeled), DataError);
  EXPECT_EQ(session.nominal().size(), 0u);
  EXPECT_EQ(session.observed_count(), 0u);
  ASSERT_NO_THROW(session.absorb(shard_b));

  BmfEstimator fresh(early, four_folds);
  fresh.absorb(shard_b);
  expect_same_bits(session.snapshot(), fresh.snapshot());
}

}  // namespace
}  // namespace bmfusion
