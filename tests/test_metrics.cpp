#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "rf/random_forest.hpp"
#include "space/pool.hpp"
#include "util/thread_pool.hpp"
#include "workloads/synthetic.hpp"

namespace pwu::core {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = workloads::make_quadratic_bowl(3, 8, 0.1, /*noisy=*/false);
    util::Rng rng(1);
    const auto configs =
        space::sample_unique(workload_->space(), 200, rng);
    test_ = build_test_set(*workload_, configs, rng);

    // Fit a forest on an independent training sample.
    util::Rng train_rng(2);
    const auto& s = workload_->space();
    rf::Dataset train(s.num_params(), s.categorical_mask(),
                      s.cardinalities());
    for (int i = 0; i < 300; ++i) {
      const auto c = s.random_config(train_rng);
      train.add(s.features(c), workload_->base_time(c));
    }
    rf::ForestConfig cfg;
    cfg.num_trees = 25;
    model_.fit(train, cfg, train_rng);
  }

  workloads::WorkloadPtr workload_;
  TestSet test_;
  rf::RandomForest model_;
};

TEST_F(MetricsTest, TestSetLabelsAndRanking) {
  EXPECT_EQ(test_.size(), 200u);
  EXPECT_EQ(test_.features.num_rows(), test_.labels.size());
  // Ranking is a permutation sorted by label ascending.
  ASSERT_EQ(test_.ranking.size(), 200u);
  for (std::size_t r = 1; r < test_.ranking.size(); ++r) {
    EXPECT_LE(test_.labels[test_.ranking[r - 1]],
              test_.labels[test_.ranking[r]]);
  }
  std::vector<std::size_t> sorted = test_.ranking;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST_F(MetricsTest, TopAlphaRmseUsesOnlyThePrefix) {
  // A model fit on true data: its top-1% error must not exceed the error
  // on the full set by orders of magnitude, and both must be finite.
  const double top01 = top_alpha_rmse(model_, test_, 0.01);
  const double top100 = top_alpha_rmse(model_, test_, 1.0);
  EXPECT_TRUE(std::isfinite(top01));
  EXPECT_TRUE(std::isfinite(top100));
  EXPECT_EQ(top100, full_rmse(model_, test_));
}

TEST_F(MetricsTest, AlphaValidation) {
  EXPECT_THROW(top_alpha_rmse(model_, test_, 0.0), std::invalid_argument);
  EXPECT_THROW(top_alpha_rmse(model_, test_, 1.5), std::invalid_argument);
}

TEST_F(MetricsTest, TinyAlphaStillEvaluatesAtLeastOneSample) {
  // floor(200 * 0.001) = 0 -> clamped to 1 sample.
  EXPECT_NO_THROW(top_alpha_rmse(model_, test_, 0.001));
}

/// Per-row reference for Eq. 2: one predict() call per ranked row and a
/// fresh sum per prefix — the evaluation path before it was batched.
double per_row_prefix_rmse(const rf::RandomForest& model, const TestSet& test,
                           double alpha) {
  const std::size_t count = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(static_cast<double>(test.size()) * alpha)));
  double acc = 0.0;
  for (std::size_t r = 0; r < count; ++r) {
    const std::size_t i = test.ranking[r];
    const double err = model.predict(test.features.row(i)) - test.labels[i];
    acc += err * err;
  }
  return std::sqrt(acc / static_cast<double>(count));
}

TEST_F(MetricsTest, EvaluateMatchesPerRowReferenceBitForBit) {
  // {0.05, 0.05} repeats an alpha; floor(200 * 0.001) = 0 clamps to 1 row.
  const std::vector<std::vector<double>> alpha_lists = {
      {0.05}, {0.01, 0.05, 1.0}, {0.05, 0.05}, {0.001}};
  const double full = per_row_prefix_rmse(model_, test_, 1.0);
  for (const auto& alphas : alpha_lists) {
    const Evaluation eval = evaluate(model_, test_, alphas);
    ASSERT_EQ(eval.top_alpha_rmse.size(), alphas.size());
    for (std::size_t k = 0; k < alphas.size(); ++k) {
      SCOPED_TRACE(alphas[k]);
      // EXPECT_EQ, not NEAR: the batched pass must be bit-identical.
      const double expected = per_row_prefix_rmse(model_, test_, alphas[k]);
      EXPECT_EQ(eval.top_alpha_rmse[k], expected);
      EXPECT_EQ(top_alpha_rmse(model_, test_, alphas[k]), expected);
    }
    EXPECT_EQ(eval.full_rmse, full);
  }
  EXPECT_EQ(full_rmse(model_, test_), full);
}

TEST_F(MetricsTest, EvaluateOnAThreadPoolIsBitIdentical) {
  // Row blocks only fan out past 256 rows; 500 rows span two blocks.
  util::Rng rng(6);
  const auto configs = space::sample_unique(workload_->space(), 500, rng);
  const TestSet big = build_test_set(*workload_, configs, rng);
  const std::vector<double> alphas = {0.01, 0.05};
  util::ThreadPool pool(3);
  const Evaluation serial = evaluate(model_, big, alphas);
  const Evaluation parallel = evaluate(model_, big, alphas, &pool);
  EXPECT_EQ(parallel.top_alpha_rmse, serial.top_alpha_rmse);
  EXPECT_EQ(parallel.full_rmse, serial.full_rmse);
  EXPECT_EQ(serial.top_alpha_rmse[1], per_row_prefix_rmse(model_, big, 0.05));
}

TEST_F(MetricsTest, EvaluateRejectsAlphaOutsideUnitInterval) {
  for (const double alpha : {0.0, -0.5, 1.5}) {
    const std::vector<double> alphas = {0.05, alpha};
    EXPECT_THROW(evaluate(model_, test_, alphas), std::invalid_argument);
  }
}

TEST_F(MetricsTest, RankingTauHighForGoodModel) {
  EXPECT_GT(ranking_tau(model_, test_), 0.5);
}

TEST(Metrics, PerfectModelHasZeroError) {
  // A forest trained to interpolate the exact test points.
  auto workload = workloads::make_quadratic_bowl(2, 4, 0.1, false);
  const auto& s = workload->space();
  const auto all = s.enumerate();
  util::Rng rng(3);
  TestSet test = build_test_set(*workload, all, rng);

  rf::Dataset train(s.num_params(), s.categorical_mask(), s.cardinalities());
  for (const auto& c : all) {
    train.add(s.features(c), workload->base_time(c));
  }
  rf::ForestConfig cfg;
  cfg.num_trees = 1;
  cfg.bootstrap = false;
  cfg.tree.mtry = s.num_params();
  rf::RandomForest model;
  model.fit(train, cfg, rng);

  EXPECT_NEAR(top_alpha_rmse(model, test, 0.05), 0.0, 1e-12);
  EXPECT_NEAR(full_rmse(model, test), 0.0, 1e-12);
  // The symmetric bowl has tied labels; tau-a counts tied pairs in the
  // denominator, so even the perfect predictor stays below 1.
  EXPECT_GT(ranking_tau(model, test), 0.75);
}

TEST(Metrics, CumulativeCostIsPlainSum) {
  const std::vector<double> labels = {0.5, 1.5, 2.0};
  EXPECT_DOUBLE_EQ(cumulative_cost(labels), 4.0);
  EXPECT_DOUBLE_EQ(cumulative_cost(std::vector<double>{}), 0.0);
}

TEST(Metrics, BuildTestSetMeasurementNoiseRespectsRepetitions) {
  auto workload = workloads::make_quadratic_bowl(2, 6, 0.1, /*noisy=*/true);
  util::Rng rng(4);
  const auto configs = space::sample_unique(workload->space(), 30, rng);
  const TestSet noisy1 = build_test_set(*workload, configs, rng, 1);
  const TestSet noisy35 = build_test_set(*workload, configs, rng, 35);
  // 35-rep averaging must land closer to the noiseless truth on average.
  double err1 = 0.0, err35 = 0.0;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const double base = workload->base_time(configs[i]);
    err1 += std::abs(noisy1.labels[i] - base);
    err35 += std::abs(noisy35.labels[i] - base);
  }
  EXPECT_LT(err35, err1);
}

TEST(Metrics, EmptyTestSetRejected) {
  auto workload = workloads::make_quadratic_bowl(1, 3);
  const auto& s = workload->space();
  util::Rng rng(5);
  rf::Dataset train(s.num_params());
  const auto c = s.random_config(rng);
  train.add(s.features(c), 1.0);
  rf::ForestConfig cfg;
  cfg.num_trees = 2;
  rf::RandomForest model;
  model.fit(train, cfg, rng);
  const TestSet empty;
  EXPECT_THROW(top_alpha_rmse(model, empty, 0.05), std::invalid_argument);
  EXPECT_THROW(full_rmse(model, empty), std::invalid_argument);
  const std::vector<double> alphas = {0.05};
  EXPECT_THROW(evaluate(model, empty, alphas), std::invalid_argument);
}

}  // namespace
}  // namespace pwu::core
