// The Surrogate interface: RF and GP adapters must behave identically to
// their wrapped models and interoperate with the full learning pipeline.

#include "core/surrogate.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/active_learner.hpp"
#include "space/pool.hpp"
#include "workloads/synthetic.hpp"

namespace pwu::core {
namespace {

rf::Dataset smooth_data(std::size_t n, util::Rng& rng) {
  rf::Dataset d(2);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0.0, 5.0);
    const double b = rng.uniform(0.0, 5.0);
    d.add(std::vector<double>{a, b}, a * a + b);
  }
  return d;
}

TEST(Surrogate, FactoryBuildsBothKindsAndRejectsUnknown) {
  EXPECT_EQ(make_surrogate("rf")->name(), "random-forest");
  EXPECT_EQ(make_surrogate("gp")->name(), "gaussian-process");
  EXPECT_THROW(make_surrogate("svm"), std::invalid_argument);
}

TEST(Surrogate, RfAdapterMatchesDirectForest) {
  util::Rng rng(1);
  const rf::Dataset data = smooth_data(200, rng);
  rf::ForestConfig cfg;
  cfg.num_trees = 20;

  RandomForestSurrogate adapter(cfg);
  util::Rng fit_a(7);
  adapter.fit(data, fit_a, nullptr);
  rf::RandomForest direct;
  util::Rng fit_b(7);
  direct.fit(data, cfg, fit_b);

  const std::vector<double> row = {2.5, 2.5};
  EXPECT_DOUBLE_EQ(adapter.predict(row), direct.predict(row));
  EXPECT_DOUBLE_EQ(adapter.predict_stats(row).stddev,
                   direct.predict_stats(row).stddev);
}

TEST(Surrogate, GpAdapterLearnsSmoothFunction) {
  util::Rng rng(2);
  const rf::Dataset data = smooth_data(150, rng);
  GaussianProcessSurrogate gp{gp::GpConfig{}};
  util::Rng fit_rng(3);
  gp.fit(data, fit_rng, nullptr);
  EXPECT_TRUE(gp.fitted());
  const std::vector<double> row = {2.0, 3.0};
  EXPECT_NEAR(gp.predict(row), 7.0, 1.0);
  EXPECT_GE(gp.predict_stats(row).variance, 0.0);
}

TEST(Surrogate, BatchDefaultMatchesScalar) {
  util::Rng rng(4);
  const rf::Dataset data = smooth_data(100, rng);
  GaussianProcessSurrogate gp{gp::GpConfig{}};
  util::Rng fit_rng(5);
  gp.fit(data, fit_rng, nullptr);
  const rf::FeatureMatrix rows =
      rf::FeatureMatrix::from_rows({{1.0, 1.0}, {4.0, 0.5}});
  const auto batch = gp.predict_stats_batch(rows);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_DOUBLE_EQ(batch[0].mean, gp.predict_stats(rows.row(0)).mean);
  EXPECT_DOUBLE_EQ(batch[1].mean, gp.predict_stats(rows.row(1)).mean);
  const auto means = gp.predict_mean_batch(rows);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_EQ(means[0], batch[0].mean);
  EXPECT_EQ(means[1], batch[1].mean);
}

TEST(Surrogate, AsForestExposesOnlyForests) {
  auto rf_surrogate = make_surrogate("rf");
  auto gp_surrogate = make_surrogate("gp");
  // Unfitted RF surrogate still identifies as a forest.
  EXPECT_NE(as_forest(*rf_surrogate), nullptr);
  EXPECT_EQ(as_forest(*gp_surrogate), nullptr);
}

TEST(Surrogate, ActiveLearningRunsWithGpSurrogate) {
  // The full Algorithm-1 loop with a GP in place of the forest — the
  // comparison configuration of bench/ablation_surrogate.
  auto workload = workloads::make_quadratic_bowl(3, 8, 0.1, true);
  util::Rng rng(6);
  const auto split = space::make_pool_split(workload->space(), 200, 100, rng);
  const auto test = build_test_set(*workload, split.test, rng);

  LearnerConfig cfg;
  cfg.surrogate = "gp";
  cfg.n_init = 10;
  cfg.n_max = 40;
  cfg.eval_every = 10;
  ActiveLearner learner(*workload, cfg);
  const auto result = learner.run(*make_pwu(0.05), split.pool, test, rng);
  EXPECT_EQ(result.train_configs.size(), 40u);
  EXPECT_EQ(result.model->name(), "gaussian-process");
  EXPECT_TRUE(std::isfinite(result.trace.back().top_alpha_rmse[0]));
  // Learning happened: error at the end beats the cold start.
  EXPECT_LT(result.trace.back().top_alpha_rmse[0],
            result.trace.front().top_alpha_rmse[0] * 1.2);
}

TEST(Surrogate, RfBeatsGpOnCategoricalHeavySpace) {
  // The paper's Section II-B claim, reproduced end-to-end. The decisive
  // regime is a high-cardinality categorical (hypre's solver has 24
  // levels) with few samples per level: the forest's set-membership splits
  // pool levels with similar behaviour, while the GP either interpolates
  // across meaningless level-index distances or has to learn each level
  // slice from a handful of points.
  auto workload = workloads::make_mixed_modes(/*modes=*/20, /*dims=*/2,
                                              /*levels=*/10, 0.1);
  util::Rng rng(7);
  const auto split = space::make_pool_split(workload->space(), 350, 180, rng);
  const auto test = build_test_set(*workload, split.test, rng);

  auto run_with = [&](const std::string& kind) {
    LearnerConfig cfg;
    cfg.surrogate = kind;
    cfg.n_init = 10;
    cfg.n_max = 70;
    cfg.forest.num_trees = 30;
    cfg.eval_every = 60;
    ActiveLearner learner(*workload, cfg);
    util::Rng run_rng(8);
    return learner.run(*make_pwu(0.05), split.pool, test, run_rng);
  };
  const double rf_error = run_with("rf").trace.back().full_rmse;
  const double gp_error = run_with("gp").trace.back().full_rmse;
  EXPECT_LT(rf_error, gp_error);
}

}  // namespace
}  // namespace pwu::core
