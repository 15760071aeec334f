#include "rf/random_forest.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/statistics.hpp"
#include "workloads/registry.hpp"

#ifndef PWU_TEST_DATA_DIR
#define PWU_TEST_DATA_DIR "tests/data"
#endif

namespace pwu::rf {
namespace {

Dataset smooth_function_data(std::size_t n, util::Rng& rng) {
  Dataset d(3);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0.0, 10.0);
    const double b = rng.uniform(0.0, 10.0);
    const double c = rng.uniform(0.0, 10.0);
    d.add(std::vector<double>{a, b, c}, a * a + 2.0 * b - 0.5 * c);
  }
  return d;
}

/// `rows` configurations drawn from a workload's space (few levels per
/// feature, real categorical level indices), labeled by its simulator.
Dataset workload_data(const std::string& name, std::size_t rows,
                      util::Rng& rng) {
  const auto workload = workloads::make_workload(name);
  const auto& space = workload->space();
  Dataset d(space.num_params(), space.categorical_mask(),
            space.cardinalities());
  for (std::size_t i = 0; i < rows; ++i) {
    const auto config = space.random_config(rng);
    d.add(space.features(config), workload->measure(config, rng, 1));
  }
  return d;
}

ForestConfig default_forest(std::size_t trees = 30) {
  ForestConfig cfg;
  cfg.num_trees = trees;
  cfg.tree.mtry = 2;
  return cfg;
}

TEST(RandomForest, LearnsSmoothFunction) {
  util::Rng rng(1);
  const Dataset train = smooth_function_data(600, rng);
  RandomForest forest;
  util::Rng fit_rng(2);
  forest.fit(train, default_forest(), fit_rng);

  // Out-of-sample error must be far below the label spread.
  util::Rng test_rng(3);
  const Dataset test = smooth_function_data(200, test_rng);
  double sq_err = 0.0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const double e = forest.predict(test.row(i)) - test.y(i);
    sq_err += e * e;
  }
  const double rmse = std::sqrt(sq_err / static_cast<double>(test.size()));
  const double label_sd = util::stddev(test.labels());
  EXPECT_LT(rmse, 0.3 * label_sd);
}

TEST(RandomForest, PredictionWithinLabelRange) {
  util::Rng rng(4);
  const Dataset train = smooth_function_data(200, rng);
  RandomForest forest;
  util::Rng fit_rng(5);
  forest.fit(train, default_forest(), fit_rng);
  const double lo = util::min_value(train.labels());
  const double hi = util::max_value(train.labels());
  util::Rng probe(6);
  for (int t = 0; t < 100; ++t) {
    const std::vector<double> row = {probe.uniform(-5.0, 15.0),
                                     probe.uniform(-5.0, 15.0),
                                     probe.uniform(-5.0, 15.0)};
    const double p = forest.predict(row);
    EXPECT_GE(p, lo - 1e-9);
    EXPECT_LE(p, hi + 1e-9);
  }
}

TEST(RandomForest, PredictStatsConsistentWithPredict) {
  util::Rng rng(7);
  const Dataset train = smooth_function_data(100, rng);
  RandomForest forest;
  util::Rng fit_rng(8);
  forest.fit(train, default_forest(), fit_rng);
  const std::vector<double> row = {5.0, 5.0, 5.0};
  const PredictionStats stats = forest.predict_stats(row);
  EXPECT_NEAR(stats.mean, forest.predict(row), 1e-12);
  EXPECT_GE(stats.variance, 0.0);
  EXPECT_NEAR(stats.stddev, std::sqrt(stats.variance), 1e-12);
}

TEST(RandomForest, UncertaintyPositiveAwayFromDataAndShrinksWithData) {
  // The across-tree spread is the active-learning signal: more training
  // data in a region must (on average) shrink it.
  util::Rng rng(9);
  const Dataset small = smooth_function_data(40, rng);
  util::Rng rng2(10);
  const Dataset large = smooth_function_data(1000, rng2);

  RandomForest forest_small, forest_large;
  util::Rng fit_a(11), fit_b(11);
  forest_small.fit(small, default_forest(), fit_a);
  forest_large.fit(large, default_forest(), fit_b);

  util::Rng probe(12);
  double sigma_small = 0.0, sigma_large = 0.0;
  const int probes = 200;
  for (int t = 0; t < probes; ++t) {
    const std::vector<double> row = {probe.uniform(0.0, 10.0),
                                     probe.uniform(0.0, 10.0),
                                     probe.uniform(0.0, 10.0)};
    sigma_small += forest_small.predict_stats(row).stddev;
    sigma_large += forest_large.predict_stats(row).stddev;
  }
  EXPECT_GT(sigma_small, 0.0);
  EXPECT_LT(sigma_large, sigma_small);
}

TEST(RandomForest, DeterministicGivenSeed) {
  util::Rng rng(13);
  const Dataset train = smooth_function_data(150, rng);
  RandomForest a, b;
  util::Rng fit_a(99), fit_b(99);
  a.fit(train, default_forest(), fit_a);
  b.fit(train, default_forest(), fit_b);
  util::Rng probe(14);
  for (int t = 0; t < 50; ++t) {
    const std::vector<double> row = {probe.uniform(0.0, 10.0),
                                     probe.uniform(0.0, 10.0),
                                     probe.uniform(0.0, 10.0)};
    EXPECT_DOUBLE_EQ(a.predict(row), b.predict(row));
    EXPECT_DOUBLE_EQ(a.predict_stats(row).stddev,
                     b.predict_stats(row).stddev);
  }
}

TEST(RandomForest, ParallelFitMatchesSerialFit) {
  util::Rng rng(15);
  const Dataset train = smooth_function_data(200, rng);
  RandomForest serial, parallel;
  util::Rng fit_a(7), fit_b(7);
  util::ThreadPool pool(4);
  serial.fit(train, default_forest(), fit_a, nullptr);
  parallel.fit(train, default_forest(), fit_b, &pool);
  util::Rng probe(16);
  for (int t = 0; t < 50; ++t) {
    const std::vector<double> row = {probe.uniform(0.0, 10.0),
                                     probe.uniform(0.0, 10.0),
                                     probe.uniform(0.0, 10.0)};
    EXPECT_DOUBLE_EQ(serial.predict(row), parallel.predict(row));
  }

  // SPAPT-shaped data (few levels per feature, so nodes take the counting
  // sort): every tree's workspace reads the one shared set of level codes
  // while the pool builds trees concurrently.
  util::Rng level_rng(17);
  const Dataset levels = workload_data("atax", 150, level_rng);
  ForestConfig cfg;
  cfg.num_trees = 40;
  RandomForest level_serial, level_parallel;
  util::Rng fit_c(8), fit_d(8);
  level_serial.fit(levels, cfg, fit_c, nullptr);
  level_parallel.fit(levels, cfg, fit_d, &pool);
  std::ostringstream serial_text, parallel_text;
  level_serial.save(serial_text);
  level_parallel.save(parallel_text);
  EXPECT_EQ(serial_text.str(), parallel_text.str());
}

TEST(RandomForest, PredictStatsBatchMatchesScalar) {
  util::Rng rng(17);
  const Dataset train = smooth_function_data(100, rng);
  RandomForest forest;
  util::Rng fit_rng(18);
  forest.fit(train, default_forest(), fit_rng);
  FeatureMatrix rows;
  util::Rng probe(19);
  for (int t = 0; t < 300; ++t) {
    const std::vector<double> row = {probe.uniform(0.0, 10.0),
                                     probe.uniform(0.0, 10.0),
                                     probe.uniform(0.0, 10.0)};
    rows.add_row(row);
  }
  util::ThreadPool pool(3);
  const auto batch = forest.predict_stats_batch(rows, &pool);
  ASSERT_EQ(batch.size(), rows.num_rows());
  for (std::size_t i = 0; i < rows.num_rows(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i].mean, forest.predict_stats(rows.row(i)).mean);
  }
}

TEST(RandomForest, OobErrorIsReasonable) {
  util::Rng rng(20);
  const Dataset train = smooth_function_data(400, rng);
  RandomForest forest;
  ForestConfig cfg = default_forest(40);
  cfg.compute_oob = true;
  util::Rng fit_rng(21);
  forest.fit(train, cfg, fit_rng);
  const double oob = forest.oob_rmse();
  EXPECT_TRUE(std::isfinite(oob));
  EXPECT_GT(oob, 0.0);
  EXPECT_LT(oob, util::stddev(train.labels()));
}

TEST(RandomForest, OobNanWithoutComputeFlag) {
  util::Rng rng(22);
  const Dataset train = smooth_function_data(50, rng);
  RandomForest forest;
  util::Rng fit_rng(23);
  forest.fit(train, default_forest(), fit_rng);
  EXPECT_TRUE(std::isnan(forest.oob_rmse()));
}

TEST(RandomForest, PermutationImportanceOrdersFeatures) {
  // y = a^2 + 2b - 0.5c: importance(a) > importance(b) > importance(c)
  // over [0,10]^3 (a contributes variance ~ 888, b ~ 33, c ~ 2).
  util::Rng rng(24);
  const Dataset train = smooth_function_data(800, rng);
  RandomForest forest;
  util::Rng fit_rng(25);
  forest.fit(train, default_forest(40), fit_rng);
  util::Rng perm_rng(26);
  const auto importance = forest.permutation_importance(train, perm_rng);
  ASSERT_EQ(importance.size(), 3u);
  EXPECT_GT(importance[0], importance[1]);
  EXPECT_GT(importance[1], importance[2]);
}

TEST(RandomForest, NoBootstrapTreesInterpolateTrainingPoints) {
  // Without bagging every fully-grown tree sees the whole training set and
  // interpolates it exactly, so the across-tree spread at any training
  // point is zero — even though equal-gain tie-breaks may differ between
  // trees elsewhere.
  util::Rng rng(27);
  const Dataset train = smooth_function_data(100, rng);
  RandomForest forest;
  ForestConfig cfg = default_forest(10);
  cfg.bootstrap = false;
  cfg.tree.mtry = 3;
  util::Rng fit_rng(28);
  forest.fit(train, cfg, fit_rng);
  for (std::size_t i = 0; i < train.size(); i += 10) {
    const PredictionStats stats = forest.predict_stats(train.row(i));
    EXPECT_NEAR(stats.mean, train.y(i), 1e-9);
    EXPECT_NEAR(stats.stddev, 0.0, 1e-9);
  }
}

TEST(RandomForest, InvalidInputsRejected) {
  RandomForest forest;
  util::Rng rng(29);
  Dataset empty(2);
  EXPECT_THROW(forest.fit(empty, default_forest(), rng),
               std::invalid_argument);
  Dataset one(1);
  one.add(std::vector<double>{1.0}, 1.0);
  ForestConfig zero_trees;
  zero_trees.num_trees = 0;
  EXPECT_THROW(forest.fit(one, zero_trees, rng), std::invalid_argument);
  EXPECT_THROW(forest.predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(RandomForest, StructureStatsExposed) {
  util::Rng rng(30);
  const Dataset train = smooth_function_data(100, rng);
  RandomForest forest;
  util::Rng fit_rng(31);
  forest.fit(train, default_forest(5), fit_rng);
  EXPECT_EQ(forest.num_trees(), 5u);
  EXPECT_GT(forest.total_nodes(), 5u);
  EXPECT_GT(forest.max_depth(), 1u);
}

TEST(RandomForest, LabelScalingEquivariance) {
  // Variance-reduction split gains scale with the square of a label
  // scaling, so the chosen splits are identical and predictions scale
  // through: f_{a*y}(x) = a * f_y(x). A power-of-two factor keeps the
  // floating-point arithmetic exact, so equality is bit-level (a general
  // affine transform only holds approximately: rounding can flip
  // near-tied split choices deep in a tree).
  util::Rng data_rng(50);
  const Dataset base = smooth_function_data(250, data_rng);
  Dataset scaled(3);
  for (std::size_t i = 0; i < base.size(); ++i) {
    scaled.add(base.row(i), 4.0 * base.y(i));
  }
  RandomForest f_base, f_scaled;
  util::Rng fit_a(51), fit_b(51);
  f_base.fit(base, default_forest(), fit_a);
  f_scaled.fit(scaled, default_forest(), fit_b);
  util::Rng probe(52);
  for (int t = 0; t < 60; ++t) {
    const std::vector<double> row = {probe.uniform(0.0, 10.0),
                                     probe.uniform(0.0, 10.0),
                                     probe.uniform(0.0, 10.0)};
    EXPECT_DOUBLE_EQ(f_scaled.predict(row), 4.0 * f_base.predict(row));
  }
}

TEST(RandomForest, UncertaintyScalesWithLabelScale) {
  // Same property for the spread: sigma_{a*y}(x) = a * sigma_y(x).
  util::Rng data_rng(53);
  const Dataset base = smooth_function_data(250, data_rng);
  Dataset scaled(3);
  for (std::size_t i = 0; i < base.size(); ++i) {
    scaled.add(base.row(i), 4.0 * base.y(i));
  }
  RandomForest f_base, f_scaled;
  util::Rng fit_a(54), fit_b(54);
  f_base.fit(base, default_forest(), fit_a);
  f_scaled.fit(scaled, default_forest(), fit_b);
  const std::vector<double> row = {5.0, 5.0, 5.0};
  EXPECT_NEAR(f_scaled.predict_stats(row).stddev,
              4.0 * f_base.predict_stats(row).stddev, 1e-9);
}

struct ForestParam {
  std::size_t trees;
  std::size_t max_depth;
  std::size_t min_leaf;
};

class ForestConfigSweep : public ::testing::TestWithParam<ForestParam> {};

// Property sweep: any sane hyper-parameter combination must produce a
// usable model whose error beats predicting the mean.
TEST_P(ForestConfigSweep, FitsAndBeatsMeanPredictor) {
  const ForestParam param = GetParam();
  util::Rng rng(32);
  const Dataset train = smooth_function_data(300, rng);
  util::Rng rng2(33);
  const Dataset test = smooth_function_data(150, rng2);

  ForestConfig cfg;
  cfg.num_trees = param.trees;
  cfg.tree.max_depth = param.max_depth;
  cfg.tree.min_samples_leaf = param.min_leaf;
  RandomForest forest;
  util::Rng fit_rng(34);
  forest.fit(train, cfg, fit_rng);

  const double mean_label = util::mean(train.labels());
  double model_sq = 0.0, mean_sq = 0.0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const double em = forest.predict(test.row(i)) - test.y(i);
    const double eb = mean_label - test.y(i);
    model_sq += em * em;
    mean_sq += eb * eb;
  }
  EXPECT_LT(model_sq, mean_sq);
}

// ---- golden fit fixture ----------------------------------------------------
//
// tests/data/golden_fit_v1.txt pins the fitter itself: one line per case
//   <dataset> <rows> <min_samples_leaf> <FNV-1a of RandomForest::save text>
//   <OOB RMSE at %.17g>
// so any change to split search, tie order or node sums shows up as a
// changed forest. Datasets are every workload space at sizes around small
// and mid trees, plus synthetic continuous (high-cardinality), categorical,
// signed-zero and duplicate-row data.

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Dataset golden_fit_dataset(const std::string& name, std::size_t rows,
                           util::Rng& rng) {
  if (name == "synthetic/continuous") {
    Dataset d(4);
    for (std::size_t i = 0; i < rows; ++i) {
      const std::vector<double> x = {rng.uniform(0.0, 10.0),
                                     rng.uniform(0.0, 10.0),
                                     rng.uniform(-5.0, 5.0),
                                     rng.uniform(0.0, 1.0)};
      d.add(x, x[0] * x[1] - 3.0 * x[2] + rng.normal(0.0, 0.5));
    }
    return d;
  }
  if (name == "synthetic/categorical") {
    Dataset d(3, {true, true, false}, {5, 12, 0});
    for (std::size_t i = 0; i < rows; ++i) {
      const std::vector<double> x = {static_cast<double>(rng.index(5)),
                                     static_cast<double>(rng.index(12)),
                                     static_cast<double>(rng.index(3))};
      d.add(x, (static_cast<int>(x[0]) % 2 == 0 ? 1.0 : 4.0) +
                   0.3 * x[1] + x[2] + rng.uniform(0.0, 0.1));
    }
    return d;
  }
  if (name == "synthetic/signed_zero") {
    const double levels[] = {-0.0, 0.0, -1.0, 1.0, 2.0};
    Dataset d(2);
    for (std::size_t i = 0; i < rows; ++i) {
      const std::vector<double> x = {levels[rng.index(5)],
                                     levels[rng.index(5)]};
      d.add(x, x[0] - 2.0 * x[1] + rng.uniform(0.0, 1.0));
    }
    return d;
  }
  if (name == "synthetic/duplicate") {
    Dataset d(3);
    const std::vector<std::vector<double>> distinct = {
        {1.0, 2.0, 3.0}, {1.0, 2.0, 4.0}, {0.5, 2.0, 3.0},
        {1.0, 7.0, 3.0}, {9.0, 2.0, 0.0}};
    for (std::size_t i = 0; i < rows; ++i) {
      const auto& x = distinct[rng.index(distinct.size())];
      d.add(x, x[0] + x[1] * x[2] + rng.normal(0.0, 1.0));
    }
    return d;
  }
  return workload_data(name, rows, rng);
}

struct GoldenFitCase {
  std::string dataset;
  std::size_t rows = 0;
  std::size_t min_samples_leaf = 1;
};

std::vector<GoldenFitCase> golden_fit_cases() {
  std::vector<GoldenFitCase> cases;
  for (const std::size_t leaf : {std::size_t{1}, std::size_t{3}}) {
    for (const auto& name : workloads::full_suite_names()) {
      for (const std::size_t rows : {3, 40, 63, 64, 65, 150, 300}) {
        cases.push_back({name, rows, leaf});
      }
    }
    for (const char* name :
         {"synthetic/continuous", "synthetic/categorical",
          "synthetic/signed_zero", "synthetic/duplicate"}) {
      for (const std::size_t rows : {10, 65, 1000}) {
        cases.push_back({name, rows, leaf});
      }
    }
  }
  return cases;
}

std::string golden_fit_line(const GoldenFitCase& c) {
  util::Rng data_rng(fnv1a(c.dataset) ^ c.rows);
  const Dataset data = golden_fit_dataset(c.dataset, c.rows, data_rng);
  ForestConfig cfg;
  cfg.num_trees = 8;
  cfg.tree.min_samples_leaf = c.min_samples_leaf;
  cfg.compute_oob = true;
  RandomForest forest;
  util::Rng fit_rng(1000 + c.rows * 7 + c.min_samples_leaf);
  forest.fit(data, cfg, fit_rng);
  std::ostringstream text;
  forest.save(text);
  char line[512];
  std::snprintf(line, sizeof(line), "%s %zu %zu %016" PRIx64 " %.17g",
                c.dataset.c_str(), c.rows, c.min_samples_leaf,
                fnv1a(text.str()), forest.oob_rmse());
  return line;
}

TEST(RandomForest, FitsMatchGoldenFixture) {
  const std::string path =
      std::string(PWU_TEST_DATA_DIR) + "/golden_fit_v1.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path;
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') expected.push_back(line);
  }
  const auto cases = golden_fit_cases();
  ASSERT_EQ(expected.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(golden_fit_line(cases[i]), expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    HyperParameters, ForestConfigSweep,
    ::testing::Values(ForestParam{1, 0, 1}, ForestParam{10, 0, 1},
                      ForestParam{50, 0, 1}, ForestParam{20, 4, 1},
                      ForestParam{20, 0, 5}, ForestParam{20, 8, 3},
                      ForestParam{5, 12, 2}, ForestParam{30, 6, 10}));

}  // namespace
}  // namespace pwu::rf
