// The flat inference engine's contract is bit-exactness: compiling trees
// into the contiguous layout and evaluating in cache-blocked order must
// change performance only — never a single output bit. These tests pin that
// across every workload space in the registry and against a golden forest
// saved by the pre-overhaul implementation.

#include "rf/flat_forest.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "rf/feature_matrix.hpp"
#include "rf/random_forest.hpp"
#include "rf/simd_eval.hpp"
#include "util/thread_pool.hpp"
#include "workloads/registry.hpp"

#ifndef PWU_TEST_DATA_DIR
#define PWU_TEST_DATA_DIR "tests/data"
#endif

namespace pwu::rf {
namespace {

TEST(FeatureMatrix, RowAccessAndWidthEnforcement) {
  FeatureMatrix m;
  m.add_row(std::vector<double>{1.0, 2.0});
  m.add_row(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(m.num_rows(), 2u);
  EXPECT_EQ(m.num_cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  EXPECT_THROW(m.add_row(std::vector<double>{1.0, 2.0, 3.0}),
               std::invalid_argument);
  m.row(0)[1] = 9.0;
  EXPECT_DOUBLE_EQ(m(0, 1), 9.0);
}

TEST(FeatureMatrix, RemoveRowSwapMirrorsPoolTake) {
  FeatureMatrix m = FeatureMatrix::from_rows({{0.0}, {1.0}, {2.0}, {3.0}});
  m.remove_row_swap(1);  // last row (3) moves into slot 1
  ASSERT_EQ(m.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  m.remove_row_swap(2);  // removing the last row is a plain pop
  ASSERT_EQ(m.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
  EXPECT_THROW(m.remove_row_swap(5), std::out_of_range);
}

/// Training set drawn from a workload's own space (so categorical features
/// carry real level indices) with the workload's analytic time as label.
Dataset space_dataset(const workloads::Workload& workload, std::size_t n,
                      util::Rng& rng) {
  const auto& space = workload.space();
  Dataset data(space.num_params(), space.categorical_mask(),
               space.cardinalities());
  for (std::size_t i = 0; i < n; ++i) {
    const auto config = space.random_config(rng);
    data.add(space.features(config), workload.measure(config, rng, 1));
  }
  return data;
}

/// Every dispatch level the batch evaluator can select on this build + CPU.
std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> levels = {simd::Level::Scalar};
  if (simd::detected_level() >= simd::Level::Avx2) {
    levels.push_back(simd::Level::Avx2);
  }
  return levels;
}

/// RAII override so a failing ASSERT cannot leak a pinned level.
struct LevelGuard {
  explicit LevelGuard(simd::Level level) { simd::set_level_override(level); }
  ~LevelGuard() { simd::clear_level_override(); }
};

TEST(FlatForest, BitExactAcrossAllWorkloadSpaces) {
  // Property over the paper's full benchmark set (12 kernels + kripke +
  // hypre) at every dispatch level: flat mean AND variance equal the
  // tree-walk reference exactly, scalar and batched, serial and parallel;
  // the batched mean also equals predict() (predict_one), the per-row mean
  // path, and predict_mean_batch, the means-only path accuracy evaluation
  // takes.
  util::ThreadPool pool(3);
  for (const simd::Level level : available_levels()) {
    LevelGuard guard(level);
    for (const auto& name : workloads::all_names()) {
      SCOPED_TRACE(std::string(simd::level_name(level)) + "/" + name);
      const auto workload = workloads::make_workload(name);
      util::Rng rng(0xF1A7 + std::hash<std::string>{}(name) % 1000);
      const Dataset train = space_dataset(*workload, 80, rng);

      ForestConfig cfg;
      cfg.num_trees = 15;
      util::Rng fit_rng(99);
      RandomForest forest;
      forest.fit(train, cfg, fit_rng);

      const auto& space = workload->space();
      // More probes than one 256-row block, so the pooled calls really
      // fan out across blocks.
      FeatureMatrix probes =
          FeatureMatrix::with_capacity(space.num_params(), 300);
      for (std::size_t i = 0; i < 300; ++i) {
        space.write_features(space.random_config(rng), probes.append_row());
      }

      const auto serial = forest.predict_stats_batch(probes);
      const auto parallel = forest.predict_stats_batch(probes, &pool);
      const auto means = forest.predict_mean_batch(probes);
      const auto parallel_means = forest.predict_mean_batch(probes, &pool);
      ASSERT_EQ(serial.size(), probes.num_rows());
      ASSERT_EQ(means.size(), probes.num_rows());
      for (std::size_t i = 0; i < probes.num_rows(); ++i) {
        const PredictionStats ref =
            forest.predict_stats_reference(probes.row(i));
        const PredictionStats one = forest.predict_stats(probes.row(i));
        // EXPECT_EQ, not NEAR: the contract is bit-identity.
        EXPECT_EQ(one.mean, ref.mean);
        EXPECT_EQ(one.variance, ref.variance);
        EXPECT_EQ(forest.predict(probes.row(i)), serial[i].mean);
        EXPECT_EQ(serial[i].mean, ref.mean);
        EXPECT_EQ(serial[i].variance, ref.variance);
        EXPECT_EQ(parallel[i].mean, ref.mean);
        EXPECT_EQ(parallel[i].variance, ref.variance);
        EXPECT_EQ(means[i], serial[i].mean);
        EXPECT_EQ(parallel_means[i], serial[i].mean);
      }
    }
  }
}

TEST(FlatForest, CompiledLayoutMatchesTreeWalkPerTree) {
  util::Rng rng(5);
  Dataset data(3);
  for (int i = 0; i < 200; ++i) {
    const std::vector<double> row = {rng.uniform(0.0, 4.0),
                                     rng.uniform(0.0, 4.0),
                                     rng.uniform(0.0, 4.0)};
    data.add(row, row[0] * row[1] - row[2]);
  }
  ForestConfig cfg;
  cfg.num_trees = 8;
  util::Rng fit_rng(6);
  RandomForest forest;
  forest.fit(data, cfg, fit_rng);

  const FlatForest& flat = forest.flat();
  EXPECT_EQ(flat.num_trees(), 8u);
  EXPECT_EQ(flat.num_nodes(), forest.total_nodes());

  std::vector<double> per_tree(flat.num_trees());
  const std::vector<double> probe = {1.5, 2.5, 0.5};
  flat.predict_per_tree(probe, per_tree);
  double sum = 0.0;
  for (double p : per_tree) sum += p;
  EXPECT_EQ(flat.predict_one(probe), sum / 8.0);
}

TEST(FlatForest, EmptyAndMismatchedInputsThrow) {
  FlatForest flat;
  EXPECT_TRUE(flat.empty());
  const std::vector<double> row = {1.0};
  EXPECT_THROW(flat.predict_one(row), std::logic_error);

  util::Rng rng(7);
  Dataset data(1);
  for (int i = 0; i < 30; ++i) {
    data.add(std::vector<double>{rng.uniform(0.0, 1.0)}, rng.uniform(0.0, 1.0));
  }
  ForestConfig cfg;
  cfg.num_trees = 3;
  RandomForest forest;
  forest.fit(data, cfg, rng);
  std::vector<PredictionStats> out(2);
  const FeatureMatrix rows = FeatureMatrix::from_rows({{0.5}});
  EXPECT_THROW(forest.flat().predict_stats(rows, out), std::invalid_argument);
  std::vector<double> small(1);
  EXPECT_THROW(forest.flat().predict_per_tree(row, small),
               std::invalid_argument);
}

TEST(FlatForest, GoldenPreOverhaulForestPredictsIdentically) {
  // Fixture captured before the flat-engine/presorted-fitter overhaul: a
  // forest saved by the old implementation (mixed numerical/categorical
  // splits) plus 40 probe rows with its predict_stats outputs at full
  // precision. Loading it today must reproduce every double exactly —
  // the serialized-model compatibility guarantee checkpoint/resume
  // depends on.
  const std::string path =
      std::string(PWU_TEST_DATA_DIR) + "/golden_forest_v0.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path;

  std::string t1, t2, t3;
  ASSERT_TRUE(in >> t1 >> t2 >> t3);
  ASSERT_EQ(t2, "MODEL");

  RandomForest forest;
  forest.load(in);
  EXPECT_EQ(forest.num_trees(), 7u);

  ASSERT_TRUE(in >> t1 >> t2 >> t3);
  ASSERT_EQ(t2, "PREDICTIONS");
  std::size_t count = 0;
  ASSERT_TRUE(in >> count);
  ASSERT_GT(count, 0u);

  std::vector<double> row(4);
  for (std::size_t i = 0; i < count; ++i) {
    double expected_mean = 0.0, expected_variance = 0.0;
    ASSERT_TRUE(in >> row[0] >> row[1] >> row[2] >> row[3] >>
                expected_mean >> expected_variance)
        << "truncated fixture at row " << i;
    const PredictionStats flat = forest.predict_stats(row);
    const PredictionStats ref = forest.predict_stats_reference(row);
    EXPECT_EQ(flat.mean, expected_mean) << "row " << i;
    EXPECT_EQ(flat.variance, expected_variance) << "row " << i;
    EXPECT_EQ(ref.mean, expected_mean) << "row " << i;
    EXPECT_EQ(ref.variance, expected_variance) << "row " << i;
  }
}

}  // namespace
}  // namespace pwu::rf
