// The SIMD kernel tiers share one contract with the flat engine: the
// dispatch level may change throughput only — never a single output bit.
// These tests sweep every compiled tier (the scalar oracle and, where the
// CPU has it, AVX2) over adversarial hand-built trees and fitted forests
// on the full workload registry.

#include "rf/simd_eval.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "rf/feature_matrix.hpp"
#include "rf/flat_forest.hpp"
#include "rf/random_forest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads/registry.hpp"

namespace pwu::rf {
namespace {

/// Every tier the dispatcher can actually select on this build + CPU.
std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> levels = {simd::Level::Scalar};
  if (simd::detected_level() >= simd::Level::Avx2) {
    levels.push_back(simd::Level::Avx2);
  }
  return levels;
}

/// RAII override so a failing EXPECT cannot leak a pinned level.
struct LevelGuard {
  explicit LevelGuard(simd::Level level) { simd::set_level_override(level); }
  ~LevelGuard() { simd::clear_level_override(); }
};

TEST(SimdEval, LevelParsingAndDetection) {
  EXPECT_STREQ(simd::level_name(simd::Level::Scalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::Avx2), "avx2");
  EXPECT_EQ(simd::parse_level("avx2"), simd::Level::Avx2);
  EXPECT_EQ(simd::parse_level("scalar"), simd::Level::Scalar);
  EXPECT_FALSE(simd::parse_level("avx512").has_value());
  EXPECT_FALSE(simd::parse_level(nullptr).has_value());
  // The override clamps to what this CPU supports, so active <= detected
  // always holds.
  for (const simd::Level level : available_levels()) {
    LevelGuard guard(level);
    EXPECT_EQ(simd::active_level(), level);
  }
  EXPECT_LE(static_cast<int>(simd::active_level()),
            static_cast<int>(simd::detected_level()));
}

// ---- direct kernel tests on hand-built node tables ------------------------
//
// The kernels see raw FlatNode arrays, so adversarial shapes (single leaf,
// right-spine chains deeper than any fitted tree, threshold extremes) can
// be laid out by hand in BFS order (right child = left + 1) without
// coaxing the fitter into producing them.

TEST(SimdEval, SingleLeafTreeAllTiers) {
  const std::vector<FlatNode> nodes = {{3.25, -1, -1}};
  const std::vector<double> rows(17, 0.0);  // 17 rows x 1 col, odd tail
  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    std::vector<double> out(17, -1.0);
    simd::flat_tree_kernel(level)(nodes.data(), rows.data(), 1, 17,
                                  out.data());
    for (double v : out) EXPECT_EQ(v, 3.25);
  }
}

TEST(SimdEval, DeepRightSpineChainAllTiers) {
  // 40 levels of "feature 0 <= i ? leaf : deeper": a row with value v lands
  // on the leaf for floor(v)+1 (clamped), exercising lanes that finish many
  // levels apart and the full-lane leaf blend.
  constexpr int kDepth = 40;
  std::vector<FlatNode> nodes;
  for (int i = 0; i < kDepth; ++i) {
    FlatNode split;
    split.feature = 0;
    split.payload = static_cast<double>(i);
    split.left = static_cast<std::int32_t>(nodes.size()) + 1;
    nodes.push_back(split);                       // index 2i
    nodes.push_back({100.0 + i, -1, -1});         // left leaf, index 2i+1
    // right child = 2i+2 = the next split (or the final leaf below)
  }
  nodes.push_back({999.0, -1, -1});
  ASSERT_EQ(nodes.size(), 2u * kDepth + 1);
  // BFS indexing fix-up: the loop above built a left-leaning array where
  // right = left + 1 only holds if the next split immediately follows the
  // leaf — which it does: split i at 2i, leaf at 2i+1, split i+1 at 2i+2.
  std::vector<double> rows;
  std::vector<double> expect;
  for (int r = 0; r < 27; ++r) {
    const double v = static_cast<double>(r) - 3.5;  // negatives, .5 offsets
    rows.push_back(v);
    int i = 0;
    while (i < kDepth && !(v <= static_cast<double>(i))) ++i;
    expect.push_back(i < kDepth ? 100.0 + i : 999.0);
  }
  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    std::vector<double> out(rows.size(), -1.0);
    simd::flat_tree_kernel(level)(nodes.data(), rows.data(), 1, rows.size(),
                                  out.data());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(out[r], expect[r]) << "row " << r;
    }
  }
}

TEST(SimdEval, ThresholdExtremesRouteIdenticallyAllTiers) {
  // One split on feature 1 at threshold 0.0; probes hit +-0.0, denormals,
  // +-DBL_MAX, and values on both sides of the boundary. 3-wide rows make
  // the stride gather arithmetic non-trivial.
  const std::vector<FlatNode> nodes = {
      {0.0, 1, 1}, {-1.0, -1, -1}, {+1.0, -1, -1}};
  const std::vector<double> probes = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), 1e-300, -1e-300, 0.5, -0.5};
  std::vector<double> rows;
  for (const double p : probes) {
    rows.push_back(1e9);  // feature 0: must be ignored
    rows.push_back(p);
    rows.push_back(-1e9);
  }
  std::vector<double> reference(probes.size());
  for (std::size_t r = 0; r < probes.size(); ++r) {
    reference[r] = probes[r] <= 0.0 ? -1.0 : +1.0;
  }
  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    std::vector<double> out(probes.size(), 0.0);
    simd::flat_tree_kernel(level)(nodes.data(), rows.data(), 3,
                                  probes.size(), out.data());
    for (std::size_t r = 0; r < probes.size(); ++r) {
      EXPECT_EQ(out[r], reference[r]) << "probe " << probes[r];
    }
  }
}

// ---- fitted forests: every tier == the tree-walk reference ----------------

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

TEST(SimdEval, EveryTierBitExactAcrossAllWorkloadSpaces) {
  util::ThreadPool pool(3);
  for (const auto& name : workloads::all_names()) {
    SCOPED_TRACE(name);
    const auto workload = workloads::make_workload(name);
    util::Rng rng(0x51D + std::hash<std::string>{}(name) % 1000);
    const Dataset train = space_dataset(*workload, 70, rng);

    ForestConfig cfg;
    cfg.num_trees = 11;
    util::Rng fit_rng(17);
    RandomForest forest;
    forest.fit(train, cfg, fit_rng);

    const auto& space = workload->space();
    FeatureMatrix probes = FeatureMatrix::with_capacity(space.num_params(), 90);
    for (std::size_t i = 0; i < 90; ++i) {
      space.write_features(space.random_config(rng), probes.append_row());
    }

    std::vector<PredictionStats> reference(probes.num_rows());
    for (std::size_t i = 0; i < probes.num_rows(); ++i) {
      reference[i] = forest.predict_stats_reference(probes.row(i));
    }
    for (const simd::Level level : available_levels()) {
      SCOPED_TRACE(simd::level_name(level));
      LevelGuard guard(level);
      const auto serial = forest.predict_stats_batch(probes);
      const auto parallel = forest.predict_stats_batch(probes, &pool);
      for (std::size_t i = 0; i < probes.num_rows(); ++i) {
        EXPECT_EQ(serial[i].mean, reference[i].mean);
        EXPECT_EQ(serial[i].variance, reference[i].variance);
        EXPECT_EQ(parallel[i].mean, reference[i].mean);
        EXPECT_EQ(parallel[i].variance, reference[i].variance);
      }
    }
  }
}

}  // namespace
}  // namespace pwu::rf
