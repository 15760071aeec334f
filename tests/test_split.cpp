#include "rf/split.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "util/rng.hpp"

namespace pwu::rf {
namespace {

std::vector<std::size_t> all_indices(const Dataset& d) {
  std::vector<std::size_t> idx(d.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return idx;
}

double parent_score(const Dataset& d) {
  double sum = 0.0;
  for (std::size_t i = 0; i < d.size(); ++i) sum += d.y(i);
  return sum * sum / static_cast<double>(d.size());
}

TEST(Split, FindsPerfectNumericalThreshold) {
  // Labels are 0 below x=10, 100 above: the best split must cut between
  // 4 and 16 with maximal gain.
  Dataset d(1);
  for (double x : {1.0, 2.0, 3.0, 4.0}) d.add(std::vector<double>{x}, 0.0);
  for (double x : {16.0, 17.0, 18.0, 19.0}) {
    d.add(std::vector<double>{x}, 100.0);
  }
  SplitWorkspace ws;
  const Split s =
      best_split_on_feature(d, all_indices(d), 0, parent_score(d), 1, ws);
  ASSERT_TRUE(s.valid());
  EXPECT_FALSE(s.categorical);
  EXPECT_GT(s.threshold, 4.0);
  EXPECT_LT(s.threshold, 16.0);
  EXPECT_GT(s.gain, 0.0);
  EXPECT_TRUE(s.goes_left(4.0));
  EXPECT_FALSE(s.goes_left(16.0));
}

TEST(Split, MidpointThresholdBetweenDistinctValues) {
  Dataset d(1);
  d.add(std::vector<double>{2.0}, 0.0);
  d.add(std::vector<double>{6.0}, 10.0);
  SplitWorkspace ws;
  const Split s =
      best_split_on_feature(d, all_indices(d), 0, parent_score(d), 1, ws);
  ASSERT_TRUE(s.valid());
  EXPECT_DOUBLE_EQ(s.threshold, 4.0);
}

TEST(Split, ConstantFeatureYieldsNoSplit) {
  Dataset d(1);
  for (double y : {1.0, 2.0, 3.0}) d.add(std::vector<double>{5.0}, y);
  SplitWorkspace ws;
  const Split s =
      best_split_on_feature(d, all_indices(d), 0, parent_score(d), 1, ws);
  EXPECT_FALSE(s.valid());
}

TEST(Split, RespectsMinSamplesLeaf) {
  // 1 sample vs 9 samples: with min_samples_leaf = 2 the lone outlier must
  // not be split off alone.
  Dataset d(1);
  d.add(std::vector<double>{0.0}, 100.0);
  for (int i = 1; i <= 9; ++i) {
    d.add(std::vector<double>{static_cast<double>(i * 10)}, 0.0);
  }
  SplitWorkspace ws;
  const Split s =
      best_split_on_feature(d, all_indices(d), 0, parent_score(d), 2, ws);
  if (s.valid()) {
    // Whatever split was chosen, both sides must hold >= 2 samples.
    std::size_t left = 0;
    for (std::size_t i = 0; i < d.size(); ++i) {
      if (s.goes_left(d.x(i, 0))) ++left;
    }
    EXPECT_GE(left, 2u);
    EXPECT_GE(d.size() - left, 2u);
  }
}

TEST(Split, CategoricalGroupsByMeanLabel) {
  // Levels {0, 2} are fast, {1, 3} are slow: Breiman's ordering must
  // recover the grouping regardless of level ids.
  Dataset d(1, {true}, {4});
  for (int rep = 0; rep < 3; ++rep) {
    d.add(std::vector<double>{0.0}, 1.0);
    d.add(std::vector<double>{2.0}, 1.1);
    d.add(std::vector<double>{1.0}, 10.0);
    d.add(std::vector<double>{3.0}, 10.2);
  }
  SplitWorkspace ws;
  const Split s =
      best_split_on_feature(d, all_indices(d), 0, parent_score(d), 1, ws);
  ASSERT_TRUE(s.valid());
  EXPECT_TRUE(s.categorical);
  const bool fast_left = s.goes_left(0.0);
  EXPECT_EQ(s.goes_left(2.0), fast_left);
  EXPECT_EQ(s.goes_left(1.0), !fast_left);
  EXPECT_EQ(s.goes_left(3.0), !fast_left);
}

TEST(Split, CategoricalUnseenLevelGoesRight) {
  Dataset d(1, {true}, {8});
  for (int rep = 0; rep < 2; ++rep) {
    d.add(std::vector<double>{0.0}, 1.0);
    d.add(std::vector<double>{1.0}, 9.0);
  }
  SplitWorkspace ws;
  const Split s =
      best_split_on_feature(d, all_indices(d), 0, parent_score(d), 1, ws);
  ASSERT_TRUE(s.valid());
  EXPECT_FALSE(s.goes_left(7.0));  // level 7 never observed
}

TEST(Split, CategoricalSingleLevelNoSplit) {
  Dataset d(1, {true}, {4});
  for (double y : {1.0, 2.0}) d.add(std::vector<double>{2.0}, y);
  SplitWorkspace ws;
  const Split s =
      best_split_on_feature(d, all_indices(d), 0, parent_score(d), 1, ws);
  EXPECT_FALSE(s.valid());
}

TEST(Split, TooFewSamplesNoSplit) {
  Dataset d(1);
  d.add(std::vector<double>{1.0}, 1.0);
  SplitWorkspace ws;
  const Split s =
      best_split_on_feature(d, all_indices(d), 0, parent_score(d), 1, ws);
  EXPECT_FALSE(s.valid());
}

TEST(Split, GainMatchesVarianceReduction) {
  // Perfect binary separation: gain must equal the full between-group
  // sum-of-squares difference. parent = (sum)^2/n; children scores
  // sum_L^2/n_L + sum_R^2/n_R.
  Dataset d(1);
  d.add(std::vector<double>{0.0}, 2.0);
  d.add(std::vector<double>{0.0}, 2.0);
  d.add(std::vector<double>{1.0}, 8.0);
  d.add(std::vector<double>{1.0}, 8.0);
  SplitWorkspace ws;
  const double parent = parent_score(d);  // 20^2/4 = 100
  const Split s = best_split_on_feature(d, all_indices(d), 0, parent, 1, ws);
  ASSERT_TRUE(s.valid());
  // Children: 4^2/2 + 16^2/2 = 8 + 128 = 136; gain = 36.
  EXPECT_NEAR(s.gain, 36.0, 1e-9);
}

// ---- coded node search vs the best_split_on_feature oracle ----------------
//
// Node ranges hold sorted instance multisets, so the oracle's position tie
// order over the node's rows is the coded search's (row id, instance id)
// order. Both searches get the node sum taken in scan order, the oracle's
// own total, so whole Splits compare with EXPECT_EQ.

/// Feature 0 takes `distinct` values (row r gets level r % distinct, so
/// every value is present once rows >= distinct); feature 1 is constant.
Dataset coded_data(std::size_t rows, std::size_t distinct, bool categorical,
                   util::Rng& rng) {
  Dataset d(2, {categorical, false},
            {categorical ? distinct : std::size_t{0}, 0});
  for (std::size_t r = 0; r < rows; ++r) {
    const auto level = static_cast<double>(r % distinct);
    d.add(std::vector<double>{categorical ? level : 0.25 * level - 3.0, 7.0},
          rng.uniform(0.0, 20.0));
  }
  return d;
}

std::vector<std::size_t> sorted_multiset(std::size_t k, std::size_t rows,
                                         util::Rng& rng) {
  std::vector<std::size_t> idx(k);
  for (auto& i : idx) i = rng.index(rows);
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// Searches the node range [lo, hi) with both the coded search and the
/// oracle over the node's rows; returns the coded split.
Split expect_node_matches_oracle(const Dataset& d, const SortedColumns& codes,
                                 SplitWorkspace& ws, std::size_t lo,
                                 std::size_t hi, std::size_t feature,
                                 std::size_t min_leaf) {
  std::vector<std::size_t> rows;
  for (std::size_t i = lo; i < hi; ++i) {
    rows.push_back(ws.inst_row[ws.row_insts[i]]);
  }
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  std::vector<std::size_t> scan(rows.size());
  std::iota(scan.begin(), scan.end(), std::size_t{0});
  std::stable_sort(scan.begin(), scan.end(), [&](std::size_t a, std::size_t b) {
    return d.x(rows[a], feature) < d.x(rows[b], feature);
  });
  double sum = 0.0;
  for (std::size_t p : scan) sum += d.y(rows[p]);
  const double parent = sum * sum / static_cast<double>(rows.size());
  const Split coded = best_split_coded(d, codes, ws, lo, hi, feature, sum,
                                       parent, min_leaf);
  SplitWorkspace oracle_ws;
  EXPECT_EQ(coded, best_split_on_feature(d, rows, feature, parent, min_leaf,
                                         oracle_ws));
  return coded;
}

/// Checks the root search of `k` sampled instances on feature 0;
/// `expect_counting` pins which side of the crossover runs.
void expect_root_matches_oracle(std::size_t rows, std::size_t distinct,
                                bool categorical, std::size_t k,
                                std::size_t min_leaf, bool expect_counting) {
  SCOPED_TRACE(testing::Message() << "rows " << rows << " distinct "
                                  << distinct << " k " << k << " leaf "
                                  << min_leaf);
  util::Rng rng(rows * 131 + distinct * 7 + k);
  const Dataset d = coded_data(rows, distinct, categorical, rng);
  const auto indices = sorted_multiset(k, rows, rng);
  SortedColumns codes;
  codes.build(d);
  ASSERT_EQ(codes.num_codes[0], std::min(rows, distinct));
  ASSERT_EQ(codes.num_codes[0] <= SplitWorkspace::kCountingFactor * k,
            expect_counting);
  SplitWorkspace ws;
  ws.init(d, indices);
  const Split s = expect_node_matches_oracle(d, codes, ws, 0, k, 0, min_leaf);
  EXPECT_EQ(s.categorical, categorical && s.valid());
}

TEST(SplitCoded, FewCodesCountingSortMatchesOracle) {
  for (std::size_t leaf : {1, 3}) {
    expect_root_matches_oracle(300, 3, false, 200, leaf, true);
    expect_root_matches_oracle(300, 7, false, 40, leaf, true);
  }
}

TEST(SplitCoded, CrossoverBoundaryMatchesOracle) {
  // L = 16k is the last counting-sort case, L = 16k + 1 the first sort.
  for (std::size_t leaf : {1, 3}) {
    for (std::size_t k : {4, 9}) {
      const std::size_t at = SplitWorkspace::kCountingFactor * k;
      expect_root_matches_oracle(at, at, false, k, leaf, true);
      expect_root_matches_oracle(at + 1, at + 1, false, k, leaf, false);
    }
  }
}

TEST(SplitCoded, TiesAcrossRowsKeepRowOrderOnBothPaths) {
  // Rows r, r + 200, ..., r + 1000 share a value. In each tie group the
  // first row's label is an integer and the others are 2^-53: added in
  // row order the small ones round away, added first they do not, so only
  // the (row id, instance id) tie order reproduces the oracle's sums.
  Dataset d(1);
  for (std::size_t r = 0; r < 1200; ++r) {
    d.add(std::vector<double>{static_cast<double>(r % 200)},
          r < 200 ? static_cast<double>(1 + 2 * r) : 0x1p-53);
  }
  SortedColumns codes;
  codes.build(d);
  ASSERT_EQ(codes.num_codes[0], 200u);
  std::vector<std::size_t> indices;
  for (std::size_t r = 0; r < 1200; r += 200) {
    indices.push_back(r);
    indices.push_back(r + 1);
  }
  for (const std::size_t k : {12, 13}) {
    // k = 12: 200 > 16 * 12 takes std::sort; k = 13 the counting sort.
    ASSERT_EQ(200 <= SplitWorkspace::kCountingFactor * k, k == 13);
    if (k == 13) indices.push_back(0);  // a bootstrap repeat of row 0
    std::sort(indices.begin(), indices.end());
    SplitWorkspace ws;
    ws.init(d, indices);
    const Split s = expect_node_matches_oracle(d, codes, ws, 0, k, 0, 1);
    EXPECT_TRUE(s.valid());
  }
}

TEST(SplitCoded, CategoricalOnBothPathsMatchesOracle) {
  for (std::size_t leaf : {1, 2}) {
    expect_root_matches_oracle(200, 6, true, 50, leaf, true);
    // 64 levels over 3 instances: 64 > 16 * 3 takes the sort path.
    expect_root_matches_oracle(64, 64, true, 3, leaf, false);
    expect_root_matches_oracle(64, 64, true, 12, leaf, true);
  }
}

TEST(SplitCoded, ConstantFeatureYieldsNoSplit) {
  util::Rng rng(3);
  const Dataset d = coded_data(50, 5, false, rng);
  const auto indices = sorted_multiset(30, 50, rng);
  SortedColumns codes;
  codes.build(d);
  ASSERT_EQ(codes.num_codes[1], 1u);
  SplitWorkspace ws;
  ws.init(d, indices);
  EXPECT_FALSE(expect_node_matches_oracle(d, codes, ws, 0, 30, 1, 1).valid());
}

/// Checks every node of a tree grown by partition_node down to leaves.
void expect_subtree_matches_oracle(const Dataset& d,
                                   const SortedColumns& codes,
                                   SplitWorkspace& ws, std::size_t lo,
                                   std::size_t hi) {
  if (hi - lo < 2) return;
  Split best;
  for (std::size_t f = 0; f < d.num_features(); ++f) {
    const Split s = expect_node_matches_oracle(d, codes, ws, lo, hi, f, 2);
    if (s.valid() && s.gain > best.gain) best = s;
  }
  if (!best.valid()) return;
  const std::size_t mid = partition_node(d, ws, lo, hi, best);
  if (mid == lo || mid == hi) return;
  expect_subtree_matches_oracle(d, codes, ws, lo, mid);
  expect_subtree_matches_oracle(d, codes, ws, mid, hi);
}

TEST(SplitCoded, EveryNodeAfterPartitionMatchesOracle) {
  // Child ranges must keep searching like the oracle over the child's own
  // rows: the 400-value feature crosses from counting sort (large nodes)
  // to std::sort (nodes under 25 instances) on the way down.
  util::Rng rng(11);
  const std::size_t rows = 400;
  Dataset d(2);
  for (std::size_t r = 0; r < rows; ++r) {
    d.add(std::vector<double>{static_cast<double>(rng.index(5)),
                              rng.uniform(0.0, 1.0)},
          rng.uniform(0.0, 20.0));
  }
  const auto indices = sorted_multiset(rows, rows, rng);
  SortedColumns codes;
  codes.build(d);
  SplitWorkspace ws;
  ws.init(d, indices);
  expect_subtree_matches_oracle(d, codes, ws, 0, rows);
}

TEST(Split, InvalidSplitRoutingDefaults) {
  const Split s;
  EXPECT_FALSE(s.valid());
  EXPECT_EQ(s.feature, -1);
}

TEST(Split, CategoricalMaskRoutingAboveRangeIsRight) {
  Split s;
  s.feature = 0;
  s.categorical = true;
  s.left_mask = 0b101;
  EXPECT_TRUE(s.goes_left(0.0));
  EXPECT_FALSE(s.goes_left(1.0));
  EXPECT_TRUE(s.goes_left(2.0));
  EXPECT_FALSE(s.goes_left(100.0));  // out-of-mask level
}

}  // namespace
}  // namespace pwu::rf
