// Best-split search for regression trees (variance-reduction criterion).
//
// Numerical features: scan the node's samples in ascending feature order and
// try all thresholds between distinct values, maximizing
//     sum_L^2 / n_L + sum_R^2 / n_R
// which is equivalent to minimizing within-child squared error.
//
// Categorical features: Breiman's optimal-grouping device for regression —
// order the levels by their mean label, then scan prefixes of that order as
// the left set. The left set is stored as a 64-bit level mask.
//
// The scan order is (value, dataset row id, instance id). Node searches read
// it from per-forest level codes: SortedColumns ranks each column's distinct
// values once per forest, and SplitWorkspace keeps every node's instances in
// (row id, instance id) order, so ordering a node by code is enough:
//  - few codes (num_codes <= 16 * node size): a stable counting sort by
//    code, O(node size + num_codes);
//  - many codes (continuous features in small nodes): std::sort of packed
//    (code, position) keys.
// best_split_on_feature sorts (value, position) pairs on the spot instead and
// serves as the oracle. All paths yield the same scan sequence, and
// therefore bit-identical sums, gains and trees.

#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rf/dataset.hpp"

namespace pwu::rf {

struct Split {
  int feature = -1;             // -1 = no valid split found
  bool categorical = false;
  double threshold = 0.0;       // numerical: go left iff x <= threshold
  std::uint64_t left_mask = 0;  // categorical: go left iff bit(level) set
  double gain = 0.0;            // decrease in total squared error

  bool valid() const { return feature >= 0; }

  /// Routing decision for a feature value of this split's feature.
  bool goes_left(double value) const;

  bool operator==(const Split& other) const = default;
};

/// Per-forest level codes: each row's dense rank among its column's
/// distinct values (equal values share a code), built by one sort per
/// column. Read-only after build, so every tree shares one instance across
/// threads.
struct SortedColumns {
  std::size_t num_rows = 0;
  /// code[f*num_rows + row] is the rank of data.x(row, f).
  std::vector<std::uint32_t> code;
  /// Distinct values per feature.
  std::vector<std::uint32_t> num_codes;

  void build(const Dataset& data);
};

/// Per-tree node partition plus the scratch buffers reused across split
/// searches. One instance per tree build; nothing is allocated per node.
struct SplitWorkspace {
  /// A node of k instances orders a feature by counting sort when the
  /// feature has at most kCountingFactor * k codes, else by std::sort.
  static constexpr std::size_t kCountingFactor = 16;

  std::vector<std::uint32_t> inst_row;  // instance -> dataset row
  std::vector<double> inst_label;       // instance -> label
  /// Every node owns the same range [lo, hi) of both arrays: node_insts
  /// holds its instances in instance-id order (node sums run in this
  /// order), row_insts in (row id, instance id) order.
  std::vector<std::uint32_t> node_insts;
  std::vector<std::uint32_t> row_insts;

  // ---- scratch ----
  std::vector<char> left_mark;          // instance -> side
  std::vector<std::uint32_t> tmp_idx;   // partition scratch
  std::vector<std::uint32_t> counts;    // counting-sort histogram
  std::vector<std::uint64_t> keys;      // packed (code, position) sort keys
  std::vector<std::uint32_t> scan_code;  // node's codes in scan order
  std::vector<std::uint32_t> scan_inst;  // ... and their instances
  std::vector<double> scan_labels;       // ... and their labels
  std::vector<std::pair<double, std::size_t>> gather;  // oracle sort
  std::vector<double> tmp_val;                          // oracle values
  std::vector<double> cat_sum;
  std::vector<std::size_t> cat_count;
  std::vector<std::size_t> cat_order;

  /// Sets up the instance multiset `indices` (one dataset row per
  /// instance, repeats allowed) as the root range: O(m + n).
  void init(const Dataset& data, std::span<const std::size_t> indices);
};

/// Finds the best split of the node range [lo, hi) on `feature`.
/// `node_sum` is the node's label sum and `parent_score` its sum(y)^2/n;
/// gains are relative to the latter. Returns an invalid split when no
/// threshold satisfies `min_samples_leaf`.
Split best_split_coded(const Dataset& data, const SortedColumns& codes,
                       SplitWorkspace& ws, std::size_t lo, std::size_t hi,
                       std::size_t feature, double node_sum,
                       double parent_score, std::size_t min_samples_leaf);

/// Stable-partitions the node range [lo, hi) of both instance orders by
/// `split` and returns the boundary: left = [lo, mid).
std::size_t partition_node(const Dataset& data, SplitWorkspace& ws,
                           std::size_t lo, std::size_t hi, const Split& split);

/// Standalone best-split search over dataset rows `indices`, sorting
/// (value, position) pairs on the spot; ties order by position in
/// `indices`. The oracle for best_split_coded.
Split best_split_on_feature(const Dataset& data,
                            std::span<const std::size_t> indices,
                            std::size_t feature, double parent_score,
                            std::size_t min_samples_leaf,
                            SplitWorkspace& workspace);

}  // namespace pwu::rf
