// CART regression tree with per-node random feature subspace (the second
// randomness source of Breiman's random forest).

#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <vector>

#include "rf/dataset.hpp"
#include "rf/split.hpp"
#include "util/rng.hpp"

namespace pwu::rf {

struct TreeConfig {
  /// 0 = unlimited depth.
  std::size_t max_depth = 0;
  std::size_t min_samples_leaf = 1;
  std::size_t min_samples_split = 2;
  /// Features tried per node; 0 = max(1, num_features / 3), the standard
  /// regression-forest default.
  std::size_t mtry = 0;

  std::size_t resolve_mtry(std::size_t num_features) const;
};

class DecisionTree {
 public:
  struct Node {
    Split split;        // invalid split => leaf
    double value = 0.0; // leaf prediction (mean label)
    std::int32_t left = -1;
    std::int32_t right = -1;
    bool is_leaf() const { return !split.valid(); }
    bool operator==(const Node& other) const = default;
  };

  /// Fits the tree to the samples referenced by `indices` (typically a
  /// bootstrap resample). `indices` is consumed (reordered in place).
  /// `codes` are the forest-level level codes of `data`; when null the
  /// tree builds its own (they only pay for themselves when shared across
  /// an ensemble).
  void fit(const Dataset& data, std::vector<std::size_t> indices,
           const TreeConfig& config, util::Rng& rng,
           const SortedColumns* codes = nullptr);

  /// Mean label of the leaf that `row` falls into.
  double predict(std::span<const double> row) const;

  bool fitted() const { return !nodes_.empty(); }
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_leaves() const;
  std::size_t depth() const;

  /// Writes the node table as text (round-trip exact: doubles are emitted
  /// with full precision).
  void save(std::ostream& os) const;
  /// Reads a node table written by save(); throws std::runtime_error on a
  /// malformed stream.
  void load(std::istream& is);

  bool operator==(const DecisionTree& other) const;

  /// Read-only node table (node 0 is the root) — what FlatForest compiles
  /// into its contiguous evaluation layout.
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Resident heap footprint of the node table.
  std::size_t memory_bytes() const { return nodes_.capacity() * sizeof(Node); }

 private:
  /// Recursively builds the subtree over instances [lo, hi) of the
  /// workspace. Returns the node id.
  std::int32_t build(const Dataset& data, const SortedColumns& codes,
                     std::size_t lo, std::size_t hi, std::size_t depth,
                     const TreeConfig& config, util::Rng& rng,
                     SplitWorkspace& workspace,
                     std::vector<std::size_t>& feature_scratch);

  std::size_t depth_of(std::int32_t node) const;

  std::vector<Node> nodes_;
};

}  // namespace pwu::rf
