#include "rf/split.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pwu::rf {

bool Split::goes_left(double value) const {
  if (categorical) {
    const auto level = static_cast<std::uint64_t>(std::llround(value));
    if (level >= 64) return false;
    return (left_mask >> level) & 1ULL;
  }
  return value <= threshold;
}

namespace {

// Threshold scan over a node's samples presented in ascending feature
// order. keys[i] orders like the i-th feature value (equal keys, equal
// values: a level code, or the value itself), labels[i] is its label, and
// value_at(i) reads the value, only where a threshold is placed.
template <typename Key, typename ValueAt>
Split scan_numerical(std::span<const Key> keys, const double* labels,
                     ValueAt&& value_at, std::size_t feature,
                     double total_sum, double parent_score,
                     std::size_t min_samples_leaf) {
  const std::size_t n = keys.size();
  Split best;
  double left_sum = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    left_sum += labels[i];
    // Only cut between distinct feature values.
    if (keys[i] == keys[i + 1]) continue;
    const std::size_t n_left = i + 1;
    const std::size_t n_right = n - n_left;
    if (n_left < min_samples_leaf || n_right < min_samples_leaf) continue;
    const double right_sum = total_sum - left_sum;
    const double score =
        left_sum * left_sum / static_cast<double>(n_left) +
        right_sum * right_sum / static_cast<double>(n_right);
    const double gain = score - parent_score;
    if (gain > best.gain) {
      best.feature = static_cast<int>(feature);
      best.categorical = false;
      // Midpoint threshold is robust to evaluation-time values between the
      // two training values.
      best.threshold = 0.5 * (value_at(i) + value_at(i + 1));
      best.gain = gain;
    }
  }
  return best;
}

// Breiman's optimal-grouping scan over a node's n samples presented in
// ascending level order (any fixed order yields the same grouping; the
// sorted stream keeps per-level sums bit-identical across all paths).
template <typename ValueAt>
Split scan_categorical(std::size_t n, const double* labels, ValueAt&& value_at,
                       std::size_t levels, std::size_t feature,
                       double parent_score, std::size_t min_samples_leaf,
                       SplitWorkspace& ws) {
  auto& sum = ws.cat_sum;
  auto& count = ws.cat_count;
  auto& order = ws.cat_order;
  sum.assign(levels, 0.0);
  count.assign(levels, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto level = static_cast<std::size_t>(std::llround(value_at(i)));
    sum[level] += labels[i];
    ++count[level];
  }

  order.clear();
  for (std::size_t level = 0; level < levels; ++level) {
    if (count[level] > 0) order.push_back(level);
  }
  if (order.size() < 2) return {};  // feature is constant on this node

  // For squared error, the optimal binary grouping is a prefix of the
  // levels ordered by mean label.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sum[a] / static_cast<double>(count[a]) <
           sum[b] / static_cast<double>(count[b]);
  });

  double total_sum = 0.0;
  std::size_t total_count = 0;
  for (std::size_t level : order) {
    total_sum += sum[level];
    total_count += count[level];
  }

  Split best;
  double left_sum = 0.0;
  std::size_t left_count = 0;
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    left_sum += sum[order[i]];
    left_count += count[order[i]];
    mask |= 1ULL << order[i];
    const std::size_t right_count = total_count - left_count;
    if (left_count < min_samples_leaf || right_count < min_samples_leaf) {
      continue;
    }
    const double right_sum = total_sum - left_sum;
    const double score =
        left_sum * left_sum / static_cast<double>(left_count) +
        right_sum * right_sum / static_cast<double>(right_count);
    const double gain = score - parent_score;
    if (gain > best.gain) {
      best.feature = static_cast<int>(feature);
      best.categorical = true;
      best.left_mask = mask;
      best.gain = gain;
    }
  }
  return best;
}

template <typename Key, typename ValueAt>
Split scan_sorted(const Dataset& data, SplitWorkspace& ws,
                  std::span<const Key> keys, const double* labels,
                  ValueAt&& value_at, std::size_t feature, double total_sum,
                  double parent_score, std::size_t min_samples_leaf) {
  if (data.is_categorical(feature)) {
    return scan_categorical(keys.size(), labels, value_at,
                            data.cardinality(feature), feature, parent_score,
                            min_samples_leaf, ws);
  }
  return scan_numerical(keys, labels, value_at, feature, total_sum,
                        parent_score, min_samples_leaf);
}

// Stable partition of ids[lo, hi) by left_mark: lefts are written forward
// in place (the write cursor never passes the read cursor), rights are
// stashed in scratch and copied back after them.
void stable_split(SplitWorkspace& ws, std::uint32_t* ids, std::size_t lo,
                  std::size_t hi, std::size_t mid) {
  std::size_t w = lo;
  std::size_t t = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::uint32_t inst = ids[i];
    if (ws.left_mark[inst]) {
      ids[w++] = inst;
    } else {
      ws.tmp_idx[t++] = inst;
    }
  }
  std::copy_n(ws.tmp_idx.data(), t, ids + mid);
}

}  // namespace

void SortedColumns::build(const Dataset& data) {
  const std::size_t n = data.size();
  const std::size_t d = data.num_features();
  num_rows = n;
  code.resize(d * n);
  num_codes.assign(d, 0);
  std::vector<std::pair<double, std::uint32_t>> keyed(n);
  for (std::size_t f = 0; f < d; ++f) {
    for (std::size_t r = 0; r < n; ++r) {
      keyed[r] = {data.x(r, f), static_cast<std::uint32_t>(r)};
    }
    std::sort(keyed.begin(), keyed.end());
    std::uint32_t* col = code.data() + f * n;
    std::uint32_t rank = 0;
    for (std::size_t i = 0; i < n; ++i) {
      // Equal values (including -0.0 and +0.0) share a rank.
      if (i > 0 && keyed[i - 1].first < keyed[i].first) ++rank;
      col[keyed[i].second] = rank;
    }
    num_codes[f] = n == 0 ? 0 : rank + 1;
  }
}

void SplitWorkspace::init(const Dataset& data,
                          std::span<const std::size_t> indices) {
  const std::size_t m = indices.size();
  inst_row.resize(m);
  inst_label.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    inst_row[j] = static_cast<std::uint32_t>(indices[j]);
    inst_label[j] = data.y(indices[j]);
  }
  node_insts.resize(m);
  std::iota(node_insts.begin(), node_insts.end(), std::uint32_t{0});

  // Counting sort on row id; instances enter in ascending id, so ties keep
  // (row id, instance id) order.
  counts.assign(data.size() + 1, 0);
  for (std::size_t j = 0; j < m; ++j) ++counts[inst_row[j] + 1];
  std::partial_sum(counts.begin(), counts.end(), counts.begin());
  row_insts.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    row_insts[counts[inst_row[j]]++] = static_cast<std::uint32_t>(j);
  }

  left_mark.assign(m, 0);
  tmp_idx.resize(m);
  keys.resize(m);
  scan_code.resize(m);
  scan_inst.resize(m);
  scan_labels.resize(m);
}

Split best_split_coded(const Dataset& data, const SortedColumns& codes,
                       SplitWorkspace& ws, std::size_t lo, std::size_t hi,
                       std::size_t feature, double node_sum,
                       double parent_score, std::size_t min_samples_leaf) {
  const std::size_t k = hi - lo;
  if (k < 2) return {};
  const std::uint32_t* col = codes.code.data() + feature * codes.num_rows;
  const std::size_t num_codes = codes.num_codes[feature];
  const std::uint32_t* insts = ws.row_insts.data() + lo;
  const std::uint32_t* inst_row = ws.inst_row.data();
  const double* inst_label = ws.inst_label.data();
  std::uint32_t* scan_code = ws.scan_code.data();
  std::uint32_t* scan_inst = ws.scan_inst.data();
  double* scan_labels = ws.scan_labels.data();

  if (num_codes <= SplitWorkspace::kCountingFactor * k) {
    // Stable counting sort by code: insts is in (row id, instance id)
    // order, so the output is in (code, row id, instance id) order.
    auto& counts = ws.counts;
    counts.assign(num_codes + 1, 0);
    for (std::size_t i = 0; i < k; ++i) ++counts[col[inst_row[insts[i]]] + 1];
    std::partial_sum(counts.begin(), counts.end(), counts.begin());
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t inst = insts[i];
      const std::uint32_t c = col[inst_row[inst]];
      const std::uint32_t dst = counts[c]++;
      scan_code[dst] = c;
      scan_inst[dst] = inst;
      scan_labels[dst] = inst_label[inst];
    }
  } else {
    // Many codes, few instances: sort packed (code, position) keys; the
    // position breaks ties in (row id, instance id) order.
    std::uint64_t* keys = ws.keys.data();
    for (std::size_t i = 0; i < k; ++i) {
      keys[i] = (static_cast<std::uint64_t>(col[inst_row[insts[i]]]) << 32) | i;
    }
    std::sort(keys, keys + k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::uint32_t inst = insts[keys[i] & 0xffffffffu];
      scan_code[i] = static_cast<std::uint32_t>(keys[i] >> 32);
      scan_inst[i] = inst;
      scan_labels[i] = inst_label[inst];
    }
  }
  return scan_sorted(
      data, ws, std::span<const std::uint32_t>(scan_code, k), scan_labels,
      [&](std::size_t i) { return data.x(inst_row[scan_inst[i]], feature); },
      feature, node_sum, parent_score, min_samples_leaf);
}

std::size_t partition_node(const Dataset& data, SplitWorkspace& ws,
                           std::size_t lo, std::size_t hi,
                           const Split& split) {
  const auto feature = static_cast<std::size_t>(split.feature);
  std::size_t n_left = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const std::uint32_t inst = ws.node_insts[i];
    const bool left = split.goes_left(data.x(ws.inst_row[inst], feature));
    ws.left_mark[inst] = left ? 1 : 0;
    n_left += left ? 1u : 0u;
  }
  const std::size_t mid = lo + n_left;
  if (mid == lo || mid == hi) return mid;  // degenerate; caller keeps a leaf
  stable_split(ws, ws.node_insts.data(), lo, hi, mid);
  stable_split(ws, ws.row_insts.data(), lo, hi, mid);
  return mid;
}

Split best_split_on_feature(const Dataset& data,
                            std::span<const std::size_t> indices,
                            std::size_t feature, double parent_score,
                            std::size_t min_samples_leaf,
                            SplitWorkspace& workspace) {
  const std::size_t n = indices.size();
  if (n < 2) return {};
  auto& gather = workspace.gather;
  gather.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    gather[i] = {data.x(indices[i], feature), i};
  }
  std::sort(gather.begin(), gather.end());
  workspace.tmp_val.resize(std::max(workspace.tmp_val.size(), n));
  workspace.scan_labels.resize(std::max(workspace.scan_labels.size(), n));
  double total_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    workspace.tmp_val[i] = gather[i].first;
    workspace.scan_labels[i] = data.y(indices[gather[i].second]);
    total_sum += workspace.scan_labels[i];
  }
  const double* values = workspace.tmp_val.data();
  return scan_sorted(
      data, workspace, std::span<const double>(values, n),
      workspace.scan_labels.data(),
      [values](std::size_t i) { return values[i]; }, feature, total_sum,
      parent_score, min_samples_leaf);
}

}  // namespace pwu::rf
