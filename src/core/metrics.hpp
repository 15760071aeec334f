// Evaluation metrics (paper Section III-C): top-alpha RMSE over the
// performance ranking (Eq. 2) and cumulative labeling cost CC (Eq. 3).
//
// The accuracy metrics are templates over any model exposing
// `predict_mean_batch(const rf::FeatureMatrix&, util::ThreadPool*)` — the
// random forest or any Surrogate. Each predicts the rows it needs in one
// batched call; non-template helpers reduce the predictions.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "rf/feature_matrix.hpp"
#include "util/statistics.hpp"
#include "util/thread_pool.hpp"
#include "workloads/workload.hpp"

namespace pwu::core {

/// Held-out test set with labels measured up front (paper Section III-C:
/// "the label of every configuration is measured in advance") and its
/// ascending performance ranking (smallest execution time first).
struct TestSet {
  /// One feature row per test configuration, contiguous.
  rf::FeatureMatrix features;
  std::vector<double> labels;
  /// Indices sorted by label ascending (rank 0 = highest performance).
  std::vector<std::size_t> ranking;

  std::size_t size() const { return labels.size(); }
};

/// Builds a TestSet by measuring each configuration `repetitions` times.
TestSet build_test_set(const workloads::Workload& workload,
                       std::span<const space::Configuration> configs,
                       util::Rng& rng, int repetitions = 1);

struct Evaluation {
  std::vector<double> top_alpha_rmse;  // one entry per requested alpha
  double full_rmse = 0.0;
};

namespace detail {
/// Eq. 2 per alpha plus the full RMSE from `predicted[i]` (test row i), read
/// off one running squared-error sum down the ranking. Throws
/// std::invalid_argument on an empty test set or an alpha outside (0, 1].
Evaluation evaluate_predictions(std::span<const double> predicted,
                                const TestSet& test,
                                std::span<const double> alphas);
/// The Eq. 2 prefix (first floor(n * alpha) ranked rows, at least 1) as a
/// test set of its own, in ranking order.
TestSet ranked_prefix(const TestSet& test, double alpha);
}  // namespace detail

/// Predicts the test set once (batched, row blocks on `pool` when given)
/// and scores every alpha and the full RMSE off that one pass.
template <typename Model>
Evaluation evaluate(const Model& model, const TestSet& test,
                    std::span<const double> alphas,
                    util::ThreadPool* pool = nullptr) {
  return detail::evaluate_predictions(
      model.predict_mean_batch(test.features, pool), test, alphas);
}

/// RMSE over the entire test set.
template <typename Model>
double full_rmse(const Model& model, const TestSet& test) {
  return evaluate(model, test, {}).full_rmse;
}

/// Eq. 2: RMSE of the model over the top floor(n * alpha) samples of the
/// *true* performance ranking (at least 1 sample); predicts only those.
template <typename Model>
double top_alpha_rmse(const Model& model, const TestSet& test, double alpha) {
  return full_rmse(model, detail::ranked_prefix(test, alpha));
}

/// Rank fidelity of the model over the whole test set (Kendall tau between
/// true and predicted times) — a supplementary metric beyond the paper.
template <typename Model>
double ranking_tau(const Model& model, const TestSet& test) {
  return util::kendall_tau(test.labels,
                           model.predict_mean_batch(test.features, nullptr));
}

/// Eq. 3: cumulative cost of a sequence of measured execution times.
double cumulative_cost(std::span<const double> labels);

}  // namespace pwu::core
