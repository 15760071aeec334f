#include "core/tuner.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/contracts.hpp"

namespace pwu::core {

TuningTrace tune_with_annotator(
    const workloads::Workload& workload,
    std::span<const space::Configuration> candidates,
    const TunerConfig& config, util::Rng& rng PWU_RNG_STREAM(tuner),
    const std::function<double(const space::Configuration&)>& annotate) {
  if (candidates.size() < config.n_init + config.iterations) {
    throw std::invalid_argument(
        "tune_with_annotator: candidate set smaller than the tuning budget");
  }
  const auto& param_space = workload.space();
  rf::Dataset train(param_space.num_params(), param_space.categorical_mask(),
                    param_space.cardinalities());
  // Encoded once; every iteration scores the whole set in one batch.
  rf::FeatureMatrix features = rf::FeatureMatrix::with_capacity(
      param_space.num_params(), candidates.size());
  for (const auto& candidate : candidates) {
    param_space.write_features(candidate, features.append_row());
  }

  std::vector<char> evaluated(candidates.size(), 0);
  TuningTrace trace;
  double best = std::numeric_limits<double>::infinity();

  auto commit = [&](std::size_t idx) {
    evaluated[idx] = 1;
    const double label = annotate(candidates[idx]);
    train.add(features.row(idx), label);
    // Score against ground truth (noiseless model time).
    const double true_time = workload.base_time(candidates[idx]);
    if (true_time < best) {
      best = true_time;
      trace.best_config = candidates[idx];
    }
    trace.best_true_time.push_back(best);
  };

  for (std::size_t idx :
       rng.sample_without_replacement(candidates.size(), config.n_init)) {
    commit(idx);
  }

  rf::RandomForest model;
  for (std::size_t it = 0; it < config.iterations; ++it) {
    model.fit(train, config.forest, rng);
    const std::vector<rf::PredictionStats> stats =
        model.predict_stats_batch(features);
    double best_pred = std::numeric_limits<double>::infinity();
    std::size_t best_idx = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (!evaluated[i] && stats[i].mean < best_pred) {
        best_pred = stats[i].mean;
        best_idx = i;
      }
    }
    if (best_idx == candidates.size()) break;  // pool exhausted
    commit(best_idx);
  }
  return trace;
}

TuningTrace tune_direct(const workloads::Workload& workload,
                        std::span<const space::Configuration> candidates,
                        const TunerConfig& config, util::Rng& rng) {
  return tune_with_annotator(
      workload, candidates, config, rng,
      [&](const space::Configuration& c) { return workload.evaluate(c, rng); });
}

}  // namespace pwu::core
