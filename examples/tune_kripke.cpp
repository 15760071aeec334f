// Tuning a parallel application: model kripke's 2304-point configuration
// space with a fraction of the evaluations, then inspect which parameters
// matter via permutation importance.
//
//   $ ./tune_kripke [budget=80]

#include <cstdlib>
#include <iostream>

#include "core/active_learner.hpp"
#include "space/pool.hpp"
#include "util/statistics.hpp"
#include "util/table.hpp"
#include "workloads/kripke_model.hpp"

int main(int argc, char** argv) {
  using namespace pwu;
  const std::size_t budget =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 80;

  const auto kripke = workloads::make_kripke();
  const auto& space = kripke->space();
  std::cout << "kripke: " << space.num_params() << " parameters, "
            << static_cast<long long>(space.size())
            << " total configurations; labeling budget " << budget << "\n";

  // Enumerable space: the pool split covers the whole space 70/30.
  util::Rng rng(7);
  const auto split = space::make_pool_split(space, 7000, 3000, rng);
  const auto test = core::build_test_set(*kripke, split.test, rng);

  core::LearnerConfig config;
  config.n_init = 10;
  config.n_max = budget;
  config.forest.num_trees = 40;
  config.eval_alphas = {0.05};
  config.eval_every = 10;
  core::ActiveLearner learner(*kripke, config);
  const auto result =
      learner.run(*core::make_pwu(0.05), split.pool, test, rng);

  std::cout << "\nfinal top-5% RMSE after " << budget << "/"
            << split.pool.size() << " pool evaluations: "
            << util::TextTable::cell_sci(
                   result.trace.back().top_alpha_rmse[0])
            << " s\n";

  // What did the model learn matters? Permutation importance over the
  // evaluated training set.
  rf::Dataset train(space.num_params(), space.categorical_mask(),
                    space.cardinalities());
  for (std::size_t i = 0; i < result.train_configs.size(); ++i) {
    train.add(space.features(result.train_configs[i]),
              result.train_labels[i]);
  }
  const rf::RandomForest* forest = core::as_forest(*result.model);
  const auto importance = forest->permutation_importance(train, rng);
  util::TextTable table;
  table.set_header({"parameter", "importance (MSE increase)"});
  for (std::size_t i = 0; i < space.num_params(); ++i) {
    table.add_row({space.param(i).name(),
                   util::TextTable::cell_sci(importance[i])});
  }
  std::cout << "\npermutation feature importance:\n";
  table.print(std::cout);

  // Best configuration among the model's predictions over the test set.
  std::size_t best = 0;
  double best_pred = 1e300;
  const auto stats = result.model->predict_stats_batch(test.features);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (stats[i].mean < best_pred) {
      best_pred = stats[i].mean;
      best = i;
    }
  }
  const double true_best = util::min_value(test.labels);
  std::cout << "\nrecommended configuration: "
            << space.describe(split.test[best]) << "\n  measured "
            << util::TextTable::cell(test.labels[best], 2)
            << " s (test-set optimum " << util::TextTable::cell(true_best, 2)
            << " s)\n";
  return 0;
}
