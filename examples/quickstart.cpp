// Quickstart: build a performance model for a SPAPT kernel with PWU active
// learning in ~40 lines of user code.
//
//   $ ./quickstart [workload=atax] [n_max=120]
//
// Walks through the full pipeline: pool construction, Algorithm 1 with the
// PWU strategy, error reporting, and reading the best configuration off the
// learned model.

#include <cstdlib>
#include <iostream>

#include "core/active_learner.hpp"
#include "space/pool.hpp"
#include "util/table.hpp"
#include "workloads/registry.hpp"

int main(int argc, char** argv) {
  using namespace pwu;

  const std::string name = argc > 1 ? argv[1] : "atax";
  const std::size_t n_max =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 120;

  // 1. The tuning target: any registered benchmark (or your own Workload).
  const auto workload = workloads::make_workload(name);
  std::cout << "workload: " << workload->name() << " ("
            << workload->space().num_params() << " parameters, 10^"
            << util::TextTable::cell(workload->space().log10_size(), 1)
            << " configurations)\n";

  // 2. A finite pool stands in for the intractable space (paper: 10,000
  //    uniform samples split 70/30 into pool and held-out test set).
  util::Rng rng(42);
  const auto split =
      space::make_pool_split(workload->space(), 1400, 600, rng);
  const auto test = core::build_test_set(*workload, split.test, rng);

  // 3. Algorithm 1 with the Performance-Weighted-Uncertainty strategy.
  core::LearnerConfig config;
  config.n_init = 10;                 // cold-start size
  config.n_batch = 1;                 // evaluations per iteration
  config.n_max = n_max;               // total labeling budget
  config.forest.num_trees = 40;
  config.eval_alphas = {0.05};        // score the top-5% band
  config.eval_every = 10;

  core::ActiveLearner learner(*workload, config);
  const auto strategy = core::make_pwu(/*alpha=*/0.05);
  std::cout << "running active learning (" << strategy->name() << ", budget "
            << n_max << " evaluations)...\n\n";
  const auto result = learner.run(*strategy, split.pool, test, rng);

  // 4. The learning curve.
  util::TextTable table;
  table.set_header({"#samples", "top-5% RMSE (s)", "cumulative cost (s)"});
  for (const auto& record : result.trace) {
    table.add_row({std::to_string(record.num_samples),
                   util::TextTable::cell_sci(record.top_alpha_rmse[0]),
                   util::TextTable::cell(record.cumulative_cost, 2)});
  }
  table.print(std::cout);

  // 5. Use the learned model: the cheapest predicted configuration in the
  //    pool of everything we never ran.
  double best_pred = 1e300;
  std::size_t best_idx = 0;
  const auto stats = result.model->predict_stats_batch(test.features);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (stats[i].mean < best_pred) {
      best_pred = stats[i].mean;
      best_idx = i;
    }
  }
  std::cout << "\nmodel's favourite configuration (never executed during "
               "training):\n  "
            << workload->space().describe(split.test[best_idx])
            << "\n  predicted " << util::TextTable::cell(best_pred, 4)
            << " s, actually measured "
            << util::TextTable::cell(test.labels[best_idx], 4) << " s\n";
  return 0;
}
