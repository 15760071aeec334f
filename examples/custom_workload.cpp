// Bringing your own black box: wrap any config -> seconds function as a
// Workload and hand it to the active learner. Here: a mock "GPU kernel
// launch" tuning problem (block size, items per thread, staging buffer,
// algorithm variant) with a hand-written cost function standing in for a
// real measurement harness — in production this lambda would execute your
// program and time it.
//
//   $ ./custom_workload

#include <cmath>
#include <iostream>

#include "core/active_learner.hpp"
#include "space/pool.hpp"
#include "util/table.hpp"
#include "workloads/synthetic.hpp"

int main() {
  using namespace pwu;

  // 1. Declare the parameter space.
  space::ParameterSpace gpu_space;
  gpu_space.add(space::Parameter::ordinal(
      "block_size", {32, 64, 128, 256, 512, 1024}));
  gpu_space.add(space::Parameter::int_range("items_per_thread", 1, 16));
  gpu_space.add(space::Parameter::boolean("use_shared_staging"));
  gpu_space.add(space::Parameter::categorical(
      "variant", {"scalar", "vectorized", "warp_shuffle"}));

  // 2. Declare the black box. In a real deployment this runs the program.
  //    It keeps its own copy of the space, which is moved into the
  //    workload below.
  auto launch_time = [gpu_space](const space::Configuration& c) {
    const double block = gpu_space.param(0).numeric_value(c.level(0));
    const double ipt = gpu_space.param(1).numeric_value(c.level(1));
    const bool staging = c.level(2) == 1;
    const std::size_t variant = c.level(3);

    // Occupancy curve: too-small blocks underfill SMs, too-big ones limit
    // resident blocks.
    const double occupancy =
        1.0 / (1.0 + std::pow(std::log2(block / 256.0), 2.0) * 0.15);
    // ILP from items-per-thread saturates, then registers spill.
    const double ilp = std::min(ipt, 8.0) / (ipt > 8.0 ? ipt / 8.0 : 1.0);
    const double variant_gain[3] = {1.0, 0.62, 0.55};
    double t = 2e-3 / (occupancy * (0.5 + 0.5 * ilp / 8.0));
    t *= variant_gain[variant];
    // Shared-memory staging helps the scalar variant only.
    if (staging) t *= variant == 0 ? 0.8 : 1.05;
    return t;
  };

  sim::NoiseModel noise;
  noise.lognormal_sigma = 0.02;  // launch-timer jitter
  auto workload = workloads::make_custom("gpu_reduce", std::move(gpu_space),
                                         launch_time, noise);

  std::cout << "custom workload '" << workload->name() << "': "
            << static_cast<long long>(workload->space().size())
            << " configurations\n";

  // 3. Model it. Small space -> the split enumerates everything.
  util::Rng rng(3);
  const auto split = space::make_pool_split(workload->space(), 500, 200, rng);
  const auto test = core::build_test_set(*workload, split.test, rng);

  core::LearnerConfig config;
  config.n_init = 8;
  config.n_max = 48;
  config.forest.num_trees = 30;
  config.eval_alphas = {0.10};
  config.eval_every = 8;
  core::ActiveLearner learner(*workload, config);
  const auto result =
      learner.run(*core::make_pwu(0.10), split.pool, test, rng);

  util::TextTable table;
  table.set_header({"#samples", "top-10% RMSE (s)"});
  for (const auto& record : result.trace) {
    table.add_row({std::to_string(record.num_samples),
                   util::TextTable::cell_sci(record.top_alpha_rmse[0])});
  }
  table.print(std::cout);

  // 4. Ask the model for the best launch configuration.
  std::size_t best = 0;
  double best_pred = 1e300;
  const auto stats = result.model->predict_stats_batch(test.features);
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (stats[i].mean < best_pred) {
      best_pred = stats[i].mean;
      best = i;
    }
  }
  std::cout << "\nrecommended launch config: "
            << workload->space().describe(split.test[best]) << "\n("
            << util::TextTable::cell(test.labels[best] * 1e3, 3)
            << " ms measured, model spent only " << result.train_labels.size()
            << " of " << split.pool.size() + test.size()
            << " possible launches)\n";
  return 0;
}
