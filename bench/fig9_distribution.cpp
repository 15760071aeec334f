// Fig. 9: where do PBUS and PWU actually sample? Scatter of the selected
// configurations in the (predicted performance, uncertainty) plane for the
// atax kernel, against the pool distribution.
//
// Expected shape (paper): PBUS's picks pile up in the low-uncertainty
// corner of the high-performance band (redundant by the time they are
// picked); PWU's picks spread across higher-uncertainty configurations
// while staying biased toward high performance.

#include "bench_common.hpp"

#include "core/active_learner.hpp"
#include "space/pool.hpp"
#include "util/ascii_chart.hpp"
#include "util/statistics.hpp"

int main() {
  using namespace pwu;
  const auto opts = util::BenchOptions::from_env();
  bench::print_banner("Fig. 9 — selected-sample distribution, PBUS vs PWU",
                      opts);

  const auto workload = workloads::make_workload("atax");
  util::Rng rng(opts.seed);
  const auto split = space::make_pool_split(
      workload->space(), opts.pool_size, opts.test_size, rng);
  const auto test = core::build_test_set(*workload, split.test, rng);

  core::LearnerConfig lc;
  lc.n_init = opts.n_init;
  lc.n_max = opts.n_max;
  lc.forest.num_trees = opts.num_trees;
  lc.eval_every = opts.n_max;
  core::ActiveLearner learner(*workload, lc);

  struct Run {
    const char* label;
    core::StrategyPtr strategy;
  };
  Run runs[2] = {{"PBUS", core::make_pbus(0.10)},
                 {"PWU", core::make_pwu(0.01)}};

  for (auto& run : runs) {
    util::Rng run_rng(opts.seed + 7);
    const auto result =
        learner.run(*run.strategy, split.pool, test, run_rng);

    // Pool cloud: predictions of the final model over the test set.
    util::ChartSeries pool_cloud{"pool", {}, {}, '.'};
    for (const auto& stats : result.model->predict_stats_batch(test.features)) {
      pool_cloud.x.push_back(stats.mean);
      pool_cloud.y.push_back(stats.stddev);
    }
    util::ChartSeries picks{"selected", {}, {}, 'x'};
    std::vector<double> pick_mu, pick_sigma;
    for (const auto& sel : result.selections) {
      picks.x.push_back(sel.predicted_mean);
      picks.y.push_back(sel.predicted_stddev);
      pick_mu.push_back(sel.predicted_mean);
      pick_sigma.push_back(sel.predicted_stddev);
    }

    util::ChartOptions chart;
    chart.title = std::string("atax selections via ") + run.label;
    chart.x_label = "predicted execution time (s)";
    chart.y_label = "uncertainty (s)";
    std::cout << "\n" << util::render_scatter(pool_cloud, picks, chart);
    std::cout << run.label << " picks: mean predicted time = "
              << util::TextTable::cell(util::mean(pick_mu), 4)
              << " s, mean uncertainty = "
              << util::TextTable::cell_sci(util::mean(pick_sigma))
              << " (n=" << pick_mu.size() << ")\n";
  }
  std::cout << "\nshape check: PWU's mean pick uncertainty should exceed "
               "PBUS's (exploration), with both biased toward fast "
               "configurations.\n";
  return 0;
}
