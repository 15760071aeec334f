#include "core/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/contracts.hpp"

namespace pwu::core {

TestSet build_test_set(const workloads::Workload& workload,
                       std::span<const space::Configuration> configs,
                       util::Rng& rng, int repetitions) {
  TestSet test;
  const auto& space = workload.space();
  test.features =
      rf::FeatureMatrix::with_capacity(space.num_params(), configs.size());
  test.labels.reserve(configs.size());
  for (const auto& config : configs) {
    space.write_features(config, test.features.append_row());
    test.labels.push_back(workload.measure(config, rng, repetitions));
  }
  test.ranking = util::argsort(test.labels);
  return test;
}

namespace {
/// Validates alpha in (0, 1] and converts it to the Eq. 2 prefix length.
std::size_t alpha_prefix(const TestSet& test, double alpha) {
  if (test.size() == 0 || alpha <= 0.0 || alpha > 1.0) {
    throw std::invalid_argument(
        "evaluate: empty test set or alpha outside (0, 1]");
  }
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(static_cast<double>(test.size()) * alpha)));
}
}  // namespace

namespace detail {

Evaluation evaluate_predictions(std::span<const double> predicted,
                                const TestSet& test,
                                std::span<const double> alphas) {
  const std::size_t n = alpha_prefix(test, 1.0);
  PWU_REQUIRE(predicted.size() == n, predicted.size() << " != " << n);
  std::vector<double> sum(n);  // sum[r]: squared error over ranks 0..r
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t i = test.ranking[r];
    const double err = predicted[i] - test.labels[i];
    sum[r] = acc += err * err;
  }
  const auto rmse = [&](std::size_t count) {
    return std::sqrt(sum[count - 1] / static_cast<double>(count));
  };
  Evaluation out{{}, rmse(n)};
  for (const double alpha : alphas) {
    out.top_alpha_rmse.push_back(rmse(alpha_prefix(test, alpha)));
  }
  return out;
}

TestSet ranked_prefix(const TestSet& test, double alpha) {
  TestSet prefix;
  prefix.ranking.resize(alpha_prefix(test, alpha));
  std::iota(prefix.ranking.begin(), prefix.ranking.end(), std::size_t{0});
  for (const std::size_t r : prefix.ranking) {
    prefix.features.add_row(test.features.row(test.ranking[r]));
    prefix.labels.push_back(test.labels[test.ranking[r]]);
  }
  return prefix;
}

}  // namespace detail

double cumulative_cost(std::span<const double> labels) {
  return std::accumulate(labels.begin(), labels.end(), 0.0);
}

}  // namespace pwu::core
