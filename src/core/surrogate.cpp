#include "core/surrogate.hpp"

#include <stdexcept>

namespace pwu::core {

std::vector<rf::PredictionStats> Surrogate::predict_stats_batch(
    const rf::FeatureMatrix& rows, util::ThreadPool* pool) const {
  const std::size_t n = rows.num_rows();
  std::vector<rf::PredictionStats> out(n);
  auto body = [&](std::size_t i) { out[i] = predict_stats(rows.row(i)); };
  if (pool != nullptr && pool->num_threads() > 1 && n > 256) {
    pool->parallel_for(0, n, body);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
  return out;
}

std::vector<double> Surrogate::predict_mean_batch(
    const rf::FeatureMatrix& rows, util::ThreadPool* pool) const {
  const auto stats = predict_stats_batch(rows, pool);
  std::vector<double> out(stats.size());
  for (std::size_t i = 0; i < stats.size(); ++i) out[i] = stats[i].mean;
  return out;
}

RandomForestSurrogate::RandomForestSurrogate(rf::ForestConfig config)
    : config_(config) {}

void RandomForestSurrogate::fit(const rf::Dataset& data, util::Rng& rng,
                                util::ThreadPool* pool,
                                const util::CancelToken* cancel) {
  forest_.fit(data, config_, rng, pool, cancel);
}

rf::PredictionStats RandomForestSurrogate::predict_stats(
    std::span<const double> row) const {
  return forest_.predict_stats(row);
}

std::vector<rf::PredictionStats> RandomForestSurrogate::predict_stats_batch(
    const rf::FeatureMatrix& rows, util::ThreadPool* pool) const {
  return forest_.predict_stats_batch(rows, pool);
}

std::vector<double> RandomForestSurrogate::predict_mean_batch(
    const rf::FeatureMatrix& rows, util::ThreadPool* pool) const {
  return forest_.predict_mean_batch(rows, pool);
}

bool RandomForestSurrogate::save_model(std::ostream& os) const {
  forest_.save(os);
  return true;
}

bool RandomForestSurrogate::load_model(std::istream& is) {
  forest_.load(is);
  return true;
}

GaussianProcessSurrogate::GaussianProcessSurrogate(gp::GpConfig config)
    : config_(std::move(config)) {}

void GaussianProcessSurrogate::fit(const rf::Dataset& data,
                                   util::Rng& /*rng*/,
                                   util::ThreadPool* /*pool*/,
                                   const util::CancelToken* cancel) {
  // The GP fit is one monolithic Cholesky — no interior safe point, so the
  // token is only honored at the boundary.
  if (cancel != nullptr) cancel->throw_if_requested();
  gp_.fit(data, config_);
}

rf::PredictionStats GaussianProcessSurrogate::predict_stats(
    std::span<const double> row) const {
  const gp::GpPrediction p = gp_.predict_full(row);
  return rf::PredictionStats{p.mean, p.variance, p.stddev};
}

std::size_t GaussianProcessSurrogate::memory_bytes() const {
  // Dominated by the n x n kernel matrix and its Cholesky factor.
  const std::size_t n = gp_.num_train();
  return n * n * 2 * sizeof(double);
}

SurrogatePtr make_surrogate(const std::string& kind,
                            const rf::ForestConfig& forest_config,
                            const gp::GpConfig& gp_config) {
  if (kind == "rf") {
    return std::make_unique<RandomForestSurrogate>(forest_config);
  }
  if (kind == "gp") {
    return std::make_unique<GaussianProcessSurrogate>(gp_config);
  }
  throw std::invalid_argument("make_surrogate: unknown surrogate '" + kind +
                              "'");
}

const rf::RandomForest* as_forest(const Surrogate& surrogate) {
  const auto* rf_surrogate =
      dynamic_cast<const RandomForestSurrogate*>(&surrogate);
  return rf_surrogate != nullptr ? &rf_surrogate->forest() : nullptr;
}

}  // namespace pwu::core
