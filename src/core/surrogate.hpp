// Surrogate-model abstraction for the active-learning loop.
//
// The paper's method is defined around a random forest (Section II-B), but
// it explicitly frames the choice against the "common choice" of Gaussian
// processes. Both are available behind this interface so the RF-vs-GP
// comparison (bench/ablation_surrogate) runs through the identical
// Algorithm-1 code path.

#pragma once

#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gp/gaussian_process.hpp"
#include "rf/random_forest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/watchdog.hpp"

namespace pwu::core {

class Surrogate {
 public:
  virtual ~Surrogate() = default;

  virtual const std::string& name() const = 0;

  /// (Re)fits the model from scratch on the dataset. `cancel` is polled at
  /// family-specific safe points (between forest trees); a requested
  /// cancellation throws util::Cancelled and leaves the model unfitted.
  virtual void fit(const rf::Dataset& data, util::Rng& rng,
                   util::ThreadPool* pool = nullptr,
                   const util::CancelToken* cancel = nullptr) = 0;

  virtual bool fitted() const = 0;

  /// Point prediction plus predictive uncertainty.
  virtual rf::PredictionStats predict_stats(
      std::span<const double> row) const = 0;

  /// Batched prediction over a contiguous row matrix; the default
  /// implementation loops (optionally in parallel via `pool`), the forest
  /// routes to its flat blocked evaluator.
  virtual std::vector<rf::PredictionStats> predict_stats_batch(
      const rf::FeatureMatrix& rows, util::ThreadPool* pool = nullptr) const;

  /// Batched point predictions; equal to the predict_stats_batch means.
  /// The default takes them from predict_stats_batch, the forest skips
  /// the variance pass.
  virtual std::vector<double> predict_mean_batch(
      const rf::FeatureMatrix& rows, util::ThreadPool* pool = nullptr) const;

  /// Point prediction (the posterior/ensemble mean).
  double predict(std::span<const double> row) const {
    return predict_stats(row).mean;
  }

  /// Persists the fitted model state; returns false when the family has no
  /// serialized form (the caller must then refit from the training data —
  /// bit-identical only for families whose fit consumes no rng draws).
  virtual bool save_model(std::ostream&) const { return false; }
  /// Restores state written by save_model(); returns false when
  /// unsupported.
  virtual bool load_model(std::istream&) { return false; }

  /// Approximate resident heap footprint of the fitted model (0 when a
  /// family does not account for itself).
  virtual std::size_t memory_bytes() const { return 0; }
};

using SurrogatePtr = std::unique_ptr<Surrogate>;

/// Random-forest surrogate — the paper's model.
class RandomForestSurrogate final : public Surrogate {
 public:
  explicit RandomForestSurrogate(rf::ForestConfig config);

  const std::string& name() const override { return name_; }
  void fit(const rf::Dataset& data, util::Rng& rng,
           util::ThreadPool* pool = nullptr,
           const util::CancelToken* cancel = nullptr) override;
  bool fitted() const override { return forest_.fitted(); }
  rf::PredictionStats predict_stats(std::span<const double> row) const override;
  std::vector<rf::PredictionStats> predict_stats_batch(
      const rf::FeatureMatrix& rows, util::ThreadPool* pool) const override;
  std::vector<double> predict_mean_batch(
      const rf::FeatureMatrix& rows, util::ThreadPool* pool) const override;

  /// Forest text serialization — predictions round-trip exactly, which is
  /// what makes session checkpoint/resume bit-identical.
  bool save_model(std::ostream& os) const override;
  bool load_model(std::istream& is) override;
  std::size_t memory_bytes() const override { return forest_.memory_bytes(); }

  const rf::RandomForest& forest() const { return forest_; }

 private:
  std::string name_ = "random-forest";
  rf::ForestConfig config_;
  rf::RandomForest forest_;
};

/// Gaussian-process surrogate — the alternative the paper argues against
/// for mixed spaces.
class GaussianProcessSurrogate final : public Surrogate {
 public:
  explicit GaussianProcessSurrogate(gp::GpConfig config);

  const std::string& name() const override { return name_; }
  void fit(const rf::Dataset& data, util::Rng& rng,
           util::ThreadPool* pool = nullptr,
           const util::CancelToken* cancel = nullptr) override;
  bool fitted() const override { return gp_.fitted(); }
  rf::PredictionStats predict_stats(std::span<const double> row) const override;
  std::size_t memory_bytes() const override;

  const gp::GaussianProcess& model() const { return gp_; }

 private:
  std::string name_ = "gaussian-process";
  gp::GpConfig config_;
  gp::GaussianProcess gp_;
};

/// "rf" or "gp".
SurrogatePtr make_surrogate(const std::string& kind,
                            const rf::ForestConfig& forest_config = {},
                            const gp::GpConfig& gp_config = {});

/// Returns the underlying forest when `surrogate` is a
/// RandomForestSurrogate, nullptr otherwise (e.g. for permutation
/// importance, which is forest-specific here).
const rf::RandomForest* as_forest(const Surrogate& surrogate);

}  // namespace pwu::core
