// Tuner workloads: the paper's Algorithm-1 loop as pwu_run drives it
// (core::ActiveLearner::run, single-threaded), and — traced — the same loop
// spelled out as the service::AskTellSession steps it is made of.

#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct TuneShape {
  std::string kernel = "atax";
  std::size_t pool = 0;
  std::size_t test = 0;
  std::size_t trees = 0;
  std::size_t n_init = 10;
  std::size_t n_batch = 1;
  std::size_t n_max = 0;
  std::size_t eval_every = 1;
  double alpha = 0.05;
  /// Distinct replicate seeds; model_rmse is the mean of their final
  /// top-alpha RMSE. Each run also repeats the first seed at least once.
  std::size_t replicates = 1;
};

/// The shape of `tune_fit` or `tune_predict`; throws for other names.
TuneShape tune_shape(const std::string& workload);

/// Runs replicates until `seconds` have been measured (and at least the
/// minimum work is done), filling `result`. Untraced: end-to-end metrics.
/// Traced: per-layer metrics from spans, each replicate also run untraced
/// and compared bit for bit.
void run_tune(const TuneShape& shape, std::uint64_t seed, double seconds,
              Tracer& tracer, Inject inject, RunResult& result);

}  // namespace perfbench
