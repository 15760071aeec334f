// The serving workload: a closed loop of concurrent ask/tell sessions
// driven through an in-process router::Router over forked, durable
// pwu_serve workers (--checkpoint-every 1, as pwu_router forces).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

struct ServeShape {
  std::vector<std::string> kernels = {"atax", "gesummv", "mvt", "bicg"};
  std::size_t sessions_per_kernel = 4;
  std::size_t n_init = 10;
  std::size_t n_batch = 1;
  std::size_t n_max = 60;
  std::size_t trees = 20;
  std::size_t pool = 500;
  /// Held-out configurations the pool split reserves per session; the
  /// benchmark rebuilds them to score the served model (model_rmse).
  std::size_t test = 400;
  double alpha = 0.05;
  /// Durable pwu_serve workers behind the router (nproc - 1, at most 3).
  std::size_t workers = 3;
  /// Fleets (spawn, create, drive to n_max, shut down) per run, at least.
  /// model_rmse is the mean over these episodes' sessions: the per-session
  /// spread is 25-47%, so fewer sessions let the seed move it by >8%.
  std::size_t min_episodes = 6;
};

ServeShape serve_shape();

/// Runs episodes until `seconds` have been measured, filling `result`
/// (its operation counts stay valid when a check throws). `serve_bin` is
/// the pwu_serve binary; checkpoints go to a fresh directory under
/// `tmp_root` that is removed before returning, on every path.
void run_serve(const ServeShape& shape, std::uint64_t seed, double seconds,
               Tracer& tracer, Inject inject, const std::string& serve_bin,
               const std::string& tmp_root, RunResult& result);

}  // namespace perfbench
