// Shared vocabulary of the benchmark: metrics, the run result, checks that
// fail the run, checked percentiles and stream digests.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// A correctness check failed. The run prints no metrics and exits non-zero.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

/// Which of the benchmark's own checks to break on purpose, so the checks
/// themselves can be tested (`--inject`).
enum class Inject { None, TamperDigest, OkFalse, ShortPercentile };

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Samples behind a percentile or median (0 for totals and counts).
  std::size_t samples = 0;
};

/// What one workload run produces: operation counts plus the end-to-end
/// metrics (untraced run) or the per-layer metrics (traced run).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Workload parameters, printed beside the fingerprint.
  std::map<std::string, std::string> params;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
};

/// A percentile together with the sample count it rests on.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Linear-interpolated percentile `p` in [0, 1]. Refuses (CheckFailure)
/// when fewer than ten samples lie beyond it: such a tail is not measured.
Percentile checked_percentile(std::vector<double> samples, double p,
                              const std::string& name);

double median(std::vector<double> samples);
double mean(const std::vector<double>& samples);

/// The measuring window of one run: work units (replicates, episodes)
/// start while the next one is projected to end inside `seconds`, and at
/// least `minimum` of them always run.
class Budget {
 public:
  Budget(double seconds, std::size_t minimum);

  /// True when another unit should start, given the units done so far.
  bool another(std::size_t done) const;
  /// Records the wall time of one finished unit.
  void spent(double ms) { spent_ms_ += ms; }

 private:
  Clock::time_point deadline_;
  std::size_t minimum_;
  double spent_ms_ = 0.0;
};

/// FNV-1a 64 accumulator over the bytes of a stream of values.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t size);
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  void add(std::string_view s) { add_bytes(s.data(), s.size()); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// splitmix64 finaliser: derives well-spread child seeds from (seed, index).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

/// Peak resident set of this process (VmHWM), and the largest reaped
/// child's max RSS (RUSAGE_CHILDREN), in MiB.
double self_peak_rss_mb();
double children_peak_rss_mb();

}  // namespace perfbench
