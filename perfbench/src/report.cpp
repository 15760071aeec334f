#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>

namespace perfbench {

Percentile checked_percentile(std::vector<double> samples, double p,
                              const std::string& name) {
  const std::size_t n = samples.size();
  require(n > 0, name + ": no samples");
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, n - 1);
  const std::size_t beyond = n - 1 - lo;
  require(beyond >= 10, name + ": percentile refused, only " +
                            std::to_string(beyond) + " of " +
                            std::to_string(n) + " samples lie beyond it");
  const double frac = rank - static_cast<double>(lo);
  return {samples[lo] + frac * (samples[hi] - samples[lo]), n};
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

Budget::Budget(double seconds, std::size_t minimum)
    : deadline_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds))),
      minimum_(minimum) {}

bool Budget::another(std::size_t done) const {
  if (done < minimum_) return true;
  const double per_unit_ms = spent_ms_ / static_cast<double>(done);
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                per_unit_ms)) <=
         deadline_;
}

void Digest::add_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
double peak_rss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}
}  // namespace

double self_peak_rss_mb() {
  // VmHWM belongs to the current address space, so unlike RUSAGE_SELF it
  // does not inherit the high-water mark of whatever process exec'd us.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return peak_rss_mb(RUSAGE_SELF);
}
double children_peak_rss_mb() { return peak_rss_mb(RUSAGE_CHILDREN); }

}  // namespace perfbench
