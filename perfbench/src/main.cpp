// End-to-end benchmark of the tuner and the routed serving fleet.
//
//   pwu_perfbench --workload tune_fit|tune_predict|serve_routed --seed N
//                 --seconds S --trace 0|1 [--inject KIND]
//                 [--out-dir DIR] [--commit SHA] [--source-digest HEX]
//
// Prints a host/build fingerprint, the workload parameters and one line
// per metric (with the sample count behind every percentile), then, as the
// last line, the result object:
//   {"correct": true, "attempted": N, "failed": M, "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// and writes the run's spans to DIR/spans/<workload>-<seed>.jsonl.
// Exit status: 0 ok, 1 a correctness check failed, 2 bad usage or error.
// See perfbench/README.md for the workloads and how to read the spans.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "report.hpp"
#include "rf/simd_eval.hpp"
#include "serve.hpp"
#include "trace.hpp"
#include "tune.hpp"
#include "util/json.hpp"

namespace {

using namespace perfbench;
namespace json = pwu::util::json;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json: every run prints every metric of its kind.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"labels_per_s", "1/s"}, {"step_ms.p50", "ms"},
    {"step_ms.p95", "ms"},    {"model_rmse", "s"},     {"peak_rss_mb", "MiB"},
};

// Layers a workload does not exercise read 0 on it.
constexpr MetricSpec kPerLayer[] = {
    {"rf.fit.ms", "ms"},
    {"rf.fit.calls", "count"},
    {"rf.fit.rows", "count"},
    {"rf.fit.share", "ratio"},
    {"rf.score.ms", "ms"},
    {"rf.score.rows", "count"},
    {"rf.score.share", "ratio"},
    {"rf.score.rows_per_label", "count"},
    {"core.eval.ms", "ms"},
    {"core.eval.rows", "count"},
    {"core.eval.share", "ratio"},
    {"core.plan.ms", "ms"},
    {"core.select.ms", "ms"},
    {"service.tell.ms", "ms"},
    {"workloads.measure.ms", "ms"},
    {"workloads.measure.calls", "count"},
    {"space.pool_split.ms", "ms"},
    {"core.test_set.ms", "ms"},
    {"router.window.ms.p50", "ms"},
    {"router.window.ms.p95", "ms"},
    {"router.window.requests", "count"},
    {"router.shard_depth.max", "count"},
    {"router.forwards", "count"},
    {"router.failovers", "count"},
    {"router.replays", "count"},
    {"router.redirects", "count"},
    {"router.residual.ms", "ms"},
    {"service.op.ms", "ms"},
    {"service.ckpt_encode.ms", "ms"},
    {"service.ckpt.share", "ratio"},
    {"util.ckpt_write.ms", "ms"},
    {"util.ckpt_write.calls", "count"},
    {"util.ckpt_write.bytes", "bytes"},
    {"protocol.encode.ms", "ms"},
    {"protocol.decode.ms", "ms"},
    {"protocol.bytes", "bytes"},
    {"transport.rtt.ms.p50", "ms"},
    {"trace.overhead_pct", "%"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  Inject inject = Inject::None;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pwu_perfbench: " << why << "\n"
            << "usage: pwu_perfbench --workload tune_fit|tune_predict|"
               "serve_routed --seed N --seconds S --trace 0|1 [--inject "
               "tamper-digest|ok-false|short-percentile] [--out-dir DIR] "
               "[--commit SHA] [--source-digest HEX]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--inject") {
        if (value == "tamper-digest") {
          args.inject = Inject::TamperDigest;
        } else if (value == "ok-false") {
          args.inject = Inject::OkFalse;
        } else if (value == "short-percentile") {
          args.inject = Inject::ShortPercentile;
        } else if (value != "none") {
          usage("unknown --inject " + value);
        }
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--source-digest") {
        args.source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload != "tune_fit" && args.workload != "tune_predict" &&
      args.workload != "serve_routed") {
    usage("unknown --workload '" + args.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }
  return args;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

json::Value fingerprint(const Args& args) {
  json::Object obj;
  obj.emplace("nproc", json::Value(static_cast<std::size_t>(
                           sysconf(_SC_NPROCESSORS_ONLN))));
  obj.emplace("cpu_model", json::Value(cpu_model()));
  obj.emplace("simd_level", json::Value(pwu::rf::simd::level_name(
                                pwu::rf::simd::detected_level())));
  obj.emplace("build_type", json::Value(PERFBENCH_BUILD_TYPE));
  obj.emplace("compiler", json::Value(__VERSION__));
  obj.emplace("git_commit", json::Value(args.commit));
  obj.emplace("source_digest", json::Value(args.source_digest));
  obj.emplace("workload", json::Value(args.workload));
  obj.emplace("seed", json::Value(std::to_string(args.seed)));
  obj.emplace("seconds", json::Value(args.seconds));
  obj.emplace("trace", json::Value(args.trace));
  return json::Value(std::move(obj));
}

std::string number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// The last stdout line. On a failed check no metrics are reported.
std::string result_line(const RunResult& result, bool correct) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  if (correct) {
    bool first = true;
    for (const auto& [name, metric] : result.metrics) {
      os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << number(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
      first = false;
    }
  }
  os << "}}";
  return os.str();
}

/// Checks the run reported exactly the metrics of its kind, filling the
/// per-layer metrics of layers this workload does not exercise with 0.
void complete_metrics(RunResult& result, bool trace) {
  std::map<std::string, Metric> expected;
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) {
      expected[spec.name] = Metric{0.0, spec.unit, 0};
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      expected[spec.name] = Metric{0.0, spec.unit, 0};
    }
  }
  for (const auto& [name, metric] : result.metrics) {
    const auto it = expected.find(name);
    if (it == expected.end() || it->second.unit != metric.unit) {
      throw std::logic_error("unlisted metric " + name + " [" + metric.unit +
                             "]");
    }
    it->second = metric;
  }
  if (!trace && expected.size() != result.metrics.size()) {
    throw std::logic_error("an end-to-end metric is missing");
  }
  result.metrics = std::move(expected);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const json::Value print = fingerprint(args);
  std::cout << "fingerprint " << print.dump() << "\n" << std::flush;

  Tracer tracer(args.trace);
  RunResult result;
  int code = 0;
  std::string failure;
  try {
    if (args.workload == "serve_routed") {
      run_serve(serve_shape(), args.seed, args.seconds, tracer, args.inject,
                PERFBENCH_SERVE_BIN, args.out_dir + "/tmp", result);
    } else {
      run_tune(tune_shape(args.workload), args.seed, args.seconds, tracer,
               args.inject, result);
    }
    complete_metrics(result, args.trace);
  } catch (const CheckFailure& e) {
    code = 1;
    failure = std::string("CHECK FAILED: ") + e.what();
  } catch (const std::exception& e) {
    code = 2;
    result.failed += 1;
    failure = std::string("ERROR: ") + e.what();
  }

  json::Object params;
  for (const auto& [key, value] : result.params) {
    params.emplace(key, json::Value(value));
  }
  std::cout << "params " << json::Value(std::move(params)).dump() << "\n";
  if (args.trace) {
    const std::string dir = args.out_dir + "/spans";
    std::filesystem::create_directories(dir);
    const std::string path = dir + "/" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    try {
      tracer.write_jsonl(path, print.dump());
      std::cout << "spans " << tracer.spans().size() << " written to "
                << path << "\n";
    } catch (const std::exception& e) {
      if (code == 0) code = 2;
      failure += std::string(" ERROR: ") + e.what();
    }
  }
  const double failed_frac =
      result.attempted == 0 ? 0.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted);
  std::cout << "metric ops_failed_frac " << number(failed_frac)
            << " ratio (" << result.failed << " of " << result.attempted
            << " operations)\n";
  if (code != 0) {
    std::cerr << "pwu_perfbench: " << failure << "\n";
  } else {
    for (const auto& [name, metric] : result.metrics) {
      std::cout << "metric " << name << " " << number(metric.value) << " "
                << metric.unit;
      if (metric.samples > 0) std::cout << " (n=" << metric.samples << ")";
      std::cout << "\n";
    }
  }
  std::cout << result_line(result, code == 0) << std::endl;
  return code;
}
