// Service-level serving benchmark (emits BENCH_serve.json).
//
// Drives a fleet of ask/tell sessions to completion through three serving
// topologies and reports the numbers the scaling story rests on:
//
//   direct           handle_request on an in-process SessionManager — the
//                    no-transport, no-durability upper bound;
//   pipe_1worker     one forked pwu_serve behind a PipeTransport, auto-
//                    checkpointing every tell — a durable single-server
//                    deployment;
//   router_4workers  the pwu_router tier over four equally durable forked
//                    workers — consistent-hash placement plus per-shard
//                    pipelining, the same per-tell fsync cost per worker.
//
// Both multi-process topologies checkpoint every tell (the substrate
// failover rides on), so the pipe-vs-router delta isolates what the
// routing tier itself costs/buys rather than mixing in durability.
//
// Metrics per topology: overall requests/sec, asks/sec through the
// batched ask windows (where the router's per-shard pipelining shows up),
// per-tell round-trip latency percentiles (tell-to-fresh-model: the ack
// arrives only after the inline refit for refit-triggering tells), and
// the overload shed rate.
//
// A fourth section, `failover_mttr`, measures what warm-standby replication
// buys: two-worker router fleets where the session's owner is armed to die
// mid-tell, run once with cold re-home (checkpoint resume on the survivor)
// and once with --standby warm promotion. The metric is the wall time of
// the death-detecting request — detection, recovery, and the replayed tell
// until its answer arrives — i.e. time-to-first-answered-request after the
// kill, reported as p50/p99 per mode plus the cold/warm speedup.
//
// A fifth section, `framing_overhead`, prices the network-resilience layer
// of DESIGN.md §15: the same two-worker router fleet driven to completion
// twice, once over raw JSON lines and once with --frame semantics (pwu1
// length+CRC framing, idempotency stamping, epoch checks on every hop).
// Reported as framed-vs-unframed requests/sec and p99 tell latency; the
// layer is supposed to cost under ~3%.
//
// Usage: micro_serve [OUT.json] [PWU_SERVE_BIN]
// The serve binary defaults to ../tools/pwu_serve next to this binary.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "router/hash_ring.hpp"
#include "router/router.hpp"
#include "service/protocol.hpp"
#include "service/session_manager.hpp"
#include "service/transport.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace {

namespace json = pwu::util::json;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSessions = 8;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = p * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

/// One serving topology: a single-request call and a batched window call
/// (the window is where transports get to pipeline).
struct Topology {
  std::string name;
  std::function<json::Value(const json::Value&)> call;
  std::function<std::vector<json::Value>(const std::vector<json::Value>&)>
      call_batch;
};

struct Metrics {
  std::size_t requests = 0;
  std::size_t sheds = 0;
  std::size_t asks = 0;
  double ask_window_s = 0.0;
  std::vector<double> tell_ms;
  double wall_s = 0.0;
  bool completed = true;
};

json::Value create_request(const std::string& name, unsigned seed) {
  return json::parse(
      R"({"op":"create","session":")" + name +
      R"(","workload":"gesummv","n_init":6,"n_batch":2,"n_max":18,)"
      R"("trees":8,"pool_size":150,"seed":)" + std::to_string(seed) + "}");
}

json::Value ask_request(const std::string& name) {
  json::Object obj;
  obj.emplace("op", json::Value("ask"));
  obj.emplace("session", json::Value(name));
  return json::Value(std::move(obj));
}

/// Calls with structured-overload retry, counting sheds.
json::Value call_patiently(const Topology& topo, const json::Value& request,
                           Metrics& metrics) {
  for (;;) {
    json::Value response = topo.call(request);
    metrics.requests += 1;
    if (!response.bool_or("overloaded", false) &&
        !response.bool_or("redirected", false)) {
      return response;
    }
    metrics.sheds += 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<long>(response.number_or("retry_after_ms", 25.0))));
  }
}

/// Drives kSessions sessions to completion: each round batches one ask
/// window across every live session, then tells the returned candidates
/// one by one (timed individually).
Metrics drive(const Topology& topo) {
  Metrics metrics;
  const auto wall_start = Clock::now();

  struct Live {
    std::string name;
    pwu::util::Rng rng{1};
    bool done = false;
  };
  const auto workload = pwu::workloads::make_workload("gesummv");
  std::vector<Live> sessions(kSessions);
  for (std::size_t s = 0; s < kSessions; ++s) {
    sessions[s].name = "bench-" + std::to_string(s);
    const json::Value created = call_patiently(
        topo, create_request(sessions[s].name, 100 + static_cast<unsigned>(s)),
        metrics);
    if (!created.bool_or("ok", false)) {
      std::cerr << "create failed: " << created.dump() << "\n";
      metrics.completed = false;
      return metrics;
    }
    sessions[s].rng =
        pwu::util::Rng(std::stoull(created.at("measure_seed").as_string()));
  }

  for (;;) {
    std::vector<std::size_t> live;
    std::vector<json::Value> window;
    for (std::size_t s = 0; s < kSessions; ++s) {
      if (sessions[s].done) continue;
      live.push_back(s);
      window.push_back(ask_request(sessions[s].name));
    }
    if (live.empty()) break;

    const auto ask_start = Clock::now();
    const std::vector<json::Value> batches = topo.call_batch(window);
    metrics.ask_window_s += ms_between(ask_start, Clock::now()) / 1000.0;
    metrics.requests += window.size();
    metrics.asks += window.size();

    for (std::size_t k = 0; k < live.size(); ++k) {
      Live& session = sessions[live[k]];
      const json::Value& batch = batches[k];
      if (!batch.bool_or("ok", false)) {
        std::cerr << "ask failed: " << batch.dump() << "\n";
        metrics.completed = false;
        return metrics;
      }
      const json::Array& candidates = batch.at("candidates").as_array();
      if (candidates.empty()) {
        session.done = true;
        continue;
      }
      for (const json::Value& candidate : candidates) {
        const auto config = pwu::service::configuration_from_json(
            candidate.at("levels"));
        const double t = workload->measure(config, session.rng, 1);
        json::Object tell;
        tell.emplace("op", json::Value("tell"));
        tell.emplace("session", json::Value(session.name));
        tell.emplace("levels", candidate.at("levels"));
        tell.emplace("time", json::Value(t));
        const json::Value request(std::move(tell));
        const auto tell_start = Clock::now();
        const json::Value told = call_patiently(topo, request, metrics);
        metrics.tell_ms.push_back(ms_between(tell_start, Clock::now()));
        if (!told.bool_or("ok", false)) {
          std::cerr << "tell failed: " << told.dump() << "\n";
          metrics.completed = false;
          return metrics;
        }
      }
    }
  }

  metrics.wall_s = ms_between(wall_start, Clock::now()) / 1000.0;
  return metrics;
}

std::string fresh_dir(const std::string& tag) {
  const fs::path dir = fs::temp_directory_path() / ("pwu_bench_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// ---- failover MTTR: cold re-home vs warm promotion -------------------------

constexpr int kMttrIterations = 5;
constexpr std::size_t kMttrWarmupTells = 40;
// Asks consumed by the warm-up: one init window (n_init 8) plus n_batch-2
// windows for the remaining tells. The owner dies on the ask after that.
constexpr std::size_t kMttrWarmupAsks = 1 + (kMttrWarmupTells - 8) / 2;

struct MttrRun {
  std::vector<double> ms;  // one death-to-first-answer sample per fleet
  bool completed = true;
};

/// One fleet, one kill, one sample: a heavy session (60 trees, pool 2000)
/// is warmed up with kMttrWarmupTells labeled points, then its owner dies
/// receiving the next ask — before applying anything, so the replayed
/// request itself is cheap and the sample isolates recovery. The sample
/// is that ask's wall time: the router detects the death, recovers the
/// session (cold resume of the checkpoint image vs promotion of the live
/// shadow), replays the ask, and answers.
MttrRun measure_failover_mttr(const std::string& serve_bin, bool standby) {
  MttrRun run;
  pwu::router::HashRing ring;
  ring.add("shard-0");
  ring.add("shard-1");

  for (int iter = 0; iter < kMttrIterations; ++iter) {
    const std::string tag = std::string(standby ? "warm" : "cold") + "_" +
                            std::to_string(iter);
    std::vector<pwu::router::ShardSpec> specs(2);
    for (int i = 0; i < 2; ++i) {
      const std::string dir = fresh_dir("mttr_" + tag + "_" +
                                        std::to_string(i));
      std::string command = "'" + serve_bin + "' --checkpoint-dir '" + dir +
                            "' --checkpoint-every 1";
      // The owner (always shard-0 by session-name choice below) dies on
      // the first ask request after the warm-up.
      if (i == 0) {
        command += " --kill-at protocol.ask:" +
                   std::to_string(kMttrWarmupAsks);
      }
      specs[i].name = "shard-" + std::to_string(i);
      specs[i].checkpoint_dir = dir;
      specs[i].transport =
          std::make_unique<pwu::service::PipeTransport>(command, 120.0);
    }
    pwu::router::RouterOptions options;
    options.standby = standby;
    // Synchronous replication: every acked op flushes immediately, so the
    // promotion path never drains a lagged outbox inside the timed window
    // — the MTTR sample is detection + promote + replay, nothing else.
    options.replication_lag_max = 0;
    pwu::router::Router router(std::move(specs), options);

    std::string name;
    for (int j = 0;; ++j) {
      name = "mttr-" + std::to_string(iter) + "-" + std::to_string(j);
      if (ring.owner(name) == "shard-0") break;
    }
    const json::Value created = router.handle(json::parse(
        R"({"op":"create","session":")" + name +
        R"(","workload":"gesummv","n_init":8,"n_batch":2,"n_max":60,)"
        R"("trees":60,"pool_size":2000,"seed":)" +
        std::to_string(700 + iter) + "}"));
    if (!created.bool_or("ok", false)) {
      std::cerr << "mttr create failed: " << created.dump() << "\n";
      run.completed = false;
      return run;
    }
    const auto workload = pwu::workloads::make_workload("gesummv");
    pwu::util::Rng rng(std::stoull(created.at("measure_seed").as_string()));

    bool sampled = false;
    while (!sampled) {
      const auto ask_start = Clock::now();
      const json::Value batch = router.handle(ask_request(name));
      const double elapsed = ms_between(ask_start, Clock::now());
      if (!batch.bool_or("ok", false)) {
        std::cerr << "mttr ask failed: " << batch.dump() << "\n";
        run.completed = false;
        return run;
      }
      if (router.stats().failovers == 1) {
        // This ask is the one that found the corpse and rode the
        // recovery: detection + resume-or-promotion + replay.
        run.ms.push_back(elapsed);
        sampled = true;
        break;
      }
      const json::Array& candidates = batch.at("candidates").as_array();
      if (candidates.empty()) break;
      for (const json::Value& candidate : candidates) {
        const auto config =
            pwu::service::configuration_from_json(candidate.at("levels"));
        const double t = workload->measure(config, rng, 1);
        json::Object tell;
        tell.emplace("op", json::Value("tell"));
        tell.emplace("session", json::Value(name));
        tell.emplace("levels", candidate.at("levels"));
        tell.emplace("time", json::Value(t));
        const json::Value told = router.handle(json::Value(std::move(tell)));
        if (!told.bool_or("ok", false)) {
          std::cerr << "mttr tell failed: " << told.dump() << "\n";
          run.completed = false;
          return run;
        }
      }
    }
    if (!sampled) {
      std::cerr << "mttr: kill never fired (mode "
                << (standby ? "warm" : "cold") << ", iter " << iter << ")\n";
      run.completed = false;
    }
    if (standby && router.stats().promotions != 1) {
      std::cerr << "mttr: warm mode fell back to cold re-home\n";
      run.completed = false;
    }
    router.handle(json::parse(R"({"op":"shutdown"})"));
    if (!run.completed) return run;
  }
  return run;
}

void emit(std::ostream& out, const std::string& name, const Metrics& m,
          bool last) {
  const double tput = m.wall_s > 0.0
                          ? static_cast<double>(m.requests) / m.wall_s
                          : 0.0;
  const double asks_per_sec =
      m.ask_window_s > 0.0 ? static_cast<double>(m.asks) / m.ask_window_s
                           : 0.0;
  const double shed_rate =
      m.requests > 0
          ? static_cast<double>(m.sheds) / static_cast<double>(m.requests)
          : 0.0;
  out << "  \"" << name << "\": {\n"
      << "    \"sessions\": " << kSessions << ",\n"
      << "    \"completed\": " << (m.completed ? "true" : "false") << ",\n"
      << "    \"requests\": " << m.requests << ",\n"
      << "    \"wall_s\": " << m.wall_s << ",\n"
      << "    \"requests_per_sec\": " << tput << ",\n"
      << "    \"asks_per_sec\": " << asks_per_sec << ",\n"
      << "    \"tell_ms\": {\"p50\": " << percentile(m.tell_ms, 0.50)
      << ", \"p90\": " << percentile(m.tell_ms, 0.90)
      << ", \"p99\": " << percentile(m.tell_ms, 0.99) << "},\n"
      << "    \"shed_rate\": " << shed_rate << "\n"
      << "  }" << (last ? "\n" : ",\n");
  std::cout << name << ": " << m.requests << " req in " << m.wall_s
            << " s (" << tput << " req/s, " << asks_per_sec
            << " asks/s batched, tell p50 " << percentile(m.tell_ms, 0.50)
            << " ms / p99 " << percentile(m.tell_ms, 0.99)
            << " ms, shed " << 100.0 * shed_rate << "%)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  std::string serve_bin;
  if (argc > 2) {
    serve_bin = argv[2];
  } else {
    std::error_code ec;
    const fs::path self = fs::read_symlink("/proc/self/exe", ec);
    if (!ec) {
      serve_bin =
          (self.parent_path().parent_path() / "tools" / "pwu_serve").string();
    }
  }
  const bool have_serve = !serve_bin.empty() && fs::exists(serve_bin);
  if (!have_serve) {
    std::cerr << "micro_serve: pwu_serve not found (" << serve_bin
              << "); running the in-process topology only\n";
  }

  // ---- direct: in-process SessionManager ----
  pwu::service::SessionManager direct_manager;
  const Topology direct{
      "direct",
      [&](const json::Value& request) {
        return pwu::service::handle_request(direct_manager, request);
      },
      [&](const std::vector<json::Value>& window) {
        std::vector<json::Value> responses;
        responses.reserve(window.size());
        for (const json::Value& request : window) {
          responses.push_back(
              pwu::service::handle_request(direct_manager, request));
        }
        return responses;
      }};
  const Metrics direct_metrics = drive(direct);

  // ---- pipe_1worker: one forked pwu_serve ----
  Metrics pipe_metrics;
  if (have_serve) {
    pwu::service::PipeTransport pipe("'" + serve_bin + "' --checkpoint-dir '" +
                                         fresh_dir("pipe") +
                                         "' --checkpoint-every 1",
                                     120.0);
    const Topology topo{
        "pipe_1worker",
        [&](const json::Value& request) {
          return json::parse(pipe.request(request.dump()));
        },
        [&](const std::vector<json::Value>& window) {
          // The transport-level pipelining the router generalizes: write
          // the whole window, then drain.
          for (const json::Value& request : window) pipe.send(request.dump());
          std::vector<json::Value> responses;
          responses.reserve(window.size());
          for (std::size_t i = 0; i < window.size(); ++i) {
            responses.push_back(json::parse(pipe.recv()));
          }
          return responses;
        }};
    pipe_metrics = drive(topo);
    pipe.request(R"({"op":"shutdown"})");
  }

  // ---- router_4workers: the sharded tier ----
  Metrics router_metrics;
  if (have_serve) {
    std::vector<pwu::router::ShardSpec> specs(4);
    for (int i = 0; i < 4; ++i) {
      const std::string dir = fresh_dir("router_" + std::to_string(i));
      specs[i].name = "shard-" + std::to_string(i);
      specs[i].transport = std::make_unique<pwu::service::PipeTransport>(
          "'" + serve_bin + "' --checkpoint-dir '" + dir +
              "' --checkpoint-every 1",
          120.0);
      specs[i].checkpoint_dir = dir;
    }
    pwu::router::Router router(std::move(specs));
    const Topology topo{
        "router_4workers",
        [&](const json::Value& request) { return router.handle(request); },
        [&](const std::vector<json::Value>& window) {
          return router.handle_batch(window);
        }};
    router_metrics = drive(topo);
    router.handle(json::parse(R"({"op":"shutdown"})"));
  }

  // ---- framing_overhead: framed vs unframed two-worker fleets ----
  Metrics unframed_metrics;
  Metrics framed_metrics;
  if (have_serve) {
    // No checkpointing here, unlike the topology sections: a per-tell
    // fsync costs ~100x what a CRC does, and its scheduling noise buries
    // the number this section exists to report. Both fleets are equally
    // volatile, so the delta still prices exactly the framing layer.
    const auto run_fleet = [&](bool frame) {
      std::vector<pwu::router::ShardSpec> specs(2);
      for (int i = 0; i < 2; ++i) {
        specs[i].name = "shard-" + std::to_string(i);
        specs[i].transport = std::make_unique<pwu::service::PipeTransport>(
            "'" + serve_bin + "'", 120.0);
      }
      pwu::router::RouterOptions options;
      options.frame = frame;
      pwu::router::Router router(std::move(specs), options);
      const Topology topo{
          frame ? "router_framed" : "router_unframed",
          [&](const json::Value& request) { return router.handle(request); },
          [&](const std::vector<json::Value>& window) {
            return router.handle_batch(window);
          }};
      Metrics m = drive(topo);
      router.handle(json::parse(R"({"op":"shutdown"})"));
      return m;
    };
    // Fleets are deterministic, so repeats redo identical work; take the
    // best-of-6 per mode. The framing delta is ~1 us/request, well inside
    // single-run scheduling noise, so fairness of the repetition schedule
    // matters more than its length: the pair order flips every rep
    // (u,f / f,u / ...) — under sustained load the CPU clocks down as the
    // section runs, and a fixed order would bill that decay to whichever
    // mode always ran second.
    unframed_metrics = run_fleet(false);
    framed_metrics = run_fleet(true);
    for (int rep = 1; rep < 6; ++rep) {
      const bool framed_first = (rep % 2) != 0;
      const Metrics a = run_fleet(framed_first);
      const Metrics b = run_fleet(!framed_first);
      const Metrics& f = framed_first ? a : b;
      const Metrics& u = framed_first ? b : a;
      if (u.wall_s < unframed_metrics.wall_s) unframed_metrics = u;
      if (f.wall_s < framed_metrics.wall_s) framed_metrics = f;
    }
  }
  const double unframed_rps =
      unframed_metrics.wall_s > 0.0
          ? static_cast<double>(unframed_metrics.requests) /
                unframed_metrics.wall_s
          : 0.0;
  const double framed_rps =
      framed_metrics.wall_s > 0.0
          ? static_cast<double>(framed_metrics.requests) /
                framed_metrics.wall_s
          : 0.0;
  const double framing_overhead_pct =
      unframed_rps > 0.0 ? 100.0 * (1.0 - framed_rps / unframed_rps) : 0.0;
  if (have_serve) {
    std::cout << "framing_overhead: unframed " << unframed_rps
              << " req/s, framed " << framed_rps << " req/s ("
              << framing_overhead_pct << "% overhead, tell p99 "
              << percentile(unframed_metrics.tell_ms, 0.99) << " -> "
              << percentile(framed_metrics.tell_ms, 0.99) << " ms)\n";
  }

  // ---- failover MTTR: cold re-home vs warm promotion ----
  MttrRun cold_mttr;
  MttrRun warm_mttr;
  double warm_speedup_p50 = 0.0;
  if (have_serve) {
    cold_mttr = measure_failover_mttr(serve_bin, false);
    warm_mttr = measure_failover_mttr(serve_bin, true);
    const double cold_p50 = percentile(cold_mttr.ms, 0.50);
    const double warm_p50 = percentile(warm_mttr.ms, 0.50);
    warm_speedup_p50 = warm_p50 > 0.0 ? cold_p50 / warm_p50 : 0.0;
    std::cout << "failover_mttr: cold re-home p50 " << cold_p50 << " ms / p99 "
              << percentile(cold_mttr.ms, 0.99) << " ms, warm promotion p50 "
              << warm_p50 << " ms / p99 " << percentile(warm_mttr.ms, 0.99)
              << " ms (" << warm_speedup_p50 << "x faster at p50)\n";
  }

  std::ofstream out(out_path);
  out.precision(6);
  out << "{\n";
  emit(out, "direct", direct_metrics, !have_serve);
  if (have_serve) {
    emit(out, "pipe_1worker", pipe_metrics, false);
    emit(out, "router_4workers", router_metrics, false);
  }
  if (have_serve) {
    out << "  \"failover_mttr\": {\n"
        << "    \"iterations\": " << kMttrIterations
        << ", \"warmup_tells\": " << kMttrWarmupTells
        << ", \"trees\": 40, \"pool_size\": 800,\n"
        << "    \"completed\": "
        << (cold_mttr.completed && warm_mttr.completed ? "true" : "false")
        << ",\n"
        << "    \"cold_rehome_ms\": {\"p50\": "
        << percentile(cold_mttr.ms, 0.50)
        << ", \"p99\": " << percentile(cold_mttr.ms, 0.99) << "},\n"
        << "    \"warm_promotion_ms\": {\"p50\": "
        << percentile(warm_mttr.ms, 0.50)
        << ", \"p99\": " << percentile(warm_mttr.ms, 0.99) << "},\n"
        << "    \"warm_speedup_p50\": " << warm_speedup_p50 << ",\n"
        << "    \"warm_faster_than_cold\": "
        << (warm_speedup_p50 > 1.0 ? "true" : "false") << "\n"
        << "  },\n";
    out << "  \"framing_overhead\": {\n"
        << "    \"sessions\": " << kSessions << ", \"workers\": 2,\n"
        << "    \"completed\": "
        << (unframed_metrics.completed && framed_metrics.completed ? "true"
                                                                   : "false")
        << ",\n"
        << "    \"unframed\": {\"requests\": " << unframed_metrics.requests
        << ", \"requests_per_sec\": " << unframed_rps
        << ", \"tell_p99_ms\": " << percentile(unframed_metrics.tell_ms, 0.99)
        << "},\n"
        << "    \"framed\": {\"requests\": " << framed_metrics.requests
        << ", \"requests_per_sec\": " << framed_rps
        << ", \"tell_p99_ms\": " << percentile(framed_metrics.tell_ms, 0.99)
        << "},\n"
        << "    \"req_per_sec_overhead_pct\": " << framing_overhead_pct
        << ",\n"
        << "    \"overhead_below_3pct\": "
        << (framing_overhead_pct < 3.0 ? "true" : "false") << "\n"
        << "  }\n";
  }
  out << "}\n";
  out.close();
  std::cout << "wrote " << out_path << "\n";

  const bool ok = direct_metrics.completed &&
                  (!have_serve ||
                   (pipe_metrics.completed && router_metrics.completed &&
                    unframed_metrics.completed && framed_metrics.completed &&
                    cold_mttr.completed && warm_mttr.completed &&
                    warm_speedup_p50 > 1.0));
  return ok ? 0 : 1;
}
