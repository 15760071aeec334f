#include "serve.hpp"

#include <stdlib.h>  // mkdtemp
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/metrics.hpp"
#include "router/router.hpp"
#include "service/ask_tell_session.hpp"
#include "service/protocol.hpp"
#include "service/session_manager.hpp"
#include "service/transport.hpp"
#include "space/pool.hpp"
#include "util/fs_atomic.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace json = pwu::util::json;
namespace router = pwu::router;
namespace service = pwu::service;
using pwu::util::Rng;

constexpr double kTransportTimeoutS = 120.0;
constexpr std::size_t kRttSamples = 200;

/// A directory unique to this run, removed with everything in it on
/// destruction — also when a check fails.
class TempDir {
 public:
  explicit TempDir(const std::string& root) {
    fs::create_directories(root);
    std::string pattern = root + "/serve-XXXXXX";
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed under " + root);
    }
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string quoted(const std::string& s) { return "'" + s + "'"; }

json::Value op_request(const char* op) {
  json::Object obj;
  obj.emplace("op", json::Value(op));
  return json::Value(std::move(obj));
}

/// Durable workers behind an in-process router. The destructor shuts the
/// fleet down; each PipeTransport then terminates and reaps its worker, so
/// no process outlives the fleet on any exit path.
class Fleet {
 public:
  Fleet(std::size_t workers, const std::string& serve_bin,
        const std::string& dir) {
    std::vector<router::ShardSpec> specs(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      const std::string name = "shard-" + std::to_string(i);
      const std::string shard_dir = dir + "/" + name;
      fs::create_directories(shard_dir);
      dirs_[name] = shard_dir;
      specs[i].name = name;
      specs[i].checkpoint_dir = shard_dir;
      specs[i].transport = std::make_unique<service::PipeTransport>(
          quoted(serve_bin) + " --checkpoint-dir " + quoted(shard_dir) +
              " --checkpoint-every 1",
          kTransportTimeoutS);
    }
    router_ = std::make_unique<router::Router>(std::move(specs));
  }
  ~Fleet() {
    try {
      router_->handle(op_request("shutdown"));
    } catch (...) {
      // The transports below still kill and reap every worker.
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  router::Router& router() { return *router_; }

  /// Where the owning worker auto-checkpoints `session`.
  std::string checkpoint_file(const std::string& session) const {
    return dirs_.at(router_->ring().owner(session)) + "/" + session + ".ckpt";
  }

 private:
  std::map<std::string, std::string> dirs_;
  std::unique_ptr<router::Router> router_;
};

/// One session of an episode: what the seeded generator decided.
struct SessionPlan {
  std::string name;
  std::string kernel;
  json::Value create;
  service::SessionSpec spec;
};

std::vector<SessionPlan> plan_episode(const ServeShape& shape,
                                      std::uint64_t seed,
                                      std::size_t episode) {
  std::vector<SessionPlan> plans;
  for (const std::string& kernel : shape.kernels) {
    for (std::size_t j = 0; j < shape.sessions_per_kernel; ++j) {
      SessionPlan plan;
      plan.name = kernel + "-" + std::to_string(j);
      plan.kernel = kernel;
      const std::uint64_t session_seed =
          mix_seed(seed, episode * 1000 + plans.size());
      json::Object obj;
      obj.emplace("op", json::Value("create"));
      obj.emplace("session", json::Value(plan.name));
      obj.emplace("workload", json::Value(kernel));
      obj.emplace("strategy", json::Value("pwu"));
      obj.emplace("alpha", json::Value(shape.alpha));
      obj.emplace("n_init", json::Value(shape.n_init));
      obj.emplace("n_batch", json::Value(shape.n_batch));
      obj.emplace("n_max", json::Value(shape.n_max));
      obj.emplace("trees", json::Value(shape.trees));
      obj.emplace("pool_size", json::Value(shape.pool));
      obj.emplace("test_size", json::Value(shape.test));
      obj.emplace("seed", json::Value(std::to_string(session_seed)));
      plan.create = json::Value(std::move(obj));
      plan.spec = service::spec_from_json(plan.create);
      plans.push_back(std::move(plan));
    }
  }
  return plans;
}

/// Client-side state of one session in the closed loop.
struct Client {
  const SessionPlan* plan = nullptr;
  pwu::workloads::WorkloadPtr workload;
  Rng rng{1};
  std::deque<pwu::space::Configuration> pending;
  bool done = false;
  bool step_open = false;
  Clock::time_point step_start;
  Digest digest;
  std::size_t labels = 0;
};

std::vector<Client> make_clients(const std::vector<SessionPlan>& plans) {
  std::vector<Client> clients(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    clients[i].plan = &plans[i];
    clients[i].workload = pwu::workloads::make_workload(plans[i].kernel);
  }
  return clients;
}

/// Measures the client's next outstanding candidate (the tuning client's
/// own work) and folds it into the session's labeled-config digest.
double measure_next(Client& client, Tracer& tracer) {
  const pwu::space::Configuration& config = client.pending.front();
  double t = 0.0;
  {
    Span span(tracer, "workloads.measure", client.plan->name);
    t = client.workload->measure(config, client.rng, 1);
  }
  for (const std::uint32_t level : config.levels()) {
    client.digest.add(static_cast<std::uint64_t>(level));
  }
  client.digest.add(t);
  return t;
}

json::Value levels_json(const pwu::space::Configuration& config) {
  json::Array arr;
  for (const std::uint32_t level : config.levels()) {
    arr.emplace_back(static_cast<std::size_t>(level));
  }
  return json::Value(std::move(arr));
}

/// One routed episode's measurements.
struct Episode {
  double setup_s = 0.0;
  double loop_ms = 0.0;
  std::size_t labels = 0;
  std::vector<double> step_ms;
  std::vector<double> window_ms;
  std::size_t window_requests = 0;
  std::size_t max_shard_depth = 0;
  std::vector<std::uint64_t> digests;
  std::vector<double> rmse;  // served models, when scored
  router::RouterStats stats;
};

/// A response counts as failed when it is not ok, shed, or redirected.
void check_response(const json::Value& response, const std::string& what,
                    RunResult& result) {
  if (response.bool_or("ok", false) && !response.bool_or("overloaded", false) &&
      !response.bool_or("redirected", false)) {
    return;
  }
  result.failed += 1;
  throw CheckFailure(what + " failed: " + response.dump());
}

/// Top-alpha RMSE of the model a worker holds for `plan`, restored from
/// its durable checkpoint (which must hold every label) and scored on the
/// held-out configurations the session's pool split reserved.
double served_model_rmse(const SessionPlan& plan, const std::string& path,
                         double alpha) {
  const pwu::util::VerifiedRead read = pwu::util::read_verified_file(path);
  require(read.status == pwu::util::ReadStatus::Ok,
          plan.name + ": checkpoint " + path + " is " +
              pwu::util::to_string(read.status));
  std::istringstream is(read.payload);
  std::string line;
  for (int i = 0; i < 4; ++i) std::getline(is, line);  // wrapper header
  const auto workload = pwu::workloads::make_workload(plan.kernel);
  service::AskTellSession session =
      service::AskTellSession::restore(workload->space(), is);
  require(session.num_labeled() == plan.spec.learner.n_max,
          plan.name + ": durable checkpoint holds " +
              std::to_string(session.num_labeled()) + " labels");
  session.refit();  // a final label's refit may still be due
  Rng master(plan.spec.seed);
  Rng split_rng = master.fork();
  const pwu::space::PoolSplit split = pwu::space::make_pool_split(
      workload->space(), plan.spec.pool_size, plan.spec.test_size, split_rng);
  const pwu::core::TestSet test =
      pwu::core::build_test_set(*workload, split.test, split_rng, 1);
  return pwu::core::top_alpha_rmse(*session.model(), test, alpha);
}

/// Spawns a fleet, warms every worker and creates every session (set-up),
/// then drives the closed loop to n_max: each round is one handle_batch
/// window carrying one request per live session.
Episode run_routed(const ServeShape& shape,
                   const std::vector<SessionPlan>& plans,
                   const std::string& serve_bin, const std::string& dir,
                   Tracer& tracer, bool score_models, Inject inject,
                   RunResult& result) {
  Episode ep;
  std::vector<Client> clients = make_clients(plans);

  const auto setup_start = Clock::now();
  Fleet fleet(shape.workers, serve_bin, dir);
  router::Router& rt = fleet.router();
  // The router's health op reaches every worker: the first request to
  // each happens here, inside set-up.
  const json::Value health = rt.handle(op_request("health"));
  result.attempted += 1;
  check_response(health, "health", result);
  for (const json::Value& shard : health.at("health").at("shards").as_array()) {
    require(shard.has("worker"),
            "worker " + shard.at("shard").as_string() + " did not answer");
  }
  for (Client& client : clients) {
    const json::Value created = rt.handle(client.plan->create);
    result.attempted += 1;
    check_response(created, "create " + client.plan->name, result);
    client.rng = Rng(std::stoull(created.at("measure_seed").as_string()));
  }
  ep.setup_s = ms_between(setup_start, Clock::now()) / 1000.0;

  const auto loop_start = Clock::now();
  std::vector<Client*> live;
  std::vector<json::Value> window;
  std::map<std::string, std::size_t> depth;
  for (std::size_t round = 0;; ++round) {
    live.clear();
    window.clear();
    for (Client& client : clients) {
      if (client.done) continue;
      live.push_back(&client);
      json::Object req;
      req.emplace("session", json::Value(client.plan->name));
      if (client.pending.empty()) {
        req.emplace("op", json::Value("ask"));
      } else {
        const double t = measure_next(client, tracer);
        req.emplace("op", json::Value("tell"));
        req.emplace("levels", levels_json(client.pending.front()));
        req.emplace("time", json::Value(t));
      }
      window.emplace_back(std::move(req));
    }
    if (live.empty()) break;

    const auto sent = Clock::now();
    std::vector<json::Value> responses;
    {
      Span span(tracer, "router.window", "window-" + std::to_string(round));
      responses = rt.handle_batch(window);
    }
    const auto received = Clock::now();
    ep.window_ms.push_back(ms_between(sent, received));
    ep.window_requests += window.size();
    result.attempted += window.size();
    if (inject == Inject::OkFalse && round == 0) {
      responses[0] = json::parse(R"({"ok":false,"error":"injected"})");
    }
    require(responses.size() == window.size(), "window answered short");

    depth.clear();
    for (std::size_t k = 0; k < live.size(); ++k) {
      Client& client = *live[k];
      const json::Value& response = responses[k];
      const std::string op = window[k].at("op").as_string();
      check_response(response, op + " " + client.plan->name, result);
      depth[rt.ring().owner(client.plan->name)] += 1;
      if (op == "tell") {
        client.pending.pop_front();
        client.labels += 1;
        ep.labels += 1;
        if (client.pending.empty()) {
          client.step_open = true;
          client.step_start = sent;
        }
        continue;
      }
      if (client.step_open) {
        ep.step_ms.push_back(ms_between(client.step_start, received));
        client.step_open = false;
      }
      const json::Array& candidates = response.at("candidates").as_array();
      if (candidates.empty()) {
        client.done = true;
        require(client.labels == shape.n_max,
                client.plan->name + " finished with " +
                    std::to_string(client.labels) + " of " +
                    std::to_string(shape.n_max) + " labels");
      }
      for (const json::Value& candidate : candidates) {
        client.pending.push_back(
            service::configuration_from_json(candidate.at("levels")));
      }
    }
    for (const auto& [shard, n] : depth) {
      ep.max_shard_depth = std::max(ep.max_shard_depth, n);
    }

    if (tracer.enabled()) {
      // Protocol codec cost of this window's messages, one hop's worth.
      const auto codec = [&](const json::Value& message) {
        std::string line;
        {
          Span span(tracer, "protocol.encode");
          line = message.dump();
        }
        {
          Span span(tracer, "protocol.decode");
          json::parse(line);
        }
        tracer.count("protocol.bytes", static_cast<double>(line.size() + 1));
      };
      for (const json::Value& message : window) codec(message);
      for (const json::Value& message : responses) codec(message);
    }
  }
  ep.loop_ms = ms_between(loop_start, Clock::now());

  ep.stats = rt.stats();
  require(ep.stats.failovers == 0 && ep.stats.replays == 0 &&
              ep.stats.redirects == 0,
          "router stats show failovers/replays/redirects: " +
              std::to_string(ep.stats.failovers) + "/" +
              std::to_string(ep.stats.replays) + "/" +
              std::to_string(ep.stats.redirects));
  for (const Client& client : clients) {
    ep.digests.push_back(client.digest.value());
  }
  if (score_models) {
    for (const Client& client : clients) {
      ep.rmse.push_back(served_model_rmse(
          *client.plan, fleet.checkpoint_file(client.plan->name),
          shape.alpha));
      std::cerr << client.plan->name << ": served model top-alpha RMSE "
                << ep.rmse.back() << " s\n";
    }
  }
  return ep;
}

/// The same seeded stream driven in-process through SessionManager, with
/// no checkpoints: the reference digests, and — traced — the per-op cost
/// plus the checkpoint encode and durable write each worker pays per tell.
struct InProcess {
  std::vector<std::uint64_t> digests;
  /// Per window: the busiest shard's summed op + checkpoint time.
  std::vector<double> busiest_ms;
};

InProcess run_in_process(const std::vector<SessionPlan>& plans,
                         const router::HashRing& ring, Tracer& tracer,
                         const std::string& dir) {
  InProcess out;
  Tracer quiet(false);  // the client's measurements are not service work
  service::SessionManager manager(nullptr);
  std::vector<Client> clients = make_clients(plans);
  for (Client& client : clients) {
    Span span(tracer, "service.op", client.plan->name);
    const service::SessionStatus status =
        manager.create(client.plan->name, client.plan->spec);
    client.rng = Rng(status.measure_seed);
  }
  std::map<std::string, double> busy;
  for (;;) {
    busy.clear();
    bool any = false;
    for (Client& client : clients) {
      if (client.done) continue;
      any = true;
      const std::string& name = client.plan->name;
      double& shard_busy = busy[ring.owner(name)];
      if (client.pending.empty()) {
        const auto start = Clock::now();
        std::vector<service::Candidate> batch;
        {
          Span span(tracer, "service.op", name);
          batch = manager.ask(name);
        }
        shard_busy += ms_between(start, Clock::now());
        client.done = batch.empty();
        for (service::Candidate& c : batch) {
          client.pending.push_back(std::move(c.config));
        }
        continue;
      }
      const double t = measure_next(client, quiet);
      const auto start = Clock::now();
      {
        Span span(tracer, "service.op", name);
        manager.tell(name, client.pending.front(), t);
      }
      client.pending.pop_front();
      if (tracer.enabled()) {
        std::ostringstream image;
        {
          Span span(tracer, "service.ckpt_encode", name);
          manager.checkpoint(name, image);
        }
        const std::string payload = image.str();
        {
          Span span(tracer, "util.ckpt_write", name);
          pwu::util::atomic_write_file(dir + "/" + name + ".ckpt", payload);
        }
        tracer.count("util.ckpt_write.bytes",
                     static_cast<double>(payload.size()));
      }
      shard_busy += ms_between(start, Clock::now());
    }
    if (!any) break;
    double busiest = 0.0;
    for (const auto& [shard, ms] : busy) busiest = std::max(busiest, ms);
    out.busiest_ms.push_back(busiest);
  }
  for (const Client& client : clients) {
    out.digests.push_back(client.digest.value());
  }
  return out;
}

/// Round trips of a trivial op to one idle worker (no checkpoints).
std::vector<double> transport_rtt(const std::string& serve_bin) {
  service::PipeTransport idle(quoted(serve_bin), kTransportTimeoutS);
  const std::string list = op_request("list").dump();
  require(json::parse(idle.request(list)).bool_or("ok", false),
          "idle worker did not answer");
  std::vector<double> ms;
  for (std::size_t i = 0; i < kRttSamples; ++i) {
    const auto start = Clock::now();
    const std::string reply = idle.request(list);
    ms.push_back(ms_between(start, Clock::now()));
    require(json::parse(reply).bool_or("ok", false), "list failed: " + reply);
  }
  idle.request(op_request("shutdown").dump());
  return ms;
}

}  // namespace

ServeShape serve_shape() {
  ServeShape shape;
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  shape.workers = static_cast<std::size_t>(std::clamp(cores - 1, 1L, 3L));
  return shape;
}

void run_serve(const ServeShape& shape, std::uint64_t seed, double seconds,
               Tracer& tracer, Inject inject, const std::string& serve_bin,
               const std::string& tmp_root, RunResult& result) {
  std::string kernels;
  for (const std::string& kernel : shape.kernels) {
    kernels += (kernels.empty() ? "" : ",") + kernel;
  }
  result.params = {{"kernels", kernels},
                   {"sessions", std::to_string(shape.kernels.size() *
                                               shape.sessions_per_kernel)},
                   {"workers", std::to_string(shape.workers)},
                   {"checkpoint_every", "1"},
                   {"n_init", std::to_string(shape.n_init)},
                   {"n_batch", std::to_string(shape.n_batch)},
                   {"n_max", std::to_string(shape.n_max)},
                   {"trees", std::to_string(shape.trees)},
                   {"pool", std::to_string(shape.pool)},
                   {"test", std::to_string(shape.test)},
                   {"loop", "closed, one handle_batch window per round"}};
  const TempDir tmp(tmp_root);
  Tracer untraced(false);
  const std::vector<SessionPlan> first_plans = plan_episode(shape, seed, 0);

  std::vector<Episode> plain;   // untraced episodes
  std::vector<Episode> traced;  // traced replays of the same plans
  // Traced runs pair every untraced episode with a traced one on the same
  // plans; two pairs give enough windows for the window p95.
  Budget budget(seconds, tracer.enabled() ? 2 : shape.min_episodes);
  for (std::size_t e = 0; budget.another(e); ++e) {
    const auto start = Clock::now();
    const std::vector<SessionPlan> plans = plan_episode(shape, seed, e);
    const std::string dir = tmp.path() + "/episode-" + std::to_string(e);
    plain.push_back(run_routed(shape, plans, serve_bin, dir, untraced,
                               e < shape.min_episodes && !tracer.enabled(),
                               inject, result));
    fs::remove_all(dir);
    if (tracer.enabled()) {
      traced.push_back(run_routed(shape, plans, serve_bin, dir + "-traced",
                                  tracer, false, Inject::None, result));
      fs::remove_all(dir + "-traced");
    }
    budget.spent(ms_between(start, Clock::now()));
    const Episode& ep = plain.back();
    std::cerr << "episode-" << e << ": set-up " << ep.setup_s * 1000.0
              << " ms, " << ep.labels << " labels in " << ep.loop_ms
              << " ms, step p50 " << median(ep.step_ms) << " ms\n";
  }

  // Reference drive of the first episode's plans, in-process.
  const std::string ref_dir = tmp.path() + "/in-process";
  fs::create_directories(ref_dir);
  router::HashRing ring;
  for (std::size_t i = 0; i < shape.workers; ++i) {
    ring.add("shard-" + std::to_string(i));
  }
  InProcess reference = run_in_process(first_plans, ring, tracer, ref_dir);
  if (inject == Inject::TamperDigest) reference.digests[0] ^= 1;
  for (std::size_t i = 0; i < first_plans.size(); ++i) {
    require(plain[0].digests[i] == reference.digests[i],
            first_plans[i].name +
                ": served labeled-config digest differs from the "
                "in-process SessionManager drive");
    require(traced.empty() || traced[0].digests[i] == reference.digests[i],
            first_plans[i].name + ": traced episode diverged");
  }

  if (!tracer.enabled()) {
    std::vector<double> setup_s;
    std::vector<double> step_ms;
    double labels = 0.0;
    double loop_ms = 0.0;
    for (const Episode& ep : plain) {
      setup_s.push_back(ep.setup_s);
      step_ms.insert(step_ms.end(), ep.step_ms.begin(), ep.step_ms.end());
      labels += static_cast<double>(ep.labels);
      loop_ms += ep.loop_ms;
    }
    if (inject == Inject::ShortPercentile) step_ms.resize(15);
    const Percentile p50 = checked_percentile(step_ms, 0.50, "step_ms.p50");
    const Percentile p95 = checked_percentile(step_ms, 0.95, "step_ms.p95");
    result.set("setup_s", median(setup_s), "s", setup_s.size());
    result.set("labels_per_s", labels / (loop_ms / 1000.0), "1/s");
    result.set("step_ms.p50", p50.value, "ms", p50.samples);
    result.set("step_ms.p95", p95.value, "ms", p95.samples);
    std::vector<double> rmse;
    for (std::size_t e = 0; e < shape.min_episodes; ++e) {
      rmse.insert(rmse.end(), plain[e].rmse.begin(), plain[e].rmse.end());
    }
    result.set("model_rmse", mean(rmse), "s", rmse.size());
    result.set("peak_rss_mb",
               std::max(self_peak_rss_mb(), children_peak_rss_mb()), "MiB");
    return;
  }

  std::vector<double> window_ms;
  double plain_labels = 0.0, plain_ms = 0.0, traced_labels = 0.0,
         traced_ms = 0.0;
  std::size_t requests = 0, depth = 0;
  router::RouterStats stats;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Episode& ep = traced[i];
    window_ms.insert(window_ms.end(), ep.window_ms.begin(), ep.window_ms.end());
    requests += ep.window_requests;
    depth = std::max(depth, ep.max_shard_depth);
    stats.forwards += ep.stats.forwards;
    stats.failovers += ep.stats.failovers;
    stats.replays += ep.stats.replays;
    stats.redirects += ep.stats.redirects;
    traced_labels += static_cast<double>(ep.labels);
    traced_ms += ep.loop_ms;
    plain_labels += static_cast<double>(plain[i].labels);
    plain_ms += plain[i].loop_ms;
  }
  require(reference.busiest_ms.size() == traced[0].window_ms.size(),
          "in-process drive and routed episode disagree on window count");
  double residual = 0.0;
  for (std::size_t w = 0; w < reference.busiest_ms.size(); ++w) {
    residual += traced[0].window_ms[w] - reference.busiest_ms[w];
  }
  if (inject == Inject::ShortPercentile) window_ms.resize(15);
  const Percentile w50 =
      checked_percentile(window_ms, 0.50, "router.window.ms.p50");
  const Percentile w95 =
      checked_percentile(window_ms, 0.95, "router.window.ms.p95");
  const Percentile rtt = checked_percentile(transport_rtt(serve_bin), 0.50,
                                            "transport.rtt.ms.p50");
  const double op_ms = tracer.total_ms("service.op");
  const double encode_ms = tracer.total_ms("service.ckpt_encode");
  const double write_ms = tracer.total_ms("util.ckpt_write");

  result.set("router.window.ms.p50", w50.value, "ms", w50.samples);
  result.set("router.window.ms.p95", w95.value, "ms", w95.samples);
  result.set("router.window.requests", static_cast<double>(requests), "count");
  result.set("router.shard_depth.max", static_cast<double>(depth), "count");
  result.set("router.forwards", static_cast<double>(stats.forwards), "count");
  result.set("router.failovers", static_cast<double>(stats.failovers), "count");
  result.set("router.replays", static_cast<double>(stats.replays), "count");
  result.set("router.redirects", static_cast<double>(stats.redirects), "count");
  result.set("router.residual.ms", residual, "ms");
  result.set("service.op.ms", op_ms, "ms");
  result.set("service.ckpt_encode.ms", encode_ms, "ms");
  result.set("service.ckpt.share",
             (encode_ms + write_ms) / (op_ms + encode_ms + write_ms), "ratio");
  result.set("util.ckpt_write.ms", write_ms, "ms");
  result.set("util.ckpt_write.calls",
             static_cast<double>(tracer.calls("util.ckpt_write")), "count");
  result.set("util.ckpt_write.bytes", tracer.counter("util.ckpt_write.bytes"),
             "bytes");
  result.set("protocol.encode.ms", tracer.total_ms("protocol.encode"), "ms");
  result.set("protocol.decode.ms", tracer.total_ms("protocol.decode"), "ms");
  result.set("protocol.bytes", tracer.counter("protocol.bytes"), "bytes");
  result.set("transport.rtt.ms.p50", rtt.value, "ms", rtt.samples);
  result.set("workloads.measure.ms", tracer.total_ms("workloads.measure"),
             "ms");
  result.set("workloads.measure.calls",
             static_cast<double>(tracer.calls("workloads.measure")), "count");
  const double plain_lps = plain_labels / plain_ms;
  const double traced_lps = traced_labels / traced_ms;
  result.set("trace.overhead_pct", 100.0 * (1.0 - traced_lps / plain_lps), "%");
}

}  // namespace perfbench
