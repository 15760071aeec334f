#include "tune.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/active_learner.hpp"
#include "core/metrics.hpp"
#include "core/sampling_strategy.hpp"
#include "service/ask_tell_session.hpp"
#include "space/pool.hpp"
#include "util/rng.hpp"
#include "workloads/registry.hpp"

namespace perfbench {

namespace {

namespace core = pwu::core;
namespace service = pwu::service;
namespace space = pwu::space;
using pwu::util::Rng;
using pwu::workloads::Workload;

/// Stamps every measurement ActiveLearner::run takes. The gap between a
/// batch-completing measurement and the next one is what a tuning client
/// waits between two measurements: refit, evaluation, ask.
class StepClock final : public Workload {
 public:
  explicit StepClock(const Workload& inner) : inner_(inner) {}

  const std::string& name() const override { return inner_.name(); }
  const space::ParameterSpace& space() const override {
    return inner_.space();
  }
  double base_time(const space::Configuration& config) const override {
    stamps_.push_back(Clock::now());
    return inner_.base_time(config);
  }
  const pwu::sim::NoiseModel& noise() const override { return inner_.noise(); }

  const std::vector<Clock::time_point>& stamps() const { return stamps_; }

 private:
  const Workload& inner_;
  mutable std::vector<Clock::time_point> stamps_;
};

/// One replicate's inputs, built exactly as one repeat of
/// core::run_experiment builds them (what pwu_run runs).
struct Inputs {
  std::vector<space::Configuration> pool;
  core::TestSet test;
  Rng run_rng;
  double setup_s = 0.0;
};

/// What a replicate produced: a digest of everything ActiveLearner::run
/// returns (trace, selections, training stream) and the timings.
struct Outcome {
  std::uint64_t digest = 0;
  double final_rmse = 0.0;
  std::size_t labels = 0;
  double loop_ms = 0.0;
  std::vector<double> step_ms;
};

core::LearnerConfig learner_config(const TuneShape& shape) {
  core::LearnerConfig config;
  config.n_init = shape.n_init;
  config.n_batch = shape.n_batch;
  config.n_max = shape.n_max;
  config.forest.num_trees = shape.trees;
  config.eval_every = shape.eval_every;
  config.eval_alphas = {shape.alpha};
  return config;
}

std::uint64_t digest_of(const core::LearnerResult& result) {
  Digest d;
  for (const core::IterationRecord& rec : result.trace) {
    d.add(static_cast<std::uint64_t>(rec.num_samples));
    d.add(rec.cumulative_cost);
    for (const double r : rec.top_alpha_rmse) d.add(r);
    d.add(rec.full_rmse);
  }
  for (const core::SelectionRecord& sel : result.selections) {
    d.add(static_cast<std::uint64_t>(sel.iteration));
    d.add(sel.predicted_mean);
    d.add(sel.predicted_stddev);
    d.add(sel.measured);
  }
  for (const space::Configuration& config : result.train_configs) {
    for (const std::uint32_t level : config.levels()) {
      d.add(static_cast<std::uint64_t>(level));
    }
  }
  for (const double label : result.train_labels) d.add(label);
  return d.value();
}

Inputs make_inputs(const TuneShape& shape, const Workload& workload,
                   const core::SamplingStrategy& strategy,
                   std::uint64_t replicate_seed, Tracer& tracer,
                   const std::string& key) {
  const auto start = Clock::now();
  Rng master(replicate_seed);
  Rng split_rng = master.fork();
  space::PoolSplit split;
  {
    Span span(tracer, "space.pool_split", key);
    split = space::make_pool_split(workload.space(), shape.pool, shape.test,
                                   split_rng);
  }
  Inputs inputs{std::move(split.pool), {}, master.fork(), 0.0};
  {
    Span span(tracer, "core.test_set", key);
    inputs.test = core::build_test_set(workload, split.test, split_rng, 1);
  }
  {
    // The session ActiveLearner::run builds first thing: pool encoding.
    Span span(tracer, "service.session_init", key);
    const service::AskTellSession session(workload.space(), strategy,
                                          learner_config(shape), inputs.pool,
                                          nullptr, 0, nullptr);
  }
  inputs.setup_s = ms_between(start, Clock::now()) / 1000.0;
  return inputs;
}

/// The untraced replicate: core::ActiveLearner::run, as pwu_run calls it.
Outcome run_learner(const TuneShape& shape, const Workload& workload,
                    const core::SamplingStrategy& strategy,
                    const Inputs& inputs) {
  const StepClock clock(workload);
  const core::ActiveLearner learner(clock, learner_config(shape));
  Rng rng = inputs.run_rng;
  const auto start = Clock::now();
  const core::LearnerResult result =
      learner.run(strategy, inputs.pool, inputs.test, rng, nullptr);
  Outcome out;
  out.loop_ms = ms_between(start, Clock::now());
  out.digest = digest_of(result);
  out.final_rmse = result.trace.back().top_alpha_rmse.at(0);
  out.labels = result.train_labels.size();
  const auto& stamps = clock.stamps();
  for (std::size_t i = shape.n_init - 1; i + 1 < stamps.size();
       i += shape.n_batch) {
    out.step_ms.push_back(ms_between(stamps[i], stamps[i + 1]));
  }
  return out;
}

/// The traced replicate: ActiveLearner::run_impl spelled out step by step
/// (ask() = plan_ask + predict_stats_batch over the pool + finish_ask),
/// with a span around every call into a layer.
Outcome run_traced(const TuneShape& shape, const Workload& workload,
                   const core::SamplingStrategy& strategy,
                   const Inputs& inputs, Tracer& tracer,
                   const std::string& key) {
  const core::LearnerConfig config = learner_config(shape);
  Rng rng = inputs.run_rng;
  const auto start = Clock::now();
  Span root(tracer, "core.run", key);
  const std::uint64_t session_seed = rng.next_u64();
  Rng measure_rng(rng.next_u64());
  service::AskTellSession session(workload.space(), strategy, config,
                                  inputs.pool, nullptr, session_seed,
                                  nullptr);
  core::LearnerResult result;

  const auto ask = [&]() {
    service::AskPlan plan;
    {
      Span span(tracer, "core.plan", key);
      plan = session.plan_ask();
    }
    if (!plan.needs_scores) return std::move(plan.candidates);
    std::vector<pwu::rf::PredictionStats> stats;
    {
      Span span(tracer, "rf.score", key);
      stats = session.model()->predict_stats_batch(session.pool_features(),
                                                   nullptr);
    }
    tracer.count("rf.score.rows",
                 static_cast<double>(session.pool_features().num_rows()));
    Span span(tracer, "core.select", key);
    return session.finish_ask(plan, stats);
  };
  const auto measure_batch = [&](const std::vector<service::Candidate>& batch) {
    for (const service::Candidate& candidate : batch) {
      double t = 0.0;
      {
        Span span(tracer, "workloads.measure", key);
        t = workload.measure(candidate.config, measure_rng,
                             config.measure_repetitions);
      }
      Span span(tracer, "service.tell", key);
      session.tell(candidate.config, t);
    }
    Span span(tracer, "rf.fit", key);
    if (session.refit_due()) {
      tracer.count("rf.fit.calls");
      tracer.count("rf.fit.rows", static_cast<double>(session.train().size()));
    }
    session.refit();
  };
  const auto record = [&]() {
    Span span(tracer, "core.eval", key);
    core::IterationRecord rec;
    rec.num_samples = session.num_labeled();
    rec.cumulative_cost = session.cumulative_cost();
    const core::Surrogate& model = *session.model();
    for (const double alpha : config.eval_alphas) {
      rec.top_alpha_rmse.push_back(core::top_alpha_rmse(model, inputs.test, alpha));
      tracer.count("core.eval.rows",
                   std::max(1.0, std::floor(static_cast<double>(
                                     inputs.test.size()) * alpha)));
    }
    rec.full_rmse = core::full_rmse(model, inputs.test);
    tracer.count("core.eval.rows", static_cast<double>(inputs.test.size()));
    result.trace.push_back(std::move(rec));
  };

  measure_batch(ask());
  record();
  while (!session.done()) {
    measure_batch(ask());
    if (session.iteration() % config.eval_every == 0 || session.done()) {
      record();
    }
  }
  result.selections = session.selections();
  result.train_configs = session.train_configs();
  result.train_labels = session.train_labels();

  Outcome out;
  out.loop_ms = ms_between(start, Clock::now());
  out.digest = digest_of(result);
  out.final_rmse = result.trace.back().top_alpha_rmse.at(0);
  out.labels = result.train_labels.size();
  return out;
}

}  // namespace

TuneShape tune_shape(const std::string& workload) {
  TuneShape shape;
  if (workload == "tune_fit") {
    shape.pool = 1500;
    shape.test = 800;
    shape.trees = 40;
    shape.n_max = 300;
    shape.eval_every = 10;
    shape.replicates = 9;
  } else if (workload == "tune_predict") {
    shape.pool = 13000;
    shape.test = 4000;
    shape.trees = 25;
    shape.n_max = 105;
    shape.eval_every = 1;
    shape.replicates = 24;
  } else {
    throw std::invalid_argument("unknown tuner workload " + workload);
  }
  return shape;
}

void run_tune(const TuneShape& shape, std::uint64_t seed, double seconds,
              Tracer& tracer, Inject inject, RunResult& result) {
  const auto workload = pwu::workloads::make_workload(shape.kernel);
  const core::StrategyPtr strategy = core::make_strategy("pwu", shape.alpha);
  result.params = {{"kernel", shape.kernel},
                   {"strategy", "pwu"},
                   {"alpha", std::to_string(shape.alpha)},
                   {"pool", std::to_string(shape.pool)},
                   {"test", std::to_string(shape.test)},
                   {"trees", std::to_string(shape.trees)},
                   {"n_init", std::to_string(shape.n_init)},
                   {"n_batch", std::to_string(shape.n_batch)},
                   {"n_max", std::to_string(shape.n_max)},
                   {"eval_every", std::to_string(shape.eval_every)},
                   {"replicates", std::to_string(shape.replicates)},
                   {"threads", "1"}};

  std::vector<double> setup_s;
  std::vector<double> step_ms;
  std::vector<Outcome> first(shape.replicates);
  double labels = 0.0;
  double loop_ms = 0.0;
  double traced_labels = 0.0;
  double traced_ms = 0.0;

  // Untraced: the distinct seeds, then the first seed again (the same-seed
  // check), then more cycles while the time allows. Traced: every seed is
  // run untraced and traced back to back.
  Budget budget(seconds, tracer.enabled() ? 1 : shape.replicates + 1);
  for (std::size_t i = 0; budget.another(i); ++i) {
    const auto rep_start = Clock::now();
    const std::size_t rep = i % shape.replicates;
    const std::string key = "replicate-" + std::to_string(rep);
    const Inputs inputs = make_inputs(shape, *workload, *strategy,
                                      mix_seed(seed, rep), tracer, key);
    setup_s.push_back(inputs.setup_s);
    result.attempted += shape.n_max;

    Outcome out = run_learner(shape, *workload, *strategy, inputs);
    labels += static_cast<double>(out.labels);
    loop_ms += out.loop_ms;
    require(out.labels == shape.n_max,
            key + ": labeled " + std::to_string(out.labels) + " of " +
                std::to_string(shape.n_max));
    std::cerr << key << ": final top-alpha RMSE " << out.final_rmse << " s, "
              << out.loop_ms << " ms\n";

    if (tracer.enabled()) {
      Outcome traced =
          run_traced(shape, *workload, *strategy, inputs, tracer, key);
      if (inject == Inject::TamperDigest) traced.digest ^= 1;
      require(traced.digest == out.digest && traced.final_rmse == out.final_rmse,
              key + ": the traced AskTellSession steps diverge from "
                    "ActiveLearner::run");
      traced_labels += static_cast<double>(traced.labels);
      traced_ms += traced.loop_ms;
    } else if (i < shape.replicates) {
      step_ms.insert(step_ms.end(), out.step_ms.begin(), out.step_ms.end());
      first[rep] = std::move(out);
    } else {
      step_ms.insert(step_ms.end(), out.step_ms.begin(), out.step_ms.end());
      if (inject == Inject::TamperDigest) out.digest ^= 1;
      require(out.digest == first[rep].digest &&
                  out.final_rmse == first[rep].final_rmse,
              key + ": a same-seed rerun gave a different training stream "
                    "or model_rmse");
    }
    budget.spent(ms_between(rep_start, Clock::now()));
  }

  if (!tracer.enabled()) {
    if (inject == Inject::ShortPercentile) step_ms.resize(15);
    const Percentile p50 = checked_percentile(step_ms, 0.50, "step_ms.p50");
    const Percentile p95 = checked_percentile(step_ms, 0.95, "step_ms.p95");
    std::vector<double> rmse;
    for (const Outcome& out : first) rmse.push_back(out.final_rmse);
    result.set("setup_s", median(setup_s), "s", setup_s.size());
    result.set("labels_per_s", labels / (loop_ms / 1000.0), "1/s");
    result.set("step_ms.p50", p50.value, "ms", p50.samples);
    result.set("step_ms.p95", p95.value, "ms", p95.samples);
    result.set("model_rmse", mean(rmse), "s", rmse.size());
    result.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
    return;
  }

  const double fit_ms = tracer.total_ms("rf.fit");
  const double score_ms = tracer.total_ms("rf.score");
  const double eval_ms = tracer.total_ms("core.eval");
  result.set("rf.fit.ms", fit_ms, "ms");
  result.set("rf.fit.calls", tracer.counter("rf.fit.calls"), "count");
  result.set("rf.fit.rows", tracer.counter("rf.fit.rows"), "count");
  result.set("rf.fit.share", fit_ms / traced_ms, "ratio");
  result.set("rf.score.ms", score_ms, "ms");
  result.set("rf.score.rows", tracer.counter("rf.score.rows"), "count");
  result.set("rf.score.share", score_ms / traced_ms, "ratio");
  result.set("rf.score.rows_per_label",
             tracer.counter("rf.score.rows") / traced_labels, "count");
  result.set("core.eval.ms", eval_ms, "ms");
  result.set("core.eval.rows", tracer.counter("core.eval.rows"), "count");
  result.set("core.eval.share", eval_ms / traced_ms, "ratio");
  result.set("core.plan.ms", tracer.total_ms("core.plan"), "ms");
  result.set("core.select.ms", tracer.total_ms("core.select"), "ms");
  result.set("service.tell.ms", tracer.total_ms("service.tell"), "ms");
  result.set("workloads.measure.ms", tracer.total_ms("workloads.measure"),
             "ms");
  result.set("workloads.measure.calls",
             static_cast<double>(tracer.calls("workloads.measure")), "count");
  result.set("space.pool_split.ms", tracer.total_ms("space.pool_split"), "ms");
  result.set("core.test_set.ms", tracer.total_ms("core.test_set"), "ms");
  const double untraced_lps = labels / loop_ms;
  const double traced_lps = traced_labels / traced_ms;
  result.set("trace.overhead_pct", 100.0 * (1.0 - traced_lps / untraced_lps),
             "%");
}

}  // namespace perfbench
