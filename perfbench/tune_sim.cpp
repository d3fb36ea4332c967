// tune_sim — the paper's figure mix on a warm, seeded synthetic pool view:
// bootstrapped random search over the Fig 3 subsample grid, the Fig 6 bias
// grid and the Fig 9 epsilon grid, plus the Fig 8 method comparison. No
// training and no I/O: the work is the tuners (hpo) and the noisy evaluator
// (core). Traced runs replace each Fig 8 run_pool_method call by a mirror
// built on core::TuningSession with a timing TrialRunner, checked bitwise
// against run_pool_method.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/config_pool.hpp"
#include "core/noisy_evaluator.hpp"
#include "core/pool_runner.hpp"
#include "core/tuning_driver.hpp"
#include "data/benchmarks.hpp"
#include "hpo/search_space.hpp"
#include "sim/experiments.hpp"
#include "sim/method_runner.hpp"

namespace perfbench {

namespace {

using namespace fedtune;

constexpr std::size_t kConfigs = 128;
constexpr std::size_t kClients = 1000;
constexpr std::size_t kRsConfigs = 16;      // K
constexpr std::size_t kBootstrapRuns = 100;
constexpr std::size_t kMethodRuns = 8;      // Fig 8 trials per method/noise

struct Pool {
  std::vector<hpo::Config> configs;
  core::PoolEvalView view;
};

// Per-client errors with the structure the figures depend on: configs of
// varying quality and learning speed, client heterogeneity, and noise.
Pool make_pool(std::uint64_t seed) {
  Rng rng = Rng(seed).split(17);
  Pool p;
  const hpo::SearchSpace space = hpo::appendix_b_space();
  for (std::size_t c = 0; c < kConfigs; ++c) p.configs.push_back(space.sample(rng));
  std::vector<double> weights(kClients), difficulty(kClients);
  for (std::size_t k = 0; k < kClients; ++k) {
    weights[k] = std::max(1.0, std::round(std::exp(rng.normal(3.0, 1.0))));
    difficulty[k] = rng.normal(0.0, 0.08);
  }
  const std::vector<std::size_t> checkpoints = {1, 3, 9, 27, 81};
  p.view = core::PoolEvalView(checkpoints, weights, kConfigs);
  for (std::size_t c = 0; c < kConfigs; ++c) {
    const double u = rng.uniform();
    const double quality = 0.1 + 0.75 * u * u;
    const double tau = rng.uniform(2.0, 30.0);
    for (std::size_t ck = 0; ck < checkpoints.size(); ++ck) {
      const double mean =
          quality + (0.9 - quality) *
                        std::exp(-static_cast<double>(checkpoints[ck]) / tau);
      auto errs = p.view.errors(c, ck);
      for (std::size_t k = 0; k < kClients; ++k) {
        const double e = mean + difficulty[k] + rng.normal(0.0, 0.05);
        errs[k] = static_cast<float>(std::clamp(e, 0.0, 1.0));
      }
    }
  }
  return p;
}

// The bootstrap settings of Figs 3, 6 and 9 on the 1000-client grid.
std::vector<core::NoiseModel> bootstrap_settings() {
  const std::vector<std::size_t> grid =
      data::subsample_grid(data::BenchmarkId::kRedditLike);
  std::vector<core::NoiseModel> out;
  for (std::size_t s : grid) {
    core::NoiseModel n;
    n.eval_clients = s;
    out.push_back(n);
  }
  for (double b : {0.0, 1.0, 1.5, 3.0}) {
    for (std::size_t s : grid) {
      core::NoiseModel n;
      n.eval_clients = s;
      n.bias_b = b;
      out.push_back(n);
    }
  }
  for (double eps : {0.1, 1.0, 10.0, 100.0,
                     std::numeric_limits<double>::infinity()}) {
    for (std::size_t s : grid) {
      core::NoiseModel n;
      n.eval_clients = s;
      n.epsilon = eps;
      n.weighting = fl::Weighting::kUniform;
      out.push_back(n);
    }
  }
  return out;
}

// Fig 8's noisy setting: 1% of eval clients, epsilon = 100.
core::NoiseModel fig8_noise(bool noisy) {
  core::NoiseModel n;
  if (noisy) {
    n.eval_clients = kClients / 100;
    n.epsilon = 100.0;
    n.weighting = fl::Weighting::kUniform;
  }
  return n;
}

// Metric key and span names (string literals, as spans require) per method.
struct MethodNames {
  const char* key;
  const char* ask;
  const char* tell;
};

MethodNames names(sim::Method m) {
  switch (m) {
    case sim::Method::kRandomSearch:
      return {"rs", "hpo.ask.rs", "hpo.run_outstanding.rs"};
    case sim::Method::kTpe:
      return {"tpe", "hpo.ask.tpe", "hpo.run_outstanding.tpe"};
    case sim::Method::kHyperband:
      return {"hb", "hpo.ask.hb", "hpo.run_outstanding.hb"};
    case sim::Method::kBohb:
      return {"bohb", "hpo.ask.bohb", "hpo.run_outstanding.bohb"};
  }
  return {"?", "?", "?"};
}

class TimingRunner final : public core::TrialRunner {
 public:
  TimingRunner(core::TrialRunner& inner, Tracer& tracer, std::uint64_t id)
      : inner_(inner), tracer_(tracer), id_(id) {}
  std::vector<double> run(const hpo::Trial& trial) override {
    ScopedSpan span(&tracer_, "core.runner.run", id_);
    return inner_.run(trial);
  }
  const std::vector<double>& client_weights() const override {
    return inner_.client_weights();
  }
  std::size_t rounds_consumed(const hpo::Trial& trial) const override {
    return inner_.rounds_consumed(trial);
  }

 private:
  core::TrialRunner& inner_;
  Tracer& tracer_;
  std::uint64_t id_;
};

// sim::run_pool_method, step by step through core::TuningSession.
core::TuneResult mirror_run(sim::Method method, const Pool& p,
                            const core::NoiseModel& noise, std::uint64_t seed,
                            Tracer& tracer, std::uint64_t id) {
  Rng rng(seed);
  std::unique_ptr<hpo::Tuner> tuner =
      sim::make_pool_tuner(method, p.configs, p.view, kRsConfigs, rng.split(1));
  core::PoolTrialRunner pool_runner(p.view);
  TimingRunner runner(pool_runner, tracer, id);
  core::DriverOptions dopts;
  dopts.noise = noise;
  dopts.dp_style = sim::dp_style_for(method);
  dopts.seed = rng.split(2).seed();
  core::TuningSession session(*tuner, runner, dopts);
  for (;;) {
    std::optional<hpo::Trial> trial;
    {
      ScopedSpan span(&tracer, names(method).ask, id);
      trial = session.ask();
    }
    if (!trial.has_value()) break;
    ScopedSpan span(&tracer, names(method).tell, id);
    session.run_outstanding();
  }
  return session.finalize();
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool same_result(const core::TuneResult& a, const core::TuneResult& b) {
  if (a.records.size() != b.records.size() ||
      a.incumbent_curve.size() != b.incumbent_curve.size() ||
      a.best.has_value() != b.best.has_value() ||
      (a.best && a.best->id != b.best->id) ||
      !same_bits(a.best_full_error, b.best_full_error) ||
      a.rounds_used != b.rounds_used) {
    return false;
  }
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const core::TrialRecord& x = a.records[i];
    const core::TrialRecord& y = b.records[i];
    if (x.trial.id != y.trial.id || x.trial.config != y.trial.config ||
        x.trial.config_index != y.trial.config_index ||
        x.trial.target_rounds != y.trial.target_rounds ||
        x.trial.parent_id != y.trial.parent_id ||
        !same_bits(x.noisy_objective, y.noisy_objective) ||
        !same_bits(x.full_error, y.full_error) ||
        x.cumulative_rounds != y.cumulative_rounds) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.incumbent_curve.size(); ++i) {
    if (a.incumbent_curve[i].rounds != b.incumbent_curve[i].rounds ||
        !same_bits(a.incumbent_curve[i].full_error,
                   b.incumbent_curve[i].full_error)) {
      return false;
    }
  }
  return true;
}

// Every trial's config is a pool config and its recorded full error is the
// view's full error at the trial's fidelity; the selection is one of them.
void check_tune_result(const core::TuneResult& res, const Pool& p,
                       const core::NoiseModel& noise, const std::string& what,
                       Result& r) {
  const fl::Weighting w = noise.effective_weighting();
  for (const core::TrialRecord& rec : res.records) {
    const std::size_t c = rec.trial.config_index;
    if (c >= p.configs.size() || p.configs[c] != rec.trial.config) {
      r.fail_check(what + ": trial config not in the pool");
      return;
    }
    const double expected = p.view.full_error(
        c, p.view.checkpoint_index(rec.trial.target_rounds), w);
    if (!same_bits(rec.full_error, expected)) {
      r.fail_check(what + ": recorded full error differs from the view");
      return;
    }
  }
  if (!res.best.has_value()) {
    r.fail_check(what + ": no selection");
    return;
  }
  const auto it = std::find_if(
      res.records.begin(), res.records.end(),
      [&](const core::TrialRecord& rec) { return rec.trial.id == res.best->id; });
  if (it == res.records.end() || !same_bits(it->full_error, res.best_full_error)) {
    r.fail_check(what + ": selected trial's full error not recorded");
  }
}

void check_quartiles(const stats::QuartileSummary& q, double floor,
                     Result& r) {
  if (!(floor <= q.q25 && q.q25 <= q.median && q.median <= q.q75 &&
        q.q75 <= 1.0)) {
    r.fail_check("bootstrap quartiles out of order or outside [best, 1]");
  }
}

// Median over calls of one NoisyEvaluator::evaluate on the view's vectors.
double evaluate_us(const Pool& p, const core::NoiseModel& noise,
                   std::uint64_t seed) {
  std::vector<std::vector<double>> inputs;
  for (std::size_t c = 0; c < kConfigs; ++c) {
    inputs.push_back(p.view.errors_f64(c, p.view.final_checkpoint()));
  }
  // A fresh evaluator per K evaluations: the DP accountant's budget is
  // planned for one K-config run.
  std::optional<core::NoisyEvaluator> evaluator;
  std::vector<double> us;
  const double end = now_s() + 0.1;
  while (us.size() < 20000 && (us.size() < 10 || now_s() < end)) {
    if (us.size() % kRsConfigs == 0) {
      evaluator.emplace(noise, p.view.client_weights(), kRsConfigs,
                        Rng(seed).split(us.size()));
    }
    const std::int64_t t0 = now_ns();
    evaluator->evaluate(inputs[us.size() % kConfigs]);
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(us);
}

}  // namespace

Result run_tune_sim(const RunOptions& opts) {
  Result r;
  r.op_metric = "tuning_runs_per_s";
  r.latency_metric = "pass";
  Pool pool;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_s();
    pool = make_pool(opts.seed);
    r.setup_s.push_back(now_s() - t0);
  }
  const double floor =
      std::min(pool.view.best_full_error(fl::Weighting::kUniform),
               pool.view.best_full_error(fl::Weighting::kByExampleCount));
  const std::vector<core::NoiseModel> settings = bootstrap_settings();
  Tracer* tracer = opts.tracer;
  double measured = 0.0, bootstrap_s = 0.0;
  std::size_t pass = 0, mirror_evals = 0;
  while (pass == 0 || measured < opts.seconds) {
    const Rng pass_rng = Rng(opts.seed).split(1000 + pass);
    double pass_s = 0.0;
    std::uint64_t runs = 0;
    for (std::size_t i = 0; i < settings.size(); ++i) {
      sim::BootstrapOptions bo;
      bo.rs_configs = kRsConfigs;
      bo.trials = kBootstrapRuns;
      bo.seed = pass_rng.split(i).seed();
      const std::int64_t t0 = now_ns();
      const stats::QuartileSummary q = sim::bootstrap_random_search(
          pool.configs, pool.view, settings[i], bo);
      const std::int64_t t1 = now_ns();
      if (tracer != nullptr) {
        tracer->record("sim.bootstrap_random_search", (pass << 32) | i, t0, t1);
      }
      pass_s += static_cast<double>(t1 - t0) * 1e-9;
      bootstrap_s += static_cast<double>(t1 - t0) * 1e-9;
      check_quartiles(q, floor, r);
      r.attempted += kBootstrapRuns;
      runs += kBootstrapRuns;
    }
    std::size_t run = 0;
    for (const sim::Method m : sim::all_methods()) {
      for (const bool noisy : {false, true}) {
        const core::NoiseModel noise = fig8_noise(noisy);
        for (std::size_t t = 0; t < kMethodRuns; ++t, ++run) {
          const std::uint64_t seed = pass_rng.split(500 + run).seed();
          const std::string what = std::string(names(m).key) + " run";
          const std::int64_t t0 = now_ns();
          if (tracer == nullptr) {
            const core::TuneResult res = sim::run_pool_method(
                m, pool.configs, pool.view, noise, kRsConfigs, seed);
            pass_s += static_cast<double>(now_ns() - t0) * 1e-9;
            check_tune_result(res, pool, noise, what, r);
          } else {
            const std::uint64_t id = (pass << 32) | (1u << 20) | run;
            const core::TuneResult res =
                mirror_run(m, pool, noise, seed, *tracer, id);
            pass_s += static_cast<double>(now_ns() - t0) * 1e-9;
            mirror_evals += res.records.size();
            check_tune_result(res, pool, noise, what, r);
            if (pass == 0 &&
                !same_result(res, sim::run_pool_method(m, pool.configs,
                                                       pool.view, noise,
                                                       kRsConfigs, seed))) {
              r.fail_check(what + ": traced mirror differs from run_pool_method");
            }
          }
          ++r.attempted;
          ++runs;
        }
      }
    }
    r.slices.push_back({runs, pass_s});
    r.latency_us.push_back(pass_s * 1e6);
    measured += pass_s;
    ++pass;
  }
  if (tracer == nullptr) return r;

  Metrics& m = r.layer;
  for (const sim::Method method : sim::all_methods()) {
    const MethodNames n = names(method);
    const std::string key = n.key;
    m["hpo.ask_us." + key] = {median(tracer->durations_us(n.ask)), "us"};
    // Self time of run_outstanding: its span minus the runner span inside.
    const auto outer = tracer->spans(n.tell);
    const auto inner = tracer->spans("core.runner.run");
    std::vector<double> self_us;
    std::size_t j = 0;
    for (const auto& o : outer) {
      while (j < inner.size() &&
             (inner[j].id != o.id || inner[j].start_ns < o.start_ns)) {
        ++j;
      }
      const std::int64_t child = j < inner.size() ? inner[j].dur_ns : 0;
      self_us.push_back(static_cast<double>(o.dur_ns - child) * 1e-3);
    }
    m["hpo.tell_eval_us." + key] = {median(self_us), "us"};
  }
  m["core.runner_us"] = {median(tracer->durations_us("core.runner.run")), "us"};
  core::NoiseModel subsample;
  subsample.eval_clients = kClients / 100;
  m["core.evaluate_us.full"] = {evaluate_us(pool, core::NoiseModel{}, opts.seed), "us"};
  m["core.evaluate_us.subsample"] = {evaluate_us(pool, subsample, opts.seed), "us"};
  m["core.evaluate_us.dp"] = {evaluate_us(pool, fig8_noise(true), opts.seed), "us"};
  m["sim.bootstrap_share"] = {bootstrap_s / measured, "1"};
  const double per_pass_evals =
      static_cast<double>(settings.size() * kBootstrapRuns * kRsConfigs) +
      static_cast<double>(mirror_evals) / static_cast<double>(pass);
  m["core.evals"] = {per_pass_evals, "count"};
  return r;
}

}  // namespace perfbench
