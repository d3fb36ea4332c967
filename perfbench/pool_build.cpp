// pool_build — cold ConfigPool::build for the four paper datasets, the
// reproduction path that dominates cold figure time. Untraced runs call
// ConfigPool::build; traced runs call a mirror of it made of the same public
// calls (FedTrainer::run_round, fl::all_client_errors) wrapped in spans, and
// check the mirror bitwise against the real build.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/config_pool.hpp"
#include "core/hp_mapping.hpp"
#include "data/benchmarks.hpp"
#include "fl/evaluator.hpp"
#include "fl/trainer.hpp"
#include "hpo/search_space.hpp"
#include "nn/factory.hpp"
#include "sim/pool_hub.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

using namespace fedtune;

// Configs per dataset and pass. At 8, a seed whose configs all have
// learning rates far from useful leaves the text datasets near chance; 16
// keeps the quality check below robust across seeds.
constexpr std::size_t kConfigsPerDataset = 16;

struct Dataset {
  std::string name;
  data::FederatedDataset ds;
  std::unique_ptr<nn::Model> arch;
  std::vector<std::size_t> checkpoints;
};

std::vector<Dataset> make_datasets() {
  std::vector<Dataset> out;
  for (const data::BenchmarkId id : data::all_benchmarks()) {
    Dataset d;
    d.name = data::benchmark_name(id);
    d.ds = data::make_benchmark(id);
    d.arch = nn::make_default_model(d.ds);
    d.checkpoints = sim::PoolHub::checkpoint_grid(id);
    out.push_back(std::move(d));
  }
  return out;
}

// Pass p trains fresh configs: the config stream is shared across datasets
// (as in the paper's pools), both streams derive from the workload seed.
core::PoolBuildOptions build_options(const Dataset& d, std::uint64_t seed,
                                     std::size_t pass) {
  const Rng pass_rng = Rng(seed).split(pass);
  core::PoolBuildOptions opts;
  opts.num_configs = kConfigsPerDataset;
  opts.config_seed = pass_rng.split(1).seed();
  opts.train_seed = pass_rng.split(2).seed();
  opts.checkpoints = d.checkpoints;
  return opts;
}

// Errors and parameter snapshots in ConfigPool's layout:
// [config][checkpoint][client] and [config][checkpoint][param].
struct BuildOutput {
  std::vector<hpo::Config> configs;
  std::vector<float> errors;
  std::vector<float> params;
};

std::uint64_t span_id(std::size_t pass, std::size_t dataset, std::size_t c) {
  return (static_cast<std::uint64_t>(pass) << 40) |
         (static_cast<std::uint64_t>(dataset) << 32) | c;
}

// ConfigPool::build through public calls only, one span per config, round
// and evaluation.
BuildOutput mirror_build(const Dataset& d, const core::PoolBuildOptions& opts,
                         Tracer& tracer, std::size_t pass,
                         std::size_t dataset_index) {
  const hpo::SearchSpace space = hpo::appendix_b_space();
  BuildOutput out;
  Rng config_rng(opts.config_seed);
  for (std::size_t i = 0; i < opts.num_configs; ++i) {
    out.configs.push_back(space.sample(config_rng));
  }
  const std::size_t n_ck = opts.checkpoints.size();
  const std::size_t n_clients = d.ds.eval_clients.size();
  const std::size_t n_params = d.arch->num_params();
  out.errors.assign(opts.num_configs * n_ck * n_clients, 1.0f);
  out.params.assign(opts.num_configs * n_ck * n_params, 0.0f);
  const Rng train_rng(opts.train_seed);
  ThreadPool::global().parallel_for(opts.num_configs, [&](std::size_t c) {
    const std::uint64_t id = span_id(pass, dataset_index, c);
    ScopedSpan config_span(&tracer, "core.config", id);
    fl::FedTrainer trainer(d.ds, *d.arch,
                           core::to_fed_hyperparams(out.configs[c]),
                           opts.trainer, train_rng.split(c));
    for (std::size_t ck = 0; ck < n_ck; ++ck) {
      while (trainer.rounds_done() < opts.checkpoints[ck]) {
        ScopedSpan round_span(&tracer, "fl.run_round", id);
        trainer.run_round();
      }
      std::vector<double> errs;
      {
        ScopedSpan eval_span(&tracer, "fl.all_client_errors", id);
        errs = fl::all_client_errors(trainer.model(), d.ds.eval_clients, 0);
      }
      float* dst = out.errors.data() + (c * n_ck + ck) * n_clients;
      for (std::size_t k = 0; k < n_clients; ++k) {
        dst[k] = static_cast<float>(errs[k]);
      }
      const auto src = trainer.model().params();
      std::copy(src.begin(), src.end(),
                out.params.begin() +
                    static_cast<std::ptrdiff_t>((c * n_ck + ck) * n_params));
    }
  });
  return out;
}

// Output checks that survive legitimate math changes: errors are rates,
// and the best config of the pool learns something.
void check_pool(const core::ConfigPool& pool, const Dataset& d, Result& r) {
  const core::PoolEvalView& view = pool.view();
  for (std::size_t c = 0; c < view.num_configs(); ++c) {
    for (std::size_t ck = 0; ck < view.checkpoints().size(); ++ck) {
      for (const float e : view.errors(c, ck)) {
        if (!(e >= 0.0f && e <= 1.0f)) {
          r.fail_check(d.name + ": error outside [0,1]");
          return;
        }
      }
    }
  }
  // The best config must beat uniform guessing. Learning-rate draws span
  // six decades and most configs learn little, so the bound is loose enough
  // for any seed; errors stuck at or above chance fail it.
  const double chance = 1.0 - 1.0 / static_cast<double>(d.ds.num_classes);
  const double best = view.best_full_error(fl::Weighting::kByExampleCount);
  if (!(best < chance)) {
    r.fail_check(d.name + ": best full error " + std::to_string(best) +
                 " not below chance " + std::to_string(chance));
  }
}

void check_mirror(const core::ConfigPool& pool, const BuildOutput& mirror,
                  const Dataset& d, Result& r) {
  const core::PoolEvalView& view = pool.view();
  const std::size_t n_ck = view.checkpoints().size();
  bool same = pool.configs() == mirror.configs;
  for (std::size_t c = 0; same && c < view.num_configs(); ++c) {
    for (std::size_t ck = 0; same && ck < n_ck; ++ck) {
      const auto e = view.errors(c, ck);
      const auto p = pool.params(c, ck);
      same = std::memcmp(e.data(),
                         mirror.errors.data() + (c * n_ck + ck) * e.size(),
                         e.size_bytes()) == 0 &&
             std::memcmp(p.data(),
                         mirror.params.data() + (c * n_ck + ck) * p.size(),
                         p.size_bytes()) == 0;
    }
  }
  if (!same) r.fail_check(d.name + ": traced mirror differs from ConfigPool::build");
}

// Median wall time of `fn` over repeated calls within `budget_s`.
template <typename Fn>
double median_call_us(double budget_s, std::size_t max_calls, Fn&& fn) {
  std::vector<double> us;
  const double end = now_s() + budget_s;
  while (us.size() < max_calls && (us.empty() || now_s() < end)) {
    const std::int64_t t0 = now_ns();
    fn(us.size());
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(us);
}

// GFLOP/s of the forward (gemm) and backward (gemm_tn, gemm_nt) products a
// dense layer stack issues on `rows` inputs.
double gemm_gflops(std::size_t rows, const std::vector<std::size_t>& dims) {
  struct Layer {
    Matrix x, w, y, gy, gw, gx;
  };
  Rng rng(7);
  std::vector<Layer> layers;
  double flops_per_sweep = 0.0;
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    const std::size_t in = dims[i], out = dims[i + 1];
    layers.push_back({Matrix::randn(rows, in, rng), Matrix::randn(in, out, rng),
                      Matrix(rows, out), Matrix::randn(rows, out, rng),
                      Matrix(in, out), Matrix(rows, in)});
    flops_per_sweep += 3.0 * 2.0 * static_cast<double>(rows * in * out);
  }
  std::size_t sweeps = 0;
  const std::int64_t t0 = now_ns();
  const std::int64_t end = t0 + 200'000'000;
  while (sweeps < 3 || now_ns() < end) {
    for (Layer& l : layers) {
      ops::gemm(l.x, l.w, l.y);
      ops::gemm_tn(l.x, l.gy, l.gw);
      ops::gemm_nt(l.gy, l.w, l.gx);
    }
    ++sweeps;
  }
  const double secs = static_cast<double>(now_ns() - t0) * 1e-9;
  return flops_per_sweep * static_cast<double>(sweeps) / secs * 1e-9;
}

void layer_probes(const std::vector<Dataset>& datasets, std::uint64_t seed,
                  std::size_t batch, Metrics& m) {
  for (const Dataset& d : datasets) {
    std::unique_ptr<nn::Model> model = d.arch->clone_architecture();
    Rng init(seed);
    model->init(init);
    const data::ClientData* biggest = &d.ds.train_clients.front();
    for (const data::ClientData& c : d.ds.train_clients) {
      if (c.num_examples() > biggest->num_examples()) biggest = &c;
    }
    std::vector<std::size_t> idx(std::min(batch, biggest->num_examples()));
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    m["nn.fwd_bwd_us." + d.name] = {
        median_call_us(0.1, 2000,
                       [&](std::size_t) {
                         model->zero_grad();
                         model->forward_backward(*biggest, idx);
                       }),
        "us"};
    const auto& eval = d.ds.eval_clients;
    m["nn.errors_us." + d.name] = {
        median_call_us(0.1, eval.size(),
                       [&](std::size_t i) { model->errors(eval[i]); }),
        "us"};
  }
  // Shapes of the default models (nn/factory.cpp) at the median batch size.
  const data::FederatedDataset& image = datasets[0].ds;
  m["tensor.gemm_gflops.mlp"] = {
      gemm_gflops(batch, {image.input_dim, 32, 32, image.num_classes}),
      "GFLOP/s"};
  const data::FederatedDataset& text = datasets[2].ds;
  const std::size_t positions = text.train_clients.front().seq_len - 2;
  m["tensor.gemm_gflops.textmlp"] = {
      gemm_gflops(batch * positions, {2 * 8, 24, text.num_classes}), "GFLOP/s"};
}

void traced_metrics(const Tracer& tracer, const std::vector<Dataset>& datasets,
                    const std::vector<std::vector<double>>& build_s,
                    std::size_t passes, Metrics& m) {
  const auto configs = tracer.spans("core.config");
  const auto rounds = tracer.spans("fl.run_round");
  const auto evals = tracer.spans("fl.all_client_errors");
  auto dataset_of = [](std::uint64_t id) { return (id >> 32) & 0xff; };
  double config_total = 0.0, round_total = 0.0, eval_total = 0.0;
  for (const auto& s : configs) config_total += static_cast<double>(s.dur_ns);
  for (const auto& s : rounds) round_total += static_cast<double>(s.dur_ns);
  for (const auto& s : evals) eval_total += static_cast<double>(s.dur_ns);
  double wall_total = 0.0;
  std::vector<double> straggler;
  for (std::size_t di = 0; di < datasets.size(); ++di) {
    const std::string& name = datasets[di].name;
    std::vector<double> r_us, e_us;
    for (const auto& s : rounds) {
      if (dataset_of(s.id) == di) r_us.push_back(s.dur_ns * 1e-3);
    }
    for (const auto& s : evals) {
      if (dataset_of(s.id) == di) e_us.push_back(s.dur_ns * 1e-3);
    }
    m["core.build_s." + name] = {median(build_s[di]), "s"};
    m["fl.round_us." + name] = {median(r_us), "us"};
    m["fl.eval_us." + name] = {median(e_us), "us"};
    for (double b : build_s[di]) wall_total += b;
    for (std::size_t p = 0; p < passes; ++p) {
      std::vector<double> per_config;
      for (const auto& s : configs) {
        if (dataset_of(s.id) == di && (s.id >> 40) == p) {
          per_config.push_back(static_cast<double>(s.dur_ns));
        }
      }
      if (!per_config.empty()) {
        straggler.push_back(*std::max_element(per_config.begin(),
                                              per_config.end()) /
                            median(per_config));
      }
    }
  }
  const double slots = static_cast<double>(ThreadPool::global().max_slots());
  m["fl.round_share"] = {round_total / config_total, "1"};
  m["fl.eval_share"] = {eval_total / config_total, "1"};
  m["common.pool_busy_share"] = {config_total * 1e-9 / (wall_total * slots), "1"};
  m["common.config_s_max_over_p50"] = {median(straggler), "1"};
  const double p = static_cast<double>(passes);
  m["fl.rounds"] = {static_cast<double>(rounds.size()) / p, "count"};
  m["fl.client_updates"] = {
      static_cast<double>(rounds.size()) / p *
          static_cast<double>(fl::TrainerConfig{}.clients_per_round),
      "count"};
  double client_evals = 0.0;
  for (const auto& s : evals) {
    client_evals += static_cast<double>(
        datasets[dataset_of(s.id)].ds.eval_clients.size());
  }
  m["fl.evals"] = {client_evals / p, "count"};
}

}  // namespace

Result run_pool_build(const RunOptions& opts) {
  Result r;
  r.op_metric = "configs_per_s";
  r.latency_metric = "pass";
  std::vector<Dataset> datasets;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    datasets = make_datasets();
    r.setup_s.push_back(now_s() - t0);
  }
  const hpo::SearchSpace space = hpo::appendix_b_space();
  std::vector<std::vector<double>> build_s(datasets.size());
  std::size_t pass = 0;
  std::size_t median_batch = 64;
  double measured = 0.0;
  while (pass == 0 || measured < opts.seconds) {
    double pass_s = 0.0;
    for (std::size_t di = 0; di < datasets.size(); ++di) {
      const Dataset& d = datasets[di];
      const core::PoolBuildOptions bo = build_options(d, opts.seed, pass);
      r.attempted += bo.num_configs;
      if (opts.tracer == nullptr) {
        const double t0 = now_s();
        const core::ConfigPool pool =
            core::ConfigPool::build(d.ds, *d.arch, space, bo);
        const double dt = now_s() - t0;
        pass_s += dt;
        build_s[di].push_back(dt);
        check_pool(pool, d, r);
        continue;
      }
      const double t0 = now_s();
      const BuildOutput mirror = mirror_build(d, bo, *opts.tracer, pass, di);
      const double dt = now_s() - t0;
      pass_s += dt;
      build_s[di].push_back(dt);
      if (pass == 0) {
        // The reference build is outside the timed window.
        const core::ConfigPool pool =
            core::ConfigPool::build(d.ds, *d.arch, space, bo);
        check_pool(pool, d, r);
        check_mirror(pool, mirror, d, r);
        if (di == 0) {
          std::vector<double> batches;
          for (const hpo::Config& c : pool.configs()) {
            batches.push_back(
                static_cast<double>(core::to_fed_hyperparams(c).batch_size));
          }
          median_batch = static_cast<std::size_t>(median(batches));
        }
      }
    }
    r.slices.push_back({datasets.size() * kConfigsPerDataset, pass_s});
    r.latency_us.push_back(pass_s * 1e6);
    measured += pass_s;
    ++pass;
  }
  if (opts.tracer != nullptr) {
    traced_metrics(*opts.tracer, datasets, build_s, pass, r.layer);
    layer_probes(datasets, opts.seed, median_batch, r.layer);
  }
  return r;
}

}  // namespace perfbench
