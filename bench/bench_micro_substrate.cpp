// Microbenchmarks of the substrate kernels (google-benchmark): gemm (blocked
// vs retained naive reference), LSTM BPTT, Laplace sampling, client sampling,
// federated rounds, config-pool builds, and tuner ask/tell overhead. These
// bound the cost model behind the experiment harness sizing in DESIGN.md.
//
// Two modes:
//   bench_micro_substrate [google-benchmark flags]
//       runs the registered microbenchmarks.
//   bench_micro_substrate --substrate_json=PATH
//       runs the focused substrate report — before/after GEMM GFLOP/s,
//       config-pool build wall-clock at 1 vs N threads (monolithic and
//       sharded), the eval/train async-overlap speedup, and the
//       study_service section (journal append throughput, ask->tell step
//       latency, concurrent-study scheduler throughput), the
//       shared_eval_cache section (8-tenant trials/s uncached vs cold vs
//       warm shared cache, hit rates), and the fault_recovery section —
//       and writes it as machine-readable JSON (consumed by
//       scripts/bench_report.sh).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>

#include "core/config_pool.hpp"
#include "core/hp_mapping.hpp"
#include "data/synth_image.hpp"
#include "fl/evaluator.hpp"
#include "fl/trainer.hpp"
#include "hpo/random_search.hpp"
#include "hpo/tpe.hpp"
#include "nn/factory.hpp"
#include "nn/mlp.hpp"
#include "nn/text_models.hpp"
#include "obs/metrics.hpp"
#include "privacy/laplace.hpp"
#include "runtime/async_eval.hpp"
#include "sampling/client_sampler.hpp"
#include "service/study_manager.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace fedtune;

// ------------------------------------------------------- microbenchmarks --

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::randn(n, n, rng);
  const Matrix b = Matrix::randn(n, n, rng);
  Matrix out;
  for (auto _ : state) {
    ops::gemm(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Gemm)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNaive(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::randn(n, n, rng);
  const Matrix b = Matrix::randn(n, n, rng);
  Matrix out;
  for (auto _ : state) {
    ops::gemm_naive(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmNaive)->Arg(16)->Arg(32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmNT(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::randn(n, n, rng);
  const Matrix b = Matrix::randn(n, n, rng);
  Matrix out;
  for (auto _ : state) {
    ops::gemm_nt(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::randn(n, n, rng);
  const Matrix b = Matrix::randn(n, n, rng);
  Matrix out(n, n);
  for (auto _ : state) {
    ops::gemm_tn(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmTN)->Arg(64)->Arg(128)->Arg(256);

void BM_MlpForwardBackward(benchmark::State& state) {
  Rng rng(2);
  nn::MlpClassifier model(32, {32, 32}, 10);
  model.init(rng);
  data::ClientData client;
  client.features = Matrix::randn(32, 32, rng);
  client.labels.assign(32, 0);
  std::vector<std::size_t> idx(32);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (auto _ : state) {
    model.zero_grad();
    benchmark::DoNotOptimize(model.forward_backward(client, idx));
  }
}
BENCHMARK(BM_MlpForwardBackward);

void BM_LstmForwardBackward(benchmark::State& state) {
  Rng rng(3);
  nn::LstmLm model(32, 12, 24);
  model.init(rng);
  data::ClientData client;
  client.seq_len = 15;
  client.tokens.resize(16 * 15);
  for (auto& t : client.tokens) {
    t = static_cast<std::int32_t>(rng.uniform_int(0, 31));
  }
  std::vector<std::size_t> idx(16);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  for (auto _ : state) {
    model.zero_grad();
    benchmark::DoNotOptimize(model.forward_backward(client, idx));
  }
}
BENCHMARK(BM_LstmForwardBackward);

void BM_FederatedRound(benchmark::State& state) {
  data::SynthImageConfig cfg;
  cfg.num_train_clients = 50;
  cfg.num_eval_clients = 10;
  cfg.mean_examples = 100.0;
  cfg.input_dim = 32;
  cfg.seed = 4;
  const data::FederatedDataset ds = data::make_synth_image(cfg);
  const auto arch = nn::make_default_model(ds);
  fl::FedTrainer trainer(ds, *arch, fl::FedHyperParams{}, fl::TrainerConfig{},
                         Rng(5));
  for (auto _ : state) trainer.run_round();
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FederatedRound);

void BM_LaplaceSample(benchmark::State& state) {
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(privacy::laplace_sample(0.5, rng));
  }
}
BENCHMARK(BM_LaplaceSample);

void BM_BiasedClientSampling(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<double> acc(n);
  for (auto& a : acc) a = rng.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampling::sample_biased(acc, n / 10 + 1, {3.0, 1e-4}, rng));
  }
}
BENCHMARK(BM_BiasedClientSampling)->Arg(100)->Arg(1000)->Arg(10000);

void BM_TpeProposal(benchmark::State& state) {
  Rng rng(8);
  hpo::SearchSpace space = hpo::appendix_b_space();
  hpo::TpeDensityModel model(space, hpo::TpeOptions{});
  for (int i = 0; i < 32; ++i) {
    model.add_observation(space.sample(rng), rng.uniform());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.propose(rng));
  }
}
BENCHMARK(BM_TpeProposal);

void BM_RandomSearchAskTell(benchmark::State& state) {
  Rng rng(9);
  for (auto _ : state) {
    hpo::RandomSearch rs(hpo::appendix_b_space(), 16, 81, rng.split(1));
    while (auto t = rs.ask()) rs.tell(*t, rng.uniform());
    benchmark::DoNotOptimize(rs.best_trial());
  }
}
BENCHMARK(BM_RandomSearchAskTell);

// -------------------------------------------------------- substrate report --

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Best-of-3 GFLOP/s of `fn` on an n x n x n multiply, auto-scaling the
// iteration count to a measurable duration.
template <typename Fn>
double gemm_gflops(std::size_t n, Fn&& fn) {
  const double flops = 2.0 * static_cast<double>(n) * n * n;
  std::size_t iters = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double s = seconds_since(t0);
    if (s >= 0.05) break;
    iters *= 4;
  }
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) fn();
    const double s = seconds_since(t0);
    best = std::max(best, flops * static_cast<double>(iters) / s / 1e9);
  }
  return best;
}

core::PoolBuildOptions report_pool_options(std::size_t num_threads) {
  core::PoolBuildOptions opts;
  opts.num_configs = 8;
  opts.checkpoints = {1, 3, 9};
  opts.trainer.clients_per_round = 8;
  opts.store_params = false;
  opts.num_threads = num_threads;
  return opts;
}

double pool_build_seconds(const data::FederatedDataset& ds,
                          const nn::Model& arch, std::size_t num_threads) {
  const core::PoolBuildOptions opts = report_pool_options(num_threads);
  const auto t0 = Clock::now();
  benchmark::DoNotOptimize(
      core::ConfigPool::build(ds, arch, hpo::appendix_b_space(), opts));
  return seconds_since(t0);
}

// One shard of the same 8-config pool, timed as a fleet process would run it
// (full thread budget per shard — shards live on separate machines).
core::ConfigPool pool_shard_timed(const data::FederatedDataset& ds,
                                  const nn::Model& arch, std::size_t lo,
                                  std::size_t hi, std::size_t num_threads,
                                  double* seconds) {
  const core::PoolBuildOptions opts = report_pool_options(num_threads);
  const auto t0 = Clock::now();
  core::ConfigPool shard = core::ConfigPool::build_shard(
      ds, arch, hpo::appendix_b_space(), opts, lo, hi);
  *seconds = seconds_since(t0);
  return shard;
}

// Train `rounds` rounds with a full checkpoint evaluation after every
// round: synchronously (eval barriers training) vs pipelined through
// runtime::AsyncEvalPipeline (next round trains while the previous
// checkpoint evaluates). Values are identical by construction
// (tests/test_runtime.cpp); this measures only the barrier's cost.
void async_overlap_seconds(const data::FederatedDataset& ds,
                           const nn::Model& arch, std::size_t rounds,
                           double* sync_seconds, double* pipelined_seconds) {
  fl::FedHyperParams hps;
  hps.client_lr = 0.05;
  {
    fl::FedTrainer trainer(ds, arch, hps, fl::TrainerConfig{}, Rng(5));
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      trainer.run_round();
      benchmark::DoNotOptimize(
          fl::all_client_errors(trainer.model(), ds.eval_clients));
    }
    *sync_seconds = seconds_since(t0);
  }
  {
    fl::FedTrainer trainer(ds, arch, hps, fl::TrainerConfig{}, Rng(5));
    runtime::AsyncEvalPipeline pipeline(arch, ds.eval_clients);
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      trainer.run_round();
      pipeline.submit(r, r, trainer.global_params());
    }
    pipeline.drain();
    *pipelined_seconds = seconds_since(t0);
    benchmark::DoNotOptimize(pipeline.completed());
  }
}

int write_substrate_report(const std::string& path) {
  // Scale test capped at the hardware: more workers than cores only
  // measures oversubscription, which would make the JSON non-comparable
  // across machines.
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t scale_threads = std::max<std::size_t>(
      2, std::min<std::size_t>(8, hw));

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    return 1;
  }
  out << "{\n  \"threads_available\": " << hw << ",\n  \"gemm\": [\n";
  Rng rng(1);
  const std::size_t sizes[] = {64, 128, 256};
  bool first = true;
  for (std::size_t n : sizes) {
    const Matrix a = Matrix::randn(n, n, rng);
    const Matrix b = Matrix::randn(n, n, rng);
    Matrix c;
    const double naive = gemm_gflops(n, [&] {
      ops::gemm_naive(a, b, c);
      benchmark::DoNotOptimize(c.data());
    });
    const double blocked = gemm_gflops(n, [&] {
      ops::gemm(a, b, c);
      benchmark::DoNotOptimize(c.data());
    });
    if (!first) out << ",\n";
    first = false;
    out << "    {\"size\": " << n << ", \"naive_gflops\": " << naive
        << ", \"blocked_gflops\": " << blocked
        << ", \"speedup\": " << blocked / naive << "}";
    std::cerr << "gemm n=" << n << ": naive " << naive << " GFLOP/s, blocked "
              << blocked << " GFLOP/s (" << blocked / naive << "x)\n";
  }
  out << "\n  ],\n";

  data::SynthImageConfig cfg;
  cfg.num_train_clients = 30;
  cfg.num_eval_clients = 10;
  cfg.mean_examples = 40.0;
  cfg.input_dim = 16;
  cfg.seed = 4;
  const data::FederatedDataset ds = data::make_synth_image(cfg);
  const auto arch = nn::make_default_model(ds);
  const double t1 = pool_build_seconds(ds, *arch, 1);
  const double tn = pool_build_seconds(ds, *arch, scale_threads);
  out << "  \"pool_build\": {\"configs\": 8, \"threads_1_seconds\": " << t1
      << ", \"threads_n\": " << scale_threads
      << ", \"threads_n_seconds\": " << tn << ", \"speedup\": " << t1 / tn
      << "},\n";
  std::cerr << "pool build: 1 thread " << t1 << "s, " << scale_threads
            << " threads " << tn << "s (" << t1 / tn << "x)\n";

  // Sharded build: the same pool as 2 shards. Shards run on separate
  // machines in practice, so the fleet wall-clock estimate is the slowest
  // shard plus the (cheap, single-process) merge.
  double ta = 0.0, tb = 0.0;
  core::ConfigPool shards[2] = {
      pool_shard_timed(ds, *arch, 0, 4, scale_threads, &ta),
      pool_shard_timed(ds, *arch, 4, 8, scale_threads, &tb)};
  const auto m0 = Clock::now();
  benchmark::DoNotOptimize(
      core::ConfigPool::merge(std::span<const core::ConfigPool>(shards, 2)));
  const double tm = seconds_since(m0);
  const double wall = std::max(ta, tb) + tm;
  out << "  \"pool_build_sharded\": {\"configs\": 8, \"shards\": 2, "
      << "\"shard_seconds\": [" << ta << ", " << tb
      << "], \"merge_seconds\": " << tm
      << ", \"est_wall_clock_seconds\": " << wall
      << ", \"monolithic_seconds\": " << tn
      << ", \"est_fleet_speedup\": " << tn / wall << "},\n";

  // Eval/train overlap: sync barrier vs runtime::AsyncEvalPipeline. On a
  // 1-core box this is ~1x (eval runs on the same core); the win appears
  // whenever a worker is free to take the eval job.
  constexpr std::size_t kOverlapRounds = 12;
  double sync_s = 0.0, pipe_s = 0.0;
  async_overlap_seconds(ds, *arch, kOverlapRounds, &sync_s, &pipe_s);
  out << "  \"async_overlap\": {\"rounds\": " << kOverlapRounds
      << ", \"sync_barrier_seconds\": " << sync_s
      << ", \"pipelined_seconds\": " << pipe_s
      << ", \"speedup\": " << sync_s / pipe_s << "},\n";

  // StudyService: journal append throughput, managed ask->tell step
  // latency (journaled), and the fair-share scheduler's aggregate trial
  // throughput over 8 concurrent pool-backed studies.
  {
    namespace svc = fedtune::service;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("fedtune_bench_service_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    // The service layers observe into the same registry histograms the
    // daemon exposes; windowed snapshot deltas isolate each bench section
    // (obs/metrics.hpp HistogramSnapshot::operator-).
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    obs::Histogram& append_hist =
        reg.histogram("fedtune_journal_append_seconds");
    obs::Histogram& ask_tell_hist = reg.histogram(
        "fedtune_study_ask_tell_seconds", {{"study", "bench-latency"}});
    const obs::HistogramSnapshot append_before = append_hist.snapshot();
    const obs::HistogramSnapshot ask_tell_before = ask_tell_hist.snapshot();

    // Journal appends: one framed+flushed ask/tell pair per step.
    svc::StudySpec jspec;
    jspec.name = "bench-journal";
    jspec.external = true;
    constexpr std::size_t kJournalSteps = 2000;
    hpo::Trial jtrial;
    jtrial.config = {{"client_lr", 0.1}, {"server_lr", 0.01}};
    core::TrialRecord jrec;
    jrec.trial = jtrial;
    const auto j0 = Clock::now();
    {
      svc::StudyJournal journal =
          svc::StudyJournal::create(dir + "/bench-journal.journal", jspec);
      for (std::size_t i = 0; i < kJournalSteps; ++i) {
        jtrial.id = static_cast<int>(i);
        jrec.trial.id = jtrial.id;
        jrec.cumulative_rounds = i;
        journal.append_ask(jtrial);
        journal.append_tell(jrec);
      }
    }
    const double journal_s = seconds_since(j0);
    const double appends_per_sec =
        2.0 * static_cast<double>(kJournalSteps) / journal_s;
    const obs::HistogramSnapshot append_win =
        append_hist.snapshot() - append_before;

    // A small shared pool for the service benches (same substrate the
    // pool_build section measures).
    const core::ConfigPool bench_pool = core::ConfigPool::build(
        ds, *arch, hpo::appendix_b_space(), report_pool_options(scale_threads));
    auto resources = std::make_shared<svc::PoolResources>();
    resources->configs = bench_pool.configs();
    resources->view = bench_pool.view();

    svc::ManagerOptions mopts;
    mopts.journal_dir = dir;
    mopts.rounds_per_slice = 9;

    // Ask->tell service latency: one managed study stepped to completion,
    // every step journaled.
    const std::size_t latency_trials = 64;
    double step_us = 0.0;
    {
      svc::StudyManager mgr(mopts);
      mgr.register_pool("p", resources);
      svc::StudySpec spec;
      spec.name = "bench-latency";
      spec.pool = "p";
      spec.num_configs = latency_trials;
      spec.noise.eval_clients = 4;
      svc::StudySession& s = mgr.create_study(spec);
      const auto t0 = Clock::now();
      while (s.run_one_step()) {
      }
      step_us = seconds_since(t0) * 1e6 / static_cast<double>(s.steps());
    }
    const obs::HistogramSnapshot ask_tell_win =
        ask_tell_hist.snapshot() - ask_tell_before;

    // Concurrent-study scheduler throughput: 8 tenants, fair-share slices
    // on the shared thread pool.
    constexpr std::size_t kTenants = 8;
    double trials_per_sec = 0.0;
    {
      svc::StudyManager mgr(mopts);
      mgr.register_pool("p", resources);
      for (std::size_t i = 0; i < kTenants; ++i) {
        svc::StudySpec spec;
        spec.name = "bench-tenant" + std::to_string(i);
        spec.pool = "p";
        spec.num_configs = 24;
        spec.seed = i;
        spec.noise.eval_clients = 4;
        mgr.create_study(spec);
      }
      const auto t0 = Clock::now();
      mgr.run_to_completion();
      std::size_t trials = 0;
      for (const std::string& name : mgr.list()) {
        trials += mgr.find(name)->steps();
      }
      trials_per_sec = static_cast<double>(trials) / seconds_since(t0);
    }
    std::filesystem::remove_all(dir);

    out << "  \"study_service\": {\"journal_appends_per_sec\": "
        << appends_per_sec << ", \"step_latency_us\": " << step_us
        << ", \"journal_append_p50_us\": " << append_win.quantile(0.5) * 1e6
        << ", \"journal_append_p99_us\": " << append_win.quantile(0.99) * 1e6
        << ", \"ask_tell_p50_us\": " << ask_tell_win.quantile(0.5) * 1e6
        << ", \"ask_tell_p99_us\": " << ask_tell_win.quantile(0.99) * 1e6
        << ", \"concurrent_studies\": " << kTenants
        << ", \"scheduler_trials_per_sec\": " << trials_per_sec << "},\n";
    std::cerr << "study service: journal " << appends_per_sec
              << " appends/s (p99 " << append_win.quantile(0.99) * 1e6
              << " us), ask->tell " << step_us << " us/step (p99 "
              << ask_tell_win.quantile(0.99) * 1e6 << " us), " << kTenants
              << "-tenant scheduler " << trials_per_sec << " trials/s\n";
  }

  // Shared evaluation cache: 8 tenants on one pool through the
  // CachingTuner/EvalCache stack (src/README.md §Tuner middleware). Three
  // arms on a fabricated wide pool (one checkpoint, thousands of eval
  // clients, so a live evaluation carries real aggregation work):
  // uncached, cold cache (first tenants in — their run warms it), and warm
  // (the same tenant workload re-admitted under fresh names; admission IS
  // the warm start).
  {
    namespace svc = fedtune::service;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("fedtune_bench_cache_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    constexpr std::size_t kCacheTenants = 8;
    constexpr std::size_t kCacheTrials = 24;  // per tenant
    constexpr std::size_t kCacheConfigs = 48;
    constexpr std::size_t kCacheClients = 8192;

    // Synthetic substrate: the error surface is an arbitrary deterministic
    // function — this measures serving cost, not tuning quality.
    hpo::SearchSpace cache_space = hpo::appendix_b_space();
    Rng cache_rng(21);
    auto cache_resources = std::make_shared<svc::PoolResources>();
    for (std::size_t c = 0; c < kCacheConfigs; ++c) {
      cache_resources->configs.push_back(cache_space.sample(cache_rng));
    }
    cache_resources->view = core::PoolEvalView(
        {9}, std::vector<double>(kCacheClients, 1.0), kCacheConfigs);
    for (std::size_t c = 0; c < kCacheConfigs; ++c) {
      const std::span<float> e = cache_resources->view.errors(c, 0);
      for (std::size_t k = 0; k < kCacheClients; ++k) {
        e[k] = 0.05f +
               0.9f * static_cast<float>((c * 131 + k * 31) % 997) / 997.0f;
      }
    }

    // One arm: admit kCacheTenants studies named <stem>0..7 (identical
    // seeds across arms, so every arm asks the same trial sequences), run
    // to completion, return aggregate trials/s plus cache counters.
    const auto run_tenants = [&](const std::string& journal_dir,
                                 const std::string& eval_cache_dir,
                                 const std::string& stem, std::size_t* hits,
                                 std::size_t* misses) {
      svc::ManagerOptions copts;
      copts.journal_dir = journal_dir;
      copts.rounds_per_slice = 9;
      copts.eval_cache_dir = eval_cache_dir;
      svc::StudyManager mgr(copts);
      mgr.register_pool("p", cache_resources);
      for (std::size_t i = 0; i < kCacheTenants; ++i) {
        svc::StudySpec spec;
        spec.name = stem + std::to_string(i);
        // Move-assigned: GCC 12 flags the const char* overload here with a
        // false -Wrestrict.
        spec.pool = std::string("p");
        spec.num_configs = kCacheTrials;
        spec.seed = 100 + i;
        spec.noise.eval_clients = kCacheClients / 2;
        mgr.create_study(spec);
      }
      const auto t0 = Clock::now();
      mgr.run_to_completion();
      const double elapsed = seconds_since(t0);
      std::size_t trials = 0;
      *hits = 0;
      *misses = 0;
      for (const std::string& name : mgr.list()) {
        const svc::StudySession* s = mgr.find(name);
        trials += s->steps();
        *hits += s->cache_hits();
        *misses += s->cache_misses();
      }
      return static_cast<double>(trials) / elapsed;
    };

    std::size_t h0 = 0, m0 = 0, h1 = 0, m1 = 0, h2 = 0, m2 = 0;
    const double uncached_tps =
        run_tenants(dir + "/uncached", "", "base", &h0, &m0);
    const double cold_tps =
        run_tenants(dir + "/cold", dir + "/cache", "cold", &h1, &m1);
    const double warm_tps =
        run_tenants(dir + "/warm", dir + "/cache", "warm", &h2, &m2);
    const auto hit_rate = [](std::size_t h, std::size_t m) {
      return h + m == 0 ? 0.0
                        : static_cast<double>(h) / static_cast<double>(h + m);
    };
    std::filesystem::remove_all(dir);

    out << "  \"shared_eval_cache\": {\"tenants\": " << kCacheTenants
        << ", \"trials_per_tenant\": " << kCacheTrials
        << ", \"pool_configs\": " << kCacheConfigs
        << ", \"eval_clients\": " << kCacheClients / 2
        << ", \"uncached_trials_per_sec\": " << uncached_tps
        << ", \"cold_trials_per_sec\": " << cold_tps
        << ", \"cold_hit_rate\": " << hit_rate(h1, m1)
        << ", \"warm_trials_per_sec\": " << warm_tps
        << ", \"warm_hit_rate\": " << hit_rate(h2, m2)
        << ", \"warm_speedup_vs_uncached\": " << warm_tps / uncached_tps
        << "},\n";
    std::cerr << "shared eval cache: " << kCacheTenants << " tenants, "
              << "uncached " << uncached_tps << " trials/s, cold "
              << cold_tps << " trials/s (hit rate " << hit_rate(h1, m1)
              << "), warm " << warm_tps << " trials/s (hit rate "
              << hit_rate(h2, m2) << ", " << warm_tps / uncached_tps
              << "x vs uncached)\n";
  }

  // Fault recovery: the durability tax and the recovery bill. Append
  // throughput with and without fsync-on-commit (the --fsync-on-commit
  // daemon flag), and journal recovery latency as a function of journaled
  // step count — what a daemon restart pays per study.
  {
    namespace svc = fedtune::service;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("fedtune_bench_fault_" + std::to_string(::getpid())))
            .string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    svc::StudySpec jspec;
    jspec.name = "bench-fault";
    jspec.external = true;
    hpo::Trial jtrial;
    jtrial.config = {{"client_lr", 0.1}, {"server_lr", 0.01}};
    core::TrialRecord jrec;
    jrec.trial = jtrial;

    const auto append_rate = [&](bool sync_on_commit, std::size_t steps) {
      const std::string path = dir + "/append.journal";
      std::filesystem::remove(path);
      const auto t0 = Clock::now();
      svc::StudyJournal journal = svc::StudyJournal::create(
          path, jspec, nullptr, sync_on_commit);
      for (std::size_t i = 0; i < steps; ++i) {
        jtrial.id = static_cast<int>(i);
        jrec.trial.id = jtrial.id;
        jrec.cumulative_rounds = i;
        journal.append_ask(jtrial);
        journal.append_tell(jrec);
      }
      return 2.0 * static_cast<double>(steps) / seconds_since(t0);
    };
    // fsync steps kept small: each append is a device round trip.
    const double nofsync_per_sec = append_rate(false, 2000);
    const double fsync_per_sec = append_rate(true, 200);

    out << "  \"fault_recovery\": {\"append_per_sec_nofsync\": "
        << nofsync_per_sec << ", \"append_per_sec_fsync\": " << fsync_per_sec
        << ", \"recovery\": [\n";
    const std::size_t recover_sizes[] = {256, 1024, 4096};
    bool first_size = true;
    for (const std::size_t steps : recover_sizes) {
      const std::string path = dir + "/recover.journal";
      std::filesystem::remove(path);
      {
        svc::StudyJournal journal = svc::StudyJournal::create(path, jspec);
        for (std::size_t i = 0; i < steps; ++i) {
          jtrial.id = static_cast<int>(i);
          jrec.trial.id = jtrial.id;
          jrec.cumulative_rounds = i;
          journal.append_ask(jtrial);
          journal.append_tell(jrec);
        }
      }
      const auto r0 = Clock::now();
      const svc::RecoveredStudy recovered = svc::StudyJournal::recover(path);
      const double recover_ms = seconds_since(r0) * 1e3;
      benchmark::DoNotOptimize(&recovered);
      if (!first_size) out << ",\n";
      first_size = false;
      out << "    {\"steps\": " << steps << ", \"recover_ms\": " << recover_ms
          << "}";
      std::cerr << "fault recovery: " << steps << "-step journal recovered in "
                << recover_ms << " ms\n";
    }
    out << "\n  ]}\n}\n";
    std::filesystem::remove_all(dir);
    std::cerr << "fault recovery: append " << nofsync_per_sec
              << "/s buffered vs " << fsync_per_sec << "/s fsync-on-commit\n";
  }
  std::cerr << "sharded pool build: shards " << ta << "s / " << tb
            << "s, merge " << tm << "s -> est fleet wall-clock " << wall
            << "s vs monolithic " << tn << "s (" << tn / wall << "x)\n";
  std::cerr << "async eval overlap: sync " << sync_s << "s, pipelined "
            << pipe_s << "s (" << sync_s / pipe_s << "x) over "
            << kOverlapRounds << " rounds\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    constexpr const char* kFlag = "--substrate_json=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      return write_substrate_report(argv[i] + std::strlen(kFlag));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
