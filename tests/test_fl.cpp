// Federated training loop and evaluator tests (fl module).
#include <gtest/gtest.h>

#include <numeric>

#include "fl/evaluator.hpp"
#include "fl/server_opt.hpp"
#include "fl/trainer.hpp"
#include "nn/factory.hpp"
#include "test_util.hpp"

namespace fedtune::fl {
namespace {

FedHyperParams good_hps() {
  FedHyperParams hps;
  hps.server_lr = 0.01;
  hps.beta1 = 0.9;
  hps.beta2 = 0.99;
  hps.client_lr = 0.05;
  hps.client_momentum = 0.9;
  hps.batch_size = 32;
  return hps;
}

TEST(ServerOpt, FedAvgAppliesScaledDelta) {
  FedHyperParams hps;
  hps.server_lr = 0.5;
  hps.server_lr_decay = 1.0;
  auto opt = make_server_opt(ServerOptKind::kFedAvg, hps);
  std::vector<float> params = {1.0f, 2.0f};
  const std::vector<float> delta = {2.0f, -2.0f};
  opt->apply(params, delta);
  EXPECT_FLOAT_EQ(params[0], 2.0f);
  EXPECT_FLOAT_EQ(params[1], 1.0f);
}

TEST(ServerOpt, FedAvgLrDecay) {
  FedHyperParams hps;
  hps.server_lr = 1.0;
  hps.server_lr_decay = 0.5;
  auto opt = make_server_opt(ServerOptKind::kFedAvg, hps);
  std::vector<float> params = {0.0f};
  const std::vector<float> delta = {1.0f};
  opt->apply(params, delta);  // +1.0
  opt->apply(params, delta);  // +0.5
  EXPECT_FLOAT_EQ(params[0], 1.5f);
}

TEST(ServerOpt, FedAdamMovesInDeltaDirection) {
  FedHyperParams hps = good_hps();
  hps.server_lr = 0.1;
  auto opt = make_server_opt(ServerOptKind::kFedAdam, hps);
  std::vector<float> params = {0.0f, 0.0f};
  const std::vector<float> delta = {1.0f, -1.0f};
  for (int i = 0; i < 5; ++i) opt->apply(params, delta);
  EXPECT_GT(params[0], 0.0f);
  EXPECT_LT(params[1], 0.0f);
}

TEST(ServerOpt, StateRoundTripResumesExactly) {
  for (ServerOptKind kind :
       {ServerOptKind::kFedAvg, ServerOptKind::kFedAdam,
        ServerOptKind::kFedAdagrad, ServerOptKind::kFedYogi}) {
    FedHyperParams hps = good_hps();
    auto a = make_server_opt(kind, hps);
    std::vector<float> pa = {1.0f, -1.0f};
    const std::vector<float> delta = {0.3f, 0.1f};
    a->apply(pa, delta);
    const ServerOpt::State snap = a->save_state();
    std::vector<float> pa_cont = pa;
    a->apply(pa_cont, delta);

    auto b = make_server_opt(kind, hps);
    b->load_state(snap);
    std::vector<float> pb = pa;
    b->apply(pb, delta);
    EXPECT_FLOAT_EQ(pb[0], pa_cont[0]) << server_opt_name(kind);
    EXPECT_FLOAT_EQ(pb[1], pa_cont[1]) << server_opt_name(kind);
  }
}

TEST(ServerOpt, AdagradAccumulatorMonotone) {
  // With beta1 = 0 (no momentum ramp) Adagrad's growing v accumulator makes
  // successive steps shrink on a constant delta.
  FedHyperParams hps = good_hps();
  hps.server_lr = 0.1;
  hps.server_lr_decay = 1.0;
  hps.beta1 = 0.0;
  auto opt = make_server_opt(ServerOptKind::kFedAdagrad, hps);
  std::vector<float> params = {0.0f};
  const std::vector<float> delta = {1.0f};
  opt->apply(params, delta);
  const float step1 = params[0];
  opt->apply(params, delta);
  const float step2 = params[0] - step1;
  EXPECT_LT(step2, step1);
}

TEST(Trainer, DeterministicGivenSeed) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  FedTrainer a(ds, *arch, good_hps(), {}, Rng(11));
  FedTrainer b(ds, *arch, good_hps(), {}, Rng(11));
  a.run_rounds(5);
  b.run_rounds(5);
  const auto pa = a.model().params();
  const auto pb = b.model().params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_FLOAT_EQ(pa[i], pb[i]);
  }
}

TEST(Trainer, DifferentSeedsDiverge) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  FedTrainer a(ds, *arch, good_hps(), {}, Rng(1));
  FedTrainer b(ds, *arch, good_hps(), {}, Rng(2));
  a.run_rounds(2);
  b.run_rounds(2);
  EXPECT_NE(a.model().params()[0], b.model().params()[0]);
}

TEST(Trainer, GoodHyperparametersLearn) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  FedTrainer trainer(ds, *arch, good_hps(), {}, Rng(3));
  const double before = full_validation_error(trainer.model(), ds);
  trainer.run_rounds(60);
  const double after = full_validation_error(trainer.model(), ds);
  EXPECT_GT(before, 0.6);  // fresh model is near chance (4 classes)
  EXPECT_LT(after, before - 0.2);
}

TEST(Trainer, TinyLearningRateDoesNotLearn) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  FedHyperParams hps = good_hps();
  hps.server_lr = 1e-6;
  hps.client_lr = 1e-6;
  FedTrainer trainer(ds, *arch, hps, {}, Rng(4));
  const double before = full_validation_error(trainer.model(), ds);
  trainer.run_rounds(20);
  const double after = full_validation_error(trainer.model(), ds);
  EXPECT_NEAR(after, before, 0.05);
}

TEST(Trainer, CheckpointRestoreResumesIdentically) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  FedTrainer a(ds, *arch, good_hps(), {}, Rng(5));
  a.run_rounds(4);
  const Checkpoint ckpt = a.checkpoint();
  EXPECT_EQ(ckpt.rounds, 4u);
  a.run_rounds(3);

  FedTrainer b(ds, *arch, good_hps(), {}, Rng(999));  // different seed
  b.restore(ckpt);
  EXPECT_EQ(b.rounds_done(), 4u);
  b.run_rounds(3);
  const auto pa = a.model().params();
  const auto pb = b.model().params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_FLOAT_EQ(pa[i], pb[i]);
  }
}

TEST(Trainer, RoundsAccounting) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  FedTrainer trainer(ds, *arch, good_hps(), {}, Rng(6));
  EXPECT_EQ(trainer.rounds_done(), 0u);
  trainer.run_rounds(7);
  EXPECT_EQ(trainer.rounds_done(), 7u);
}

TEST(Trainer, RejectsOversizedCohort) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  TrainerConfig cfg;
  cfg.clients_per_round = 10000;
  EXPECT_THROW(FedTrainer(ds, *arch, good_hps(), cfg, Rng(7)),
               std::invalid_argument);
}

TEST(Trainer, WeightedVsUniformAggregationDiffer) {
  const auto ds = testutil::small_image_dataset();
  const auto arch = nn::make_default_model(ds);
  TrainerConfig weighted;
  weighted.weighted_aggregation = true;
  TrainerConfig uniform;
  uniform.weighted_aggregation = false;
  FedTrainer a(ds, *arch, good_hps(), weighted, Rng(8));
  FedTrainer b(ds, *arch, good_hps(), uniform, Rng(8));
  a.run_rounds(3);
  b.run_rounds(3);
  // Client sizes vary, so the aggregates must differ.
  bool any_diff = false;
  const auto pa = a.model().params();
  const auto pb = b.model().params();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i] != pb[i]) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

// ---- Evaluator -------------------------------------------------------------

TEST(Evaluator, ConstantModelErrorsAreExact) {
  const auto ds = testutil::small_image_dataset();
  const testutil::ConstantModel model(0);  // always predicts class 0
  const std::vector<double> errors =
      all_client_errors(model, ds.eval_clients);
  ASSERT_EQ(errors.size(), ds.eval_clients.size());
  for (std::size_t k = 0; k < errors.size(); ++k) {
    std::size_t wrong = 0;
    for (std::int32_t y : ds.eval_clients[k].labels) {
      if (y != 0) ++wrong;
    }
    EXPECT_DOUBLE_EQ(
        errors[k],
        static_cast<double>(wrong) /
            static_cast<double>(ds.eval_clients[k].num_examples()));
  }
}

TEST(Evaluator, WeightedAggregateMatchesPooledErrorRate) {
  // With weights = example counts, the weighted mean of per-client error
  // rates equals the total error over the pooled examples.
  const auto ds = testutil::small_image_dataset();
  const testutil::ConstantModel model(1);
  const double weighted = full_validation_error(model, ds, Weighting::kByExampleCount);
  std::size_t wrong = 0, total = 0;
  for (const auto& c : ds.eval_clients) {
    for (std::int32_t y : c.labels) {
      if (y != 1) ++wrong;
    }
    total += c.num_examples();
  }
  EXPECT_NEAR(weighted, static_cast<double>(wrong) / total, 1e-12);
}

TEST(Evaluator, UniformVsWeightedDiffer) {
  const auto ds = testutil::small_image_dataset(9, /*alpha=*/0.05);
  const testutil::ConstantModel model(2);
  const double w = full_validation_error(model, ds, Weighting::kByExampleCount);
  const double u = full_validation_error(model, ds, Weighting::kUniform);
  EXPECT_NE(w, u);
}

TEST(Evaluator, SubsampledSubsetOnly) {
  const auto ds = testutil::small_image_dataset();
  const testutil::ConstantModel model(0);
  const std::vector<std::size_t> which = {0, 2};
  const double sub = subsampled_validation_error(model, ds, which,
                                                 Weighting::kUniform);
  const double manual = (model.error_rate(ds.eval_clients[0]) +
                         model.error_rate(ds.eval_clients[2])) /
                        2.0;
  EXPECT_DOUBLE_EQ(sub, manual);
}

TEST(Evaluator, AggregateRejectsEmptySample) {
  const auto ds = testutil::small_image_dataset();
  const std::vector<double> errors;
  const std::vector<std::size_t> which;
  EXPECT_THROW(aggregate_error(errors, ds.eval_clients, which,
                               Weighting::kUniform),
               std::invalid_argument);
}

TEST(Evaluator, ParallelTextEvaluationMatchesSerialAcrossRounds) {
  // Each worker's replica builds its own TextMlp argmax table inside const
  // errors(); the tables must follow the trainer's parameters round by round.
  const auto ds = testutil::small_text_dataset();
  const auto arch = nn::make_default_model(ds);
  FedHyperParams hps = good_hps();
  hps.client_lr = 0.2;
  TrainerConfig cfg;
  cfg.clients_per_round = 5;
  FedTrainer trainer(ds, *arch, hps, cfg, Rng(11));
  for (int round = 0; round < 3; ++round) {
    trainer.run_rounds(1);
    const auto serial = all_client_errors(trainer.model(), ds.eval_clients);
    const auto parallel =
        all_client_errors(trainer.model(), ds.eval_clients, /*num_threads=*/0);
    EXPECT_EQ(serial, parallel) << "round " << round;
  }
}

TEST(Trainer, TextDatasetTrains) {
  const auto ds = testutil::small_text_dataset();
  const auto arch = nn::make_default_model(ds);
  FedHyperParams hps = good_hps();
  hps.server_lr = 0.03;
  hps.client_lr = 0.2;
  TrainerConfig cfg;
  cfg.clients_per_round = 5;
  FedTrainer trainer(ds, *arch, hps, cfg, Rng(10));
  const double before = full_validation_error(trainer.model(), ds);
  trainer.run_rounds(40);
  const double after = full_validation_error(trainer.model(), ds);
  EXPECT_LT(after, before - 0.05);
}

}  // namespace
}  // namespace fedtune::fl
