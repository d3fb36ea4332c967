// Sharded ConfigPool builds: shard/merge equivalence with the monolithic
// build (the acceptance bar is BITWISE identity, file bytes included), the
// versioned shard file format, and merge validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/config_pool.hpp"
#include "nn/factory.hpp"
#include "test_util.hpp"

namespace fedtune::core {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// Every float in both pools' error/param tensors must match to the bit.
void expect_bitwise_equal(const ConfigPool& a, const ConfigPool& b) {
  ASSERT_EQ(a.dataset_name(), b.dataset_name());
  ASSERT_EQ(a.configs(), b.configs());
  ASSERT_EQ(a.view().checkpoints(), b.view().checkpoints());
  ASSERT_EQ(a.view().client_weights(), b.view().client_weights());
  ASSERT_EQ(a.view().num_configs(), b.view().num_configs());
  ASSERT_EQ(a.has_params(), b.has_params());
  for (std::size_t c = 0; c < a.view().num_configs(); ++c) {
    for (std::size_t ck = 0; ck < a.view().checkpoints().size(); ++ck) {
      const auto ea = a.view().errors(c, ck);
      const auto eb = b.view().errors(c, ck);
      ASSERT_EQ(0, std::memcmp(ea.data(), eb.data(),
                               ea.size() * sizeof(float)))
          << "errors differ at config " << c << " checkpoint " << ck;
      if (a.has_params()) {
        const auto pa = a.params(c, ck);
        const auto pb = b.params(c, ck);
        ASSERT_EQ(pa.size(), pb.size());
        ASSERT_EQ(0, std::memcmp(pa.data(), pb.data(),
                                 pa.size() * sizeof(float)))
            << "params differ at config " << c << " checkpoint " << ck;
      }
    }
  }
}

struct ShardFixture : public ::testing::Test {
  void SetUp() override {
    dataset = testutil::small_image_dataset();
    arch = nn::make_default_model(dataset);
    opts.num_configs = 6;
    opts.checkpoints = {1, 3};
    opts.trainer.clients_per_round = 5;
    opts.num_threads = 2;
    monolithic = std::make_unique<ConfigPool>(
        ConfigPool::build(dataset, *arch, hpo::appendix_b_space(), opts));
  }

  // Builds shards over the given split points (e.g. {0, 3, 6}) and merges.
  ConfigPool build_and_merge(const std::vector<std::size_t>& cuts) {
    std::vector<ConfigPool> shards;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      shards.push_back(ConfigPool::build_shard(
          dataset, *arch, hpo::appendix_b_space(), opts, cuts[i],
          cuts[i + 1]));
    }
    return ConfigPool::merge(shards);
  }

  data::FederatedDataset dataset;
  std::unique_ptr<nn::Model> arch;
  PoolBuildOptions opts;
  std::unique_ptr<ConfigPool> monolithic;
};

TEST_F(ShardFixture, TwoShardMergeIsBitwiseIdentical) {
  const ConfigPool merged = build_and_merge({0, 3, 6});
  expect_bitwise_equal(*monolithic, merged);

  // And the serialized pool files are byte-identical too.
  const std::string mono_path = "/tmp/fedtune_shard_mono.pool";
  const std::string merged_path = "/tmp/fedtune_shard_merged.pool";
  monolithic->save(mono_path);
  merged.save(merged_path);
  EXPECT_EQ(read_file(mono_path), read_file(merged_path));
  std::filesystem::remove(mono_path);
  std::filesystem::remove(merged_path);
}

TEST_F(ShardFixture, ThreeUnevenShardsMergeIsBitwiseIdentical) {
  // Uneven cuts and out-of-order merge input: merge() sorts by range.
  std::vector<ConfigPool> shards;
  shards.push_back(ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 4, 6));
  shards.push_back(ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 0, 1));
  shards.push_back(ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 1, 4));
  const ConfigPool merged = ConfigPool::merge(shards);
  expect_bitwise_equal(*monolithic, merged);
}

TEST_F(ShardFixture, ShardAccessorsAndSaveGuard) {
  const ConfigPool shard = ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 2, 5);
  EXPECT_TRUE(shard.is_shard());
  EXPECT_EQ(shard.shard_lo(), 2u);
  EXPECT_EQ(shard.shard_hi(), 5u);
  EXPECT_EQ(shard.view().num_configs(), 3u);
  EXPECT_EQ(shard.configs().size(), 6u);  // full config list in every shard
  EXPECT_EQ(shard.configs(), monolithic->configs());
  // A partial pool must not masquerade as a monolithic cache file.
  EXPECT_THROW(shard.save("/tmp/fedtune_shard_guard.pool"),
               std::invalid_argument);
  EXPECT_FALSE(monolithic->is_shard());
}

TEST_F(ShardFixture, ShardFileRoundTrip) {
  const std::string path = "/tmp/fedtune_test_shard.pool";
  const ConfigPool shard = ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 1, 4);
  shard.save_shard(path);
  const auto loaded = ConfigPool::load_shard(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->shard_lo(), 1u);
  EXPECT_EQ(loaded->shard_hi(), 4u);
  EXPECT_EQ(loaded->configs(), shard.configs());
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t ck = 0; ck < 2; ++ck) {
      const auto a = shard.view().errors(c, ck);
      const auto b = loaded->view().errors(c, ck);
      ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
      const auto pa = shard.params(c, ck);
      const auto pb = loaded->params(c, ck);
      ASSERT_EQ(0,
                std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)));
    }
  }
  // Shards round-tripped through disk merge identically to in-memory ones.
  const ConfigPool lo_shard = ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 0, 1);
  const ConfigPool hi_shard = ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 4, 6);
  std::vector<ConfigPool> shards;
  shards.push_back(lo_shard);
  shards.push_back(std::move(*ConfigPool::load_shard(path)));
  shards.push_back(hi_shard);
  expect_bitwise_equal(*monolithic, ConfigPool::merge(shards));
  std::filesystem::remove(path);
}

TEST_F(ShardFixture, LoadShardRejectsPoolMagicAndViceVersa) {
  const std::string shard_path = "/tmp/fedtune_magic_shard.pool";
  const std::string pool_path = "/tmp/fedtune_magic_pool.pool";
  const ConfigPool shard = ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 0, 3);
  shard.save_shard(shard_path);
  monolithic->save(pool_path);
  EXPECT_FALSE(ConfigPool::load(shard_path).has_value());
  EXPECT_FALSE(ConfigPool::load_shard(pool_path).has_value());
  std::filesystem::remove(shard_path);
  std::filesystem::remove(pool_path);
}

TEST_F(ShardFixture, LoadShardRejectsPreviousShardMagic) {
  const std::string path = "/tmp/fedtune_old_magic_shard.pool";
  ConfigPool::build_shard(dataset, *arch, hpo::appendix_b_space(), opts, 0, 3)
      .save_shard(path);
  ASSERT_TRUE(ConfigPool::load_shard(path).has_value());
  {
    const std::uint64_t previous = 0xfed75a2d00000001ULL;
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.write(reinterpret_cast<const char*>(&previous), sizeof previous);
  }
  EXPECT_FALSE(ConfigPool::load_shard(path).has_value());
  std::filesystem::remove(path);
}

TEST_F(ShardFixture, LoadShardRejectsCorruptAndTruncatedFiles) {
  const std::string path = "/tmp/fedtune_bad_shard.pool";
  {
    std::ofstream out(path, std::ios::binary);
    out << "definitely not a shard";
  }
  EXPECT_FALSE(ConfigPool::load_shard(path).has_value());

  const ConfigPool shard = ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 0, 3);
  shard.save_shard(path);
  const std::string bytes = read_file(path);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));  // truncate
  }
  EXPECT_FALSE(ConfigPool::load_shard(path).has_value());
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out << "trailing garbage";
  }
  EXPECT_FALSE(ConfigPool::load_shard(path).has_value());
  std::filesystem::remove(path);
}

TEST_F(ShardFixture, MergeRejectsGapsOverlapsAndMismatches) {
  std::vector<ConfigPool> gap;
  gap.push_back(ConfigPool::build_shard(dataset, *arch,
                                        hpo::appendix_b_space(), opts, 0, 2));
  gap.push_back(ConfigPool::build_shard(dataset, *arch,
                                        hpo::appendix_b_space(), opts, 3, 6));
  EXPECT_THROW(ConfigPool::merge(gap), std::invalid_argument);

  std::vector<ConfigPool> overlap;
  overlap.push_back(ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 0, 4));
  overlap.push_back(ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 3, 6));
  EXPECT_THROW(ConfigPool::merge(overlap), std::invalid_argument);

  std::vector<ConfigPool> incomplete;
  incomplete.push_back(ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 0, 4));
  EXPECT_THROW(ConfigPool::merge(incomplete), std::invalid_argument);

  // Different checkpoint grid -> different pool definition.
  PoolBuildOptions other = opts;
  other.checkpoints = {1, 3, 9};
  std::vector<ConfigPool> mixed;
  mixed.push_back(ConfigPool::build_shard(dataset, *arch,
                                          hpo::appendix_b_space(), opts, 0, 3));
  mixed.push_back(ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), other, 3, 6));
  EXPECT_THROW(ConfigPool::merge(mixed), std::invalid_argument);

  // Different config seed -> different sampled configs.
  PoolBuildOptions reseeded = opts;
  reseeded.config_seed = 4321;
  std::vector<ConfigPool> reseed_mix;
  reseed_mix.push_back(ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), opts, 0, 3));
  reseed_mix.push_back(ConfigPool::build_shard(
      dataset, *arch, hpo::appendix_b_space(), reseeded, 3, 6));
  EXPECT_THROW(ConfigPool::merge(reseed_mix), std::invalid_argument);

  EXPECT_THROW(ConfigPool::merge({}), std::invalid_argument);
}

TEST_F(ShardFixture, BuildShardValidatesRange) {
  EXPECT_THROW(ConfigPool::build_shard(dataset, *arch,
                                       hpo::appendix_b_space(), opts, 3, 3),
               std::invalid_argument);
  EXPECT_THROW(ConfigPool::build_shard(dataset, *arch,
                                       hpo::appendix_b_space(), opts, 0, 7),
               std::invalid_argument);
}

TEST_F(ShardFixture, TrivialShardOfWholePoolMergesToItself) {
  std::vector<ConfigPool> one;
  one.push_back(ConfigPool::build_shard(dataset, *arch,
                                        hpo::appendix_b_space(), opts, 0, 6));
  EXPECT_FALSE(one.front().is_shard());
  expect_bitwise_equal(*monolithic, ConfigPool::merge(one));
}

}  // namespace
}  // namespace fedtune::core
