// fedtune_pool — build, merge, and verify configuration-pool caches from the
// command line, so 128-config pools can be built by a fleet instead of one
// process (see scripts/pool_build_sharded.sh for the fan-out driver).
//
//   fedtune_pool build-shard --dataset NAME --shard K --num-shards N
//                [--configs C] [--cache-dir DIR] [--out PATH] [--no-params]
//       trains configs [(K-1)*C/N, K*C/N) of the shared pool definition
//       (PoolHub checkpoint grid + Appendix-B space) and writes
//       DIR/NAME.shard-K-of-N.pool. Bitwise identical to the same slice of
//       a monolithic build (determinism contract, src/README.md).
//
//   fedtune_pool merge --dataset NAME --num-shards N
//                [--cache-dir DIR] [--out PATH]
//       loads the N shard files, validates contiguity/compatibility, and
//       writes the merged monolithic pool (default DIR/NAME.pool).
//
//   fedtune_pool verify POOL_A POOL_B
//       loads two pool files, monolithic or shard, and checks they are
//       bitwise identical (config range, configs, error tensors, parameter
//       snapshots). Exit 0 on match — used to confirm sharded ==
//       monolithic, or that two builds of a shard agree, from the CLI.
//
//   fedtune_pool info FILE...
//       prints each cache file's header: kind (pool/shard/view), magic +
//       format version, config range, dataset, checkpoint grid, client
//       count, parameter snapshot size. Exit 0 iff every file parsed.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "core/config_pool.hpp"
#include "data/benchmarks.hpp"
#include "flag_parse.hpp"
#include "hpo/search_space.hpp"
#include "nn/factory.hpp"
#include "sim/pool_hub.hpp"

namespace {

using namespace fedtune;

struct Args {
  std::string dataset;
  std::size_t shard = 0;
  std::size_t num_shards = 0;
  std::size_t configs = sim::PoolHub::kPoolConfigs;
  std::string cache_dir;
  std::string out;
  bool store_params = true;
  bool help = false;
  std::vector<std::string> positional;
};

void print_usage(std::ostream& os) {
  os << "usage: fedtune_pool <command> [flags]\n"
        "\n"
        "commands:\n"
        "  build-shard --dataset NAME --shard K --num-shards N\n"
        "              [--configs C] [--cache-dir DIR] [--out PATH]\n"
        "              [--no-params]\n"
        "      train configs [(K-1)*C/N, K*C/N) of the shared pool and\n"
        "      write DIR/NAME.shard-K-of-N.pool (bitwise identical to the\n"
        "      same slice of a monolithic build).\n"
        "  merge --dataset NAME --num-shards N [--cache-dir DIR]\n"
        "              [--out PATH]\n"
        "      validate and splice the N shard files into one pool\n"
        "      (default DIR/NAME.pool).\n"
        "  verify POOL_A POOL_B\n"
        "      exit 0 iff the two pool (or shard) files are bitwise\n"
        "      identical.\n"
        "  info FILE...\n"
        "      print each cache file's header (kind, magic/version, config\n"
        "      range, dataset, checkpoint grid, clients, params).\n"
        "  help | --help | -h\n"
        "      print this message.\n"
        "\n"
        "The default cache dir is $FEDTUNE_CACHE_DIR (./fedtune_cache).\n"
        "See scripts/pool_build_sharded.sh for the fan-out driver.\n";
}

// True when the build matches the shared pool definition every bench binary
// expects (PoolHub::pool): full config count, parameter snapshots stored.
bool is_canonical_build(const Args& args) {
  return args.configs == sim::PoolHub::kPoolConfigs && args.store_params;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= argc) {
        std::cerr << "error: " << flag << " needs a value\n";
        return std::nullopt;
      }
      return std::string(argv[++i]);
    };
    if (a == "--dataset") {
      const auto v = next("--dataset");
      if (!v) return false;
      args.dataset = *v;
    } else if (a == "--shard") {
      const auto v = next("--shard");
      if (!v) return false;
      args.shard = tools::parse_size_flag(a, *v);
    } else if (a == "--num-shards") {
      const auto v = next("--num-shards");
      if (!v) return false;
      args.num_shards = tools::parse_size_flag(a, *v);
    } else if (a == "--configs") {
      const auto v = next("--configs");
      if (!v) return false;
      args.configs = tools::parse_size_flag(a, *v);
    } else if (a == "--cache-dir") {
      const auto v = next("--cache-dir");
      if (!v) return false;
      args.cache_dir = *v;
    } else if (a == "--out") {
      const auto v = next("--out");
      if (!v) return false;
      args.out = *v;
    } else if (a == "--no-params") {
      args.store_params = false;
    } else if (a == "--help" || a == "-h") {
      args.help = true;
      return true;
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "error: unknown flag " << a << "\n";
      return false;
    } else {
      args.positional.push_back(a);
    }
  }
  if (args.cache_dir.empty()) {
    // PoolHub owns the cache-dir policy ($FEDTUNE_CACHE_DIR, default
    // ./fedtune_cache) and creates the directory.
    args.cache_dir = sim::PoolHub::instance().cache_dir();
  }
  std::filesystem::create_directories(args.cache_dir);
  return true;
}

std::string shard_path(const Args& args, std::size_t k) {
  // Non-canonical builds (smoke tests) get a distinct name so they can
  // neither overwrite production shards nor match PoolHub's
  // `<name>.shard-` assembly scan.
  const std::string tag =
      is_canonical_build(args)
          ? ""
          : ".test" + std::to_string(args.configs) + "c" +
                (args.store_params ? "" : "-noparams");
  return args.cache_dir + "/" + args.dataset + tag + ".shard-" +
         std::to_string(k) + "-of-" + std::to_string(args.num_shards) +
         ".pool";
}

// The shared pool definition every bench binary expects (PoolHub::pool).
core::PoolBuildOptions pool_options(const Args& args, data::BenchmarkId id) {
  core::PoolBuildOptions opts;
  opts.num_configs = args.configs;
  opts.checkpoints = sim::PoolHub::checkpoint_grid(id);
  opts.store_params = args.store_params;
  return opts;
}

int cmd_build_shard(const Args& args) {
  if (args.dataset.empty() || args.shard == 0 || args.num_shards == 0 ||
      args.shard > args.num_shards) {
    std::cerr << "usage: fedtune_pool build-shard --dataset NAME --shard K "
                 "--num-shards N [--configs C] [--cache-dir DIR] [--out PATH] "
                 "[--no-params]\n";
    return 2;
  }
  const data::BenchmarkId id = data::benchmark_from_name(args.dataset);
  const std::size_t lo = (args.shard - 1) * args.configs / args.num_shards;
  const std::size_t hi = args.shard * args.configs / args.num_shards;
  if (lo >= hi) {
    std::cerr << "error: shard " << args.shard << "/" << args.num_shards
              << " of " << args.configs << " configs is empty\n";
    return 2;
  }
  const std::string out = args.out.empty() ? shard_path(args, args.shard)
                                           : args.out;
  std::cerr << "[fedtune_pool] " << args.dataset << " shard " << args.shard
            << "/" << args.num_shards << ": configs [" << lo << ", " << hi
            << ") of " << args.configs << " -> " << out << "\n";
  const data::FederatedDataset ds = data::make_benchmark(id);
  const std::unique_ptr<nn::Model> arch = nn::make_default_model(ds);
  const core::ConfigPool shard = core::ConfigPool::build_shard(
      ds, *arch, hpo::appendix_b_space(), pool_options(args, id), lo, hi);
  shard.save_shard(out);
  return 0;
}

int cmd_merge(const Args& args) {
  if (args.dataset.empty() || args.num_shards == 0) {
    std::cerr << "usage: fedtune_pool merge --dataset NAME --num-shards N "
                 "[--cache-dir DIR] [--out PATH]\n";
    return 2;
  }
  std::vector<core::ConfigPool> shards;
  shards.reserve(args.num_shards);
  for (std::size_t k = 1; k <= args.num_shards; ++k) {
    const std::string path = shard_path(args, k);
    auto shard = core::ConfigPool::load_shard(path);
    if (!shard.has_value()) {
      std::cerr << "error: cannot load shard " << path << "\n";
      return 1;
    }
    shards.push_back(std::move(*shard));
  }
  const core::ConfigPool merged = core::ConfigPool::merge(shards);
  // Only a pool matching the shared definition (PoolHub::kPoolConfigs, with
  // parameter snapshots) may claim the canonical <name>.pool cache file —
  // every bench binary loads that path unconditionally. Smoke-test builds
  // get a distinct default name (or pass --out explicitly).
  std::string out = args.out;
  if (out.empty()) {
    const bool canonical = merged.configs().size() == sim::PoolHub::kPoolConfigs &&
                           merged.has_params();
    out = canonical
              ? args.cache_dir + "/" + args.dataset + ".pool"
              : args.cache_dir + "/" + args.dataset + ".merged-" +
                    std::to_string(merged.configs().size()) + "c.pool";
    if (!canonical) {
      std::cerr << "[fedtune_pool] note: " << merged.configs().size()
                << "-config, params=" << merged.has_params()
                << " pool does not match the shared bench pool definition; "
                   "writing to " << out << " (use --out to override)\n";
    }
  }
  merged.save(out);
  std::cerr << "[fedtune_pool] merged " << args.num_shards << " shards ("
            << merged.configs().size() << " configs) -> " << out << "\n";
  return 0;
}

// A monolithic pool file or a shard file; nullopt if it is neither.
std::optional<core::ConfigPool> load_pool_or_shard(const std::string& path) {
  auto pool = core::ConfigPool::load(path);
  return pool.has_value() ? pool : core::ConfigPool::load_shard(path);
}

int cmd_verify(const Args& args) {
  if (args.positional.size() != 2) {
    std::cerr << "usage: fedtune_pool verify POOL_A POOL_B\n";
    return 2;
  }
  const auto a = load_pool_or_shard(args.positional[0]);
  const auto b = load_pool_or_shard(args.positional[1]);
  if (!a.has_value() || !b.has_value()) {
    std::cerr << "error: cannot load "
              << args.positional[a.has_value() ? 1 : 0] << "\n";
    return 1;
  }
  auto fail = [](const char* what) {
    std::cerr << "MISMATCH: " << what << "\n";
    return 1;
  };
  if (a->dataset_name() != b->dataset_name()) return fail("dataset name");
  if (a->shard_lo() != b->shard_lo() || a->shard_hi() != b->shard_hi()) {
    return fail("config range");
  }
  if (a->configs() != b->configs()) return fail("config list");
  if (a->view().checkpoints() != b->view().checkpoints()) {
    return fail("checkpoint grid");
  }
  if (a->view().client_weights() != b->view().client_weights()) {
    return fail("client weights");
  }
  for (std::size_t c = 0; c < a->view().num_configs(); ++c) {
    for (std::size_t ck = 0; ck < a->view().checkpoints().size(); ++ck) {
      const auto ea = a->view().errors(c, ck);
      const auto eb = b->view().errors(c, ck);
      if (std::memcmp(ea.data(), eb.data(), ea.size() * sizeof(float)) != 0) {
        return fail("error tensor");
      }
    }
  }
  if (a->has_params() != b->has_params()) return fail("parameter presence");
  if (a->has_params()) {
    for (std::size_t c = 0; c < a->view().num_configs(); ++c) {
      for (std::size_t ck = 0; ck < a->view().checkpoints().size(); ++ck) {
        const auto pa = a->params(c, ck);
        const auto pb = b->params(c, ck);
        if (pa.size() != pb.size() ||
            std::memcmp(pa.data(), pb.data(), pa.size() * sizeof(float)) !=
                0) {
          return fail("parameter snapshots");
        }
      }
    }
  }
  // Logical equality established; the on-disk encoding is canonical, so the
  // files themselves must match byte-for-byte too.
  std::ifstream fa(args.positional[0], std::ios::binary);
  std::ifstream fb(args.positional[1], std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                            std::istreambuf_iterator<char>());
  if (bytes_a != bytes_b) return fail("file bytes");
  std::cerr << "OK: pools are bitwise identical (" << bytes_a.size()
            << " bytes)\n";
  return 0;
}

int cmd_info(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: fedtune_pool info FILE...\n";
    return 2;
  }
  int failures = 0;
  for (const std::string& path : args.positional) {
    const std::optional<core::PoolFileInfo> info =
        core::inspect_pool_file(path);
    if (!info.has_value()) {
      std::cerr << path << ": not a pool/shard/view cache file "
                   "(unknown magic, truncated, or trailing bytes)\n";
      ++failures;
      continue;
    }
    const char* kind = info->kind == core::PoolFileInfo::Kind::kPool ? "pool"
                       : info->kind == core::PoolFileInfo::Kind::kShard
                           ? "shard"
                           : "view";
    std::cout << path << ":\n"
              << "  kind        " << kind << "\n"
              << "  magic       0x" << std::hex << info->magic << std::dec
              << " (version " << (info->magic & 0xffffffffULL) << ")\n"
              << "  configs     [" << info->shard_lo << ", " << info->shard_hi
              << ") of " << info->total_configs << "\n";
    if (!info->dataset.empty()) {
      std::cout << "  dataset     " << info->dataset << "\n";
    }
    std::cout << "  checkpoints {";
    for (std::size_t i = 0; i < info->checkpoints.size(); ++i) {
      std::cout << (i ? ", " : "") << info->checkpoints[i];
    }
    std::cout << "}\n"
              << "  clients     " << info->num_clients << "\n"
              << "  params      "
              << (info->param_count > 0
                      ? std::to_string(info->param_count) +
                            " floats per (config, checkpoint)"
                      : std::string("none"))
              << "\n"
              << "  file bytes  " << info->file_bytes << "\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "error: missing command\n\n";
    print_usage(std::cerr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    print_usage(std::cout);
    return 0;
  }
  if (cmd != "build-shard" && cmd != "merge" && cmd != "verify" &&
      cmd != "info") {
    std::cerr << "error: unknown command '" << cmd << "'\n\n";
    print_usage(std::cerr);
    return 2;
  }
  try {
    Args args;
    if (!parse_args(argc - 2, argv + 2, args)) return 2;
    if (args.help) {
      print_usage(std::cout);
      return 0;
    }
    if (cmd == "build-shard") return cmd_build_shard(args);
    if (cmd == "merge") return cmd_merge(args);
    if (cmd == "info") return cmd_info(args);
    return cmd_verify(args);
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }
}
