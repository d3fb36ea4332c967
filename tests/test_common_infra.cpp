// Infrastructure tests: thread pool, Table/CSV emission, binary
// serialization, HP mapping, and curve utilities.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/serialize.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/hp_mapping.hpp"
#include "sim/curve_utils.hpp"

namespace fedtune {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyAndSingleItem) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
  int count = 0;
  pool.parallel_for(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAfterException) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(4, [](std::size_t) { throw std::runtime_error("x"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ManyMoreItemsThanThreads) {
  ThreadPool pool(2);
  std::atomic<long> total{0};
  pool.parallel_for(5000, [&](std::size_t i) {
    total.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(total.load(), 5000L * 4999L / 2L);
}

TEST(ThreadPool, ChunkedCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::atomic<int>> hits(257);
    pool.parallel_for_chunked(
        257,
        [&](std::size_t begin, std::size_t end) {
          ASSERT_LT(begin, end);
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        },
        grain);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "grain " << grain;
  }
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(ThreadPool::in_parallel_region());
    // Nested loops (same pool and global pool) must degrade to inline
    // execution instead of deadlocking on the occupied workers.
    pool.parallel_for(50, [&](std::size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
    ThreadPool::global().parallel_for(10, [&](std::size_t) {
      total.fetch_add(1);
    });
  });
  EXPECT_EQ(total.load(), 8 * (50L * 49L / 2L) + 8 * 10L);
  EXPECT_FALSE(ThreadPool::in_parallel_region());
}

TEST(ThreadPool, SlotsAreStableAndBounded) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64);
  std::atomic<bool> slot_out_of_range{false};
  pool.parallel_for_slots(64, [&](std::size_t slot, std::size_t i) {
    if (slot >= pool.max_slots()) slot_out_of_range.store(true);
    hits[i].fetch_add(1);
  });
  EXPECT_FALSE(slot_out_of_range.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SlotsIndexPrivateScratchWithoutRaces) {
  ThreadPool pool(4);
  // Per-slot accumulators written without synchronization: correct iff two
  // threads never share a live slot.
  std::vector<long> per_slot(pool.max_slots(), 0);
  pool.parallel_for_slots(2000, [&](std::size_t slot, std::size_t i) {
    per_slot[slot] += static_cast<long>(i);
  });
  long total = 0;
  for (long v : per_slot) total += v;
  EXPECT_EQ(total, 2000L * 1999L / 2L);
}

TEST(ThreadPool, SubmitRethrowsAndRunsNestedLoopsToCompletion) {
  // A pool without workers runs the task on the caller before returning.
  {
    ThreadPool pool(1);
    std::thread::id ran_on;
    std::future<void> done =
        pool.submit([&] { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(done.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    done.get();
  }

  struct TaskError : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  ThreadPool pool(2);
  // The one worker runs the task, so no other thread can help with the
  // task's own loop: it must claim every chunk itself and still finish.
  std::vector<std::atomic<int>> hits(64);
  std::atomic<bool> off_task_thread{false};
  std::atomic<bool> nested_inline{false};
  pool.submit([&] {
        nested_inline.store(ThreadPool::in_parallel_region());
        const std::thread::id task_thread = std::this_thread::get_id();
        pool.parallel_for(hits.size(), [&](std::size_t i) {
          if (std::this_thread::get_id() != task_thread) {
            off_task_thread.store(true);
          }
          hits[i].fetch_add(1);
        });
      })
      .get();
  EXPECT_FALSE(nested_inline.load());
  EXPECT_FALSE(off_task_thread.load());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);

  std::future<void> failed = pool.submit([] { throw TaskError("task"); });
  EXPECT_THROW(failed.get(), TaskError);
  std::atomic<int> count{0};
  pool.submit([&] { count.fetch_add(1); }).get();
  pool.parallel_for(8, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 9);
}

TEST(Table, AddRowValuesFormatsAndValidates) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row_values({2.5, 3.25}, 2);
  EXPECT_EQ(t.rows()[1][0], "2.50");
  EXPECT_EQ(t.rows()[1][1], "3.25");
  EXPECT_THROW(t.add_row_values({2.5}, 1), std::invalid_argument);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, CsvEscaping) {
  Table t({"x", "y"});
  t.add_row({"has,comma", "has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, WriteCsvFile) {
  Table t({"k", "v"});
  t.add_row({"a", "1"});
  const std::string path = "/tmp/fedtune_test_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "k,v");
  std::getline(in, line);
  EXPECT_EQ(line, "a,1");
  std::filesystem::remove(path);
}

TEST(Table, FormatPrecision) {
  EXPECT_EQ(Table::format(3.14159, 2), "3.14");
  EXPECT_EQ(Table::format(2.0, 0), "2");
}

TEST(Table, PrintAligns) {
  Table t({"col", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("col"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Serialize, ScalarAndVectorRoundTrip) {
  const std::string path = "/tmp/fedtune_test_serialize.bin";
  {
    BinaryWriter w(path);
    w.write_u64(42);
    w.write_f64(3.25);
    w.write_string("hello world");
    w.write_vector<float>(std::vector<float>{1.0f, 2.0f, 3.0f});
    w.write_vector<std::size_t>(std::vector<std::size_t>{7, 8});
  }
  BinaryReader r(path);
  ASSERT_TRUE(r.is_open());
  EXPECT_EQ(r.read_u64(), 42u);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.25);
  EXPECT_EQ(r.read_string(), "hello world");
  const auto floats = r.read_vector<float>();
  ASSERT_EQ(floats.size(), 3u);
  EXPECT_FLOAT_EQ(floats[1], 2.0f);
  const auto sizes = r.read_vector<std::size_t>();
  EXPECT_EQ(sizes[1], 8u);
  std::filesystem::remove(path);
}

TEST(Serialize, TruncatedStreamThrows) {
  const std::string path = "/tmp/fedtune_test_truncated.bin";
  {
    BinaryWriter w(path);
    w.write_u64(5);  // promises data that never arrives
  }
  BinaryReader r(path);
  r.read_u64();
  EXPECT_THROW(r.read_u64(), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Serialize, MissingFileNotOpen) {
  BinaryReader r("/tmp/definitely_not_here.bin");
  EXPECT_FALSE(r.is_open());
}

TEST(HpMapping, RoundTrip) {
  fl::FedHyperParams hps;
  hps.server_lr = 0.02;
  hps.beta1 = 0.7;
  hps.beta2 = 0.95;
  hps.client_lr = 0.3;
  hps.client_momentum = 0.45;
  hps.batch_size = 64;
  const hpo::Config c = core::from_fed_hyperparams(hps);
  const fl::FedHyperParams back = core::to_fed_hyperparams(c);
  EXPECT_DOUBLE_EQ(back.server_lr, hps.server_lr);
  EXPECT_DOUBLE_EQ(back.beta1, hps.beta1);
  EXPECT_DOUBLE_EQ(back.client_momentum, hps.client_momentum);
  EXPECT_EQ(back.batch_size, 64u);
}

TEST(HpMapping, MissingKeysUseDefaults) {
  const hpo::Config partial = {{"server_lr", 0.05}};
  const fl::FedHyperParams hps = core::to_fed_hyperparams(partial);
  EXPECT_DOUBLE_EQ(hps.server_lr, 0.05);
  EXPECT_EQ(hps.batch_size, fl::FedHyperParams{}.batch_size);
}

TEST(HpMapping, RejectsNonPositiveRates) {
  const hpo::Config bad = {{"server_lr", 0.0}};
  EXPECT_THROW(core::to_fed_hyperparams(bad), std::invalid_argument);
}

TEST(HpMapping, BatchSizeRounding) {
  const hpo::Config c = {{"batch_size", 63.7}};
  EXPECT_EQ(core::to_fed_hyperparams(c).batch_size, 64u);
}

TEST(CurveUtils, ValueAtStepsThroughCurve) {
  const std::vector<core::CurvePoint> curve = {{10, 0.9}, {20, 0.5}, {40, 0.3}};
  EXPECT_DOUBLE_EQ(sim::curve_value_at(curve, 5), 1.0);   // before first point
  EXPECT_DOUBLE_EQ(sim::curve_value_at(curve, 10), 0.9);
  EXPECT_DOUBLE_EQ(sim::curve_value_at(curve, 25), 0.5);
  EXPECT_DOUBLE_EQ(sim::curve_value_at(curve, 100), 0.3);
}

TEST(CurveUtils, BudgetGridEndsAtMax) {
  const auto grid = sim::budget_grid(100, 4);
  EXPECT_EQ(grid, (std::vector<std::size_t>{25, 50, 75, 100}));
}

TEST(CurveUtils, AggregateCurvesMedians) {
  const std::vector<std::vector<core::CurvePoint>> trials = {
      {{10, 0.8}, {20, 0.4}},
      {{10, 0.6}, {20, 0.2}},
      {{10, 0.7}, {20, 0.6}},
  };
  const std::vector<std::size_t> grid = {10, 20};
  const sim::AggregatedCurve agg = sim::aggregate_curves(trials, grid);
  EXPECT_DOUBLE_EQ(agg.summary[0].median, 0.7);
  EXPECT_DOUBLE_EQ(agg.summary[1].median, 0.4);
  EXPECT_LE(agg.summary[1].q25, agg.summary[1].median);
}

}  // namespace
}  // namespace fedtune
