#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>

#include "obs/metrics.hpp"

namespace fedtune {

namespace {

// Pool-wide series shared by every ThreadPool instance (in practice the
// global() pool dominates; per-pool labels would be unbounded for tests
// that construct throwaway pools).
obs::Gauge& pool_queue_depth() {
  static obs::Gauge& g =
      obs::MetricsRegistry::global().gauge("fedtune_pool_queue_depth");
  return g;
}

obs::Histogram& pool_task_wait_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "fedtune_pool_task_wait_seconds");
  return h;
}

obs::Histogram& pool_task_run_seconds() {
  static obs::Histogram& h = obs::MetricsRegistry::global().histogram(
      "fedtune_pool_task_run_seconds");
  return h;
}

double monotonic_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Depth of parallel_for nesting on this thread (across all pools). Non-zero
// means a parallel_for issued here must run inline — the hardware is already
// owned by an enclosing loop.
thread_local int tl_region_depth = 0;

struct RegionGuard {
  RegionGuard() { ++tl_region_depth; }
  ~RegionGuard() { --tl_region_depth; }
};

}  // namespace

bool ThreadPool::in_parallel_region() { return tl_region_depth > 0; }

ThreadPool::ThreadPool(std::size_t n_threads) {
  const std::size_t n_workers =
      n_threads == 0
          ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
          : n_threads - 1;
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::run_batch(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  const std::size_t n_chunks = (n + grain - 1) / grain;

  // Inline execution: nested region, single-chunk batches, or a pool with
  // no workers. No RegionGuard here — an inlined loop does not occupy
  // the pool, so parallelism nested below it is still allowed.
  if (in_parallel_region() || n_chunks == 1 || workers_.empty()) {
    body(0, 0, n);
    return;
  }

  struct BatchState {
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> chunks_done{0};
    std::atomic<std::size_t> next_slot{0};
    std::size_t n = 0, grain = 0, n_chunks = 0;
    const std::function<void(std::size_t, std::size_t, std::size_t)>* body =
        nullptr;
    std::exception_ptr error;
    std::mutex error_mutex;
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };
  auto state = std::make_shared<BatchState>();
  state->n = n;
  state->grain = grain;
  state->n_chunks = n_chunks;
  state->body = &body;

  auto participate = [state] {
    const std::size_t slot = state->next_slot.fetch_add(1);
    RegionGuard guard;
    for (;;) {
      const std::size_t chunk = state->next_chunk.fetch_add(1);
      if (chunk >= state->n_chunks) break;
      const std::size_t begin = chunk * state->grain;
      const std::size_t end = std::min(state->n, begin + state->grain);
      try {
        (*state->body)(slot, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->error_mutex);
        if (!state->error) state->error = std::current_exception();
      }
      if (state->chunks_done.fetch_add(1) + 1 == state->n_chunks) {
        std::lock_guard<std::mutex> lock(state->done_mutex);
        state->done_cv.notify_all();
      }
    }
  };

  // The calling thread participates too, so enqueue helpers for the rest.
  const std::size_t n_helpers =
      std::min(n_chunks, workers_.size() + 1) - 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t t = 0; t < n_helpers; ++t) tasks_.push(participate);
  }
  cv_.notify_all();
  participate();

  // `body` lives on this stack frame: wait until every chunk has finished
  // before returning (helpers that arrive late see the counter exhausted).
  {
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->done_cv.wait(
        lock, [&] { return state->chunks_done.load() >= state->n_chunks; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  auto task = std::make_shared<std::packaged_task<void()>>(std::move(fn));
  std::future<void> future = task->get_future();
  if (workers_.empty()) {
    // Degenerate pool: run inline so the future is still serviceable.
    (*task)();
    return future;
  }
  // Latency accounting covers submit() tasks only — run_batch chunks are
  // too fine-grained to pay a histogram observation each.
  const double enqueued_s = monotonic_seconds();
  pool_queue_depth().add(1.0);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push([task, enqueued_s] {
      const double start_s = monotonic_seconds();
      pool_queue_depth().add(-1.0);
      pool_task_wait_seconds().observe(start_s - enqueued_s);
      (*task)();
      pool_task_run_seconds().observe(monotonic_seconds() - start_s);
    });
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  // grain 1: coarse work items (one HP config, one client) where dynamic
  // per-item claiming gives the best load balance.
  run_batch(n, 1, [&fn](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::parallel_for_chunked(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t grain) {
  if (grain == 0) {
    // ~4 chunks per participant: coarse enough to amortize claim overhead,
    // fine enough to balance uneven chunk costs.
    grain = std::max<std::size_t>(1, n / (4 * max_slots()));
  }
  run_batch(n, grain,
            [&fn](std::size_t, std::size_t begin, std::size_t end) {
              fn(begin, end);
            });
}

void ThreadPool::parallel_for_slots(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  run_batch(n, 1, [&fn](std::size_t slot, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(slot, i);
  });
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

}  // namespace fedtune
