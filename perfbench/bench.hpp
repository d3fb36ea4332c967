// Shared pieces of the repo benchmark: clocks, order statistics, the span
// recorder used by traced runs, and the per-workload result record.
//
// The benchmark measures fedtune from outside: every timing here wraps a
// public call of the library. Nothing in src/ is instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Peak and current resident set size of this process, in MiB.
double peak_rss_mib();
double current_rss_mib();

// Nanoseconds on the steady clock since the first call in this process.
std::int64_t now_ns();
inline double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

// Quantile with linear interpolation between order statistics (q in
// [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Spans of a traced run, kept in memory and written out at the end. Spans of
// one config or request share `id`; a layer's self time is its span minus
// the child spans (same id, nested in time) recorded inside it.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  // string literal
    std::uint64_t id = 0;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::uint32_t tid = 0;
  };

  void record(const char* name, std::uint64_t id, std::int64_t start_ns,
              std::int64_t end_ns);

  // Copy of every span with this name, in recording order.
  std::vector<Span> spans(std::string_view name) const;
  // Durations in microseconds of every span with this name.
  std::vector<double> durations_us(std::string_view name) const;
  std::size_t size() const;

  // Chrome trace_event JSON (loadable in Perfetto); keeps the first
  // `max_events` spans so a long run stays a readable file.
  bool write_chrome_json(const std::string& path, std::size_t max_events) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Times one public call into a span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t id)
      : tracer_(tracer), name_(name), id_(id),
        start_ns_(tracer != nullptr ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->record(name_, id_, start_ns_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t id_;
  std::int64_t start_ns_;
};

// Request accounting of one serve phase.
struct Accounting {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t err = 0;
  std::uint64_t dropped = 0;
  std::uint64_t timed_out = 0;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;        // measurement window; at least one pass or episode runs
  Tracer* tracer = nullptr;     // non-null = traced run
  std::string scratch_dir;      // workload-private files (journals)
};

// A slice of the measurement window: one pass of a batch workload, one
// episode of a serve workload. Throughput is the median of the slices'
// rates, so a burst of machine noise moves one slice rather than the result.
struct Slice {
  std::uint64_t ops = 0;
  double seconds = 0.0;
};

struct Result {
  // Set-up time of every set-up repetition; setup_s is their median.
  std::vector<double> setup_s;
  std::vector<Slice> slices;
  // Latency samples of the whole window: pass times of a batch workload,
  // ask->tell cycles of a serve workload's measured episodes.
  std::vector<double> latency_us;
  // Peak RSS as the workload reads it; 0 = the process peak at the end.
  double peak_rss_mb = 0.0;
  std::string op_metric;       // workload's name of the throughput, e.g. "configs_per_s"
  std::string latency_metric;  // workload's name of the latency, e.g. "ask_tell"
  // Operations attempted and failed (errors, drops, timeouts, failed checks).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  // Per-layer metrics (traced runs only).
  Metrics layer;
  // Serve workloads: request accounting by phase.
  std::map<std::string, Accounting> phases;

  void fail_check(const std::string& what);
};

Result run_pool_build(const RunOptions& opts);
Result run_tune_sim(const RunOptions& opts);
Result run_serve(const RunOptions& opts, bool two_nodes);

}  // namespace perfbench
