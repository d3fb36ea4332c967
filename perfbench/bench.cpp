#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

namespace {

std::uint32_t this_thread_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

}  // namespace

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double current_rss_mib() {
  std::ifstream statm("/proc/self/statm");
  double size = 0.0, resident = 0.0;
  statm >> size >> resident;
  return resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) / 1048576.0;
}

std::int64_t now_ns() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const std::size_t i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}

void Tracer::record(const char* name, std::uint64_t id, std::int64_t start_ns,
                    std::int64_t end_ns) {
  const Span span{name, id, start_ns, end_ns - start_ns, this_thread_tid()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Tracer::Span> Tracer::spans(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

std::vector<double> Tracer::durations_us(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans(name)) {
    out.push_back(static_cast<double>(s.dur_ns) * 1e-3);
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::write_chrome_json(const std::string& path,
                               std::size_t max_events) const {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = std::min(max_events, spans_.size());
  char buf[256];
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%llu}}",
                  i == 0 ? "" : ",\n", s.name, s.tid,
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.dur_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id));
    out << buf;
  }
  out << "],\"otherData\":{\"spans\":" << spans_.size()
      << ",\"written\":" << n << "}}\n";
  return static_cast<bool>(out);
}

void Result::fail_check(const std::string& what) {
  ++failed;
  if (check_failures.size() < 20) check_failures.push_back(what);
}

}  // namespace perfbench
