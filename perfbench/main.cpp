// fedtune_perfbench — the repo benchmark program (see perfbench/README.md).
//
//   fedtune_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--out-dir DIR]
//
// Runs one workload for S seconds on inputs generated from seed N, checks
// its outputs, and prints one JSON object as the last stdout line:
// end-to-end metrics with --trace 0; with --trace 1, per-layer metrics
// from a traced run of the workload (after an untraced run of it, for the
// tracing overhead) plus one short traced pass of every other workload, so
// every per-layer metric is printed on every workload. Results, the machine
// fingerprint and each traced run's Perfetto trace are written to DIR
// (default .bench_results). Exit code 0 only when every check passed.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

using namespace perfbench;

const std::vector<std::string> kWorkloads = {"pool_build", "tune_sim",
                                             "serve_1node", "serve_2node"};

// Measurement window of the short traced pass other workloads get in a
// traced run.
constexpr double kShortSeconds = 0.5;

int usage() {
  std::cerr << "usage: fedtune_perfbench --workload "
               "pool_build|tune_sim|serve_1node|serve_2node --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n";
  return 2;
}

Result run_workload(const std::string& name, const RunOptions& opts) {
  if (name == "pool_build") return run_pool_build(opts);
  if (name == "tune_sim") return run_tune_sim(opts);
  return run_serve(opts, name == "serve_2node");
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
           num(metric.value) + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  return out + "}";
}

Metrics end_to_end(const Result& r) {
  std::vector<double> rate;
  for (const Slice& s : r.slices) {
    rate.push_back(static_cast<double>(s.ops) / s.seconds);
  }
  Metrics m;
  m["setup_s"] = {median(r.setup_s), "s"};
  m["peak_rss_mb"] = {r.peak_rss_mb > 0.0 ? r.peak_rss_mb : peak_rss_mib(), "MiB"};
  m["throughput_per_s"] = {median(rate), "1/s"};
  m["latency_p50_us"] = {quantile(r.latency_us, 0.5), "us"};
  m["latency_p99_us"] = {quantile(r.latency_us, 0.99), "us"};
  return m;
}

// The end-to-end metrics under the workload's own names, for people.
std::string summary(const std::string& workload, const Result& r,
                    const Metrics& e2e) {
  std::ostringstream out;
  out << "# " << workload << ": " << r.op_metric << "="
      << e2e.at("throughput_per_s").value << " 1/s, " << r.latency_metric
      << "_p50_us=" << e2e.at("latency_p50_us").value << " us, "
      << r.latency_metric << "_p99_us=" << e2e.at("latency_p99_us").value
      << " us (n=" << r.latency_us.size() << "), setup_s="
      << e2e.at("setup_s").value << " s (n=" << r.setup_s.size()
      << "), peak_rss_mb=" << e2e.at("peak_rss_mb").value
      << " MiB, failed_ratio="
      << (r.attempted > 0 ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0)
      << " (" << r.failed << "/" << r.attempted << ")";
  for (const auto& [phase, a] : r.phases) {
    out << "\n# " << workload << " requests[" << phase << "]: sent=" << a.sent
        << " ok=" << a.ok << " err=" << a.err << " dropped=" << a.dropped
        << " timed_out=" << a.timed_out;
  }
  for (const std::string& f : r.check_failures) {
    out << "\n# CHECK FAILED " << workload << ": " << f;
  }
  return out.str();
}

std::string result_json(const std::string& workload, const Result& r,
                        const Metrics& e2e) {
  std::ostringstream out;
  out << "{\"workload\": \"" << workload << "\", \"end_to_end\": "
      << metrics_json(e2e) << ", \"" << r.op_metric
      << "\": " << num(e2e.at("throughput_per_s").value) << ", \""
      << r.latency_metric << "_p50_us\": "
      << num(e2e.at("latency_p50_us").value) << ", \"" << r.latency_metric
      << "_p99_us\": " << num(e2e.at("latency_p99_us").value)
      << ", \"latency_samples\": " << r.latency_us.size()
      << ", \"slice_ops_per_s\": [";
  for (std::size_t i = 0; i < r.slices.size(); ++i) {
    out << (i ? ", " : "")
        << num(static_cast<double>(r.slices[i].ops) / r.slices[i].seconds);
  }
  out << "], \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"failed_ratio\": "
      << num(r.attempted > 0 ? static_cast<double>(r.failed) /
                                   static_cast<double>(r.attempted)
                             : 0.0)
      << ", \"requests\": {";
  bool first = true;
  for (const auto& [phase, a] : r.phases) {
    out << (first ? "" : ", ") << "\"" << phase << "\": {\"sent\": " << a.sent
        << ", \"ok\": " << a.ok << ", \"err\": " << a.err
        << ", \"dropped\": " << a.dropped << ", \"timed_out\": " << a.timed_out
        << "}";
    first = false;
  }
  out << "}, \"check_failures\": [";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json_escape(r.check_failures[i]) << "\"";
  }
  out << "], \"per_layer\": " << metrics_json(r.layer) << "}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string out_dir = ".bench_results";
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        seed = std::stoull(value);
      } else if (flag == "--seconds") {
        seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else if (flag == "--out-dir") {
        out_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (argc % 2 == 0 || std::find(kWorkloads.begin(), kWorkloads.end(),
                                 workload) == kWorkloads.end() ||
      !(seconds >= 0.0) || (trace != 0 && trace != 1)) {
    return usage();
  }

  namespace fs = std::filesystem;
  const std::string scratch =
      out_dir + "/scratch-" + workload + "-" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(scratch, ec);
  fs::create_directories(scratch);

  std::string governor =
      read_first_line("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  if (governor.empty()) governor = "unreadable";
  std::ostringstream fingerprint;
  fingerprint << "{\"nproc\": " << std::thread::hardware_concurrency()
              << ", \"cpu_model\": \"" << json_escape(cpu_model())
              << "\", \"governor\": \"" << json_escape(governor)
              << "\", \"compiler\": \"" << PERFBENCH_COMPILER
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"}";
  std::cout << "# fingerprint " << fingerprint.str() << "\n";

  std::ostringstream results;
  results << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
          << ", \"seconds\": " << num(seconds) << ", \"trace\": " << trace
          << ", \"fingerprint\": " << fingerprint.str() << ", \"runs\": [";
  std::uint64_t attempted = 0, failed = 0;
  Metrics final_metrics;
  try {
    RunOptions opts;
    opts.seed = seed;
    opts.seconds = seconds;
    opts.scratch_dir = scratch;
    const Result untraced = run_workload(workload, opts);
    const Metrics e2e = end_to_end(untraced);
    std::cout << summary(workload, untraced, e2e) << "\n";
    results << result_json(workload, untraced, e2e);
    attempted += untraced.attempted;
    failed += untraced.failed;
    final_metrics = e2e;
    if (trace == 1) {
      final_metrics.clear();
      // The traced workload first, so its own values win for names that
      // several workloads measure (the service.* and net.* metrics).
      std::vector<std::string> order = {workload};
      for (const std::string& w : kWorkloads) {
        if (w != workload) order.push_back(w);
      }
      for (const std::string& w : order) {
        Tracer tracer;
        RunOptions topts = opts;
        topts.tracer = &tracer;
        if (w != workload) topts.seconds = kShortSeconds;
        const Result traced = run_workload(w, topts);
        Metrics te2e = end_to_end(traced);
        std::cout << summary(w + " (traced)", traced, te2e) << "\n";
        if (w == workload) {
          const double slowdown = e2e.at("throughput_per_s").value /
                                  te2e.at("throughput_per_s").value;
          std::cout << "# " << w << " tracing overhead: throughput x"
                    << 1.0 / slowdown << ", latency_p50 x"
                    << te2e.at("latency_p50_us").value /
                           e2e.at("latency_p50_us").value
                    << ", " << tracer.size() << " spans\n";
          final_metrics["bench.trace_slowdown"] = {slowdown, "1"};
        }
        results << ", " << result_json(w + " (traced)", traced, te2e);
        tracer.write_chrome_json(out_dir + "/" + workload + "-seed" +
                                     std::to_string(seed) + "-" + w +
                                     ".perfetto.json",
                                 200000);
        for (const auto& [name, metric] : traced.layer) {
          final_metrics.emplace(name, metric);
        }
        attempted += traced.attempted;
        failed += traced.failed;
      }
    }
  } catch (const std::exception& ex) {
    std::cerr << "fatal: " << ex.what() << "\n";
    fs::remove_all(scratch, ec);
    return 1;
  }
  fs::remove_all(scratch, ec);
  const bool correct = failed == 0;
  results << "], \"correct\": " << (correct ? "true" : "false") << "}\n";
  const std::string results_path = out_dir + "/" + workload + "-seed" +
                                   std::to_string(seed) + "-trace" +
                                   std::to_string(trace) + ".json";
  std::ofstream(results_path, std::ios::trunc) << results.str();

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << metrics_json(final_metrics) << "}"
            << std::endl;
  return correct ? 0 : 1;
}
