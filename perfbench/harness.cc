#include "perfbench/harness.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace spade {
namespace perfbench {

void Report::Fail(const std::string& what) {
  ++failed_;
  std::cerr << "perfbench: FAILED: " << what << "\n";
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    throw Refusal("metric " + name + " is not a finite number");
  }
  metrics_[name] = {value, unit};
}

void Report::Print() const {
  std::ostringstream out;
  out << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.17g", value_unit.first);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << num
        << ", \"unit\": \"" << value_unit.second << "\"}";
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void ReportCoverage(const Coverage& c, Report* report) {
  std::fprintf(stderr,
               "perfbench: coverage %s: untraced %.4f, traced %.4f, covered "
               "%.4f, uncovered %.4f, tracing overhead %.4f (%.2f%%)\n",
               c.metric.c_str(), c.untraced, c.traced, c.covered,
               c.traced - c.covered, c.traced - c.untraced,
               100.0 * (c.traced - c.untraced) / c.untraced);
  report->Metric("trace." + c.metric + ".covered_share", c.covered / c.traced,
                 "ratio");
  report->Metric("trace." + c.metric + ".overhead_share",
                 (c.traced - c.untraced) / c.untraced, "ratio");
}

double Median(std::vector<double> samples, const std::string& what,
              size_t min_samples) {
  if (samples.size() < min_samples) {
    throw Refusal(what + ": " + std::to_string(samples.size()) +
                  " samples, a median needs " + std::to_string(min_samples));
  }
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunTimed(double seconds, size_t min_ops, const std::function<void()>& op) {
  // Every run must end within three minutes of starting, builds aside.
  constexpr double kHardCapSeconds = 100;
  const double start = NowSeconds();
  size_t ops = 0;
  while (true) {
    const double elapsed = NowSeconds() - start;
    if (elapsed >= seconds && ops >= min_ops) return;
    if (elapsed >= kHardCapSeconds) {
      throw Refusal("only " + std::to_string(ops) + " operations in " +
                    std::to_string(elapsed) + " s; need " +
                    std::to_string(min_ops));
    }
    op();
    ++ops;
  }
}

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw Refusal("VmHWM not available in /proc/self/status");
}

void TrimHeap() { malloc_trim(0); }

uint64_t Fnv(const std::string& text, uint64_t h) {
  for (char c : text) h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  return h;
}

std::string WorkFile(const BenchArgs& args, const std::string& name) {
  return args.work_dir + "/" + args.workload + "-" + std::to_string(args.seed) +
         "-" + name;
}

}  // namespace perfbench
}  // namespace spade
