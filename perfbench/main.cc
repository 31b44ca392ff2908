// spade_perf: the benchmark's workload runner. One workload per process.
//
//   spade_perf --workload serve-zipf|cold-churn --seed N
//              --seconds S --trace 0|1 --work-dir DIR [--threads T]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end figures, with --trace 1 the per-layer figures
// of the traced replay; every workload reports all of them. See
// perfbench/README.md.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "perfbench/harness.h"
#include "src/exec/thread_pool.h"

namespace {

int Usage(const std::string& why) {
  std::cerr << "spade_perf: " << why << "\n"
            << "usage: spade_perf --workload serve-zipf|cold-churn"
               " --seed N --seconds S --trace 0|1 --work-dir DIR"
               " [--threads T]\n";
  return 2;
}

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spade::perfbench;
  BenchArgs args;
  uint64_t seconds = 0;
  uint64_t trace = 2;
  uint64_t threads = 0;
  bool have_seed = false;
  bool have_threads = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    bool ok = value != nullptr;
    if (flag == "--workload") {
      args.workload = ok ? value : "";
    } else if (flag == "--seed") {
      ok = ParseUint(value, &args.seed);
      have_seed = ok;
    } else if (flag == "--seconds") {
      ok = ParseUint(value, &seconds);
    } else if (flag == "--trace") {
      ok = ParseUint(value, &trace);
    } else if (flag == "--threads") {
      ok = ParseUint(value, &threads);
      have_threads = true;
    } else if (flag == "--work-dir") {
      args.work_dir = ok ? value : "";
    } else {
      return Usage("unknown argument " + flag);
    }
    if (!ok) return Usage("bad value for " + flag);
  }
  if (!have_seed) return Usage("--seed is required");
  if (seconds == 0) return Usage("--seconds must be a positive integer");
  if (trace > 1) return Usage("--trace must be 0 or 1");
  if (args.work_dir.empty()) return Usage("--work-dir is required");
  const size_t hw = spade::ThreadPool::HardwareConcurrency();
  if (have_threads && (threads == 0 || threads > hw)) {
    return Usage("--threads must be between 1 and the " + std::to_string(hw) +
                 " hardware threads (0 = all cores is not accepted)");
  }
  args.seconds = static_cast<double>(seconds);
  args.trace = trace == 1;
  args.threads = have_threads ? threads : std::min(kDefaultThreads, hw);
  std::filesystem::create_directories(args.work_dir);
  std::cerr << "spade_perf: workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << seconds << " trace=" << trace
            << " threads=" << args.threads << " (hardware " << hw << ")\n";

  Report report;
  int code = 0;
  try {
    if (args.workload == "serve-zipf") {
      code = RunServeZipf(args, &report);
    } else if (args.workload == "cold-churn") {
      code = RunColdChurn(args, &report);
    } else {
      return Usage("unknown workload '" + args.workload + "'");
    }
  } catch (const Refusal& e) {
    std::cerr << "spade_perf: refused: " << e.what() << "\n";
    return 3;
  }
  if (code != 0) return code;
  report.Print();
  return report.failed() == 0 ? 0 : 1;
}
