#ifndef SPADE_PERFBENCH_HARNESS_H_
#define SPADE_PERFBENCH_HARNESS_H_

/// \file harness.h
/// \brief What every workload of the benchmark shares: arguments, the
/// result line, the statistics rules that keep figures steady, and memory
/// accounting.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/exec/thread_pool.h"

namespace spade {
namespace perfbench {

/// Fixed worker (and client-connection) count when --threads is not given.
/// Capped at the hardware thread count; 0 ("all cores") is never used.
inline constexpr size_t kDefaultThreads = 4;

struct BenchArgs {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  size_t threads = 0;    ///< resolved, >= 1
  std::string work_dir;  ///< scratch files (snapshots, delta batches, spans)
};

/// A figure the benchmark refuses to report (too few samples behind it).
/// Ends the run without a result line.
class Refusal : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The result line: operations attempted / failed, correctness, metrics.
class Report {
 public:
  void Attempt() { ++attempted_; }
  /// Count one failed operation and say why on stderr. Every failure lands
  /// here; none is dropped.
  void Fail(const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit);
  uint64_t failed() const { return failed_; }
  /// Print the one-line JSON result to stdout.
  void Print() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// How the traced run accounts for one end-to-end timing (all in one unit):
/// `untraced` is its median with tracing off, `traced` the median of the
/// same operation's top-level span, `covered` the part of `traced` that
/// named layer spans (or differences between replay levels) explain.
struct Coverage {
  std::string metric;
  double untraced = 0;
  double traced = 0;
  double covered = 0;
};

/// Print the coverage line on stderr and add the per-layer figures
/// trace.<metric>.covered_share and trace.<metric>.overhead_share.
void ReportCoverage(const Coverage& c, Report* report);

/// Timings are medians over at least this many operations of a run.
inline constexpr size_t kMinSamples = 5;

/// Median of `samples`; throws Refusal below `min_samples`.
double Median(std::vector<double> samples, const std::string& what,
              size_t min_samples = kMinSamples);

/// Call `op` until `seconds` have passed and it ran at least `min_ops`
/// times. Stops early (Refusal) only past a hard cap, so a slow machine
/// gives fewer but never too few samples.
void RunTimed(double seconds, size_t min_ops, const std::function<void()>& op);

/// Seconds on a steady clock since an arbitrary origin.
double NowSeconds();

/// Forget the process's RSS high-water mark so that memory used before the
/// call (input generation) does not count. Returns false if unsupported.
bool ResetPeakRss();
/// High-water resident set size since the last ResetPeakRss(), in MiB.
double PeakRssMb();
/// Return freed heap pages to the OS (before ResetPeakRss).
void TrimHeap();

/// A scheduler over `threads` workers, the calling thread being one of them
/// (the convention of every Spade entry point).
class Workers {
 public:
  explicit Workers(size_t threads)
      : pool_(threads > 1 ? std::make_unique<ThreadPool>(threads - 1)
                          : nullptr),
        scheduler_(pool_.get()) {}
  TaskScheduler* scheduler() { return &scheduler_; }

 private:
  std::unique_ptr<ThreadPool> pool_;
  TaskScheduler scheduler_;
};

/// FNV-1a over `text`, chained from `h`.
uint64_t Fnv(const std::string& text, uint64_t h = 1469598103934665603ull);

/// A file named after this run's workload, seed and `name`, inside the
/// work directory.
std::string WorkFile(const BenchArgs& args, const std::string& name);

int RunServeZipf(const BenchArgs& args, Report* report);
int RunColdChurn(const BenchArgs& args, Report* report);

}  // namespace perfbench
}  // namespace spade

#endif  // SPADE_PERFBENCH_HARNESS_H_
