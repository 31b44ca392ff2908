// Parallel-scaling trend line for the execution layer: online-phase
// wall-clock at 1/2/4/8 worker threads on the Figure 12 scalability
// dataset (largest setting: 400k facts, N=3, M=15, s=0.1) — unsharded and
// with within-CFS fact-id-range sharding — plus a multi-CFS variant (same
// volume spread over 16 fact types) that models a multi-tenant workload,
// the shape CFS-level parallelism is built for. The lattice computation is
// partition-parallel in every configuration (workers follow the thread
// count), so its wall/work times are reported per run.
//
// Results are bit-identical at every thread count (see tests/exec_test.cc);
// this bench reports only wall-clock and speedup. Speedup is bounded by the
// machine: on an M-core box the ideal line is min(threads, M)x.
//
// A final section measures the scheduler itself: raw tasks/sec under
// fine-grained slicing (parents fanning out tiny children) at 1/2/4/8
// threads. Tasks here are far finer than anything Spade submits, so every
// push and pop contends on the pool's one queue lock: this is the
// scheduler's worst case, not a workload.
//
// Usage: bench_parallel_scaling [--facts=N] [--types=K] [--json[=FILE]]
//
// --json writes every configuration's numbers as a machine-readable JSON
// array (default file: BENCH_parallel.json) so CI can track the perf
// trajectory across commits. Scaling records carry online/lattice wall
// times; pool records ({"config": "pool_fine_grained", ...}) carry
// tasks/sec.

#include <atomic>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench/bench_common.h"
#include "src/datagen/synthetic.h"
#include "src/exec/thread_pool.h"

namespace spade {
namespace bench {
namespace {

struct RunResult {
  std::string label;
  size_t threads = 1;
  size_t shards = 0;
  double online_wall_ms = 0;
  double lattice_wall_ms = 0;
  double lattice_work_ms = 0;
  size_t lattice_workers = 0;
  double speedup = 1.0;  ///< vs the 1-thread run of the same config block
  size_t num_cfs = 0;
  size_t num_evaluated = 0;
};

std::vector<RunResult> g_results;  // every RunOnce, for --json

struct PoolRecord {
  size_t threads = 1;
  size_t tasks = 0;
  double wall_ms = 0;
  double tasks_per_sec = 0;
};

std::vector<PoolRecord> g_pool_records;

RunResult RunOnce(const char* label, size_t facts, size_t types,
                  size_t threads, size_t shards) {
  SyntheticOptions sopts;
  sopts.num_facts = facts;
  sopts.dim_cardinality.assign(3, 100);
  sopts.num_measures = 15;
  sopts.sparsity = 0.1;
  sopts.num_fact_types = types;
  auto graph = GenerateSynthetic(sopts);

  SpadeOptions options = BenchOptions();
  options.cfs.min_size = 100;
  options.enumeration.max_dims = 3;
  options.num_threads = threads;
  options.num_shards = shards;
  Spade spade(graph.get(), options);
  if (!spade.RunOffline().ok()) std::exit(1);
  if (!spade.RunOnline().ok()) std::exit(1);
  RunResult r;
  r.label = label;
  r.threads = threads;
  r.shards = shards;
  r.online_wall_ms = spade.report().timings.online_wall_ms;
  r.lattice_wall_ms = spade.report().lattice_wall_ms;
  r.lattice_work_ms = spade.report().lattice_work_ms;
  r.lattice_workers = spade.report().lattice_workers_used;
  r.num_cfs = spade.report().num_cfs;
  r.num_evaluated = spade.report().num_evaluated_aggregates;
  return r;
}

/// `shards`: within-CFS fact-range shards (0 = auto, one per thread;
/// 1 = unsharded). Results are bit-identical either way; only wall-clock
/// moves. The lattice computation always slices one partition range per
/// worker thread.
void Scale(const char* label, size_t facts, size_t types, size_t shards) {
  std::cout << "-- " << label << ": " << facts << " facts, " << types
            << " fact type(s), "
            << (shards == 0 ? std::string("shards=threads")
                            : std::to_string(shards) + " shard(s)")
            << " --\n";
  TablePrinter table({"threads", "online ms", "speedup", "lattice ms",
                      "lat work ms", "#CFS", "#A eval"});
  double base = 0;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    RunResult r = RunOnce(label, facts, types, threads, shards);
    if (threads == 1) base = r.online_wall_ms;
    r.speedup = base / std::max(1e-6, r.online_wall_ms);
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", r.speedup);
    table.AddRow({std::to_string(threads), Ms(r.online_wall_ms), speedup,
                  Ms(r.lattice_wall_ms), Ms(r.lattice_work_ms),
                  std::to_string(r.num_cfs), std::to_string(r.num_evaluated)});
    g_results.push_back(std::move(r));
  }
  table.Print(std::cout);
  std::cout << "\n";
}

/// Scheduler throughput under fine-grained slicing: parents are submitted
/// from outside the pool, and each fans out 7 near-empty children from
/// inside it.
void PoolThroughput() {
  constexpr size_t kParents = 20000;
  constexpr size_t kChildrenPerParent = 7;
  constexpr size_t kTotal = kParents * (1 + kChildrenPerParent);
  std::cout << "-- scheduler: fine-grained tasks/sec (" << kTotal
            << " tasks, 7 children per parent) --\n";
  TablePrinter table({"threads", "wall ms", "tasks/sec"});
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    std::atomic<size_t> ran{0};
    ThreadPool pool(threads);
    Timer timer;
    for (size_t p = 0; p < kParents; ++p) {
      pool.Submit([&ran, &pool] {
        ran.fetch_add(1, std::memory_order_relaxed);
        for (size_t c = 0; c < kChildrenPerParent; ++c) {
          pool.Submit(
              [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    while (ran.load(std::memory_order_acquire) < kTotal) {
      std::this_thread::yield();
    }
    PoolRecord r;
    r.threads = threads;
    r.tasks = kTotal;
    r.wall_ms = timer.ElapsedMillis();
    r.tasks_per_sec = kTotal / (r.wall_ms / 1e3);
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.0f", r.tasks_per_sec);
    table.AddRow({std::to_string(threads), Ms(r.wall_ms), rate});
    g_pool_records.push_back(r);
  }
  table.Print(std::cout);
  std::cout << "\n";
}

/// Minimal JSON emission — flat array of per-config records.
void WriteJson(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_parallel_scaling: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "[\n";
  for (size_t i = 0; i < g_results.size(); ++i) {
    const RunResult& r = g_results[i];
    out << "  {\"config\": \"" << r.label << "\", \"threads\": " << r.threads
        << ", \"shards\": " << r.shards
        << ", \"online_wall_ms\": " << r.online_wall_ms
        << ", \"lattice_wall_ms\": " << r.lattice_wall_ms
        << ", \"lattice_work_ms\": " << r.lattice_work_ms
        << ", \"lattice_workers\": " << r.lattice_workers
        << ", \"speedup\": " << r.speedup << ", \"num_cfs\": " << r.num_cfs
        << ", \"num_evaluated\": " << r.num_evaluated << "}"
        << (i + 1 < g_results.size() || !g_pool_records.empty() ? "," : "")
        << "\n";
  }
  for (size_t i = 0; i < g_pool_records.size(); ++i) {
    const PoolRecord& r = g_pool_records[i];
    out << "  {\"config\": \"pool_fine_grained\", \"threads\": " << r.threads
        << ", \"tasks\": " << r.tasks << ", \"wall_ms\": " << r.wall_ms
        << ", \"tasks_per_sec\": " << r.tasks_per_sec << "}"
        << (i + 1 < g_pool_records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << "wrote " << g_results.size() + g_pool_records.size()
            << " records to " << path << "\n";
}

}  // namespace
}  // namespace bench
}  // namespace spade

int main(int argc, char** argv) {
  size_t facts = 400000;
  size_t types = 16;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--facts=", 8) == 0) {
      facts = static_cast<size_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--types=", 8) == 0) {
      types = static_cast<size_t>(std::atoll(argv[i] + 8));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_parallel.json";
    }
  }
  std::cout << "== Parallel scaling of the online phase ("
            << spade::ThreadPool::HardwareConcurrency()
            << " hardware threads on this machine) ==\n\n";
  // Figure 12's largest single-CFS setting, unsharded: the per-fact
  // pre-builds stay serial per lattice, but the lattice computation itself
  // fans out across partition slices.
  spade::bench::Scale("fig12_single_cfs_unsharded", facts, 1, 1);
  // The same single CFS with fact-id-range sharding: encoding, translation
  // and measure loading fan out across one shard per worker and merge back
  // exactly — plus the partition-parallel lattice computation.
  spade::bench::Scale("fig12_single_cfs_sharded", facts, 1, 0);
  // Multi-tenant shape: one ARM shard per CFS, embarrassingly parallel.
  spade::bench::Scale("multi_cfs", facts, types, 1);
  // Scheduler-only: raw task throughput on the pool's queue.
  spade::bench::PoolThroughput();
  if (!json_path.empty()) spade::bench::WriteJson(json_path);
  return 0;
}
