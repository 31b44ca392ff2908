#ifndef SPADE_PERFBENCH_CORE_REPLAY_H_
#define SPADE_PERFBENCH_CORE_REPLAY_H_

/// \file core_replay.h
/// \brief Spade::Explore replayed one layer lower, for the traced runs.
///
/// The replay calls the core and exec modules' public functions in the
/// order Explore does — per fact set AnalyzeAttributes, EnumerateLattices,
/// CubeEvaluator::EvaluateCfs into a shard, then Arm::Absorb in fact-set
/// order, then Arm::TopK — with a span around each call, so a request's time
/// splits by layer. Fact sets are replayed one after another on the calling
/// thread (Explore fans them out); the workloads that use the replay send
/// single-fact-set requests or have one fact set.

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/trace.h"
#include "src/core/spade.h"
#include "src/exec/cube_evaluator.h"

namespace spade {
namespace perfbench {

class Report;

/// Counters summed (times) or maxed (workers, bitmap bytes) over the
/// replayed fact sets, straight from the evaluator's EvalStats.
struct ReplayCounts {
  EvalStats eval;
  size_t num_cfs = 0;
};

/// Per-request knobs the workloads vary.
struct ExploreKnobs {
  std::vector<std::string> cfs_names;  ///< empty = every fact set
  size_t top_k = 10;
  bool earlystop = false;
  size_t max_dims = 0;  ///< 0 = the pipeline's
};

ExploreRequest ToRequest(const ExploreKnobs& knobs);
/// The serve-protocol line for the same request.
std::string ToLine(const ExploreKnobs& knobs);

/// The offline state an explore reads: a Spade's, or one the cold-start
/// replay built module by module.
struct OfflineView {
  const AttributeStore* db = nullptr;
  const std::vector<AttrStats>* offline_stats = nullptr;
  const std::vector<CandidateFactSet>* fact_sets = nullptr;

  static OfflineView Of(const Spade& spade) {
    return {&spade.store(), &spade.offline_stats(), &spade.fact_sets()};
  }
};

/// Replay one explore one layer lower. Returns the ranking (compare with
/// ExploreOutcome::insights[i].ranked). `options` must be the pipeline's.
std::vector<Arm::Ranked> ReplayExplore(const OfflineView& view,
                                       const SpadeOptions& options,
                                       const ExploreKnobs& knobs,
                                       TaskScheduler* scheduler, Tracer* tracer,
                                       ReplayCounts* counts);

/// Same top-k (keys, scores, group counts) in the same order.
bool SameRanking(const std::vector<Arm::Ranked>& replay,
                 const std::vector<Insight>& insights);

/// Order-sensitive checksum of an explore outcome: every insight's fact
/// set, description, score and stored groups.
uint64_t InsightChecksum(const ExploreOutcome& outcome);

/// Report the core, exec, simd and bitmap layers of replayed explores:
/// span medians per request from `tracer` (core.analyze_ms, enumerate,
/// evaluate, absorb, topk) and, from `requests` (one entry per replayed
/// request), the evaluator's counters. Returns the summed span medians in
/// ms: the part of a request the replay covers.
double ReportCoreLayers(const Tracer& tracer,
                        const std::vector<ReplayCounts>& requests,
                        const Spade& spade, Report* report);

/// ns per fact of the resolved FoldKernel over the largest numeric measure
/// column (by fact count) of any of `spade`'s fact sets, folding all facts
/// `reps` times. Returns 0 when no fact set has a numeric measure.
double FoldNsPerFact(const Spade& spade, size_t reps);

}  // namespace perfbench
}  // namespace spade

#endif  // SPADE_PERFBENCH_CORE_REPLAY_H_
