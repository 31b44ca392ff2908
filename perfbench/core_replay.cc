#include "perfbench/core_replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "perfbench/harness.h"
#include "src/core/enumeration.h"
#include "src/simd/measure_fold.h"
#include "src/store/preagg.h"

namespace spade {
namespace perfbench {

ExploreRequest ToRequest(const ExploreKnobs& knobs) {
  ExploreRequest req;
  req.cfs_names = knobs.cfs_names;
  req.top_k = knobs.top_k;
  req.earlystop = knobs.earlystop;
  if (knobs.max_dims > 0) req.max_dims = knobs.max_dims;
  return req;
}

std::string ToLine(const ExploreKnobs& knobs) {
  std::string line = "explore";
  for (size_t i = 0; i < knobs.cfs_names.size(); ++i) {
    line += (i == 0 ? " cfs=" : ",") + knobs.cfs_names[i];
  }
  line += " top=" + std::to_string(knobs.top_k);
  if (knobs.earlystop) line += " earlystop=on";
  if (knobs.max_dims > 0) line += " max-dims=" + std::to_string(knobs.max_dims);
  return line;
}

std::vector<Arm::Ranked> ReplayExplore(const OfflineView& view,
                                       const SpadeOptions& options,
                                       const ExploreKnobs& knobs,
                                       TaskScheduler* scheduler, Tracer* tracer,
                                       ReplayCounts* counts) {
  const auto& sets = *view.fact_sets;
  std::vector<uint32_t> ids;
  if (knobs.cfs_names.empty()) {
    for (uint32_t i = 0; i < sets.size(); ++i) ids.push_back(i);
  } else {
    for (const std::string& name : knobs.cfs_names) {
      for (uint32_t i = 0; i < sets.size(); ++i) {
        if (sets[i].name == name) ids.push_back(i);
      }
    }
  }
  // The same option resolution as Explore + RunOnlineCfs.
  SpadeOptions opts = options;
  opts.top_k = knobs.top_k;
  opts.enable_earlystop = knobs.earlystop;
  if (knobs.max_dims > 0) opts.enumeration.max_dims = knobs.max_dims;
  CubeEvalOptions eval_options;
  eval_options.algorithm = opts.algorithm;
  eval_options.mvd = opts.mvd;
  eval_options.earlystop = opts.earlystop;
  eval_options.enable_earlystop = opts.enable_earlystop;
  eval_options.interestingness = opts.interestingness;
  eval_options.top_k = opts.top_k;
  eval_options.seed = opts.seed;
  eval_options.num_shards =
      ResolveShardCount(opts.algorithm, opts.enable_earlystop, opts.num_shards,
                        scheduler->num_threads());

  Arm arm(opts.max_stored_groups);
  for (uint32_t id : ids) {
    CfsIndex index(sets[id].members);
    CfsAnalysis analysis;
    {
      ScopedSpan span(tracer, "core.AnalyzeAttributes");
      analysis = AnalyzeAttributes(*view.db, index, *view.offline_stats,
                                   opts.enumeration);
    }
    std::vector<LatticeSpec> lattices;
    {
      ScopedSpan span(tracer, "core.EnumerateLattices");
      lattices = EnumerateLattices(*view.db, index, analysis,
                                   *view.offline_stats, opts.enumeration);
    }
    Arm shard(opts.max_stored_groups);
    EvalStats stats;
    {
      ScopedSpan span(tracer, "core.EvaluateCfs");
      std::unique_ptr<CubeEvaluator> evaluator =
          MakeCubeEvaluator(eval_options);
      CubeEvalInputs inputs;
      inputs.db = view.db;
      inputs.cfs_id = id;
      inputs.cfs = &index;
      inputs.lattices = &lattices;
      inputs.offline_stats = view.offline_stats;
      stats = evaluator->EvaluateCfs(inputs, &shard, scheduler);
    }
    {
      ScopedSpan span(tracer, "core.Absorb");
      arm.Absorb(std::move(shard));
    }
    EvalStats& total = counts->eval;
    total.num_mdas_evaluated += stats.num_mdas_evaluated;
    total.num_mdas_reused += stats.num_mdas_reused;
    total.num_mdas_pruned += stats.num_mdas_pruned;
    total.num_groups_emitted += stats.num_groups_emitted;
    total.lattice_workers_used =
        std::max(total.lattice_workers_used, stats.lattice_workers_used);
    total.lattice_wall_ms += stats.lattice_wall_ms;
    total.lattice_work_ms += stats.lattice_work_ms;
    total.peak_bitmap_bytes =
        std::max(total.peak_bitmap_bytes, stats.peak_bitmap_bytes);
    ++counts->num_cfs;
  }
  ScopedSpan span(tracer, "core.TopK");
  return arm.TopK(opts.top_k, opts.interestingness);
}

bool SameRanking(const std::vector<Arm::Ranked>& replay,
                 const std::vector<Insight>& insights) {
  if (replay.size() != insights.size()) return false;
  for (size_t i = 0; i < replay.size(); ++i) {
    const Arm::Ranked& a = replay[i];
    const Arm::Ranked& b = insights[i].ranked;
    if (!(a.key == b.key) || a.score != b.score ||
        a.num_groups != b.num_groups) {
      return false;
    }
  }
  return true;
}

uint64_t InsightChecksum(const ExploreOutcome& outcome) {
  uint64_t h = Fnv(std::to_string(outcome.insights.size()));
  for (const Insight& insight : outcome.insights) {
    char score[40];
    std::snprintf(score, sizeof(score), "%.17g|%zu|", insight.ranked.score,
                  insight.ranked.num_groups);
    h = Fnv(insight.cfs_name + "|" + insight.description + "|" + score, h);
    for (const GroupResult& g : insight.ranked.groups) {
      std::string row;
      for (TermId v : g.dim_values) row += std::to_string(v) + ",";
      std::snprintf(score, sizeof(score), "=%.17g;", g.value);
      h = Fnv(row + score, h);
    }
  }
  return h;
}

double ReportCoreLayers(const Tracer& tracer,
                        const std::vector<ReplayCounts>& requests,
                        const Spade& spade, Report* report) {
  double covered_ms = 0;
  auto layer = [&](const char* span, const char* metric) {
    const double ms = Median(tracer.PerRequestMs(span), metric);
    report->Metric(metric, ms, "ms");
    covered_ms += ms;
  };
  layer("core.AnalyzeAttributes", "core.analyze_ms");
  layer("core.EnumerateLattices", "core.enumerate_ms");
  layer("core.EvaluateCfs", "core.evaluate_ms");
  layer("core.Absorb", "core.absorb_ms");
  layer("core.TopK", "core.topk_ms");

  std::vector<double> wall, work, groups, evaluated, efficiency;
  double pruned = 0, considered = 0;
  size_t workers = 0, peak_bitmap = 0;
  for (const ReplayCounts& r : requests) {
    const EvalStats& e = r.eval;
    wall.push_back(e.lattice_wall_ms);
    work.push_back(e.lattice_work_ms);
    groups.push_back(static_cast<double>(e.num_groups_emitted));
    evaluated.push_back(static_cast<double>(e.num_mdas_evaluated));
    if (e.lattice_wall_ms > 0 && e.lattice_workers_used > 0) {
      efficiency.push_back(
          e.lattice_work_ms /
          (e.lattice_wall_ms * static_cast<double>(e.lattice_workers_used)));
    }
    pruned += static_cast<double>(e.num_mdas_pruned);
    considered += static_cast<double>(e.num_mdas_evaluated + e.num_mdas_pruned);
    workers = std::max<size_t>(workers, e.lattice_workers_used);
    peak_bitmap = std::max<size_t>(peak_bitmap, e.peak_bitmap_bytes);
  }
  report->Metric("core.lattice_wall_ms", Median(wall, "lattice wall"), "ms");
  report->Metric("core.lattice_work_ms", Median(work, "lattice work"), "ms");
  report->Metric("core.groups_emitted", Median(groups, "groups"), "count");
  report->Metric("core.aggregates_evaluated", Median(evaluated, "aggregates"),
                 "count");
  report->Metric("core.pruned_ratio", considered > 0 ? pruned / considered : 0,
                 "ratio");
  report->Metric("exec.lattice_workers", static_cast<double>(workers), "count");
  report->Metric("exec.parallel_efficiency", Median(efficiency, "efficiency"),
                 "ratio");
  report->Metric("bitmap.peak_bytes", static_cast<double>(peak_bitmap),
                 "bytes");
  std::vector<double> fold;
  for (size_t i = 0; i < kMinSamples; ++i) {
    fold.push_back(FoldNsPerFact(spade, 200));
  }
  report->Metric("simd.fold_ns_per_fact", Median(fold, "fold"), "ns/fact");
  return covered_ms;
}

double FoldNsPerFact(const Spade& spade, size_t reps) {
  const AttributeStore& db = spade.store();
  MeasureVector best;
  size_t best_values = 0;
  for (const CandidateFactSet& set : spade.fact_sets()) {
    CfsIndex index(set.members);
    for (AttrId a = 0; a < db.num_attributes(); ++a) {
      if (!spade.offline_stats()[a].numeric()) continue;
      MeasureVector mv = BuildMeasureVector(db, index, a);
      size_t values = 0;
      for (uint32_t c : mv.count) values += c > 0 ? 1 : 0;
      if (mv.numeric && values > best_values) {
        best_values = values;
        best = std::move(mv);
      }
    }
  }
  if (best.size() == 0) return 0;
  std::vector<uint32_t> facts(best.size());
  for (uint32_t f = 0; f < facts.size(); ++f) facts[f] = f;
  const simd::FoldKernel kernel =
      simd::ResolveFoldKernel(simd::SimdMode::kAuto);
  simd::FoldAcc acc;
  double sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < reps; ++r) {
    acc.Reset();
    kernel.fn(facts.data(), facts.size(), best.count.data(), best.sum.data(),
              best.min.data(), best.max.data(), &acc);
    sink += simd::Reduce(acc).sum;
  }
  const std::chrono::duration<double, std::nano> ns =
      std::chrono::steady_clock::now() - start;
  // Keep the folds observable so they cannot be optimized away.
  if (sink == -1.0) std::fprintf(stderr, " ");
  return ns.count() /
         (static_cast<double>(reps) * static_cast<double>(facts.size()));
}

}  // namespace perfbench
}  // namespace spade
