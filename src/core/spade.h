#ifndef SPADE_CORE_SPADE_H_
#define SPADE_CORE_SPADE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/arm.h"
#include "src/core/cfs.h"
#include "src/core/earlystop.h"
#include "src/core/enumeration.h"
#include "src/core/mvdcube.h"
#include "src/core/pgcube.h"
#include "src/derive/derivations.h"
#include "src/exec/cube_evaluator.h"
#include "src/exec/thread_pool.h"
#include "src/ingest/ingest.h"
#include "src/rdf/ontology.h"
#include "src/summary/summary.h"
#include "src/util/cancel.h"
#include "src/util/status.h"

namespace spade {

namespace persist {
class SnapshotReader;
}  // namespace persist

/// All knobs of the end-to-end pipeline.
struct SpadeOptions {
  CfsOptions cfs;
  EnumerationOptions enumeration;
  DerivationOptions derivation;
  MvdCubeOptions mvd;
  EarlyStopOptions earlystop;

  bool saturate = false;            ///< RDFS saturation before analysis
  bool enable_derivations = true;   ///< Section 6.2 woD/wD switch
  bool enable_earlystop = false;
  EvalAlgorithm algorithm = EvalAlgorithm::kMvdCube;
  InterestingnessKind interestingness = InterestingnessKind::kVariance;
  size_t top_k = 10;
  uint64_t seed = 42;
  /// Group tuples retained per MDA for presentation.
  size_t max_stored_groups = 64;
  /// Online-phase worker threads: 0 = hardware concurrency, 1 = serial.
  /// The same pool drives all three parallelism levels — across CFSs,
  /// across fact-id shards of one CFS, and across partition slices of one
  /// lattice computation (ParallelLatticeRun). Results (top-k insights,
  /// aggregate counts) are identical at every setting; only wall-clock
  /// changes.
  size_t num_threads = 1;
  /// Fact-id-range shards evaluating one CFS concurrently: 0 = auto (one
  /// shard per resolved worker thread), 1 = unsharded, N = exactly N.
  /// Sharding applies to the MVDCube path without early-stop; other
  /// configurations fall back to unsharded evaluation. Results are
  /// bit-identical at every shard count (see ARCHITECTURE.md).
  size_t num_shards = 0;
  /// Streaming offline build (RunOffline(TripleChunkSource*)): overlap
  /// parsing, store construction and the offline statistics pass on the
  /// same worker pool (sized by num_threads). The sequential offline phase
  /// remains the oracle; results are identical either way (byte-identical
  /// store, same statistics, same insights — see ARCHITECTURE.md "The
  /// ingest pipeline"). With `saturate` set the pipeline falls back to the
  /// sequential path (saturation rewrites the graph before tables can be
  /// built).
  IngestOptions ingest;
  /// After the offline phase completes, persist the full offline state
  /// (dictionary, triples, tables, summary, statistics, selected fact sets)
  /// to this snapshot file. Empty = no save.
  std::string save_store;
  /// Instead of ingesting, mmap this snapshot and attach to it zero-copy:
  /// RunOffline() returns in O(segments) with a state semantically identical
  /// to the one that was saved. Empty = normal ingest. Takes precedence over
  /// any input document when both are given.
  std::string load_store;
  /// Verify per-segment checksums when loading (one sequential sweep of the
  /// file). Disable only for trusted snapshots on a cold-start-critical path.
  bool verify_snapshot = true;
  /// Online-phase deadline in milliseconds; 0 = none. When it expires,
  /// RunOnline()/Explore() stop cooperatively and return what completed —
  /// always a canonical-order prefix of the full result stream — with
  /// SpadeReport/ExploreOutcome marked truncated (reason "deadline").
  double deadline_ms = 0;
  /// Resident fact-bitmap budget per CFS, in bytes; 0 = unlimited. Enforced
  /// against the same accounting as SpadeReport::peak_bitmap_bytes (which
  /// is a per-CFS maximum): a CFS whose canonical emit would exceed the
  /// budget stops admitting groups at a deterministic, config-independent
  /// cut and the run reports truncation (reason "budget").
  uint64_t max_bitmap_bytes = 0;
  /// External cancellation for RunOnline(); null = none. Cancel() from any
  /// thread makes the run stop cooperatively, same truncation contract as
  /// the deadline. (Explore() takes its token per request instead.)
  CancelToken* cancel = nullptr;
  /// Incremental maintenance: retain each CFS's online result (its full ARM
  /// shard + report deltas) across RunOnline() calls and reuse it for CFSs
  /// no delta has touched. ApplyDelta() invalidates exactly the CFSs whose
  /// member lists or supported attributes changed, so the next RunOnline()
  /// re-evaluates only those — results stay bit-identical to a full re-run
  /// (proved by the differential harness in tests/delta_test.cc). Costs one
  /// retained shard per clean CFS.
  bool enable_incremental = false;
};

/// What one ApplyDelta() batch did (the serve mode's `apply` verb reports
/// the batch and cache counts verbatim; all deterministic, no timings
/// except apply_ms).
struct DeltaReport {
  size_t num_added = 0;          ///< net-new triples
  size_t num_removed = 0;        ///< net-removed triples
  size_t noop_adds = 0;          ///< added triples that were already present
  size_t noop_retracts = 0;      ///< retractions that removed nothing
  size_t num_attrs_changed = 0;  ///< attribute tables created/modified/dropped
  size_t num_cfs = 0;            ///< fact sets selected after the delta
  size_t num_cfs_reused = 0;     ///< cache entries still valid (clean CFSs)
  /// Derived attributes taken over from the previous store because the
  /// delta left their sources untouched (table and statistics copied).
  size_t num_derived_reused = 0;
  /// The delta only changed literal values, so the structural summary and
  /// the fact-set selection were kept instead of rebuilt.
  bool fact_sets_kept = false;
  double apply_ms = 0;           ///< wall-clock of the whole apply
};

/// Wall-clock per pipeline step (Figure 11's stacked bars).
struct SpadeTimings {
  // Offline.
  double saturation_ms = 0;
  double summary_ms = 0;
  double attribute_tables_ms = 0;
  double offline_stats_ms = 0;
  double derivation_ms = 0;
  // Online.
  double cfs_selection_ms = 0;
  double attribute_analysis_ms = 0;
  double enumeration_ms = 0;
  double earlystop_ms = 0;
  double evaluation_ms = 0;
  double topk_ms = 0;

  double OfflineTotal() const {
    return saturation_ms + summary_ms + attribute_tables_ms + offline_stats_ms +
           derivation_ms;
  }
  double OnlineTotal() const {
    return cfs_selection_ms + attribute_analysis_ms + enumeration_ms +
           earlystop_ms + evaluation_ms + topk_ms;
  }

  /// Online-phase wall-clock. Equals OnlineTotal() when num_threads == 1;
  /// under concurrency the per-step fields sum *work* time across workers,
  /// so wall-clock is the number that measures speedup.
  double online_wall_ms = 0;
  /// Offline-phase wall-clock (set by both RunOffline paths). Under the
  /// streaming ingest the per-step fields sum work time across workers, so
  /// this is the number the overlapped build is measured by.
  double offline_wall_ms = 0;
};

/// Dataset / run profile, the source of Table 2 and the R-observations.
struct SpadeReport {
  size_t num_triples = 0;
  size_t num_cfs = 0;
  size_t num_direct_properties = 0;  ///< #P
  DerivationReport derivations;      ///< #DP by kind
  size_t num_lattices = 0;
  size_t num_candidate_aggregates = 0;  ///< #A
  size_t num_evaluated_aggregates = 0;
  size_t num_reused_aggregates = 0;
  size_t num_pruned_aggregates = 0;
  size_t num_groups_emitted = 0;  ///< group tuples streamed into the ARM
  size_t num_threads_used = 1;    ///< resolved online-phase worker count
  size_t num_shards_used = 1;     ///< resolved within-CFS shard count
  /// Measure-fold kernel the runtime dispatcher picked for the online phase
  /// ("scalar" / "avx2" / "neon"); results are bit-identical across kernels,
  /// this reports what actually ran (--simd / SpadeOptions::mvd.simd).
  const char* simd_kernel = "scalar";
  /// Facts owned by each fact-id-range shard, summed over all sharded CFS
  /// evaluations (empty when every CFS ran unsharded).
  std::vector<size_t> shard_fact_counts;
  /// Work time spent merging per-shard partial translations (all CFSs).
  double shard_merge_ms = 0;
  /// Partition-parallel lattice computation (MVDCube path; zero elsewhere):
  /// the largest slice count any lattice ran with (bounded by num_threads
  /// and by the lattice's partition count), wall / summed-work / serial
  /// merge-and-emit time of the parallel runs, and the peak partial cell
  /// count. Results are identical at every worker count; these report cost.
  size_t lattice_workers_used = 0;
  double lattice_wall_ms = 0;
  double lattice_work_ms = 0;
  double lattice_merge_ms = 0;
  uint64_t lattice_peak_partial_cells = 0;
  /// Fact-bitmap bytes of the largest lattice evaluation's emitted group
  /// cells (max over CFSs; the Section 4.3 memory model, measured — a
  /// lower bound on the true resident peak).
  uint64_t peak_bitmap_bytes = 0;
  /// Streaming-ingest profile (chunk counts, parse/overlap times).
  /// num_chunks == 0 marks a sequential offline phase; on the
  /// RunOffline(source) fallback path parse_ms still carries the
  /// source-drain time so sequential and streamed runs compare on equal
  /// footing (bench_ingest relies on this).
  IngestStats ingest;
  SpadeTimings timings;
  /// The online phase stopped early (deadline, external cancel, or bitmap
  /// budget). The committed results are a canonical-order prefix: every CFS
  /// below num_cfs_completed contributed its full group stream, possibly
  /// followed by the deterministic prefix of one budget-truncated CFS.
  bool truncated = false;
  CancelReason cancel_reason = CancelReason::kNone;
  size_t num_cfs_completed = 0;
  /// Groups refused by the bitmap budget (counted, never silently dropped).
  size_t num_groups_skipped = 0;
  /// CFSs answered from the incremental cache instead of re-evaluation
  /// (SpadeOptions::enable_incremental; always 0 otherwise).
  size_t num_cfs_reused = 0;
};

/// One returned insight: a top-k aggregate with its provenance.
struct Insight {
  Arm::Ranked ranked;
  std::string cfs_name;
  std::string description;  ///< human-readable MDA identity
  std::string sparql;       ///< SPARQL 1.1 rendering (Section 2 semantics)
};

/// One exploration request against a prepared pipeline: which fact sets to
/// analyze and which knobs to override for this request only. Unset fields
/// inherit the pipeline's SpadeOptions. This is the unit of work of the
/// serve mode (one request per client line).
struct ExploreRequest {
  /// CFS names to explore (empty = all selected fact sets).
  std::vector<std::string> cfs_names;
  std::optional<size_t> top_k;
  std::optional<InterestingnessKind> interestingness;
  std::optional<EvalAlgorithm> algorithm;
  std::optional<bool> earlystop;
  std::optional<size_t> max_dims;
  std::optional<double> min_support_ratio;
  /// Per-request deadline in ms. Set (even to 0) it overrides the pipeline
  /// deadline; 0 means "already expired" — the request returns immediately
  /// with no results and truncated = true.
  std::optional<double> deadline_ms;
  /// Per-request cancellation; null = none. Borrowed for the call duration.
  CancelToken* cancel = nullptr;
};

/// What one exploration produced.
struct ExploreOutcome {
  std::vector<Insight> insights;
  size_t num_cfs_explored = 0;
  /// Same truncation contract as SpadeReport: the insights come from a
  /// canonical-order prefix of the requested CFS sequence.
  bool truncated = false;
  CancelReason cancel_reason = CancelReason::kNone;
  size_t num_cfs_completed = 0;
};

/// \brief The Spade pipeline (Figure 2): offline graph preparation + online
/// top-k interesting-aggregate discovery.
class Spade {
 public:
  Spade(Graph* graph, SpadeOptions options);
  ~Spade();  // out-of-line: owns the forward-declared SnapshotReader

  /// Offline Processing: optional saturation, structural summary, attribute
  /// tables, offline statistics, derived property enumeration.
  Status RunOffline();

  /// Streaming Offline Processing: consume `source` through the ingest
  /// pipeline, overlapping parsing with store construction, the structural
  /// summary and the offline statistics pass (SpadeOptions::ingest). Falls
  /// back to draining the source and running the sequential RunOffline()
  /// when streaming is disabled or saturation is requested. End state is
  /// identical to parsing the same document and calling RunOffline():
  /// byte-identical store, identical statistics and downstream results.
  Status RunOffline(TripleChunkSource* source);

  /// Online Processing, steps 1-5. Requires RunOffline() first. Steps 2-5
  /// are Explore() over every fact set with the pipeline's own options,
  /// except that the results also land in report()/arm() (reset at every
  /// call) and, with enable_incremental, go through the per-CFS cache.
  Result<std::vector<Insight>> RunOnline();

  /// Step 1 (Candidate Fact Set Selection) on its own: populate fact_sets().
  /// Idempotent; a no-op when a loaded snapshot already restored the
  /// selection under matching CfsOptions. RunOnline() calls this implicitly;
  /// the serve mode calls it once up front so every request sees the same
  /// selection.
  Status PrepareFactSets();

  /// Run steps 2-5 for one request against the prepared fact sets, without
  /// touching any pipeline state: results come back in the outcome, not in
  /// report()/arm(). Thread-safe against concurrent Explore() calls (the
  /// serve mode answers requests concurrently on one shared scheduler);
  /// `scheduler` may be null for serial evaluation. Requires RunOffline()
  /// and PrepareFactSets() first.
  Result<ExploreOutcome> Explore(const ExploreRequest& request,
                                 TaskScheduler* scheduler) const;

  /// Apply one mutation batch to the live pipeline. `adds` / `retracts` are
  /// triple chunk sources (either may be null) whose terms are interned in
  /// this pipeline's graph, same contract as the ingest path. Batch
  /// semantics: final set = (current \ retracts) ∪ adds; no-ops (adding a
  /// present triple, retracting an absent one) are counted, not errors.
  ///
  /// The mutated state is staged beside the live one (new permutations, new
  /// attribute tables merged base+delta, new statistics; derived attributes
  /// whose sources are untouched are copied, not re-derived) and committed
  /// with nothing but noexcept swaps, so any staging failure — including the
  /// `delta.apply` failpoint — leaves the pipeline exactly as it was. After
  /// the commit the structural summary and CFS selection are rebuilt, unless
  /// the delta only replaced literal values of existing (subject, property)
  /// pairs, and the incremental cache is revalidated: entries whose member
  /// lists and supported attributes are untouched survive (retagged to the
  /// new ids), everything else is dropped for re-evaluation. Online
  /// results/counters are reset; run RunOnline() again for fresh insights.
  /// Requires RunOffline() first; not supported with RDFS saturation.
  Status ApplyDelta(TripleChunkSource* adds, TripleChunkSource* retracts,
                    DeltaReport* out = nullptr);

  /// Reseal the accumulated state: re-intern the current triple set in
  /// canonical order into a fresh dictionary (dropping retired terms) and
  /// rebuild the store with the sequential offline pass. The result is
  /// byte-identical to a fresh sequential build of the final triple set
  /// (the compaction oracle in tests/delta_test.cc), and releases any
  /// borrowed snapshot mapping. Drops the incremental cache (id assignment
  /// may shift). Requires RunOffline() first; not with RDFS saturation.
  Status Compact();

  /// Mutation batches applied since construction.
  size_t num_deltas_applied() const { return num_deltas_applied_; }
  /// Currently valid per-CFS cache entries (incremental mode).
  size_t num_cached_cfs() const { return online_cache_.size(); }

  /// Persist the complete offline state (plus the CFS selection, when
  /// prepared) to `path`. Requires RunOffline() first. RunOffline() calls
  /// this automatically when SpadeOptions::save_store is set.
  Status SaveStore(const std::string& path) const;

  const SpadeReport& report() const { return report_; }
  const AttributeStore& store() const { return *db_; }
  AttributeStore* mutable_store() { return db_.get(); }
  /// The graph this pipeline analyzes (delta sources intern into its dict).
  Graph* mutable_graph() { return graph_; }
  const std::vector<CandidateFactSet>& fact_sets() const { return fact_sets_; }
  const Arm& arm() const { return *arm_; }
  const std::vector<AttrStats>& offline_stats() const { return offline_stats_; }
  /// The structural summary of the current graph. A delta that changes
  /// only literal values keeps it; any other delta marks it stale, and it is
  /// rebuilt by summary-based CFS selection (the default) or on demand by
  /// this accessor. Not safe concurrently with explores — call from
  /// mutation/setup paths only.
  const StructuralSummary& summary() const {
    EnsureSummary();
    return summary_;
  }

  /// Render an MDA as a SPARQL 1.1 aggregate query over the original graph.
  /// Derived dimensions that SPARQL cannot express as a property path
  /// (count / keyword / language) are annotated as comments.
  std::string MdaToSparql(const AggregateKey& key) const;

 private:
  /// How one CFS's evaluation ended — the input to the commit rule.
  enum class CfsRunState : uint8_t {
    kSkipped = 0,  ///< never admitted (cancelled before it started)
    kCompleted,    ///< full deterministic group stream in its ARM shard
    kTruncated,    ///< budget cut: a deterministic canonical-order prefix
    kAborted,      ///< deadline/cancel mid-flight: timing-dependent partial
  };

  /// What one CFS's steps 2-4 produced: how it ended, its enumeration
  /// counts, its evaluator stats and the per-step work times. The one input
  /// MergeCfsReport() folds into a SpadeReport.
  struct CfsResult {
    CfsRunState state = CfsRunState::kSkipped;
    size_t num_lattices = 0;
    size_t num_candidate_aggregates = 0;
    double analysis_ms = 0;
    double enumeration_ms = 0;
    double evaluation_ms = 0;  ///< includes stats.earlystop_ms
    EvalStats stats;
  };

  /// One retained per-CFS online result (SpadeOptions::enable_incremental):
  /// the CFS's full pre-absorb ARM shard plus its CfsResult, keyed by CFS
  /// name in online_cache_. Valid while the CFS's member list and every
  /// attribute with support in it are unchanged; ApplyDelta() revalidates
  /// and retags entries, Compact() drops them all.
  struct CfsCacheEntry {
    std::vector<TermId> members;
    Arm shard{0};
    CfsResult partial;
  };

  /// Steps 2-4 for one CFS: attribute analysis, enumeration, evaluation into
  /// `arm` (its own per-CFS shard). `num_shards` is the resolved within-CFS
  /// shard count (>= 1); `opts` carries the (possibly per-request)
  /// evaluation knobs. Const and state-free: safe to run concurrently for
  /// different (cfs_id, arm) pairs.
  CfsResult RunOnlineCfs(uint32_t cfs_id, size_t num_shards,
                         const SpadeOptions& opts, const CancelCheck* cancel,
                         Arm* arm, TaskScheduler* scheduler) const;

  /// Fold one committed CFS's result into `total`. Counts are exact; timing
  /// fields accumulate per-worker *work* time (wall-clock is tracked
  /// separately as online_wall_ms).
  static void MergeCfsReport(const CfsResult& cfs, SpadeReport* total);

  /// Evaluate `ids` (ascending cfs_ids) under `cancel`, then commit shards
  /// into `arm` in order by the rule that keeps results a canonical prefix:
  /// absorb while CFSs completed; absorb a budget-truncated CFS's
  /// deterministic prefix and stop; discard aborted/skipped CFSs and stop.
  /// With a non-null `cache`, CFSs holding a valid entry replay it instead
  /// of evaluating (in their place in the walk) and completed fresh CFSs are
  /// stored into it. Exceptions from the evaluation fan-out (failpoints,
  /// bad_alloc) come back as an error Status, never propagate. Merges the
  /// absorbed CFSs' results into `report` and records there what was
  /// committed (truncated, cancel_reason, num_cfs_completed).
  Status EvaluateCfsBatch(const std::vector<uint32_t>& ids, size_t num_shards,
                          const SpadeOptions& opts, const CancelCheck& cancel,
                          TaskScheduler* scheduler,
                          std::map<std::string, CfsCacheEntry>* cache,
                          Arm* arm, SpadeReport* report) const;

  /// Steps 2-5 for one request, the core of both Explore() and RunOnline():
  /// resolve the requested CFSs, overlay the request's knobs, resolve the
  /// shard count and the cancel/deadline check, evaluate and commit into
  /// `arm` / `report` (through `cache` when non-null), then rank.
  Result<ExploreOutcome> ExploreInto(
      const ExploreRequest& request, TaskScheduler* scheduler,
      std::map<std::string, CfsCacheEntry>* cache, Arm* arm,
      SpadeReport* report) const;

  /// The sequential offline pass over graph_ (summary, direct tables,
  /// statistics, derivations). RunOffline() wraps it; Compact() reruns it
  /// over the canonically rebuilt graph.
  Status BuildOfflineSequential();

  /// Drop arm_ and every online-phase report field; offline fields,
  /// cfs_selection_ms (the time of the selection the current fact sets came
  /// from) and the incremental cache stay. RunOnline() starts with it, so
  /// report() describes the last run; ApplyDelta()/Compact() call it too.
  void ResetOnlineState();

  /// Turn a ranking into presentable insights (provenance + SPARQL).
  std::vector<Insight> BuildInsights(std::vector<Arm::Ranked> ranked) const;

  /// Attach the pipeline to a snapshot (SpadeOptions::load_store).
  Status LoadStore(const std::string& path);
  /// SaveStore(options_.save_store) if configured, else a no-op.
  Status MaybeSaveStore();

  /// Rebuild summary_ if a delta invalidated it (lazy: a batch that changes
  /// the graph's shape pays for the O(num_triples) summary walk only when
  /// something reads the summary afterwards — summary-based selection does).
  void EnsureSummary() const;

  Graph* graph_;
  SpadeOptions options_;
  std::unique_ptr<AttributeStore> db_;
  mutable StructuralSummary summary_;
  mutable bool summary_dirty_ = false;
  /// db_'s derived tables came from DeriveAll under options_.derivation, so
  /// ApplyDelta may reuse their outcomes. False after a snapshot attach: a
  /// snapshot does not record the options its derivations ran under.
  bool derivations_own_ = false;
  std::vector<AttrStats> offline_stats_;
  std::vector<CandidateFactSet> fact_sets_;
  std::unique_ptr<Arm> arm_;
  SpadeReport report_;
  bool offline_done_ = false;
  bool fact_sets_ready_ = false;
  /// Per-CFS online results retained for reuse (enable_incremental).
  std::map<std::string, CfsCacheEntry> online_cache_;
  size_t num_deltas_applied_ = 0;
  /// Owns the mmap behind a loaded store; must outlive graph_/db_/summary_
  /// contents, which borrow from it.
  std::unique_ptr<persist::SnapshotReader> snapshot_;
};

}  // namespace spade

#endif  // SPADE_CORE_SPADE_H_
