#ifndef SPADE_PERFBENCH_STARTUP_H_
#define SPADE_PERFBENCH_STARTUP_H_

/// \file startup.h
/// \brief What every workload does on its graph besides its own operation:
/// set-up (ingest, snapshot save and attach), and checked cold and
/// snapshot starts up to the first insight; in the traced run also the
/// start-up module by module, churn batches on a twin pipeline and a
/// paired request probe, so that every workload reports every layer.
///
/// The workload's graph is serialized to N-Triples once. Set-up ingests
/// that text, saves a snapshot and attaches it. A cold start ingests the
/// text again and asks for the first insight through the serve request
/// core; a snapshot start attaches the snapshot and asks the same. Both
/// answers must equal the set-up pipeline's.

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/core_replay.h"
#include "perfbench/harness.h"
#include "perfbench/trace.h"
#include "src/core/spade.h"
#include "src/net/tcp_server.h"
#include "src/util/rng.h"

namespace spade {
namespace perfbench {

/// A graph and the pipeline over it (declared in destruction order: the
/// pipeline borrows the graph).
struct Pipeline {
  std::unique_ptr<Graph> graph = std::make_unique<Graph>();
  std::unique_ptr<Spade> spade;

  void Reset() {
    spade.reset();
    graph = std::make_unique<Graph>();
  }
};

/// An in-process TCP server over a prepared pipeline, running on its own
/// thread, with admission caps that only shed on a fault: a closed-loop
/// client never has more than one request in flight.
class TcpFrontEnd {
 public:
  ~TcpFrontEnd() { Stop(); }
  Status Start(const Spade* spade, size_t threads);
  uint16_t port() const { return server_->port(); }
  /// Drain and join the server thread; the session's stats.
  const net::TcpServeStats& Stop();

 private:
  std::unique_ptr<net::TcpServer> server_;
  std::thread loop_;
  net::TcpServeStats stats_;
};

/// One churn batch: N-Triples text of the retracted and the added triples.
struct Batch {
  std::string retract;
  std::string add;
  size_t count = 0;
};

/// The value-level triple set under churn: the N-Triples lines, and the
/// lines whose predicate contains one of the churned predicate fragments.
class ChurnModel {
 public:
  ChurnModel(const std::string& nt, const std::vector<std::string>& predicates,
             uint64_t seed);

  size_t num_triples() const { return lines_.size(); }

  /// Replace the numeric values of `count` consecutive churnable triples.
  Batch Next(size_t count);

  /// The current triple set as N-Triples text.
  std::string Text() const;

 private:
  /// The same triple with another value of the same datatype.
  std::string WithNewValue(const std::string& line);

  std::vector<std::string> lines_;
  std::vector<size_t> slots_;
  Rng rng_;
};

/// Triples a churn batch replaces: one in kChurnDivisor, so a batch (one
/// retraction and one addition per value) touches 0.1% of the triples.
inline constexpr size_t kChurnDivisor = 2000;

class Startup {
 public:
  /// `base` holds the workload's pipeline knobs; ingest, the incremental
  /// cache and the snapshot path are set here.
  Startup(const BenchArgs& args, Report* report, const Graph& graph,
          const SpadeOptions& base);

  /// Set up `reps` times: ingest the N-Triples, select the fact sets, save
  /// the snapshot, attach it. The last ingested pipeline stays in `*out`.
  /// Then fix the first insight (top 10 of `cfs` with at most two
  /// dimensions; the largest fact set when `cfs` is empty) and its
  /// reference answer. False after a counted failure.
  bool SetUp(size_t reps, const std::string& cfs, Pipeline* out);

  /// Attach the set-up's snapshot into `out` and select its fact sets.
  Status Attach(Pipeline* out, Tracer* tracer = nullptr) const;

  /// `reps` cold starts and snapshot starts, alternating, each checked
  /// against the reference answer. With a tracer, spans split them into
  /// ingest / attach, selection and request core, and `overlap_ms` gets
  /// each ingest's parse/build overlap. Prints the medians on stderr.
  void StartUps(size_t reps, Tracer* tracer, uint64_t* next_id,
                std::vector<double>* overlap_ms);

  /// HandleLine on `spade`'s read-only request core; an error or truncated
  /// answer counts as a failure.
  std::string Ask(const Spade* spade, const std::string& line);

  /// The traced run's lower level for cold starts: the offline pipeline's
  /// module calls one by one, then the first insight through the core
  /// replay, for `seconds` and at least kMinSamples times.
  void ReplayColdStarts(double seconds, Tracer* tracer, uint64_t* next_id);

  /// Replay `batches` on a twin pipeline built by ingest: parse each batch,
  /// Spade::ApplyDelta, then the first insight through the core replay
  /// (checked against Spade::Explore). Batches before `traced_from` only
  /// catch the twin up. Returns the twin; null after a counted failure.
  std::unique_ptr<Pipeline> ReplayChurn(const std::vector<Batch>& batches,
                                        size_t traced_from, Tracer* tracer,
                                        uint64_t* next_id,
                                        std::vector<ReplayCounts>* counts);

  /// The delta layers on a graph whose own workload does not churn:
  /// kSweepBatches batches over the triples whose predicate contains one of
  /// `predicates`, replayed on a twin (spans into `tracer`), then checked
  /// against a rebuild.
  void SweepChurn(const std::vector<std::string>& predicates, Tracer* tracer,
                  uint64_t* next_id);

  /// Delta == rebuild: `maintained` answers the first insight like a fresh
  /// ingest of `model`'s current triples. Counts one operation.
  void CheckRebuild(const Spade& maintained, const ChurnModel& model);

  /// The same request at three levels, interleaved `reps` times: over TCP,
  /// through HandleLine, through Spade::Explore. Reports the medians of the
  /// paired differences as net.transport_ms and persist.handle_ms. The
  /// request is the first insight cut to one dimension: cheap, so that the
  /// two layers' self times stand out of the explore's own variation.
  void ProbeRequestLevels(const Spade& spade, size_t reps);

  /// The start-up and delta layers' metrics. `starts` holds the spans of
  /// traced StartUps, `modules` those of ReplayColdStarts and `churn` those
  /// of ReplayChurn (all may be one tracer when no two of them record the
  /// same span names).
  void ReportLayers(const Tracer& starts, const Tracer& modules,
                    const Tracer& churn,
                    const std::vector<double>& overlap_ms) const;

  /// The end-to-end metrics: the median of `op_ms`, the set-up median and
  /// the peak RSS.
  void ReportEndToEnd(const std::vector<double>& op_ms,
                      double peak_rss_mb) const;

  const std::string& nt() const { return nt_; }
  const SpadeOptions& ingest_options() const { return ingest_options_; }
  const std::string& first_line() const { return first_line_; }
  Workers* workers() { return &workers_; }
  /// Remove the work files (snapshot, batch files).
  void Cleanup() const;

 private:
  const BenchArgs& args_;
  Report* report_;
  std::string nt_;
  const std::string snapshot_;
  const SpadeOptions ingest_options_;
  const SpadeOptions attach_options_;
  Workers workers_;
  ExploreKnobs first_insight_;
  std::string first_line_;
  std::string reference_;             ///< the first insight's reply
  ExploreOutcome reference_outcome_;  ///< and its outcome
  std::vector<double> setup_s_;
  std::vector<double> save_ms_;
  double snapshot_bytes_ = 0;
  std::map<std::string, double> counts_;  ///< rdf.triples and the like

  /// Cold start to first insight, in seconds.
  double ColdStart(Tracer* tracer, uint64_t id,
                   std::vector<double>* overlap_ms);
  /// Snapshot attach to first insight, in milliseconds.
  double SnapshotStart(Tracer* tracer, uint64_t id);
};

/// Churn batches of the traced run in workloads whose own operation is not
/// churn: enough for a median of the delta layers.
inline constexpr size_t kSweepBatches = kMinSamples + 1;

}  // namespace perfbench
}  // namespace spade

#endif  // SPADE_PERFBENCH_STARTUP_H_
