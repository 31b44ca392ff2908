// Workload cold-churn: the write side next to the reads.
//
// A CEOs-shaped graph (GenerateCeos, scaled to about 236k triples: seven
// heterogeneous fact sets, links, multi-valued and text attributes, so
// derivations run) is served by a pipeline built from its N-Triples. The
// operation is value churn: an `apply add=... retract=...` batch replacing
// about 0.1% of the triples (numeric values of the companies), sent through
// the serve request core, then the `explore` of the companies that follows
// it; op_ms runs from sending `apply` to the explore's reply. That explore
// is also the first insight of the start-ups (startup.h), and every batch
// is followed by the same request, so the churn has one cost mode.
//
// Time goes to rdf, ingest, store, summary, stats, derive, persist and the
// delta path, and little to net. A change that speeds explores by slowing
// ingest or applies shows here.

#include <fstream>
#include <iostream>
#include <memory>

#include "perfbench/core_replay.h"
#include "perfbench/harness.h"
#include "perfbench/startup.h"
#include "src/datagen/realworld.h"
#include "src/persist/serve.h"

namespace spade {
namespace perfbench {
namespace {

/// GenerateCeos scale: about 236k triples, 25 MB of N-Triples.
constexpr double kScale = 10.0;
constexpr size_t kSetups = 3;

/// Which numeric properties churn. All belong to companies, so every batch
/// is followed by an explore of the same fact set.
const std::vector<std::string> kChurnPredicates = {"/ceos/revenue>",
                                                   "/ceos/employees>"};
const char* const kChurnFactSet = "type:Company";

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

/// One churn batch through the serve request core plus the explore after
/// it; returns milliseconds from sending `apply` to the explore's reply.
double Churn(const BenchArgs& args, Startup* startup, const Batch& batch,
             Spade* spade, Tracer* tracer, uint64_t id, Report* report) {
  report->Attempt();
  const std::string retract_path = WorkFile(args, "retract.nt");
  const std::string add_path = WorkFile(args, "add.nt");
  if (!WriteFile(retract_path, batch.retract) ||
      !WriteFile(add_path, batch.add)) {
    report->Fail("cannot write the batch files");
    return 0;
  }
  const std::string apply =
      "apply add=" + add_path + " retract=" + retract_path;
  persist::InsightServer core(spade, persist::ServeOptions{});
  TaskScheduler* scheduler = startup->workers()->scheduler();
  bool is_error = false, truncated = false;
  std::string applied, explored;
  const double t0 = NowSeconds();
  {
    ScopedSpan span(tracer, "churn.Batch", id);
    {
      ScopedSpan a(tracer, "persist.HandleLine.apply");
      applied = core.HandleLine(apply, scheduler, nullptr, &is_error,
                                &truncated);
    }
    ScopedSpan e(tracer, "persist.HandleLine.explore");
    explored = core.HandleLine(startup->first_line(), scheduler, nullptr,
                               &is_error, &truncated);
  }
  const double ms = 1000.0 * (NowSeconds() - t0);
  const std::string want = "ok added=" + std::to_string(batch.count) +
                           " removed=" + std::to_string(batch.count) +
                           " noop_adds=0 noop_retracts=0 ";
  if (applied.rfind(want, 0) != 0) {
    report->Fail("apply answered: " + applied);
  } else if (is_error || truncated || explored.rfind("ok ", 0) != 0) {
    report->Fail("explore after apply answered: " + explored);
  }
  return ms;
}

}  // namespace

int RunColdChurn(const BenchArgs& args, Report* report) {
  std::unique_ptr<Startup> startup;
  {
    std::unique_ptr<Graph> graph = GenerateCeos(args.seed, kScale);
    SpadeOptions options;
    options.num_threads = args.threads;
    startup = std::make_unique<Startup>(args, report, *graph, options);
  }
  ChurnModel model(startup->nt(), kChurnPredicates, args.seed);
  const size_t batch_size = model.num_triples() / kChurnDivisor;
  TrimHeap();
  if (!ResetPeakRss()) throw Refusal("cannot reset the peak-RSS counter");
  Pipeline served;
  if (!startup->SetUp(kSetups, kChurnFactSet, &served)) return 1;
  std::cerr << "cold-churn: " << batch_size << " values per batch\n";

  std::vector<Batch> batches;
  uint64_t next_id = 1;
  auto churn = [&](Tracer* tracer, std::vector<double>* out) {
    batches.push_back(model.Next(batch_size));
    out->push_back(Churn(args, startup.get(), batches.back(),
                         served.spade.get(), tracer, next_id++, report));
  };

  if (!args.trace) {
    std::vector<double> churn_ms;
    RunTimed(args.seconds, kMinSamples, [&] { churn(nullptr, &churn_ms); });
    // Read before the checks, which are not the workload.
    const double peak_rss_mb = PeakRssMb();
    startup->StartUps(1, nullptr, &next_id, nullptr);
    startup->CheckRebuild(*served.spade, model);
    startup->ReportEndToEnd(churn_ms, peak_rss_mb);
    startup->Cleanup();
    return 0;
  }

  // Traced run: batches with tracing off, then batches with spans around
  // the request-core calls, then the traced batches replayed one layer
  // lower on a twin pipeline; then the start-up and the request probe.
  const double phase_s = args.seconds / 3;
  std::vector<double> untraced, traced;
  RunTimed(phase_s, kMinSamples, [&] { churn(nullptr, &untraced); });
  const size_t untraced_batches = batches.size();
  Tracer requests;
  RunTimed(phase_s, kMinSamples, [&] { churn(&requests, &traced); });

  Tracer replay;
  std::vector<ReplayCounts> counts;
  std::unique_ptr<Pipeline> twin =
      startup->ReplayChurn(batches, untraced_batches, &replay, &next_id,
                           &counts);
  if (twin == nullptr) return 1;
  if (startup->Ask(twin->spade.get(), startup->first_line()) !=
      startup->Ask(served.spade.get(), startup->first_line())) {
    report->Fail("the twin pipeline answers differently after the same batches");
  }
  twin.reset();
  Tracer starts, modules;
  std::vector<double> overlap_ms;
  startup->StartUps(kMinSamples, &starts, &next_id, &overlap_ms);
  startup->ReplayColdStarts(phase_s / 2, &modules, &next_id);
  startup->ProbeRequestLevels(*served.spade, 3 * kMinSamples);
  startup->CheckRebuild(*served.spade, model);

  ReportCoreLayers(replay, counts, *served.spade, report);
  startup->ReportLayers(starts, modules, replay, overlap_ms);
  const double traced_ms =
      Median(requests.DurationsMs("churn.Batch"), "batch");
  Coverage c;
  c.metric = "op_ms";
  c.untraced = Median(untraced, "untraced churn");
  c.traced = traced_ms;
  c.covered =
      traced_ms - Median(requests.SelfMs("churn.Batch"), "batch self");
  ReportCoverage(c, report);
  if (!requests.Dump(WorkFile(args, "spans-requests.jsonl")) ||
      !replay.Dump(WorkFile(args, "spans-replay.jsonl")) ||
      !starts.Dump(WorkFile(args, "spans-starts.jsonl")) ||
      !modules.Dump(WorkFile(args, "spans-modules.jsonl"))) {
    report->Fail("cannot write the span dumps");
  }
  startup->Cleanup();
  return 0;
}

}  // namespace perfbench
}  // namespace spade
