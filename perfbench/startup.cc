#include "perfbench/startup.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "src/core/cfs.h"
#include "src/ingest/chunk_source.h"
#include "src/net/line_client.h"
#include "src/persist/serve.h"
#include "src/rdf/ntriples.h"
#include "src/stats/attr_stats.h"
#include "src/summary/summary.h"

namespace spade {
namespace perfbench {
namespace {

SpadeOptions WithInput(SpadeOptions o, const std::string& load_store) {
  o.ingest.enabled = true;
  o.enable_incremental = true;
  o.load_store = load_store;
  return o;
}

/// Cold start up to fact-set selection: stream `nt` through the ingest.
Status Ingest(const std::string& nt, const SpadeOptions& options,
              Pipeline* out) {
  out->spade = std::make_unique<Spade>(out->graph.get(), options);
  std::istringstream in(nt);
  NTriplesChunkSource source(in, out->graph.get());
  Status st = out->spade->RunOffline(&source);
  if (!st.ok()) return st;
  return out->spade->PrepareFactSets();
}

}  // namespace

Status TcpFrontEnd::Start(const Spade* spade, size_t threads) {
  net::TcpServerOptions topt;
  topt.listen.host = "127.0.0.1";
  topt.listen.port = 0;
  topt.install_signal_handlers = false;
  topt.serve.num_threads = threads;
  topt.max_inflight = 4 * threads;
  topt.max_connections = 4 * threads;
  server_ = std::make_unique<net::TcpServer>(spade, topt);
  Status st = server_->Start();
  if (!st.ok()) return st;
  loop_ = std::thread([this] { stats_ = server_->Run(); });
  return Status::OK();
}

const net::TcpServeStats& TcpFrontEnd::Stop() {
  if (loop_.joinable()) {
    server_->RequestShutdown();
    loop_.join();
  }
  return stats_;
}

ChurnModel::ChurnModel(const std::string& nt,
                       const std::vector<std::string>& predicates,
                       uint64_t seed)
    : rng_(seed * 104729 + 7) {
  std::istringstream in(nt);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.find('"') != std::string::npos) {
      for (const std::string& predicate : predicates) {
        if (line.find(predicate) != std::string::npos) {
          slots_.push_back(lines_.size());
          break;
        }
      }
    }
    lines_.push_back(line);
  }
}

Batch ChurnModel::Next(size_t count) {
  Batch b;
  const size_t start = rng_.Uniform(slots_.size());
  for (size_t i = 0; i < count && i < slots_.size(); ++i) {
    std::string& line = lines_[slots_[(start + i) % slots_.size()]];
    b.retract += line + "\n";
    line = WithNewValue(line);
    b.add += line + "\n";
    ++b.count;
  }
  return b;
}

std::string ChurnModel::Text() const {
  std::string out;
  for (const std::string& line : lines_) out += line + "\n";
  return out;
}

std::string ChurnModel::WithNewValue(const std::string& line) {
  const size_t open = line.find('"');
  const size_t close = line.find('"', open + 1);
  const std::string old = line.substr(open + 1, close - open - 1);
  std::string value;
  do {
    value = std::to_string(1 + rng_.Uniform(1000000));
    if (old.find_first_of(".eE") != std::string::npos) value += ".0";
  } while (value == old);
  return line.substr(0, open + 1) + value + line.substr(close);
}

Startup::Startup(const BenchArgs& args, Report* report, const Graph& graph,
                 const SpadeOptions& base)
    : args_(args),
      report_(report),
      snapshot_(WorkFile(args, "snapshot.spade")),
      ingest_options_(WithInput(base, "")),
      attach_options_(WithInput(base, WorkFile(args, "snapshot.spade"))),
      workers_(args.threads) {
  std::ostringstream out;
  NTriplesWriter::Write(graph, out);
  nt_ = out.str();
}

bool Startup::SetUp(size_t reps, const std::string& cfs, Pipeline* out) {
  for (size_t rep = 0; rep < reps; ++rep) {
    out->Reset();
    report_->Attempt();
    const double t0 = NowSeconds();
    Status st = Ingest(nt_, ingest_options_, out);
    const double t1 = NowSeconds();
    if (st.ok()) st = out->spade->SaveStore(snapshot_);
    const double t2 = NowSeconds();
    Pipeline attached;
    if (st.ok()) st = Attach(&attached);
    const double t3 = NowSeconds();
    if (!st.ok()) {
      report_->Fail("set-up: " + st.ToString());
      return false;
    }
    setup_s_.push_back(t3 - t0);
    save_ms_.push_back(1000.0 * (t2 - t1));
  }
  snapshot_bytes_ = static_cast<double>(std::filesystem::file_size(snapshot_));

  std::string name = cfs;
  if (name.empty()) {
    size_t largest = 0;
    for (const CandidateFactSet& s : out->spade->fact_sets()) {
      if (s.members.size() > largest) {
        largest = s.members.size();
        name = s.name;
      }
    }
  }
  first_insight_.cfs_names = {name};
  first_insight_.top_k = 10;
  first_insight_.max_dims = 2;
  first_line_ = ToLine(first_insight_);
  reference_ = Ask(out->spade.get(), first_line_);
  auto outcome = out->spade->Explore(ToRequest(first_insight_),
                                     workers_.scheduler());
  if (!outcome.ok() || outcome->insights.empty()) {
    report_->Fail("first insight '" + first_line_ + "': " +
                  (outcome.ok() ? std::string("no insights")
                                : outcome.status().ToString()));
    return false;
  }
  reference_outcome_ = std::move(*outcome);
  std::cerr << args_.workload << ": " << out->spade->report().num_triples
            << " triples, " << nt_.size() << " bytes of N-Triples, "
            << out->spade->fact_sets().size() << " fact sets, "
            << args_.threads << " workers, first insight '" << first_line_
            << "'\n";
  return report_->failed() == 0;
}

std::string Startup::Ask(const Spade* spade, const std::string& line) {
  persist::InsightServer core(spade, persist::ServeOptions{});
  bool is_error = false, truncated = false;
  std::string reply = core.HandleLine(line, workers_.scheduler(), nullptr,
                                      &is_error, &truncated);
  if (is_error || truncated) report_->Fail("'" + line + "' answered " + reply);
  return reply;
}

double Startup::ColdStart(Tracer* tracer, uint64_t id,
                          std::vector<double>* overlap_ms) {
  report_->Attempt();
  Pipeline p;
  std::string reply;
  const double t0 = NowSeconds();
  {
    ScopedSpan span(tracer, "cold.Start", id);
    Status st;
    {
      ScopedSpan ingest(tracer, "ingest.RunOffline");
      st = Ingest(nt_, ingest_options_, &p);
    }
    if (!st.ok()) {
      report_->Fail("cold start: " + st.ToString());
      return 0;
    }
    ScopedSpan ask(tracer, "persist.HandleLine");
    reply = Ask(p.spade.get(), first_line_);
  }
  const double s = NowSeconds() - t0;
  if (reply != reference_) report_->Fail("cold start gave another first insight");
  if (overlap_ms != nullptr) {
    overlap_ms->push_back(p.spade->report().ingest.overlap_ms);
  }
  return s;
}

Status Startup::Attach(Pipeline* out, Tracer* tracer) const {
  out->spade = std::make_unique<Spade>(out->graph.get(), attach_options_);
  Status st;
  {
    ScopedSpan attach(tracer, "persist.Attach");
    st = out->spade->RunOffline();
  }
  if (!st.ok()) return st;
  ScopedSpan select(tracer, "core.PrepareFactSets");
  return out->spade->PrepareFactSets();
}

double Startup::SnapshotStart(Tracer* tracer, uint64_t id) {
  report_->Attempt();
  Pipeline p;
  std::string reply;
  const double t0 = NowSeconds();
  {
    ScopedSpan span(tracer, "snapshot.Start", id);
    const Status st = Attach(&p, tracer);
    if (!st.ok()) {
      report_->Fail("snapshot attach: " + st.ToString());
      return 0;
    }
    ScopedSpan ask(tracer, "persist.HandleLine");
    reply = Ask(p.spade.get(), first_line_);
  }
  const double ms = 1000.0 * (NowSeconds() - t0);
  if (reply != reference_) {
    report_->Fail("snapshot-loaded insights differ from the ingested ones");
  }
  return ms;
}

void Startup::StartUps(size_t reps, Tracer* tracer, uint64_t* next_id,
                       std::vector<double>* overlap_ms) {
  std::vector<double> cold_s, snapshot_ms;
  for (size_t i = 0; i < reps; ++i) {
    cold_s.push_back(ColdStart(tracer, (*next_id)++, overlap_ms));
    snapshot_ms.push_back(SnapshotStart(tracer, (*next_id)++));
  }
  std::fprintf(stderr,
               "%s: %zu cold starts to first insight, median %.4f s; %zu "
               "snapshot starts, median %.3f ms\n",
               args_.workload.c_str(), reps, Median(cold_s, "cold", 1), reps,
               Median(snapshot_ms, "snapshot", 1));
}

void Startup::ReplayColdStarts(double seconds, Tracer* tracer,
                               uint64_t* next_id) {
  // The offline pipeline's module calls in BuildOfflineSequential's order.
  // Sequential, so it does not overlap parsing with the build the way the
  // streaming ingest does.
  RunTimed(seconds, kMinSamples, [&] {
    report_->Attempt();
    ScopedSpan root(tracer, "cold.Replay", (*next_id)++);
    Graph graph;
    Status st;
    {
      ScopedSpan span(tracer, "rdf.Parse");
      std::istringstream in(nt_);
      st = NTriplesReader::Parse(in, &graph);
    }
    if (!st.ok()) {
      report_->Fail("parse: " + st.ToString());
      return;
    }
    StructuralSummary summary;
    {
      ScopedSpan span(tracer, "summary.Build");
      summary = StructuralSummary::Build(graph);
    }
    AttributeStore db(&graph);
    {
      ScopedSpan span(tracer, "store.BuildDirectAttributes");
      db.BuildDirectAttributes();
    }
    std::vector<AttrStats> stats;
    {
      ScopedSpan span(tracer, "stats.ComputeAttrStats");
      for (AttrId a = 0; a < db.num_attributes(); ++a) {
        stats.push_back(ComputeAttrStats(db, a));
      }
    }
    DerivationReport derived;
    {
      ScopedSpan span(tracer, "derive.DeriveAll");
      derived = DeriveAll(&db, stats, ingest_options_.derivation);
      for (AttrId a = static_cast<AttrId>(stats.size());
           a < db.num_attributes(); ++a) {
        stats.push_back(ComputeAttrStats(db, a));
      }
    }
    std::vector<CandidateFactSet> sets;
    {
      ScopedSpan span(tracer, "core.SelectCandidateFactSets");
      sets = SelectCandidateFactSets(graph, &summary, ingest_options_.cfs);
    }
    ReplayCounts replay;
    const std::vector<Arm::Ranked> ranked =
        ReplayExplore(OfflineView{&db, &stats, &sets}, ingest_options_,
                      first_insight_, workers_.scheduler(), tracer, &replay);
    if (!SameRanking(ranked, reference_outcome_.insights)) {
      report_->Fail("module-by-module cold start ranked differently");
    }
    counts_["rdf.triples"] = static_cast<double>(graph.NumTriples());
    counts_["store.attributes"] = static_cast<double>(db.num_attributes());
    counts_["derive.attributes"] = static_cast<double>(derived.total());
  });
}

std::unique_ptr<Pipeline> Startup::ReplayChurn(
    const std::vector<Batch>& batches, size_t traced_from, Tracer* tracer,
    uint64_t* next_id, std::vector<ReplayCounts>* counts) {
  auto twin = std::make_unique<Pipeline>();
  report_->Attempt();
  Status st = Ingest(nt_, ingest_options_, twin.get());
  if (!st.ok()) {
    report_->Fail("twin pipeline: " + st.ToString());
    return nullptr;
  }
  Spade* spade = twin->spade.get();
  for (size_t b = 0; b < batches.size(); ++b) {
    const Batch& batch = batches[b];
    Tracer* t = b >= traced_from ? tracer : nullptr;
    report_->Attempt();
    ScopedSpan root(t, "churn.Replay", (*next_id)++);
    std::vector<std::vector<Triple>> chunks[2];
    {
      ScopedSpan span(t, "rdf.DeltaParse");
      const std::string* texts[2] = {&batch.add, &batch.retract};
      for (int k = 0; k < 2; ++k) {
        std::istringstream in(*texts[k]);
        NTriplesChunkSource source(in, spade->mutable_graph());
        bool done = false;
        while (!done) {
          std::vector<Triple> chunk;
          st = source.NextChunk(65536, &chunk, &done);
          if (!st.ok()) {
            report_->Fail("delta parse: " + st.ToString());
            return nullptr;
          }
          chunks[k].push_back(std::move(chunk));
        }
      }
    }
    DeltaReport delta;
    {
      ScopedSpan span(t, "store.ApplyDelta");
      VectorChunkSource adds(std::move(chunks[0]));
      VectorChunkSource retracts(std::move(chunks[1]));
      st = spade->ApplyDelta(&adds, &retracts, &delta);
    }
    if (!st.ok() || delta.num_added != batch.count ||
        delta.num_removed != batch.count) {
      report_->Fail("twin apply: " + st.ToString());
      return nullptr;
    }
    ReplayCounts replay;
    const std::vector<Arm::Ranked> ranked =
        ReplayExplore(OfflineView::Of(*spade), ingest_options_, first_insight_,
                      workers_.scheduler(), t, &replay);
    if (t != nullptr && counts != nullptr) counts->push_back(replay);
    auto outcome = spade->Explore(ToRequest(first_insight_),
                                  workers_.scheduler());
    if (!outcome.ok()) {
      report_->Fail("twin explore: " + outcome.status().ToString());
    } else if (!SameRanking(ranked, outcome->insights)) {
      report_->Fail("layer replay after a batch ranked differently");
    }
  }
  return twin;
}

void Startup::SweepChurn(const std::vector<std::string>& predicates,
                         Tracer* tracer, uint64_t* next_id) {
  ChurnModel model(nt_, predicates, args_.seed);
  const size_t batch_size = model.num_triples() / kChurnDivisor;
  std::vector<Batch> batches;
  for (size_t b = 0; b < kSweepBatches; ++b) {
    batches.push_back(model.Next(batch_size));
  }
  std::unique_ptr<Pipeline> twin =
      ReplayChurn(batches, 0, tracer, next_id, nullptr);
  if (twin != nullptr) CheckRebuild(*twin->spade, model);
}

void Startup::CheckRebuild(const Spade& maintained, const ChurnModel& model) {
  report_->Attempt();
  Pipeline fresh;
  Status st = Ingest(model.Text(), ingest_options_, &fresh);
  if (!st.ok()) {
    report_->Fail("rebuild of the churned graph: " + st.ToString());
  } else if (Ask(&maintained, first_line_) !=
             Ask(fresh.spade.get(), first_line_)) {
    report_->Fail(
        "after the last batch the maintained pipeline differs from a rebuild");
  }
}

void Startup::ProbeRequestLevels(const Spade& spade, size_t reps) {
  ExploreKnobs knobs = first_insight_;
  knobs.max_dims = 1;
  const std::string line = ToLine(knobs);
  const std::string expected = Ask(&spade, line);
  TcpFrontEnd front;
  Status st = front.Start(&spade, args_.threads);
  if (!st.ok()) {
    report_->Fail("listen: " + st.ToString());
    return;
  }
  net::LineClientOptions copts;
  copts.server.host = "127.0.0.1";
  copts.server.port = front.port();
  copts.seed = args_.seed;
  net::LineClient client(copts);
  persist::InsightServer core(&spade, persist::ServeOptions{});
  // Per repetition, the three levels back to back; the layers' self times
  // are medians of the paired differences.
  std::vector<double> tcp_ms, handle_ms, explore_ms, transport_ms, self_ms;
  for (size_t i = 0; i < reps; ++i) {
    report_->Attempt();
    double t0 = NowSeconds();
    Result<std::string> reply = client.Request(line);
    tcp_ms.push_back(1000.0 * (NowSeconds() - t0));
    if (!reply.ok() || *reply != expected) {
      report_->Fail("probe over TCP answered " +
                    (reply.ok() ? reply->substr(0, 200)
                                : reply.status().ToString()));
    }
    bool is_error = false, truncated = false;
    t0 = NowSeconds();
    const std::string handled = core.HandleLine(line, workers_.scheduler(),
                                                nullptr, &is_error, &truncated);
    handle_ms.push_back(1000.0 * (NowSeconds() - t0));
    if (handled != expected) report_->Fail("probe HandleLine differs");
    t0 = NowSeconds();
    auto outcome = spade.Explore(ToRequest(knobs), workers_.scheduler());
    explore_ms.push_back(1000.0 * (NowSeconds() - t0));
    if (!outcome.ok()) report_->Fail("probe explore failed");
    transport_ms.push_back(tcp_ms.back() - handle_ms.back());
    self_ms.push_back(handle_ms.back() - explore_ms.back());
  }
  const net::TcpServeStats& stats = front.Stop();
  std::fprintf(stderr,
               "%s: '%s' at TCP %.3f ms, HandleLine %.3f ms, Explore %.3f ms; "
               "%llu busy, %llu shed, %llu I/O errors\n",
               args_.workload.c_str(), line.c_str(),
               Median(tcp_ms, "probe tcp"), Median(handle_ms, "probe handle"),
               Median(explore_ms, "probe explore"),
               static_cast<unsigned long long>(client.stats().num_busy),
               static_cast<unsigned long long>(stats.num_requests_shed),
               static_cast<unsigned long long>(stats.num_io_errors));
  report_->Metric("net.transport_ms", Median(transport_ms, "transport"), "ms");
  report_->Metric("persist.handle_ms", Median(self_ms, "handle self"), "ms");
}

void Startup::ReportLayers(const Tracer& starts, const Tracer& modules,
                           const Tracer& churn,
                           const std::vector<double>& overlap_ms) const {
  auto median_ms = [&](const std::vector<double>& v, const char* metric) {
    report_->Metric(metric, Median(v, metric), "ms");
  };
  median_ms(modules.DurationsMs("rdf.Parse"), "rdf.parse_ms");
  median_ms(modules.DurationsMs("summary.Build"), "summary.build_ms");
  median_ms(modules.DurationsMs("store.BuildDirectAttributes"),
            "store.build_ms");
  median_ms(modules.DurationsMs("stats.ComputeAttrStats"), "stats.offline_ms");
  median_ms(modules.DurationsMs("derive.DeriveAll"), "derive.ms");
  median_ms(modules.DurationsMs("core.SelectCandidateFactSets"),
            "core.select_ms");
  median_ms(starts.ChildMs("cold.Start", "ingest.RunOffline"),
            "ingest.offline_ms");
  median_ms(overlap_ms, "ingest.overlap_ms");
  median_ms(starts.DurationsMs("persist.Attach"), "persist.attach_ms");
  report_->Metric("persist.save_ms",
                  Median(save_ms_, "persist.save_ms", setup_s_.size()), "ms");
  report_->Metric("persist.snapshot_bytes_per_input_byte",
                  snapshot_bytes_ / static_cast<double>(nt_.size()), "B/B");
  median_ms(churn.ChildMs("churn.Replay", "rdf.DeltaParse"),
            "rdf.delta_parse_ms");
  median_ms(churn.ChildMs("churn.Replay", "store.ApplyDelta"),
            "store.delta_apply_ms");
  for (const auto& [name, value] : counts_) {
    report_->Metric(name, value, "count");
  }
}

void Startup::ReportEndToEnd(const std::vector<double>& op_ms,
                             double peak_rss_mb) const {
  auto spread = [&](const char* name, std::vector<double> v) {
    std::sort(v.begin(), v.end());
    std::fprintf(stderr, "%s: %s n=%zu min %.4g q1 %.4g median %.4g q3 %.4g "
                 "max %.4g\n", args_.workload.c_str(), name, v.size(),
                 v.front(), v[v.size() / 4], v[v.size() / 2],
                 v[3 * v.size() / 4], v.back());
  };
  spread("op_ms", op_ms);
  spread("setup_s", setup_s_);
  report_->Metric("op_ms", Median(op_ms, "op_ms"), "ms");
  report_->Metric("setup_s", Median(setup_s_, "setup_s", setup_s_.size()),
                  "s");
  report_->Metric("peak_rss_mb", peak_rss_mb, "MB");
}

void Startup::Cleanup() const {
  std::filesystem::remove(snapshot_);
  std::filesystem::remove(WorkFile(args_, "retract.nt"));
  std::filesystem::remove(WorkFile(args_, "add.nt"));
}

}  // namespace perfbench
}  // namespace spade
