// Workload serve-zipf: analysts exploring a served graph over TCP.
//
// A synthetic graph of kTypes equal-sized fact types is ingested and saved
// as a snapshot during set-up; the server attaches the snapshot. One
// closed-loop
// net::LineClient connection per worker thread replays a seeded,
// Zipf-skewed stream of single-fact-set `explore` requests with varying
// top=, a fixed share with earlystop=on, and occasional list/stats: the
// repeat-and-refine traffic of an analyst who waits for each reply. The
// fact sets cost about the same, so the p50 never falls between two cost
// modes, and the repeats are what a result cache would serve.
//
// Time goes to net, the persist request core and the per-request core
// work: attribute analysis, enumeration and the lattices of one fact set.
// op_ms is the median client-observed latency of the explores.

#include <cstdio>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "perfbench/core_replay.h"
#include "perfbench/harness.h"
#include "perfbench/startup.h"
#include "src/datagen/synthetic.h"
#include "src/net/line_client.h"
#include "src/persist/serve.h"
#include "src/util/rng.h"

namespace spade {
namespace perfbench {
namespace {

constexpr size_t kTypes = 12;
constexpr size_t kFactsPerType = 2500;
constexpr size_t kSetups = 5;
constexpr size_t kStreamLength = 100000;
constexpr size_t kTopChoices[] = {3, 5, 10};

SyntheticOptions GraphOptions(uint64_t seed) {
  SyntheticOptions o;
  o.num_facts = kTypes * kFactsPerType;
  o.num_fact_types = kTypes;
  o.dim_cardinality = {40, 25, 12};
  o.num_measures = 3;
  o.multi_valued_dims = {1};
  o.multi_value_prob = 0.2;
  o.seed = seed;
  return o;
}

SpadeOptions PipelineOptions(size_t threads) {
  SpadeOptions o;
  o.cfs.min_size = 100;
  // One fact set per type: the summary would add a class spanning them all.
  o.cfs.summary_based = false;
  o.num_threads = threads;
  return o;
}

/// One request of a client's stream.
struct Op {
  std::string line;
  bool explore = false;
  ExploreKnobs knobs;
};

std::vector<Op> MakeStream(const std::vector<std::string>& fact_sets,
                           uint64_t seed, size_t client) {
  Rng rng(seed * 7919 + client + 1);
  // Popularity order of the fact sets differs per seed, not per client.
  std::vector<size_t> rank(fact_sets.size());
  for (size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  Rng shuffle(seed);
  for (size_t i = rank.size(); i > 1; --i) {
    std::swap(rank[i - 1], rank[shuffle.Uniform(i)]);
  }
  std::vector<Op> ops(kStreamLength);
  for (Op& op : ops) {
    const uint64_t u = rng.Uniform(100);
    if (u < 3) {
      op.line = "stats";
    } else if (u < 5) {
      op.line = "list";
    } else {
      op.explore = true;
      op.knobs.cfs_names = {fact_sets[rank[rng.Zipf(fact_sets.size(), 1.0)]]};
      op.knobs.top_k = kTopChoices[rng.Uniform(std::size(kTopChoices))];
      op.knobs.earlystop = rng.Uniform(4) == 0;
      op.line = ToLine(op.knobs);
    }
  }
  return ops;
}

/// What one phase of the closed loop produced.
struct PhaseResult {
  std::vector<double> explore_ms;  ///< every answered explore, all clients
  std::vector<size_t> ops;         ///< per client, stream positions consumed
  size_t answered = 0;             ///< requests answered correctly
  double wall_s = 0;
  uint64_t busy = 0;               ///< `busy` replies the clients retried
  std::vector<ReplayCounts> counts;  ///< level 3 only, one per request
};

/// Which layer a phase's requests enter.
enum Level { kTcp = 0, kHandleLine, kExplore, kReplay };

/// Everything the phases share: the served pipeline, the streams and the
/// expected replies.
class Loop {
 public:
  Loop(const BenchArgs& args, const Spade& spade, const SpadeOptions& options,
       uint16_t port, Report* report)
      : args_(args),
        spade_(spade),
        options_(options),
        core_(&spade, persist::ServeOptions{}),
        workers_(args.threads),
        report_(report) {
    server_.host = "127.0.0.1";
    server_.port = port;
  }

  /// Make the streams and the expected answers. False on a failure.
  bool Prepare();

  /// Every client c replays its stream from position (*cursor)[c], either
  /// for `seconds` or for exactly (*counts)[c] stream positions, and
  /// advances the cursor. Levels kExplore and kReplay skip list/stats.
  PhaseResult Run(Level level, double seconds,
                  const std::vector<size_t>* counts,
                  std::vector<size_t>* cursor, Tracer* tracer);

 private:
  /// One request at `level`; false if the answer was wrong or missing.
  bool Send(Level level, const Op& op, uint64_t id, net::LineClient* client,
            Tracer* tracer, ReplayCounts* counts, std::string* got);

  const BenchArgs& args_;
  const Spade& spade_;
  const SpadeOptions options_;
  persist::InsightServer core_;
  Workers workers_;
  Report* report_;
  std::mutex report_mu_;
  net::HostPort server_;
  std::vector<std::vector<Op>> streams_;
  std::map<std::string, std::string> expected_;
  std::map<std::string, ExploreOutcome> outcomes_;
};

bool Loop::Prepare() {
  std::vector<std::string> names;
  for (const CandidateFactSet& s : spade_.fact_sets()) names.push_back(s.name);
  std::vector<const Op*> distinct;
  for (size_t c = 0; c < args_.threads; ++c) {
    streams_.push_back(MakeStream(names, args_.seed, c));
  }
  for (const auto& stream : streams_) {
    for (const Op& op : stream) {
      if (expected_.emplace(op.line, "").second) distinct.push_back(&op);
    }
  }
  // Answer the distinct requests in-process, in parallel. The traced run
  // also needs Explore's outcomes to check the lower levels against.
  std::vector<std::string> replies(distinct.size());
  std::vector<ExploreOutcome> outcomes(distinct.size());
  std::vector<std::string> errors(distinct.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < args_.threads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < distinct.size(); i += args_.threads) {
        const Op& op = *distinct[i];
        bool is_error = false, truncated = false;
        replies[i] = core_.HandleLine(op.line, workers_.scheduler(), nullptr,
                                      &is_error, &truncated);
        if (is_error || truncated) errors[i] = replies[i];
        if (!op.explore || !args_.trace) continue;
        auto outcome =
            spade_.Explore(ToRequest(op.knobs), workers_.scheduler());
        if (outcome.ok()) {
          outcomes[i] = std::move(*outcome);
        } else {
          errors[i] = outcome.status().ToString();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (size_t i = 0; i < distinct.size(); ++i) {
    if (!errors[i].empty()) {
      report_->Fail("in-process answer to '" + distinct[i]->line +
                    "': " + errors[i]);
      return false;
    }
    expected_[distinct[i]->line] = std::move(replies[i]);
    outcomes_[distinct[i]->line] = std::move(outcomes[i]);
  }
  std::cerr << "serve-zipf: " << distinct.size() << " distinct requests\n";
  return true;
}

bool Loop::Send(Level level, const Op& op, uint64_t id,
                 net::LineClient* client, Tracer* tracer, ReplayCounts* counts,
                 std::string* got) {
  switch (level) {
    case kTcp: {
      ScopedSpan span(tracer, op.explore ? "net.Request" : "net.Request.other",
                      id);
      Result<std::string> reply = client->Request(op.line);
      *got = reply.ok() ? *reply : reply.status().ToString();
      return reply.ok() && *got == expected_.at(op.line);
    }
    case kHandleLine: {
      ScopedSpan span(
          tracer,
          op.explore ? "persist.HandleLine" : "persist.HandleLine.other", id);
      bool is_error = false, truncated = false;
      *got = core_.HandleLine(op.line, workers_.scheduler(), nullptr, &is_error,
                              &truncated);
      return *got == expected_.at(op.line);
    }
    case kExplore: {
      ScopedSpan span(tracer, "core.Explore", id);
      auto outcome = spade_.Explore(ToRequest(op.knobs), workers_.scheduler());
      *got = outcome.ok() ? "a different outcome" : outcome.status().ToString();
      return outcome.ok() && InsightChecksum(*outcome) ==
                                 InsightChecksum(outcomes_.at(op.line));
    }
    case kReplay: {
      std::vector<Arm::Ranked> ranked;
      {
        ScopedSpan span(tracer, "replay.Explore", id);
        ranked = ReplayExplore(OfflineView::Of(spade_), options_, op.knobs,
                               workers_.scheduler(), tracer, counts);
      }
      *got = "a different ranking";
      return SameRanking(ranked, outcomes_.at(op.line).insights);
    }
  }
  return false;
}

PhaseResult Loop::Run(Level level, double seconds,
                      const std::vector<size_t>* counts,
                      std::vector<size_t>* cursor, Tracer* tracer) {
  const size_t clients = streams_.size();
  ThreadPool* pool = workers_.scheduler()->pool();
  std::vector<PhaseResult> per_client(clients);
  std::vector<std::thread> threads;
  const double start = NowSeconds();
  const double deadline = start + seconds;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PhaseResult& log = per_client[c];
      std::unique_ptr<net::LineClient> client;
      if (level == kTcp) {
        net::LineClientOptions copts;
        copts.server = server_;
        copts.seed = args_.seed * 31 + c;
        client = std::make_unique<net::LineClient>(copts);
      }
      const std::vector<Op>& stream = streams_[c];
      const size_t first = (*cursor)[c];
      size_t i = 0;
      for (;; ++i) {
        if (counts != nullptr ? i >= (*counts)[c] : NowSeconds() >= deadline) {
          break;
        }
        const size_t pos = first + i;
        const Op& op = stream[pos % stream.size()];
        if (level >= kExplore && !op.explore) continue;
        const uint64_t id = (c + 1) * 100000000ull + pos + 1;
        std::string got;
        bool ok = false;
        ReplayCounts replayed;
        const double t0 = NowSeconds();
        if (level == kTcp || pool == nullptr) {
          ok = Send(level, op, id, client.get(), tracer, &replayed, &got);
        } else {
          // Like the TCP server: the request runs as a task on the shared
          // pool while its client waits.
          std::promise<void> done;
          pool->Submit([&] {
            ok = Send(level, op, id, nullptr, tracer, &replayed, &got);
            done.set_value();
          });
          done.get_future().wait();
        }
        if (level == kReplay) log.counts.push_back(replayed);
        const double ms = 1000.0 * (NowSeconds() - t0);
        std::lock_guard<std::mutex> lock(report_mu_);
        report_->Attempt();
        if (!ok) {
          report_->Fail("level " + std::to_string(level) + " '" + op.line +
                        "' answered: " + got.substr(0, 200));
          continue;
        }
        ++log.answered;
        if (op.explore) log.explore_ms.push_back(ms);
      }
      log.ops.push_back(i);
      (*cursor)[c] = first + i;
      if (client) log.busy = client->stats().num_busy;
    });
  }
  for (auto& t : threads) t.join();
  PhaseResult all;
  all.wall_s = NowSeconds() - start;
  for (PhaseResult& r : per_client) {
    all.explore_ms.insert(all.explore_ms.end(), r.explore_ms.begin(),
                          r.explore_ms.end());
    all.ops.push_back(r.ops.front());
    all.answered += r.answered;
    all.busy += r.busy;
    all.counts.insert(all.counts.end(), r.counts.begin(), r.counts.end());
  }
  return all;
}

}  // namespace

int RunServeZipf(const BenchArgs& args, Report* report) {
  std::unique_ptr<Startup> startup;
  {
    std::unique_ptr<Graph> graph = GenerateSynthetic(GraphOptions(args.seed));
    startup = std::make_unique<Startup>(args, report, *graph,
                                        PipelineOptions(args.threads));
  }
  TrimHeap();
  if (!ResetPeakRss()) throw Refusal("cannot reset the peak-RSS counter");
  {
    Pipeline built;
    if (!startup->SetUp(kSetups, "", &built)) return 1;
  }
  Pipeline served;
  Status st = startup->Attach(&served);
  if (!st.ok()) {
    report->Fail("attach: " + st.ToString());
    return 1;
  }
  const Spade& spade = *served.spade;
  TcpFrontEnd front;
  st = front.Start(&spade, args.threads);
  if (!st.ok()) {
    report->Fail("listen: " + st.ToString());
    return 1;
  }

  Loop loop(args, spade, startup->ingest_options(), front.port(), report);
  if (!loop.Prepare()) return 1;
  std::vector<size_t> cursor(args.threads, 0);
  const std::vector<size_t> warm_up(args.threads, 8);
  uint64_t busy = loop.Run(kTcp, 0, &warm_up, &cursor, nullptr).busy;
  uint64_t next_id = 1;

  if (!args.trace) {
    PhaseResult r = loop.Run(kTcp, args.seconds, nullptr, &cursor, nullptr);
    const double peak_rss_mb = PeakRssMb();
    const net::TcpServeStats& stats = front.Stop();
    std::fprintf(stderr,
                 "serve-zipf: %zu requests in %.3f s (%.2f/s), %llu busy "
                 "retries, %llu shed, %llu I/O errors\n",
                 r.answered, r.wall_s,
                 static_cast<double>(r.answered) / r.wall_s,
                 static_cast<unsigned long long>(busy + r.busy),
                 static_cast<unsigned long long>(stats.num_requests_shed),
                 static_cast<unsigned long long>(stats.num_io_errors));
    startup->StartUps(1, nullptr, &next_id, nullptr);
    startup->ReportEndToEnd(r.explore_ms, peak_rss_mb);
    startup->Cleanup();
    return 0;
  }

  // Traced run: a phase with tracing off fixes where each client starts and
  // how many requests it makes; the same requests are then replayed with
  // spans at each level: TCP client, HandleLine, Spade::Explore, the layer
  // replay. Then the start-up, churn on a twin and the request probe.
  const std::vector<size_t> start = cursor;
  PhaseResult base = loop.Run(kTcp, args.seconds / 4, nullptr, &cursor,
                              nullptr);
  busy += base.busy;
  Tracer levels;
  std::vector<double> level_ms[kReplay + 1];
  std::vector<ReplayCounts> counts;
  for (Level level : {kTcp, kHandleLine, kExplore, kReplay}) {
    std::vector<size_t> at = start;
    PhaseResult r = loop.Run(level, 0, &base.ops, &at, &levels);
    level_ms[level] = std::move(r.explore_ms);
    counts.insert(counts.end(), r.counts.begin(), r.counts.end());
    busy += r.busy;
  }
  const net::TcpServeStats& stats = front.Stop();
  Tracer starts, modules;
  std::vector<double> overlap_ms;
  startup->StartUps(kMinSamples, &starts, &next_id, &overlap_ms);
  startup->ReplayColdStarts(args.seconds / 8, &modules, &next_id);
  startup->SweepChurn({synth::kMeasurePrefix}, &modules, &next_id);

  // Client-observed medians per level; adjacent differences are the
  // layers' self times.
  const double l0 = Median(level_ms[kTcp], "tcp");
  const double l1 = Median(level_ms[kHandleLine], "handle");
  const double l2 = Median(level_ms[kExplore], "explore");
  const double l3 = Median(level_ms[kReplay], "replay");
  std::fprintf(stderr,
               "serve-zipf: median explore at TCP %.3f ms, HandleLine %.3f ms, "
               "Explore %.3f ms, layer replay %.3f ms; %llu busy retries, "
               "%llu shed, %llu I/O errors\n",
               l0, l1, l2, l3, static_cast<unsigned long long>(busy),
               static_cast<unsigned long long>(stats.num_requests_shed),
               static_cast<unsigned long long>(stats.num_io_errors));
  // The levels above ran one after another, so their differences carry the
  // host's drift; the two thin layers' self times come from the paired
  // probe instead.
  startup->ProbeRequestLevels(spade, 3 * kMinSamples);
  const double covered =
      (l0 - l1) + (l1 - l2) + ReportCoreLayers(levels, counts, spade, report);
  startup->ReportLayers(starts, modules, modules, overlap_ms);
  Coverage c;
  c.metric = "op_ms";
  c.untraced = Median(base.explore_ms, "untraced explore");
  c.traced = l0;
  c.covered = covered;
  ReportCoverage(c, report);
  if (!levels.Dump(WorkFile(args, "spans-levels.jsonl")) ||
      !starts.Dump(WorkFile(args, "spans-starts.jsonl")) ||
      !modules.Dump(WorkFile(args, "spans-modules.jsonl"))) {
    report->Fail("cannot write the span dumps");
  }
  startup->Cleanup();
  return 0;
}

}  // namespace perfbench
}  // namespace spade
