// spade_cli — run the full discovery pipeline on a data file from the shell.
//
//   spade_cli DATA [options]
//   spade_cli --load-store FILE [options]
//
//   DATA                 .nt (N-Triples), .ttl (Turtle) or .csv input
//                        (optional when --load-store is given)
//   --top K              number of insights to return           (default 10)
//   --interestingness F  variance | skewness | kurtosis         (default variance)
//   --algorithm A        mvdcube | pgcube | pgcube-distinct | arraycube
//                                                               (default mvdcube)
//   --threads N          worker threads (online phase and streaming ingest);
//                        0 = all cores                        (default 0)
//   --shards N           fact-id-range shards per CFS; 0 = one per thread
//                        (default 0; >1 needs mvdcube without --earlystop)
//   --simd M             measure-fold kernel: auto = runtime CPU dispatch
//                        (AVX2/NEON when available), scalar = portable
//                        kernel; results bit-identical     (default auto)
//   --stream-ingest      streaming offline build: overlap parsing with store
//                        construction and the offline statistics pass
//                        (.nt/.ttl only; results identical to sequential)
//   --ingest-chunk N     triples per streamed chunk          (default 65536)
//   --earlystop          enable confidence-interval pruning
//   --no-derivations     disable derived properties (woD mode)
//   --saturate           RDFS-saturate the graph before analysis
//   --max-dims N         lattice dimensionality cap             (default 3)
//   --min-support R      dimension/measure support threshold    (default 0.1)
//   --deadline-ms MS     online-phase deadline in milliseconds; on expiry the
//                        run returns the completed canonical-order prefix,
//                        marked TRUNCATED                       (default 0 = none)
//   --max-bitmap-mb MB   per-CFS fact-bitmap budget; a CFS that would exceed
//                        it stops admitting groups at a deterministic cut
//                                                               (default 0 = unlimited)
//   --save-store FILE    after the offline phase, persist the built store as
//                        a memory-mapped snapshot (build once...)
//   --load-store FILE    mmap a saved snapshot instead of ingesting: skips
//                        parsing, store building and the offline statistics
//                        pass entirely (...explore many times)
//   --no-verify-snapshot skip per-segment checksum verification on load
//   --serve              after the offline phase, answer explore requests
//                        line-by-line (stdin or --serve-requests) instead of
//                        running one online pass; see src/persist/serve.h
//                        for the request grammar
//   --serve-requests F   read serve requests from F instead of stdin
//   --read-only          serve modes: refuse the `apply` / `compact`
//                        mutation verbs
//   --listen HOST:PORT   serve the same request grammar over TCP instead of
//                        stdin/stdout (implies --serve; port 0 = ephemeral,
//                        the bound address is printed to stderr as
//                        "listening on HOST:PORT"). SIGTERM/SIGINT drain
//                        gracefully; see src/net/tcp_server.h
//   --max-connections N  TCP: connections beyond N are answered `busy` and
//                        closed at accept                      (default 64)
//   --max-inflight N     TCP: global cap on concurrently evaluating
//                        requests; beyond it requests are shed with a
//                        `#<id> busy` reply   (default 0 = 2x thread count)
//   --request-timeout-ms MS
//                        serve modes: default AND cap for per-request
//                        timeout= deadlines               (default 0 = none)
//   --idle-timeout-ms MS TCP: close connections with no progress and nothing
//                        in flight for MS              (default 300000; 0 = never)
//   --drain-ms MS        TCP: graceful-drain deadline after SIGTERM/SIGINT;
//                        in-flight requests are cancelled to truncated
//                        replies past it, hard stop at 2x MS  (default 2000)
//   --list-failpoints    print every fault-injection site name and exit
//                        (failpoint builds only; see src/util/failpoint.h)
//   --json FILE          write the insights as JSON
//   --csv FILE           write the flattened insights as CSV
//   --quiet              suppress the rendered insight charts
//
// Exit code 0 on success, 1 on any error (message on stderr).

#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "src/core/export.h"
#include "src/core/present.h"
#include "src/core/spade.h"
#include "src/ingest/chunk_source.h"
#include "src/net/tcp_server.h"
#include "src/persist/serve.h"
#include "src/rdf/csv2rdf.h"
#include "src/rdf/ntriples.h"
#include "src/rdf/turtle.h"
#include "src/util/failpoint.h"
#include "src/util/string_util.h"
#include "src/util/timer.h"

namespace {

int Fail(const std::string& message) {
  std::cerr << "spade_cli: " << message << "\n";
  return 1;
}

int Usage() {
  std::cerr << "usage: spade_cli DATA(.nt|.ttl|.csv) [--top K] "
               "[--interestingness variance|skewness|kurtosis]\n"
               "                 [--algorithm mvdcube|pgcube|pgcube-distinct|"
               "arraycube] [--threads N] [--shards N] [--simd auto|scalar]\n"
               "                 [--stream-ingest] [--ingest-chunk N] "
               "[--earlystop] [--no-derivations]\n"
               "                 [--saturate] [--max-dims N] "
               "[--min-support R] [--deadline-ms MS] [--max-bitmap-mb MB]\n"
               "                 [--json FILE] [--csv FILE]\n"
               "                 [--quiet] [--save-store FILE] "
               "[--no-verify-snapshot] [--serve] [--serve-requests FILE]\n"
               "                 [--read-only] "
               "[--listen HOST:PORT] [--max-connections N]\n"
               "                 [--max-inflight N] [--request-timeout-ms MS] "
               "[--idle-timeout-ms MS] [--drain-ms MS]\n"
               "                 [--list-failpoints]\n"
               "       spade_cli --load-store FILE [options]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  spade::SpadeOptions options;
  options.num_threads = 0;  // the CLI defaults to every core; results are
                            // identical at any thread count
  std::string json_path, csv_path;
  bool quiet = false;
  bool serve = false;
  bool read_only = false;
  std::string serve_requests;
  std::string listen_spec;
  spade::net::TcpServerOptions net_options;
  double request_timeout_ms = 0;

  // The data file is optional when a snapshot is loaded instead.
  std::string data_path;
  int first_flag = 1;
  if (argv[1][0] != '-') {
    data_path = argv[1];
    first_flag = 2;
  }

  for (int i = first_flag; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--top") {
      const char* v = next();
      int64_t k;
      if (v == nullptr || !spade::ParseInt64(v, &k) || k <= 0) {
        return Fail("--top needs a positive integer");
      }
      options.top_k = static_cast<size_t>(k);
    } else if (arg == "--interestingness") {
      const char* v = next();
      if (v == nullptr) return Usage();
      std::string name = spade::ToLower(v);
      if (!spade::ParseInterestingness(name, &options.interestingness)) {
        return Fail("unknown interestingness '" + name + "'");
      }
    } else if (arg == "--algorithm") {
      const char* v = next();
      if (v == nullptr) return Usage();
      std::string name = spade::ToLower(v);
      if (!spade::ParseEvalAlgorithm(name, &options.algorithm)) {
        return Fail("unknown algorithm '" + name + "'");
      }
    } else if (arg == "--threads") {
      const char* v = next();
      int64_t n;
      if (v == nullptr || !spade::ParseInt64(v, &n) || n < 0 || n > 1024) {
        return Fail("--threads needs an integer in [0, 1024] (0 = all cores)");
      }
      options.num_threads = static_cast<size_t>(n);
    } else if (arg == "--shards") {
      const char* v = next();
      int64_t n;
      if (v == nullptr || !spade::ParseInt64(v, &n) || n < 0 || n > 1024) {
        return Fail("--shards needs an integer in [0, 1024] (0 = auto)");
      }
      options.num_shards = static_cast<size_t>(n);
    } else if (arg == "--simd") {
      const char* v = next();
      if (v == nullptr || !spade::simd::ParseSimdMode(spade::ToLower(v),
                                                      &options.mvd.simd)) {
        return Fail("--simd needs 'auto' or 'scalar'");
      }
    } else if (arg == "--stream-ingest") {
      options.ingest.enabled = true;
    } else if (arg == "--ingest-chunk") {
      const char* v = next();
      int64_t n;
      if (v == nullptr || !spade::ParseInt64(v, &n) || n <= 0) {
        return Fail("--ingest-chunk needs a positive triple count");
      }
      options.ingest.chunk_triples = static_cast<size_t>(n);
    } else if (arg == "--earlystop") {
      options.enable_earlystop = true;
    } else if (arg == "--no-derivations") {
      options.enable_derivations = false;
    } else if (arg == "--saturate") {
      options.saturate = true;
    } else if (arg == "--max-dims") {
      const char* v = next();
      if (v == nullptr ||
          !spade::ParseMaxDims(v, &options.enumeration.max_dims)) {
        return Fail("--max-dims needs an integer in [" +
                    std::to_string(spade::kMinLatticeDims) + ", " +
                    std::to_string(spade::kMaxLatticeDims) + "]");
      }
    } else if (arg == "--min-support") {
      const char* v = next();
      double r;
      if (v == nullptr || !spade::ParseDouble(v, &r) || r <= 0 || r > 1) {
        return Fail("--min-support needs a ratio in (0, 1]");
      }
      options.enumeration.min_support_ratio = r;
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      double ms;
      if (v == nullptr || !spade::ParseDouble(v, &ms) || ms < 0) {
        return Fail("--deadline-ms needs milliseconds >= 0 (0 = none)");
      }
      options.deadline_ms = ms;
    } else if (arg == "--max-bitmap-mb") {
      const char* v = next();
      int64_t mb;
      if (v == nullptr || !spade::ParseInt64(v, &mb) || mb < 0) {
        return Fail("--max-bitmap-mb needs megabytes >= 0 (0 = unlimited)");
      }
      options.max_bitmap_bytes = static_cast<uint64_t>(mb) << 20;
    } else if (arg == "--save-store") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.save_store = v;
    } else if (arg == "--load-store") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.load_store = v;
    } else if (arg == "--no-verify-snapshot") {
      options.verify_snapshot = false;
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--serve-requests") {
      const char* v = next();
      if (v == nullptr) return Usage();
      serve_requests = v;
    } else if (arg == "--read-only") {
      read_only = true;
    } else if (arg == "--listen") {
      const char* v = next();
      if (v == nullptr) return Usage();
      listen_spec = v;
      serve = true;
    } else if (arg == "--max-connections") {
      const char* v = next();
      int64_t n;
      if (v == nullptr || !spade::ParseInt64(v, &n) || n <= 0) {
        return Fail("--max-connections needs a positive integer");
      }
      net_options.max_connections = static_cast<size_t>(n);
    } else if (arg == "--max-inflight") {
      const char* v = next();
      int64_t n;
      if (v == nullptr || !spade::ParseInt64(v, &n) || n < 0) {
        return Fail("--max-inflight needs an integer >= 0 (0 = auto)");
      }
      net_options.max_inflight = static_cast<size_t>(n);
    } else if (arg == "--request-timeout-ms") {
      const char* v = next();
      double ms;
      if (v == nullptr || !spade::ParseDouble(v, &ms) || ms < 0) {
        return Fail("--request-timeout-ms needs milliseconds >= 0 (0 = none)");
      }
      request_timeout_ms = ms;
    } else if (arg == "--idle-timeout-ms") {
      const char* v = next();
      double ms;
      if (v == nullptr || !spade::ParseDouble(v, &ms) || ms < 0) {
        return Fail("--idle-timeout-ms needs milliseconds >= 0 (0 = never)");
      }
      net_options.idle_timeout_ms = ms;
    } else if (arg == "--drain-ms") {
      const char* v = next();
      double ms;
      if (v == nullptr || !spade::ParseDouble(v, &ms) || ms <= 0) {
        return Fail("--drain-ms needs milliseconds > 0");
      }
      net_options.drain_deadline_ms = ms;
    } else if (arg == "--list-failpoints") {
#if defined(SPADE_FAILPOINTS)
      for (const std::string& name : spade::fail::AllSiteNames()) {
        std::cout << name << "\n";
      }
      return 0;
#else
      return Fail(
          "failpoints are compiled out of this build "
          "(configure with -DSPADE_FAILPOINTS=ON to list and arm them)");
#endif
    } else if (arg == "--json") {
      const char* v = next();
      if (v == nullptr) return Usage();
      json_path = v;
    } else if (arg == "--csv") {
      const char* v = next();
      if (v == nullptr) return Usage();
      csv_path = v;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return Fail("unknown option '" + arg + "'");
    }
  }

  if (data_path.empty() && options.load_store.empty()) {
    return Fail("need a DATA file or --load-store FILE");
  }

  // --- Load + offline phase. Streaming ingest owns the file read: parsing
  // overlaps store construction and the offline statistics pass, so "load"
  // and "offline" are one step in that mode. A snapshot load replaces both:
  // the pipeline attaches to the mmap'd file instead of ingesting.
  spade::Graph graph;
  if (options.ingest.enabled && spade::EndsWith(data_path, ".csv")) {
    std::cerr << "spade_cli: CSV input converts row-wise; "
                 "ignoring --stream-ingest\n";
    options.ingest.enabled = false;
  }
  spade::Spade spade(&graph, options);
  if (!options.load_store.empty()) {
    spade::Timer timer;
    spade::Status st = spade.RunOffline();
    if (!st.ok()) return Fail("snapshot load: " + st.ToString());
    std::cerr << "attached snapshot " << options.load_store << " ("
              << graph.NumTriples() << " triples) in "
              << spade::FormatDouble(timer.ElapsedMillis(), 1) << " ms\n";
  } else if (options.ingest.enabled) {
    std::ifstream in(data_path);
    if (!in) return Fail("cannot open " + data_path);
    spade::Timer timer;
    std::unique_ptr<spade::TripleChunkSource> source;
    if (spade::EndsWith(data_path, ".ttl")) {
      // Read straight into the string the source will own (Turtle needs the
      // whole document buffered; avoid a second full-size copy).
      in.seekg(0, std::ios::end);
      std::string text(static_cast<size_t>(in.tellg()), '\0');
      in.seekg(0);
      in.read(text.data(), static_cast<std::streamsize>(text.size()));
      source = std::make_unique<spade::TurtleChunkSource>(std::move(text),
                                                          &graph);
    } else {
      source = std::make_unique<spade::NTriplesChunkSource>(in, &graph);
    }
    spade::Status st = spade.RunOffline(source.get());
    if (!st.ok()) return Fail("offline phase: " + st.ToString());
    std::cerr << "ingested " << graph.NumTriples() << " triples in "
              << spade::FormatDouble(timer.ElapsedMillis(), 1) << " ms ("
              << (spade.report().ingest.num_chunks > 0
                      ? "streaming offline build"
                      : "sequential offline build; streaming inapplicable")
              << ")\n";
  } else {
    std::ifstream in(data_path);
    if (!in) return Fail("cannot open " + data_path);
    spade::Timer timer;
    spade::Status st;
    if (spade::EndsWith(data_path, ".ttl")) {
      st = spade::TurtleReader::Parse(in, &graph);
    } else if (spade::EndsWith(data_path, ".csv")) {
      spade::Csv2RdfOptions copt;
      auto rows = spade::CsvToRdf(in, copt, &graph);
      st = rows.status();
      if (rows.ok()) std::cerr << "converted " << *rows << " CSV rows\n";
    } else {
      st = spade::NTriplesReader::Parse(in, &graph);
    }
    if (!st.ok()) return Fail("load failed: " + st.ToString());
    std::cerr << "loaded " << graph.NumTriples() << " triples in "
              << spade::FormatDouble(timer.ElapsedMillis(), 1) << " ms\n";
    st = spade.RunOffline();
    if (!st.ok()) return Fail("offline phase: " + st.ToString());
  }

  // --- Serve mode: answer a stream of explore requests and exit.
  if (serve) {
    spade::Status st = spade.PrepareFactSets();
    if (!st.ok()) return Fail("fact-set selection: " + st.ToString());
    spade::persist::ServeOptions sopt;
    sopt.num_threads = options.num_threads;
    sopt.request_deadline_ms = request_timeout_ms;
    sopt.read_only = read_only;

    // TCP front end: same request core, hardened for many remote clients.
    if (!listen_spec.empty()) {
      st = spade::net::ParseHostPort(listen_spec, &net_options.listen);
      if (!st.ok()) return Fail("--listen: " + st.ToString());
      net_options.serve = sopt;
      spade::net::TcpServer server(&spade, net_options);
      st = server.Start();
      if (!st.ok()) return Fail("listen: " + st.ToString());
      // Scripts parse this exact line to discover an ephemeral port.
      std::cerr << "listening on " << net_options.listen.host << ":"
                << server.port() << "\n";
      const spade::net::TcpServeStats stats = server.Run();
      std::cerr << "served " << stats.serve.num_requests << " request"
                << (stats.serve.num_requests == 1 ? "" : "s") << " ("
                << stats.serve.num_errors << " error"
                << (stats.serve.num_errors == 1 ? "" : "s") << ", "
                << stats.serve.num_truncated << " truncated) over "
                << stats.num_connections << " connection"
                << (stats.num_connections == 1 ? "" : "s") << " in "
                << spade::FormatDouble(stats.serve.wall_ms, 1) << " ms; shed "
                << stats.num_connections_shed << " connections + "
                << stats.num_requests_shed << " requests, "
                << stats.num_io_errors << " I/O errors, "
                << stats.num_idle_closed << " idle-closed; drain "
                << (stats.drained_clean ? "clean" : "HARD-STOPPED") << "\n";
      return stats.drained_clean ? 0 : 1;
    }

    spade::persist::InsightServer server(&spade, sopt);
    spade::persist::ServeStats stats;
    if (!serve_requests.empty()) {
      std::ifstream reqs(serve_requests);
      if (!reqs) return Fail("cannot open " + serve_requests);
      stats = server.Serve(reqs, std::cout);
    } else {
      stats = server.Serve(std::cin, std::cout);
    }
    std::cerr << "served " << stats.num_requests << " request"
              << (stats.num_requests == 1 ? "" : "s") << " ("
              << stats.num_errors << " error"
              << (stats.num_errors == 1 ? "" : "s") << ") in "
              << spade::FormatDouble(stats.wall_ms, 1) << " ms\n";
    return 0;
  }

  // --- Run online.
  auto insights = spade.RunOnline();
  if (!insights.ok()) return Fail("online phase: " + insights.status().ToString());

  const spade::SpadeReport& report = spade.report();
  std::cerr << "pipeline: " << report.num_cfs << " fact sets, "
            << report.num_lattices << " lattices, "
            << report.num_candidate_aggregates << " candidate aggregates ("
            << report.num_pruned_aggregates << " pruned early); offline "
            << spade::FormatDouble(report.timings.offline_wall_ms, 1)
            << " ms, online "
            << spade::FormatDouble(report.timings.online_wall_ms, 1) << " ms ("
            << report.num_threads_used << " thread"
            << (report.num_threads_used == 1 ? "" : "s") << ", "
            << report.simd_kernel << " fold)";
  if (!report.shard_fact_counts.empty()) {
    std::cerr << "; " << report.num_shards_used << " shards/CFS [";
    for (size_t s = 0; s < report.shard_fact_counts.size(); ++s) {
      std::cerr << (s == 0 ? "" : "/") << report.shard_fact_counts[s];
    }
    std::cerr << " facts], merge "
              << spade::FormatDouble(report.shard_merge_ms, 1) << " ms";
  }
  if (report.ingest.num_chunks > 0) {
    std::cerr << "; ingest " << report.ingest.num_chunks << " chunk"
              << (report.ingest.num_chunks == 1 ? "" : "s") << " (peak "
              << report.ingest.peak_chunk_triples << " triples), wall "
              << spade::FormatDouble(report.ingest.wall_ms, 1) << " ms (parse "
              << spade::FormatDouble(report.ingest.parse_ms, 1)
              << " ms, overlapped work "
              << spade::FormatDouble(report.ingest.overlap_ms, 1) << " ms)";
  }
  if (report.lattice_workers_used > 0) {
    std::cerr << "; lattice compute " << report.lattice_workers_used
              << " worker" << (report.lattice_workers_used == 1 ? "" : "s")
              << ", wall " << spade::FormatDouble(report.lattice_wall_ms, 1)
              << " ms (work " << spade::FormatDouble(report.lattice_work_ms, 1)
              << " ms, merge "
              << spade::FormatDouble(report.lattice_merge_ms, 1)
              << " ms, peak " << report.lattice_peak_partial_cells
              << " partial cells, peak bitmaps " << report.peak_bitmap_bytes
              << " B)";
  }
  if (report.truncated) {
    std::cerr << "; TRUNCATED (" << spade::CancelReasonName(report.cancel_reason)
              << "): " << report.num_cfs_completed << "/" << report.num_cfs
              << " fact sets completed, " << report.num_groups_skipped
              << " groups skipped";
  }
  std::cerr << "\n";

  if (!quiet) {
    spade::RenderOptions ropt;
    int rank = 1;
    for (const auto& insight : *insights) {
      std::cout << "\n#" << rank++ << "  ";
      spade::RenderInsight(spade.store(), insight, ropt, std::cout);
    }
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) return Fail("cannot write " + json_path);
    spade::ExportInsightsJson(spade.store(), *insights,
                              options.interestingness, out);
    std::cerr << "wrote " << json_path << "\n";
  }
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) return Fail("cannot write " + csv_path);
    spade::ExportInsightsCsv(spade.store(), *insights, out);
    std::cerr << "wrote " << csv_path << "\n";
  }
  return 0;
}
