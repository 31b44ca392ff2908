// Delta bench: incremental refresh vs full rebuild on a mutating graph.
//
// The steady-state serving scenario: a pipeline has finished its offline
// build and is answering explores when a mutation batch arrives. Two ways to
// fold it in:
//
//   rebuild      re-intern the whole mutated triple set into a fresh graph,
//                RunOffline + RunOnline from scratch
//   incremental  ApplyDelta (merge touched attribute tables, re-derive
//                what read them, revalidate the per-CFS cache) + RunOnline
//                reusing every clean CFS's cached shard
//
// Mutation batches are value churn (retract a measure triple, add a
// replacement) drawn from a contiguous hot range of facts — updates cluster
// in practice, and that locality is exactly what dirty-CFS tracking converts
// into reuse. Rates 0.1% / 1% / 10% of the triple set; at 10% the churn
// spills across most fact sets and the speedup honestly degrades.
//
// Both paths use integral-valued measures, so their insight streams must be
// bit-identical; each row carries an order-independent checksum of the full
// group stream and the JSON reports identical=true/false.
//
// Usage: bench_delta [--facts=N] [--types=K] [--threads=N] [--json[=FILE]]
//
// --json writes machine-readable records (default file: BENCH_delta.json;
// schema in bench/README.md).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/ingest/chunk_source.h"
#include "src/store/delta.h"
#include "src/util/rng.h"
#include "src/util/timer.h"

namespace spade {
namespace bench {
namespace {

// A value-level triple model mirrors the graph so the rebuild side can
// re-intern the mutated set from scratch (ids diverge between a long-lived
// dictionary and a fresh one; the model is the common ground).
struct LTriple {
  std::string s, p;
  bool num_obj = false;
  std::string str_obj;
  int64_t num = 0;

  friend bool operator<(const LTriple& a, const LTriple& b) {
    if (a.s != b.s) return a.s < b.s;
    if (a.p != b.p) return a.p < b.p;
    if (a.num_obj != b.num_obj) return a.num_obj < b.num_obj;
    if (a.str_obj != b.str_obj) return a.str_obj < b.str_obj;
    return a.num < b.num;
  }
};

using LSet = std::set<LTriple>;

Triple Encode(Graph* g, const LTriple& t) {
  Triple out;
  out.s = g->dict().InternIri(t.s);
  out.p = g->dict().InternIri(t.p);
  out.o = t.num_obj ? g->dict().InternDouble(static_cast<double>(t.num))
                    : g->dict().InternString(t.str_obj);
  if (t.p == vocab::kRdfType) out.o = g->dict().InternIri(t.str_obj);
  return out;
}

std::unique_ptr<Graph> BuildGraph(const LSet& triples) {
  auto g = std::make_unique<Graph>();
  for (const LTriple& t : triples) {
    Triple enc = Encode(g.get(), t);
    g->Add(enc.s, enc.p, enc.o);
  }
  g->Freeze();
  return g;
}

/// Facts partitioned by type, each type with a private dimension and a
/// private measure property (updates to one type's facts leave the other
/// types' attribute tables — and so their fact sets — untouched).
LSet MakeUniverse(size_t facts, size_t types, uint64_t seed) {
  Rng rng(seed);
  LSet out;
  for (size_t i = 0; i < facts; ++i) {
    const size_t t = i % types;
    const std::string f =
        "http://bench/f" + std::to_string(t) + "_" + std::to_string(i / types);
    out.insert({f, vocab::kRdfType, false,
                "http://bench/T" + std::to_string(t), 0});
    out.insert({f, "http://bench/d" + std::to_string(t), false,
                "v" + std::to_string(rng.Uniform(6)), 0});
    out.insert({f, "http://bench/e" + std::to_string(t), false,
                "w" + std::to_string(rng.Uniform(9)), 0});
    out.insert({f, "http://bench/m" + std::to_string(t), true, "",
                static_cast<int64_t>(rng.Uniform(1000))});
    out.insert({f, "http://bench/n" + std::to_string(t), true, "",
                static_cast<int64_t>(rng.Uniform(400))});
  }
  return out;
}

/// One mutation batch: replace the numeric value of `count` measure triples,
/// walking facts in order from a hot start offset so the churn is contiguous
/// (few types touched at low rates, most at high rates).
struct Batch {
  std::vector<LTriple> retracts;
  std::vector<LTriple> adds;
};

Batch MakeBatch(const LSet& cur, size_t count, uint64_t seed) {
  Rng rng(seed);
  Batch b;
  std::vector<const LTriple*> measures;
  for (const LTriple& t : cur) {
    if (t.num_obj) measures.push_back(&t);
  }
  // Measure triples sort by subject IRI, which groups them by type — taking
  // a contiguous run is the hot-partition pattern.
  const size_t start = measures.empty() ? 0 : rng.Uniform(measures.size());
  for (size_t i = 0; i < count && i < measures.size(); ++i) {
    const LTriple& old = *measures[(start + i) % measures.size()];
    b.retracts.push_back(old);
    LTriple repl = old;
    repl.num = static_cast<int64_t>(rng.Uniform(1000));
    if (repl.num == old.num) repl.num = (repl.num + 1) % 1000;
    b.adds.push_back(repl);
  }
  return b;
}

void ApplyToModel(LSet* cur, const Batch& b) {
  for (const LTriple& t : b.retracts) cur->erase(t);
  for (const LTriple& t : b.adds) cur->insert(t);
}

SpadeOptions DeltaOptions(size_t threads) {
  SpadeOptions options;
  options.cfs.min_size = 20;
  options.cfs.max_sets = 64;
  options.cfs.summary_based = false;  // value-level names on both paths
  options.enumeration.max_dims = 3;
  options.enumeration.max_lattices_per_cfs = 16;
  options.enumeration.max_measures_per_lattice = 8;
  options.top_k = 10;
  options.num_threads = threads;
  return options;
}

/// Order-independent fingerprint of the full evaluated stream: every MDA
/// rendered canonically with its sorted groups, lines sorted, then hashed.
/// Equal outcomes => equal checksums regardless of representation.
uint64_t ArmChecksum(const Spade& spade, const Graph& graph) {
  std::vector<std::string> lines;
  const Arm& arm = spade.arm();
  const AttributeStore& db = spade.store();
  for (Arm::Handle h = 0; h < arm.num_aggregates(); ++h) {
    const AggregateKey& key = arm.key(h);
    std::string line = spade.fact_sets()[key.cfs_id].name + "|";
    for (AttrId d : key.dims) line += db.attribute(d).name + ",";
    line += "|f" + std::to_string(static_cast<int>(key.measure.func)) + "(";
    line +=
        key.measure.is_count_star() ? "*" : db.attribute(key.measure.attr).name;
    line += ")";
    std::vector<std::string> groups;
    for (const GroupResult& gr : arm.stored_groups(h)) {
      std::string g;
      for (TermId v : gr.dim_values) {
        CanonTerm t = RenderTerm(graph.dict(), v);
        g += t.lexical + "/" + t.datatype + ";";
      }
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", gr.value);
      groups.push_back(g + "=" + buf);
    }
    std::sort(groups.begin(), groups.end());
    for (const std::string& g : groups) line += " " + g;
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  uint64_t sum = 1469598103934665603ull;
  for (const std::string& line : lines) {
    for (char c : line) sum = (sum ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  return sum;
}

struct DeltaRow {
  double mutation_rate = 0;
  size_t batch_triples = 0;
  double apply_ms = 0;    ///< ApplyDelta alone
  double online_ms = 0;   ///< the RunOnline refresh after it
  double refresh_ms = 0;  ///< apply + online: the incremental path
  double rebuild_ms = 0;  ///< fresh intern + offline + online
  double speedup = 0;
  size_t cfs_total = 0;
  size_t cfs_reused = 0;
  bool fact_sets_kept = false;  ///< the apply kept the summary and fact sets
  size_t derived_reused = 0;    ///< derived attributes copied, not re-derived
  bool identical = false;
};

DeltaRow RunRate(const LSet& base, double rate, size_t threads,
                 uint64_t seed) {
  DeltaRow row;
  row.mutation_rate = rate;

  // The long-lived incremental pipeline: base build is setup, not measured.
  std::unique_ptr<Graph> graph = BuildGraph(base);
  SpadeOptions options = DeltaOptions(threads);
  options.enable_incremental = true;
  Spade spade(graph.get(), options);
  if (!spade.RunOffline().ok() || !spade.RunOnline().ok()) {
    std::cerr << "bench_delta: base build failed\n";
    std::exit(1);
  }

  LSet mutated = base;
  const size_t count = static_cast<size_t>(rate * base.size());
  Batch batch = MakeBatch(base, count == 0 ? 1 : count, seed);
  row.batch_triples = batch.adds.size() + batch.retracts.size();
  ApplyToModel(&mutated, batch);

  std::vector<Triple> adds, rets;
  for (const LTriple& t : batch.adds) adds.push_back(Encode(graph.get(), t));
  for (const LTriple& t : batch.retracts) {
    rets.push_back(Encode(graph.get(), t));
  }
  {
    VectorChunkSource add_src({std::move(adds)});
    VectorChunkSource ret_src({std::move(rets)});
    DeltaReport delta;
    Timer t;
    Status st = spade.ApplyDelta(&add_src, &ret_src, &delta);
    row.apply_ms = t.ElapsedMillis();
    if (!st.ok()) {
      std::cerr << "bench_delta: apply failed: " << st.ToString() << "\n";
      std::exit(1);
    }
    row.cfs_total = delta.num_cfs;
    row.cfs_reused = delta.num_cfs_reused;
    row.fact_sets_kept = delta.fact_sets_kept;
    row.derived_reused = delta.num_derived_reused;
  }
  {
    Timer t;
    if (!spade.RunOnline().ok()) std::exit(1);
    row.online_ms = t.ElapsedMillis();
  }
  row.refresh_ms = row.apply_ms + row.online_ms;

  // The contender: full rebuild of the mutated set.
  uint64_t rebuild_sum = 0;
  {
    Timer t;
    std::unique_ptr<Graph> fresh_graph = BuildGraph(mutated);
    Spade fresh(fresh_graph.get(), DeltaOptions(threads));
    if (!fresh.RunOffline().ok() || !fresh.RunOnline().ok()) std::exit(1);
    row.rebuild_ms = t.ElapsedMillis();
    rebuild_sum = ArmChecksum(fresh, *fresh_graph);
  }
  row.speedup = row.refresh_ms > 0 ? row.rebuild_ms / row.refresh_ms : 0;
  row.identical = ArmChecksum(spade, *graph) == rebuild_sum;
  return row;
}

void WriteJson(const std::string& path, size_t facts, size_t types,
               size_t triples, size_t threads, uint64_t seed,
               const std::vector<DeltaRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_delta: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "[\n";
  out << "  {\"kind\": \"config\", \"facts\": " << facts
      << ", \"types\": " << types << ", \"num_triples\": " << triples
      << ", \"threads\": " << threads << ", \"seed\": " << seed << "},\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const DeltaRow& r = rows[i];
    out << "  {\"kind\": \"delta\", \"mutation_rate\": " << r.mutation_rate
        << ", \"batch_triples\": " << r.batch_triples
        << ", \"apply_ms\": " << r.apply_ms
        << ", \"online_ms\": " << r.online_ms
        << ", \"refresh_ms\": " << r.refresh_ms
        << ", \"rebuild_ms\": " << r.rebuild_ms
        << ", \"speedup\": " << r.speedup
        << ", \"cfs_total\": " << r.cfs_total
        << ", \"cfs_reused\": " << r.cfs_reused
        << ", \"fact_sets_kept\": " << (r.fact_sets_kept ? "true" : "false")
        << ", \"derived_reused\": " << r.derived_reused
        << ", \"identical_insights\": " << (r.identical ? "true" : "false")
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "]\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace
}  // namespace bench
}  // namespace spade

int main(int argc, char** argv) {
  using namespace spade;
  using namespace spade::bench;
  size_t facts = 24000;
  size_t types = 12;
  size_t threads = 1;
  uint64_t seed = 42;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--facts=", 8) == 0) {
      facts = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--types=", 8) == 0) {
      types = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = "BENCH_delta.json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::cerr << "bench_delta: unknown argument " << argv[i] << "\n"
                << "usage: bench_delta [--facts=N] [--types=K] [--threads=N]"
                   " [--seed=S] [--json[=FILE]]\n";
      return 1;
    }
  }

  const LSet base = MakeUniverse(facts, types, seed);
  std::printf("bench_delta: %zu facts, %zu types, %zu triples, %zu thread%s\n",
              facts, types, base.size(), threads, threads == 1 ? "" : "s");

  const std::vector<double> rates = {0.001, 0.01, 0.10};
  std::vector<DeltaRow> rows;
  TablePrinter table(
      {"rate", "batch", "apply ms", "online ms", "refresh ms", "rebuild ms",
       "speedup", "cfs reused", "identical"});
  for (double rate : rates) {
    DeltaRow row = RunRate(base, rate, threads, seed + 1);
    char sp[32];
    std::snprintf(sp, sizeof(sp), "%.1fx", row.speedup);
    table.AddRow({Pct(rate), std::to_string(row.batch_triples),
                  Ms(row.apply_ms), Ms(row.online_ms), Ms(row.refresh_ms),
                  Ms(row.rebuild_ms), sp,
                  std::to_string(row.cfs_reused) + "/" +
                      std::to_string(row.cfs_total),
                  row.identical ? "yes" : "NO"});
    rows.push_back(row);
  }
  table.Print(std::cout);
  for (const DeltaRow& r : rows) {
    if (!r.identical) {
      std::cerr << "bench_delta: insight streams diverged at rate "
                << r.mutation_rate << "\n";
      return 1;
    }
  }
  if (!json_path.empty()) {
    WriteJson(json_path, facts, types, base.size(), threads, seed, rows);
  }
  return 0;
}
