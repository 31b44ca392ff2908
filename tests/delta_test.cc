// The differential mutation-testing harness for incremental maintenance
// (Spade::ApplyDelta / Spade::Compact, see ARCHITECTURE.md "Incremental
// maintenance").
//
// The harness keeps a term-level mirror of the triple set beside the live
// pipeline and, after every randomized mutation batch, checks the
// incrementally maintained pipeline against a *fresh sequential build* of the
// mutated triple set — full canonical ARM stream (every MDA, every group,
// exact values), representation-independent report counters, and the
// DeltaReport's batch accounting against the mirror's own set arithmetic.
// Eight configurations (threads {1,4} x shards {1,4} x simd {auto,scalar})
// run the same mutation sequence and must stay bit-identical to each other.
//
// The comparison is canonical (term-level) because a long-lived dictionary
// and a fresh one assign different TermIds to the same logical graph; the
// CanonTerm rendering from src/store/delta.h erases ids on both sides.
//
// Seed: SPADE_DELTA_SEED in the environment overrides the default (42); the
// chosen seed is echoed so a CI failure is reproducible.

#include "src/core/spade.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/ingest/chunk_source.h"
#include "src/persist/serve.h"
#include "src/persist/snapshot.h"
#include "src/store/delta.h"
#include "src/summary/summary.h"
#include "src/util/failpoint.h"
#include "src/util/rng.h"

namespace spade {
namespace {

// --- Term-level triple universe. -------------------------------------------
//
// Logical terms compare by value, independent of any dictionary. Numbers are
// integral doubles so every aggregate (sum, avg, min, max, count) is exact —
// the differential comparison can then demand bitwise-equal group values.

struct LTerm {
  enum class K : uint8_t { kIri, kStr, kNum } k = K::kIri;
  std::string text;
  int64_t num = 0;

  friend bool operator<(const LTerm& a, const LTerm& b) {
    if (a.k != b.k) return a.k < b.k;
    if (a.text != b.text) return a.text < b.text;
    return a.num < b.num;
  }
  friend bool operator==(const LTerm& a, const LTerm& b) {
    return a.k == b.k && a.text == b.text && a.num == b.num;
  }
};

LTerm Iri(std::string text) {
  LTerm t;
  t.k = LTerm::K::kIri;
  t.text = std::move(text);
  return t;
}
LTerm Str(std::string text) {
  LTerm t;
  t.k = LTerm::K::kStr;
  t.text = std::move(text);
  return t;
}
LTerm Num(int64_t value) {
  LTerm t;
  t.k = LTerm::K::kNum;
  t.num = value;
  return t;
}

struct LTriple {
  LTerm s, p, o;

  friend bool operator<(const LTriple& a, const LTriple& b) {
    if (!(a.s == b.s)) return a.s < b.s;
    if (!(a.p == b.p)) return a.p < b.p;
    return a.o < b.o;
  }
  friend bool operator==(const LTriple& a, const LTriple& b) {
    return a.s == b.s && a.p == b.p && a.o == b.o;
  }
};

using LSet = std::set<LTriple>;

TermId Intern(Graph* g, const LTerm& t) {
  switch (t.k) {
    case LTerm::K::kIri:
      return g->dict().InternIri(t.text);
    case LTerm::K::kStr:
      return g->dict().InternString(t.text);
    case LTerm::K::kNum:
      return g->dict().InternDouble(static_cast<double>(t.num));
  }
  return kInvalidTerm;
}

Triple Encode(Graph* g, const LTriple& t) {
  Triple out;
  out.s = Intern(g, t.s);
  out.p = Intern(g, t.p);
  out.o = Intern(g, t.o);
  return out;
}

/// Fresh graph over the logical set, triples added in sorted (value) order so
/// two calls with equal input produce identical graphs.
std::unique_ptr<Graph> BuildGraph(const LSet& triples) {
  auto g = std::make_unique<Graph>();
  for (const LTriple& t : triples) {
    Triple enc = Encode(g.get(), t);
    g->Add(enc.s, enc.p, enc.o);
  }
  g->Freeze();
  return g;
}

// --- Universe + mutation generation. ---------------------------------------

uint64_t HarnessSeed() {
  const char* env = std::getenv("SPADE_DELTA_SEED");
  if (env != nullptr && env[0] != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 42;
}

/// One fact: a type triple, a multi-valuable dimension, an optional second
/// dimension, one always-present and one sometimes-missing numeric measure.
void AddFact(LSet* out, int type, int id, Rng* rng) {
  LTerm f = Iri("http://d/f" + std::to_string(type) + "_" + std::to_string(id));
  out->insert({f, Iri(vocab::kRdfType), Iri("http://d/T" + std::to_string(type))});
  out->insert({f, Iri("http://d/color"),
               Str("c" + std::to_string(rng->Uniform(6)))});
  if (rng->Bernoulli(0.3)) {
    out->insert({f, Iri("http://d/color"),
                 Str("c" + std::to_string(rng->Uniform(6)))});
  }
  if (!rng->Bernoulli(0.15)) {
    out->insert({f, Iri("http://d/size"),
                 Str("s" + std::to_string(rng->Uniform(4)))});
  }
  out->insert({f, Iri("http://d/score"),
               Num(static_cast<int64_t>(rng->Uniform(100)))});
  if (!rng->Bernoulli(0.2)) {
    out->insert({f, Iri("http://d/weight"),
                 Num(static_cast<int64_t>(rng->Uniform(50)))});
  }
}

LSet InitialUniverse(Rng* rng) {
  LSet out;
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 40; ++i) AddFact(&out, t, i, rng);
  }
  return out;
}

/// One mutation batch: raw add/retract lists, deliberately messy (duplicates,
/// no-ops, retract-then-re-add overlaps) — StageDelta has to net them out.
struct Batch {
  std::vector<LTriple> adds;
  std::vector<LTriple> retracts;
};

Batch MakeBatch(const LSet& cur, int batch_idx, Rng* rng) {
  Batch b;
  std::vector<LTriple> pool(cur.begin(), cur.end());
  auto pick = [&]() -> const LTriple& {
    return pool[rng->Uniform(pool.size())];
  };

  // Brand-new facts.
  for (int i = 0; i < 3; ++i) {
    LSet bundle;
    AddFact(&bundle, static_cast<int>(rng->Uniform(3)),
            1000 + batch_idx * 10 + i, rng);
    b.adds.insert(b.adds.end(), bundle.begin(), bundle.end());
  }
  // Value churn: retract a triple, add a replacement object for the same
  // (subject, property) — skipping rdf:type so CFS membership churn comes
  // only from whole-fact removal below.
  for (int i = 0; i < 8; ++i) {
    const LTriple& t = pick();
    if (t.p.text == vocab::kRdfType) continue;
    b.retracts.push_back(t);
    LTriple repl = t;
    if (repl.o.k == LTerm::K::kNum) {
      repl.o = Num(static_cast<int64_t>(rng->Uniform(100)));
    } else if (repl.o.k == LTerm::K::kStr) {
      repl.o = Str("c" + std::to_string(rng->Uniform(6)));
    }
    b.adds.push_back(repl);
  }
  // Whole-fact removal (type triple included: the CFS shrinks).
  {
    const LTerm subject = pick().s;
    for (const LTriple& t : pool) {
      if (t.s == subject) b.retracts.push_back(t);
    }
  }
  // No-op adds (already present) and a duplicate inside the batch.
  b.adds.push_back(pick());
  b.adds.push_back(b.adds.back());
  // No-op retracts (never present).
  b.retracts.push_back(
      {Iri("http://d/ghost"), Iri("http://d/color"), Str("nope")});
  // Retract-then-re-add in one batch: adds win, the triple must survive.
  {
    const LTriple& t = pick();
    b.retracts.push_back(t);
    b.adds.push_back(t);
  }
  return b;
}

/// The mirror's own batch arithmetic — final = (cur \ retracts) ∪ adds —
/// returning the net counts ApplyDelta must report.
struct ExpectedCounts {
  size_t added = 0, removed = 0, noop_adds = 0, noop_retracts = 0;
};

ExpectedCounts ApplyToMirror(LSet* cur, const Batch& b) {
  std::set<LTriple> adds(b.adds.begin(), b.adds.end());
  std::set<LTriple> rets(b.retracts.begin(), b.retracts.end());
  ExpectedCounts e;
  for (const LTriple& t : rets) {
    if (adds.count(t) == 0 && cur->erase(t) > 0) ++e.removed;
  }
  for (const LTriple& t : adds) {
    if (cur->insert(t).second) ++e.added;
  }
  e.noop_adds = adds.size() - e.added;
  e.noop_retracts = rets.size() - e.removed;
  return e;
}

// --- Pipeline plumbing. -----------------------------------------------------

SpadeOptions HarnessOptions() {
  SpadeOptions o;
  o.cfs.min_size = 10;
  // Summary-based CFS names/partitions depend on the dictionary's class-id
  // assignment — not comparable across representations. Type-based sets
  // carry value-level names.
  o.cfs.summary_based = false;
  o.enumeration.max_dims = 2;
  // Caps set far above what the universe can produce, so no cap ever binds
  // and the full MDA stream is comparable.
  o.enumeration.max_lattices_per_cfs = 256;
  o.enumeration.max_measures_per_lattice = 64;
  o.enumeration.max_distinct_values = 100000;
  o.enumeration.max_distinct_ratio = 1.0;
  o.enumeration.min_support_ratio = 0.05;
  o.top_k = 8;
  o.max_stored_groups = 1u << 20;  // store every group: full-stream compare
  return o;
}

struct Pipeline {
  std::unique_ptr<Graph> graph;
  std::unique_ptr<Spade> spade;
};

Pipeline MakePipeline(const LSet& triples, SpadeOptions options) {
  Pipeline p;
  p.graph = BuildGraph(triples);
  p.spade = std::make_unique<Spade>(p.graph.get(), std::move(options));
  return p;
}

Status ApplyBatch(Pipeline* p, const Batch& b, DeltaReport* report) {
  std::vector<Triple> adds, rets;
  for (const LTriple& t : b.adds) adds.push_back(Encode(p->graph.get(), t));
  for (const LTriple& t : b.retracts) {
    rets.push_back(Encode(p->graph.get(), t));
  }
  VectorChunkSource add_src({std::move(adds)});
  VectorChunkSource ret_src({std::move(rets)});
  return p->spade->ApplyDelta(&add_src, &ret_src, report);
}

// --- Canonical comparison. --------------------------------------------------

std::string CanonTermKey(const Dictionary& dict, TermId id) {
  CanonTerm t = RenderTerm(dict, id);
  return std::to_string(static_cast<int>(t.kind)) + "|" + t.lexical + "|" +
         t.datatype + "|" + t.language;
}

/// Sorted (dim value renderings, measure value) tuples of one MDA.
using CanonGroups = std::vector<std::pair<std::vector<std::string>, double>>;
/// Every evaluated MDA keyed representation-independently: CFS name, dim
/// attribute names, measure function + attribute name.
using CanonArm = std::map<std::string, CanonGroups>;

CanonArm DumpArm(const Spade& spade, const Graph& graph) {
  CanonArm out;
  const Arm& arm = spade.arm();
  const AttributeStore& db = spade.store();
  for (Arm::Handle h = 0; h < arm.num_aggregates(); ++h) {
    const AggregateKey& key = arm.key(h);
    std::string k = spade.fact_sets()[key.cfs_id].name + " by";
    for (AttrId d : key.dims) k += " " + db.attribute(d).name;
    k += " / f" + std::to_string(static_cast<int>(key.measure.func)) + "(";
    k += key.measure.is_count_star() ? "*" : db.attribute(key.measure.attr).name;
    k += ")";
    // max_stored_groups is sized so nothing is dropped; the stored groups
    // ARE the full stream.
    EXPECT_EQ(arm.num_groups(h), arm.stored_groups(h).size()) << k;
    CanonGroups groups;
    for (const GroupResult& gr : arm.stored_groups(h)) {
      std::vector<std::string> vals;
      for (TermId v : gr.dim_values) {
        vals.push_back(CanonTermKey(graph.dict(), v));
      }
      groups.emplace_back(std::move(vals), gr.value);
    }
    std::sort(groups.begin(), groups.end());
    EXPECT_TRUE(out.emplace(std::move(k), std::move(groups)).second)
        << "duplicate canonical MDA key";
  }
  return out;
}

::testing::AssertionResult SameCanonArm(const CanonArm& a, const CanonArm& b) {
  for (const auto& [key, groups] : a) {
    auto it = b.find(key);
    if (it == b.end()) {
      return ::testing::AssertionFailure() << "MDA only on left: " << key;
    }
    if (groups.size() != it->second.size()) {
      return ::testing::AssertionFailure()
             << "group count differs for " << key << ": " << groups.size()
             << " vs " << it->second.size();
    }
    for (size_t i = 0; i < groups.size(); ++i) {
      if (!(groups[i] == it->second[i])) {
        return ::testing::AssertionFailure()
               << "group " << i << " differs for " << key << " (value "
               << groups[i].second << " vs " << it->second[i].second << ")";
      }
    }
  }
  for (const auto& [key, groups] : b) {
    (void)groups;
    if (a.find(key) == a.end()) {
      return ::testing::AssertionFailure() << "MDA only on right: " << key;
    }
  }
  return ::testing::AssertionSuccess();
}

/// The representation-independent slice of a SpadeReport: everything that
/// must coincide between an incrementally maintained pipeline and a fresh
/// build (configuration echoes, timings and per-shard accounting excluded).
std::vector<size_t> ReportFacts(const SpadeReport& r) {
  return {r.num_triples,
          r.num_cfs,
          r.num_direct_properties,
          r.derivations.total(),
          r.num_lattices,
          r.num_candidate_aggregates,
          r.num_evaluated_aggregates,
          r.num_reused_aggregates,
          r.num_pruned_aggregates,
          r.num_groups_emitted,
          static_cast<size_t>(r.truncated),
          r.num_cfs_completed,
          r.num_groups_skipped};
}

// --- The differential harness. ---------------------------------------------

struct Config {
  size_t threads;
  size_t shards;
  simd::SimdMode simd;
};

std::string ConfigName(const Config& c) {
  return "threads=" + std::to_string(c.threads) +
         " shards=" + std::to_string(c.shards) + " simd=" +
         (c.simd == simd::SimdMode::kAuto ? "auto" : "scalar");
}

TEST(DeltaDifferentialTest, MutationBatchesMatchFreshRebuildAcrossConfigs) {
  const uint64_t seed = HarnessSeed();
  std::cerr << "[delta harness] seed = " << seed
            << " (override with SPADE_DELTA_SEED)\n";
  SCOPED_TRACE("seed = " + std::to_string(seed));
  Rng rng(seed);
  LSet cur = InitialUniverse(&rng);

  const std::vector<Config> configs = {
      {1, 1, simd::SimdMode::kAuto},   {1, 4, simd::SimdMode::kAuto},
      {4, 1, simd::SimdMode::kAuto},   {4, 4, simd::SimdMode::kAuto},
      {1, 1, simd::SimdMode::kScalar}, {1, 4, simd::SimdMode::kScalar},
      {4, 1, simd::SimdMode::kScalar}, {4, 4, simd::SimdMode::kScalar},
  };
  std::vector<Pipeline> pipelines;
  for (const Config& c : configs) {
    SpadeOptions o = HarnessOptions();
    o.num_threads = c.threads;
    o.num_shards = c.shards;
    o.mvd.simd = c.simd;
    o.enable_incremental = true;
    pipelines.push_back(MakePipeline(cur, std::move(o)));
    ASSERT_TRUE(pipelines.back().spade->RunOffline().ok());
    ASSERT_TRUE(pipelines.back().spade->RunOnline().ok());
  }

  // A fresh sequential (serial, non-incremental) build of the same set is
  // the oracle at every step, batch 0 = the unmutated universe.
  auto check_against_fresh = [&](int batch) {
    Pipeline fresh = MakePipeline(cur, HarnessOptions());
    ASSERT_TRUE(fresh.spade->RunOffline().ok());
    ASSERT_TRUE(fresh.spade->RunOnline().ok());
    const Spade& incr = *pipelines[0].spade;
    SCOPED_TRACE("after batch " + std::to_string(batch));
    EXPECT_EQ(ReportFacts(incr.report()), ReportFacts(fresh.spade->report()));
    EXPECT_TRUE(SameCanonArm(DumpArm(incr, *pipelines[0].graph),
                             DumpArm(*fresh.spade, *fresh.graph)));
    EXPECT_EQ(incr.report().num_triples, cur.size());
  };
  check_against_fresh(-1);

  constexpr int kBatches = 5;
  for (int bi = 0; bi < kBatches; ++bi) {
    SCOPED_TRACE("batch " + std::to_string(bi));
    Batch batch = MakeBatch(cur, bi, &rng);
    const ExpectedCounts want = ApplyToMirror(&cur, batch);

    std::vector<std::vector<Insight>> insights(pipelines.size());
    for (size_t i = 0; i < pipelines.size(); ++i) {
      SCOPED_TRACE(ConfigName(configs[i]));
      DeltaReport rep;
      ASSERT_TRUE(ApplyBatch(&pipelines[i], batch, &rep).ok());
      EXPECT_EQ(rep.num_added, want.added);
      EXPECT_EQ(rep.num_removed, want.removed);
      EXPECT_EQ(rep.noop_adds, want.noop_adds);
      EXPECT_EQ(rep.noop_retracts, want.noop_retracts);
      EXPECT_EQ(pipelines[i].graph->NumTriples(), cur.size());
      auto got = pipelines[i].spade->RunOnline();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      insights[i] = std::move(*got);
    }

    // Cross-config: the eight pipelines share one intern history, so their
    // results must be bit-identical — ids, scores and all.
    const CanonArm arm0 = DumpArm(*pipelines[0].spade, *pipelines[0].graph);
    for (size_t i = 1; i < pipelines.size(); ++i) {
      SCOPED_TRACE(ConfigName(configs[i]) + " vs " + ConfigName(configs[0]));
      ASSERT_EQ(insights[i].size(), insights[0].size());
      for (size_t r = 0; r < insights[i].size(); ++r) {
        EXPECT_TRUE(insights[i][r].ranked.key == insights[0][r].ranked.key);
        EXPECT_EQ(insights[i][r].ranked.score, insights[0][r].ranked.score);
        EXPECT_EQ(insights[i][r].ranked.num_groups,
                  insights[0][r].ranked.num_groups);
        EXPECT_EQ(insights[i][r].cfs_name, insights[0][r].cfs_name);
        EXPECT_EQ(insights[i][r].description, insights[0][r].description);
        EXPECT_EQ(insights[i][r].sparql, insights[0][r].sparql);
      }
      EXPECT_EQ(ReportFacts(pipelines[i].spade->report()),
                ReportFacts(pipelines[0].spade->report()));
      EXPECT_EQ(pipelines[i].spade->report().num_cfs_reused,
                pipelines[0].spade->report().num_cfs_reused);
      EXPECT_TRUE(
          SameCanonArm(DumpArm(*pipelines[i].spade, *pipelines[i].graph), arm0));
    }

    // Differential: the maintained pipeline equals a fresh build of the
    // mirror (term-level, so the comparison survives diverged dictionaries).
    check_against_fresh(bi);
  }
}

// --- Edge cases. ------------------------------------------------------------

TEST(DeltaEdgeTest, RetractThenReAddWithinOneBatchKeepsTheTriple) {
  Rng rng(7);
  LSet cur = InitialUniverse(&rng);
  Pipeline p = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->RunOnline().ok());

  Batch b;
  const LTriple t = *cur.begin();
  b.retracts.push_back(t);
  b.adds.push_back(t);
  DeltaReport rep;
  ASSERT_TRUE(ApplyBatch(&p, b, &rep).ok());
  EXPECT_EQ(rep.num_added, 0u);
  EXPECT_EQ(rep.num_removed, 0u);
  EXPECT_EQ(rep.noop_adds, 1u);      // present, so the add is a no-op
  EXPECT_EQ(rep.noop_retracts, 1u);  // overridden by the add
  EXPECT_EQ(p.graph->NumTriples(), cur.size());
  EXPECT_EQ(p.spade->num_deltas_applied(), 1u);
}

TEST(DeltaEdgeTest, RetractionCanEmptyAnAttributeAndACfs) {
  // T9 is a small type with a private property; removing its facts must drop
  // both the CFS and the attribute, exactly as a fresh build of the residue.
  Rng rng(11);
  LSet cur = InitialUniverse(&rng);
  for (int i = 0; i < 12; ++i) {
    LTerm f = Iri("http://d/g" + std::to_string(i));
    cur.insert({f, Iri(vocab::kRdfType), Iri("http://d/T9")});
    cur.insert({f, Iri("http://d/onlyT9"),
                Str("v" + std::to_string(i % 3))});
    cur.insert({f, Iri("http://d/score"), Num(i)});
  }
  Pipeline p = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->RunOnline().ok());
  ASSERT_TRUE(p.spade->store().FindAttribute("onlyT9").has_value());

  Batch b;
  for (const LTriple& t : cur) {
    if (t.s.text.rfind("http://d/g", 0) == 0) b.retracts.push_back(t);
  }
  ApplyToMirror(&cur, b);
  DeltaReport rep;
  ASSERT_TRUE(ApplyBatch(&p, b, &rep).ok());
  ASSERT_TRUE(p.spade->RunOnline().ok());

  EXPECT_FALSE(p.spade->store().FindAttribute("onlyT9").has_value());
  for (const CandidateFactSet& cfs : p.spade->fact_sets()) {
    EXPECT_EQ(cfs.name.find("T9"), std::string::npos) << cfs.name;
  }
  Pipeline fresh = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(fresh.spade->RunOffline().ok());
  ASSERT_TRUE(fresh.spade->RunOnline().ok());
  EXPECT_EQ(ReportFacts(p.spade->report()), ReportFacts(fresh.spade->report()));
  EXPECT_TRUE(SameCanonArm(DumpArm(*p.spade, *p.graph),
                           DumpArm(*fresh.spade, *fresh.graph)));
}

TEST(DeltaEdgeTest, DeltaToADerivedAttributeSourcePropagates) {
  // "color" is multi-valued, so derivations materialize attributes over it;
  // mutating color rows must recompute those (changed-attr detection works
  // on derived tables too — they compare by columns, not provenance).
  Rng rng(13);
  LSet cur = InitialUniverse(&rng);
  Pipeline p = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->RunOnline().ok());
  ASSERT_GT(p.spade->report().derivations.total(), 0u);

  Batch b;
  for (const LTriple& t : cur) {
    if (t.p.text == "http://d/color" && t.s.text.find("f0_") != std::string::npos) {
      b.adds.push_back({t.s, t.p, Str("brand-new-shade")});
      break;
    }
  }
  ASSERT_EQ(b.adds.size(), 1u);
  ApplyToMirror(&cur, b);
  DeltaReport rep;
  ASSERT_TRUE(ApplyBatch(&p, b, &rep).ok());
  // At least the color table and one derived table over it changed.
  EXPECT_GE(rep.num_attrs_changed, 2u);
  ASSERT_TRUE(p.spade->RunOnline().ok());

  Pipeline fresh = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(fresh.spade->RunOffline().ok());
  ASSERT_TRUE(fresh.spade->RunOnline().ok());
  EXPECT_EQ(ReportFacts(p.spade->report()), ReportFacts(fresh.spade->report()));
  EXPECT_TRUE(SameCanonArm(DumpArm(*p.spade, *p.graph),
                           DumpArm(*fresh.spade, *fresh.graph)));
}

/// A universe whose measures are private to each type: mutating one type's
/// measure leaves the other types' CFSs provably clean.
LSet PartitionedUniverse() {
  LSet out;
  for (int t = 0; t < 3; ++t) {
    for (int i = 0; i < 30; ++i) {
      LTerm f =
          Iri("http://d/p" + std::to_string(t) + "_" + std::to_string(i));
      out.insert(
          {f, Iri(vocab::kRdfType), Iri("http://d/P" + std::to_string(t))});
      out.insert({f, Iri("http://d/color"),
                  Str("c" + std::to_string((i * 7 + t) % 5))});
      out.insert({f, Iri("http://d/m" + std::to_string(t)),
                  Num((i * 13 + t * 5) % 90)});
    }
  }
  return out;
}

TEST(DeltaEdgeTest, UntouchedCfsIsReusedWithIdenticalResults) {
  LSet cur = PartitionedUniverse();
  SpadeOptions o = HarnessOptions();
  o.enable_incremental = true;
  o.num_threads = 4;
  Pipeline p = MakePipeline(cur, std::move(o));
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->RunOnline().ok());
  EXPECT_EQ(p.spade->num_cached_cfs(), p.spade->fact_sets().size());

  // Change one P0 measure value: only the m0 table changes, and only P0
  // members appear in it.
  Batch b;
  for (const LTriple& t : cur) {
    if (t.p.text == "http://d/m0") {
      b.retracts.push_back(t);
      b.adds.push_back({t.s, t.p, Num(t.o.num + 500)});
      break;
    }
  }
  ASSERT_EQ(b.adds.size(), 1u);
  ApplyToMirror(&cur, b);
  DeltaReport rep;
  ASSERT_TRUE(ApplyBatch(&p, b, &rep).ok());
  EXPECT_EQ(rep.num_attrs_changed, 1u);
  EXPECT_EQ(rep.num_cfs, 3u);
  EXPECT_EQ(rep.num_cfs_reused, 2u);  // P1 and P2 stay clean
  ASSERT_TRUE(p.spade->RunOnline().ok());
  EXPECT_EQ(p.spade->report().num_cfs_reused, 2u);

  Pipeline fresh = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(fresh.spade->RunOffline().ok());
  ASSERT_TRUE(fresh.spade->RunOnline().ok());
  EXPECT_EQ(ReportFacts(p.spade->report()), ReportFacts(fresh.spade->report()));
  EXPECT_TRUE(SameCanonArm(DumpArm(*p.spade, *p.graph),
                           DumpArm(*fresh.spade, *fresh.graph)));
}

TEST(DeltaEdgeTest, NoopBatchReusesEveryCfs) {
  LSet cur = PartitionedUniverse();
  SpadeOptions o = HarnessOptions();
  o.enable_incremental = true;
  Pipeline p = MakePipeline(cur, std::move(o));
  ASSERT_TRUE(p.spade->RunOffline().ok());
  auto before = p.spade->RunOnline();
  ASSERT_TRUE(before.ok());

  Batch b;
  b.adds.push_back(*cur.begin());  // already present
  b.retracts.push_back(
      {Iri("http://d/ghost"), Iri("http://d/color"), Str("gone")});
  DeltaReport rep;
  ASSERT_TRUE(ApplyBatch(&p, b, &rep).ok());
  EXPECT_EQ(rep.num_added, 0u);
  EXPECT_EQ(rep.num_removed, 0u);
  EXPECT_EQ(rep.noop_adds, 1u);
  EXPECT_EQ(rep.noop_retracts, 1u);
  EXPECT_EQ(rep.num_attrs_changed, 0u);
  EXPECT_EQ(rep.num_cfs_reused, rep.num_cfs);

  auto after = p.spade->RunOnline();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(p.spade->report().num_cfs_reused, rep.num_cfs);
  ASSERT_EQ(after->size(), before->size());
  for (size_t i = 0; i < after->size(); ++i) {
    EXPECT_TRUE((*after)[i].ranked.key == (*before)[i].ranked.key);
    EXPECT_EQ((*after)[i].ranked.score, (*before)[i].ranked.score);
  }
}

TEST(DeltaEdgeTest, ApplyRequiresOfflineAndRejectsSaturation) {
  Rng rng(3);
  LSet cur = InitialUniverse(&rng);
  {
    Pipeline p = MakePipeline(cur, HarnessOptions());
    Batch b;
    b.adds.push_back(*cur.begin());
    DeltaReport rep;
    EXPECT_FALSE(ApplyBatch(&p, b, &rep).ok());  // RunOffline not called
  }
  {
    SpadeOptions o = HarnessOptions();
    o.saturate = true;
    Pipeline p = MakePipeline(cur, std::move(o));
    ASSERT_TRUE(p.spade->RunOffline().ok());
    Batch b;
    b.adds.push_back(*cur.begin());
    DeltaReport rep;
    Status st = ApplyBatch(&p, b, &rep);
    EXPECT_FALSE(st.ok());
    EXPECT_FALSE(p.spade->Compact().ok());
  }
}

// --- What a delta keeps: summary, fact sets, derivations. -------------------
//
// A delta that only replaces literal values keeps the structural summary and
// the fact-set selection, and every derivation whose sources it did not
// touch is copied from the previous store. Both shortcuts must be invisible:
// after every batch the kept structures equal what a from-scratch build over
// the same graph (same dictionary, so ids compare directly) produces.

/// A linked universe: people work for companies (an IRI-valued reference,
/// so paths derive), carry a one-or-two-valued email (a count source), an
/// English biography (keyword and language sources) and numeric age;
/// companies carry revenue and sector. `award` sits on one rare company that
/// a single person works for: 1 of 40 worksFor values continue with it, under
/// min_path_continuation (0.05), so worksFor/award is not derived.
LSet LinkedUniverse() {
  LSet out;
  const LTerm type = Iri(vocab::kRdfType);
  for (int c = 0; c < 8; ++c) {
    LTerm co = Iri("http://d/co" + std::to_string(c));
    out.insert({co, type, Iri("http://d/Company")});
    out.insert({co, Iri("http://d/revenue"), Num(100 + 10 * c)});
    out.insert({co, Iri("http://d/sector"), Str("s" + std::to_string(c % 3))});
  }
  const LTerm rare = Iri("http://d/co_rare");
  out.insert({rare, type, Iri("http://d/Company")});
  out.insert({rare, Iri("http://d/award"), Str("gold")});
  for (int i = 0; i < 40; ++i) {
    LTerm p = Iri("http://d/person" + std::to_string(i));
    out.insert({p, type, Iri("http://d/Person")});
    out.insert({p, Iri("http://d/worksFor"),
                i == 0 ? rare : Iri("http://d/co" + std::to_string(i % 8))});
    out.insert({p, Iri("http://d/email"), Str("p" + std::to_string(i))});
    out.insert({p, Iri("http://d/bio"),
                Str("The engineer works with the team in city " +
                    std::to_string(i % 3) + " and writes software")});
    out.insert({p, Iri("http://d/age"), Num(20 + i % 30)});
  }
  return out;
}

SpadeOptions SummaryOptions() {
  SpadeOptions o = HarnessOptions();
  o.cfs.summary_based = true;
  return o;
}

/// The summary and fact sets the pipeline holds equal a fresh
/// StructuralSummary::Build and SelectCandidateFactSets over its graph.
::testing::AssertionResult MatchesSelectionOracles(const Spade& spade,
                                                   const Graph& graph,
                                                   const CfsOptions& cfs) {
  const StructuralSummary fresh = StructuralSummary::Build(graph);
  const StructuralSummary& kept = spade.summary();
  if (kept.num_classes() != fresh.num_classes()) {
    return ::testing::AssertionFailure()
           << "summary classes " << kept.num_classes() << " vs "
           << fresh.num_classes();
  }
  auto same = [](Span<TermId> a, Span<TermId> b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  };
  for (size_t c = 0; c < fresh.num_classes(); ++c) {
    if (!same(kept.ClassMembers(c), fresh.ClassMembers(c)) ||
        !same(kept.ClassPropertySpan(c), fresh.ClassPropertySpan(c))) {
      return ::testing::AssertionFailure()
             << "summary class " << c << " differs";
    }
  }
  const std::vector<CandidateFactSet> want =
      SelectCandidateFactSets(graph, &fresh, cfs);
  const std::vector<CandidateFactSet>& got = spade.fact_sets();
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " fact sets vs " << want.size();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    if (got[i].name != want[i].name || got[i].origin != want[i].origin ||
        got[i].members != want[i].members || got[i].type != want[i].type) {
      return ::testing::AssertionFailure()
             << "fact set " << i << ": " << got[i].name << " vs "
             << want[i].name;
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(DeltaShapeTest, ValueOnlyChurnKeepsSummaryAndFactSets) {
  LSet cur = LinkedUniverse();
  Pipeline p = MakePipeline(cur, SummaryOptions());
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->PrepareFactSets().ok());
  const CfsOptions cfs = SummaryOptions().cfs;
  ASSERT_TRUE(MatchesSelectionOracles(*p.spade, *p.graph, cfs));

  // Replace ages and revenues, add a second email to one person and retract
  // the second value again: every (s, p) keeps a value throughout.
  Batch churn;
  for (const LTriple& t : cur) {
    if (t.p.text == "http://d/age" || t.p.text == "http://d/revenue") {
      churn.retracts.push_back(t);
      churn.adds.push_back({t.s, t.p, Num(t.o.num + 7)});
    }
  }
  churn.adds.push_back(
      {Iri("http://d/person3"), Iri("http://d/email"), Str("second")});
  Batch undo;
  undo.retracts.push_back(churn.adds.back());
  for (const Batch& b : {churn, undo}) {
    ApplyToMirror(&cur, b);
    DeltaReport rep;
    ASSERT_TRUE(ApplyBatch(&p, b, &rep).ok());
    EXPECT_TRUE(rep.fact_sets_kept);
    EXPECT_TRUE(MatchesSelectionOracles(*p.spade, *p.graph, cfs));
  }
}

TEST(DeltaShapeTest, EveryShapeChangeReselects) {
  LSet cur = LinkedUniverse();
  Pipeline p = MakePipeline(cur, SummaryOptions());
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->PrepareFactSets().ok());
  const CfsOptions cfs = SummaryOptions().cfs;

  const LTerm p1 = Iri("http://d/person1");
  const LTerm p2 = Iri("http://d/person2");
  std::vector<std::pair<std::string, Batch>> changes(6);
  changes[0].first = "rdf:type add";
  changes[0].second.adds.push_back(
      {p1, Iri(vocab::kRdfType), Iri("http://d/Company")});
  changes[1].first = "IRI-object swap";
  changes[1].second.retracts.push_back(
      {p2, Iri("http://d/worksFor"), Iri("http://d/co2")});
  changes[1].second.adds.push_back(
      {p2, Iri("http://d/worksFor"), Iri("http://d/co_rare")});
  changes[2].first = "last value of an (s, p) retracted";
  changes[2].second.retracts.push_back({p1, Iri("http://d/age"), Num(21)});
  changes[3].first = "new (s, p) on an existing subject";
  changes[3].second.adds.push_back({p1, Iri("http://d/nickname"), Str("x")});
  changes[4].first = "new subject";
  changes[4].second.adds.push_back(
      {Iri("http://d/newcomer"), Iri("http://d/email"), Str("new")});
  changes[5].first = "rdf:type add with a literal object";
  changes[5].second.adds.push_back(
      {p2, Iri(vocab::kRdfType), Str("Contractor")});
  for (const auto& [what, batch] : changes) {
    SCOPED_TRACE(what);
    const ExpectedCounts want = ApplyToMirror(&cur, batch);
    ASSERT_GT(want.added + want.removed, 0u);
    DeltaReport rep;
    ASSERT_TRUE(ApplyBatch(&p, batch, &rep).ok());
    EXPECT_FALSE(rep.fact_sets_kept);
    EXPECT_TRUE(MatchesSelectionOracles(*p.spade, *p.graph, cfs));
  }
}

/// The maintained store and statistics equal a from-scratch
/// BuildDirectAttributes + statistics + DeriveAll over the same graph.
void ExpectStoreMatchesRebuild(const Spade& spade, Graph* graph,
                               const SpadeOptions& options) {
  AttributeStore fresh(graph);
  fresh.BuildDirectAttributes();
  std::vector<AttrStats> stats;
  for (AttrId a = 0; a < fresh.num_attributes(); ++a) {
    stats.push_back(ComputeAttrStats(fresh, a));
  }
  DeriveAll(&fresh, stats, options.derivation);
  for (AttrId a = static_cast<AttrId>(stats.size()); a < fresh.num_attributes();
       ++a) {
    stats.push_back(ComputeAttrStats(fresh, a));
  }
  const AttributeStore& kept = spade.store();
  ASSERT_EQ(kept.num_attributes(), fresh.num_attributes());
  ASSERT_EQ(spade.offline_stats().size(), stats.size());
  for (AttrId a = 0; a < fresh.num_attributes(); ++a) {
    const AttributeTable& k = kept.attribute(a);
    const AttributeTable& f = fresh.attribute(a);
    SCOPED_TRACE(f.name);
    EXPECT_EQ(k.name, f.name);
    EXPECT_EQ(k.origin, f.origin);
    EXPECT_EQ(k.property, f.property);
    EXPECT_EQ(k.derived_from, f.derived_from);
    EXPECT_TRUE(SameColumns(k, f));
    const AttrStats& ks = spade.offline_stats()[a];
    const AttrStats& fs = stats[a];
    EXPECT_EQ(ks.kind, fs.kind);
    EXPECT_EQ(ks.num_subjects, fs.num_subjects);
    EXPECT_EQ(ks.num_values, fs.num_values);
    EXPECT_EQ(ks.num_distinct_values, fs.num_distinct_values);
    EXPECT_EQ(ks.num_multi_subjects, fs.num_multi_subjects);
    EXPECT_EQ(ks.min_value, fs.min_value);
    EXPECT_EQ(ks.max_value, fs.max_value);
    EXPECT_EQ(ks.avg_text_length, fs.avg_text_length);
  }
}

TEST(DeltaDerivationTest, ReusedDerivationsMatchAFullPass) {
  LSet cur = LinkedUniverse();
  SpadeOptions options = HarnessOptions();
  Pipeline p = MakePipeline(cur, options);
  ASSERT_TRUE(p.spade->RunOffline().ok());
  // Each apply replaces the store: look attributes up afresh every time.
  auto has = [&](const std::string& name) {
    return p.spade->store().FindAttribute(name).has_value();
  };
  ASSERT_TRUE(has("worksFor/revenue"));
  ASSERT_FALSE(has("worksFor/award"));
  ASSERT_FALSE(has("count(email)"));
  ASSERT_TRUE(has("kwIn(bio)"));
  ASSERT_TRUE(has("langOf(bio)"));

  const LTerm email = Iri("http://d/email");
  const LTerm bio = Iri("http://d/bio");
  const LTerm works = Iri("http://d/worksFor");
  const LTerm award = Iri("http://d/award");
  const LTerm p5 = Iri("http://d/person5");
  const LTerm co1 = Iri("http://d/co1");
  std::vector<std::pair<std::string, Batch>> batches(8);
  batches[0].first = "count source turns multi-valued";
  batches[0].second.adds.push_back({p5, email, Str("second")});
  batches[1].first = "count source turns single-valued again";
  batches[1].second.retracts.push_back({p5, email, Str("second")});
  batches[2].first = "text source edited";
  batches[2].second.retracts.push_back(
      {p5, bio,
       Str("The engineer works with the team in city 2 and writes software")});
  batches[2].second.adds.push_back(
      {p5, bio,
       Str("Le directeur est dans la ville avec une equipe pour que")});
  batches[3].first = "path p1 touched";
  batches[3].second.retracts.push_back({p5, works, Iri("http://d/co5")});
  batches[3].second.adds.push_back({p5, works, co1});
  batches[4].first = "path p2 touched";
  for (const LTriple& t : cur) {
    if (t.p.text == "http://d/revenue") {
      batches[4].second.retracts.push_back(t);
      batches[4].second.adds.push_back({t.s, t.p, Num(t.o.num * 3)});
    }
  }
  batches[5].first = "pair pushed over min_path_continuation";
  batches[5].second.adds.push_back({co1, award, Str("silver")});
  batches[6].first = "pair pushed back under min_path_continuation";
  batches[6].second.retracts.push_back({co1, award, Str("silver")});
  // award's property id precedes bio's and worksFor's, so their attribute
  // ids shift down while their derivations are copied.
  batches[7].first = "a direct attribute vanishes";
  batches[7].second.retracts.push_back(
      {Iri("http://d/co_rare"), award, Str("gold")});

  for (const auto& [what, batch] : batches) {
    SCOPED_TRACE(what);
    const ExpectedCounts want = ApplyToMirror(&cur, batch);
    ASSERT_GT(want.added + want.removed, 0u);
    DeltaReport rep;
    ASSERT_TRUE(ApplyBatch(&p, batch, &rep).ok());
    EXPECT_GT(rep.num_derived_reused, 0u);
    EXPECT_LE(rep.num_derived_reused, p.spade->report().derivations.total());
    ExpectStoreMatchesRebuild(*p.spade, p.graph.get(), options);
    if (what == batches[0].first) {
      EXPECT_TRUE(has("count(email)"));
    }
    if (what == batches[5].first) {
      EXPECT_TRUE(has("worksFor/award"));
    }
  }
  EXPECT_FALSE(has("count(email)"));
  EXPECT_FALSE(has("award"));
}

TEST(DeltaDerivationTest, NumericChurnReusesEveryDerivationOfOtherSources) {
  LSet cur = LinkedUniverse();
  Pipeline p = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->PrepareFactSets().ok());
  const size_t derived = p.spade->report().derivations.total();
  ASSERT_GT(derived, 1u);

  // Churn every company revenue: of the derived attributes only the path
  // worksFor/revenue reads it; all the others are copied.
  Batch b;
  for (const LTriple& t : cur) {
    if (t.p.text == "http://d/revenue") {
      b.retracts.push_back(t);
      b.adds.push_back({t.s, t.p, Num(t.o.num + 1)});
    }
  }
  ApplyToMirror(&cur, b);
  DeltaReport rep;
  ASSERT_TRUE(ApplyBatch(&p, b, &rep).ok());
  EXPECT_TRUE(rep.fact_sets_kept);
  EXPECT_EQ(rep.num_derived_reused, derived - 1);
  EXPECT_EQ(rep.num_attrs_changed, 2u);  // revenue and worksFor/revenue
  ExpectStoreMatchesRebuild(*p.spade, p.graph.get(), HarnessOptions());
}

TEST(DeltaDerivationTest, FirstDeltaAfterASnapshotAttachDerivesEverything) {
  // A snapshot does not record the options its derivations ran under, so
  // the first delta after an attach cannot trust them; the next one can.
  LSet cur = LinkedUniverse();
  Pipeline built = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(built.spade->RunOffline().ok());
  const std::string path = ::testing::TempDir() + "delta_derive_attach.snap";
  ASSERT_TRUE(built.spade->SaveStore(path).ok());

  Graph g;
  SpadeOptions o = HarnessOptions();
  o.load_store = path;
  Spade spade(&g, o);
  ASSERT_TRUE(spade.RunOffline().ok());
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<Triple> adds, rets;
    for (const LTriple& t : cur) {
      if (t.p.text == "http://d/age" && t.s.text == "http://d/person7") {
        rets.push_back(Encode(&g, t));
        LTriple repl{t.s, t.p, Num(t.o.num + 1 + round)};
        adds.push_back(Encode(&g, repl));
        cur.erase(t);
        cur.insert(repl);
        break;
      }
    }
    ASSERT_EQ(adds.size(), 1u);
    VectorChunkSource add_src({std::move(adds)});
    VectorChunkSource ret_src({std::move(rets)});
    DeltaReport rep;
    ASSERT_TRUE(spade.ApplyDelta(&add_src, &ret_src, &rep).ok());
    EXPECT_EQ(rep.num_derived_reused,
              round == 0 ? 0u : spade.report().derivations.total());
    ExpectStoreMatchesRebuild(spade, &g, o);
  }
  std::remove(path.c_str());
}

// --- Compaction oracle. -----------------------------------------------------

TEST(DeltaCompactionTest, CompactIsByteIdenticalToCanonicalFreshBuild) {
  Rng rng(HarnessSeed() ^ 0x9E3779B9u);
  LSet cur = InitialUniverse(&rng);
  Pipeline p = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->RunOnline().ok());
  for (int bi = 0; bi < 2; ++bi) {
    Batch b = MakeBatch(cur, bi, &rng);
    ApplyToMirror(&cur, b);
    DeltaReport rep;
    ASSERT_TRUE(ApplyBatch(&p, b, &rep).ok());
  }
  ASSERT_TRUE(p.spade->Compact().ok());
  const std::string compacted = ::testing::TempDir() + "delta_compacted.snap";
  ASSERT_TRUE(p.spade->SaveStore(compacted).ok());

  // The oracle: canonicalize a fresh graph of the final triple set with the
  // SAME helpers Compact uses, run the sequential offline build, save. Both
  // sides re-intern the identical canonical triple sequence, so the files
  // must match byte for byte.
  std::unique_ptr<Graph> fresh_src = BuildGraph(cur);
  auto canon = std::make_unique<Graph>();
  BuildCanonicalGraph(ExtractCanonicalTriples(*fresh_src), canon.get());
  Spade fresh(canon.get(), HarnessOptions());
  ASSERT_TRUE(fresh.RunOffline().ok());
  ASSERT_TRUE(fresh.PrepareFactSets().ok());
  const std::string rebuilt = ::testing::TempDir() + "delta_fresh.snap";
  ASSERT_TRUE(fresh.SaveStore(rebuilt).ok());

  // Segment-for-segment: same TOC shape, same per-segment checksums.
  persist::SnapshotReader ra, rb;
  ASSERT_TRUE(ra.Open(compacted).ok());
  ASSERT_TRUE(rb.Open(rebuilt).ok());
  ASSERT_EQ(ra.toc().size(), rb.toc().size());
  for (size_t i = 0; i < ra.toc().size(); ++i) {
    const persist::SegmentEntry& ea = ra.toc()[i];
    const persist::SegmentEntry& eb = rb.toc()[i];
    EXPECT_EQ(ea.kind, eb.kind) << "segment " << i;
    EXPECT_EQ(ea.aux, eb.aux) << "segment " << i;
    EXPECT_EQ(ea.length, eb.length) << "segment " << i;
    EXPECT_EQ(ea.checksum, eb.checksum) << "segment " << i;
  }

  // And byte-for-byte over the whole file.
  std::ifstream fa(compacted, std::ios::binary);
  std::ifstream fb(rebuilt, std::ios::binary);
  ASSERT_TRUE(fa && fb);
  std::string ba((std::istreambuf_iterator<char>(fa)),
                 std::istreambuf_iterator<char>());
  std::string bb((std::istreambuf_iterator<char>(fb)),
                 std::istreambuf_iterator<char>());
  ASSERT_EQ(ba.size(), bb.size());
  EXPECT_TRUE(ba == bb) << "snapshot bytes differ";

  std::remove(compacted.c_str());
  std::remove(rebuilt.c_str());
}

TEST(DeltaCompactionTest, SnapshotsBeforeAndAfterCompactionLoadToSameInsights) {
  Rng rng(HarnessSeed() ^ 0x5bd1e995u);
  LSet cur = InitialUniverse(&rng);
  Pipeline p = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->RunOnline().ok());
  Batch b = MakeBatch(cur, 0, &rng);
  ApplyToMirror(&cur, b);
  DeltaReport rep;
  ASSERT_TRUE(ApplyBatch(&p, b, &rep).ok());
  ASSERT_TRUE(p.spade->RunOnline().ok());

  const std::string pre = ::testing::TempDir() + "delta_pre_compact.snap";
  const std::string post = ::testing::TempDir() + "delta_post_compact.snap";
  ASSERT_TRUE(p.spade->SaveStore(pre).ok());
  ASSERT_TRUE(p.spade->Compact().ok());
  ASSERT_TRUE(p.spade->SaveStore(post).ok());

  // Pre-compaction snapshots carry the retired terms of the delta history,
  // post-compaction ones don't — but both must load to the same insights.
  auto load_and_dump = [](const std::string& path, CanonArm* out) {
    Graph g;
    SpadeOptions o = HarnessOptions();
    o.load_store = path;
    Spade spade(&g, std::move(o));
    ASSERT_TRUE(spade.RunOffline().ok());
    ASSERT_TRUE(spade.RunOnline().ok());
    *out = DumpArm(spade, g);
  };
  CanonArm arm_pre, arm_post;
  load_and_dump(pre, &arm_pre);
  load_and_dump(post, &arm_post);
  EXPECT_TRUE(SameCanonArm(arm_pre, arm_post));

  std::remove(pre.c_str());
  std::remove(post.c_str());
}

// --- Failpoints: a failed mutation must leave the store readable. -----------

TEST(DeltaFailpointTest, ApplyFailureLeavesPipelineUntouchedAndReadable) {
  if (!fail::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  fail::Reset();
  Rng rng(17);
  LSet cur = InitialUniverse(&rng);
  SpadeOptions o = HarnessOptions();
  o.enable_incremental = true;
  Pipeline p = MakePipeline(cur, std::move(o));
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->RunOnline().ok());
  const CanonArm before = DumpArm(*p.spade, *p.graph);
  const size_t triples_before = p.graph->NumTriples();

  ASSERT_TRUE(fail::Configure("delta.apply=error").ok());
  Batch b = MakeBatch(cur, 0, &rng);
  DeltaReport rep;
  EXPECT_FALSE(ApplyBatch(&p, b, &rep).ok());
  fail::Reset();

  // Nothing committed: same triple count, same results, cache intact.
  EXPECT_EQ(p.spade->num_deltas_applied(), 0u);
  EXPECT_EQ(p.graph->NumTriples(), triples_before);
  EXPECT_TRUE(SameCanonArm(DumpArm(*p.spade, *p.graph), before));
  EXPECT_EQ(p.spade->num_cached_cfs(), p.spade->fact_sets().size());

  // The same batch applies cleanly once the failpoint is gone, and the
  // result matches a fresh build of the mutated set.
  ApplyToMirror(&cur, b);
  ASSERT_TRUE(ApplyBatch(&p, b, &rep).ok());
  ASSERT_TRUE(p.spade->RunOnline().ok());
  Pipeline fresh = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(fresh.spade->RunOffline().ok());
  ASSERT_TRUE(fresh.spade->RunOnline().ok());
  EXPECT_TRUE(SameCanonArm(DumpArm(*p.spade, *p.graph),
                           DumpArm(*fresh.spade, *fresh.graph)));
}

TEST(DeltaFailpointTest, CompactFailureLeavesPipelineUntouchedAndReadable) {
  if (!fail::Enabled()) GTEST_SKIP() << "failpoints compiled out";
  fail::Reset();
  Rng rng(19);
  LSet cur = InitialUniverse(&rng);
  Pipeline p = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->RunOnline().ok());
  const CanonArm before = DumpArm(*p.spade, *p.graph);

  ASSERT_TRUE(fail::Configure("delta.compact=error").ok());
  EXPECT_FALSE(p.spade->Compact().ok());
  fail::Reset();

  EXPECT_EQ(p.graph->NumTriples(), cur.size());
  EXPECT_TRUE(SameCanonArm(DumpArm(*p.spade, *p.graph), before));

  // And compaction succeeds afterwards.
  ASSERT_TRUE(p.spade->Compact().ok());
  ASSERT_TRUE(p.spade->RunOnline().ok());
  EXPECT_TRUE(SameCanonArm(DumpArm(*p.spade, *p.graph), before));
}

// --- Serve-mode mutation under concurrent explores. -------------------------

/// Render a logical triple as one N-Triples line (IRI / plain-string objects
/// only — the serve tests keep numbers out of mutation files so term identity
/// never depends on numeric lexical forms).
std::string ToNTriples(const std::vector<LTriple>& triples) {
  std::ostringstream out;
  for (const LTriple& t : triples) {
    out << "<" << t.s.text << "> <" << t.p.text << "> ";
    if (t.o.k == LTerm::K::kIri) {
      out << "<" << t.o.text << ">";
    } else {
      out << "\"" << t.o.text << "\"";
    }
    out << " .\n";
  }
  return out.str();
}

TEST(DeltaServeTest, ApplyAndCompactInterleavedWithConcurrentExplores) {
  Rng rng(23);
  LSet cur = InitialUniverse(&rng);
  SpadeOptions o = HarnessOptions();
  o.enable_incremental = true;
  Pipeline p = MakePipeline(cur, std::move(o));
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->PrepareFactSets().ok());

  // Mutation files: string-valued churn on existing facts plus one new fact.
  std::vector<LTriple> adds, rets;
  int i = 0;
  for (const LTriple& t : cur) {
    if (t.p.text != "http://d/color") continue;
    if (++i > 4) break;
    rets.push_back(t);
    adds.push_back({t.s, t.p, Str("served-" + std::to_string(i))});
  }
  LTerm nf = Iri("http://d/served_fact");
  adds.push_back({nf, Iri(vocab::kRdfType), Iri("http://d/T0")});
  adds.push_back({nf, Iri("http://d/color"), Str("served-0")});
  const std::string add_path = ::testing::TempDir() + "delta_serve_add.nt";
  const std::string ret_path = ::testing::TempDir() + "delta_serve_ret.nt";
  {
    std::ofstream(add_path) << ToNTriples(adds);
    std::ofstream(ret_path) << ToNTriples(rets);
  }

  // Many concurrent explores interleaved with mutations; the writer lock
  // serializes apply/compact against the reads, so every request succeeds
  // and the response stream is deterministic in shape (run under TSan in CI
  // to prove the locking).
  std::ostringstream script;
  for (int r = 0; r < 4; ++r) script << "explore top=3\n";
  script << "apply add=" << add_path << " retract=" << ret_path << "\n";
  for (int r = 0; r < 4; ++r) script << "explore top=3\n";
  script << "stats\n";
  script << "compact\n";
  for (int r = 0; r < 4; ++r) script << "explore top=3\n";
  script << "quit\n";

  persist::ServeOptions sopt;
  sopt.num_threads = 4;
  sopt.max_inflight = 8;
  persist::InsightServer server(p.spade.get(), sopt);
  std::istringstream in(script.str());
  std::ostringstream out;
  persist::ServeStats stats = server.Serve(in, out);
  const std::string text = out.str();
  EXPECT_EQ(stats.num_errors, 0u) << text;
  EXPECT_EQ(stats.num_requests, 15u);
  // 4 replacement color triples + 2 triples of the new fact.
  EXPECT_NE(text.find("ok added=6 removed=4"), std::string::npos) << text;
  EXPECT_NE(text.find("cfs_reused="), std::string::npos) << text;
  EXPECT_NE(text.find("ok triples="), std::string::npos) << text;  // compact
  EXPECT_EQ(text.find("error:"), std::string::npos) << text;
  EXPECT_EQ(p.spade->num_deltas_applied(), 1u);

  std::remove(add_path.c_str());
  std::remove(ret_path.c_str());
}

TEST(DeltaServeTest, ReadOnlyServersRefuseMutation) {
  Rng rng(29);
  LSet cur = InitialUniverse(&rng);
  Pipeline p = MakePipeline(cur, HarnessOptions());
  ASSERT_TRUE(p.spade->RunOffline().ok());
  ASSERT_TRUE(p.spade->PrepareFactSets().ok());

  auto run = [&](persist::InsightServer& server, const std::string& line) {
    std::istringstream in(line + "\nquit\n");
    std::ostringstream out;
    server.Serve(in, out);
    return out.str();
  };

  {
    // Const pipeline: implicitly read-only.
    const Spade* const_spade = p.spade.get();
    persist::InsightServer server(const_spade, persist::ServeOptions());
    EXPECT_NE(run(server, "compact").find("error: server is read-only"),
              std::string::npos);
  }
  {
    // Mutable pipeline, but --read-only.
    persist::ServeOptions sopt;
    sopt.read_only = true;
    persist::InsightServer server(p.spade.get(), sopt);
    EXPECT_NE(run(server, "apply add=/nope.nt").find("error: server is read-only"),
              std::string::npos);
  }
  {
    // Mutable server: bad arguments are per-request errors, not crashes.
    persist::InsightServer server(p.spade.get(), persist::ServeOptions());
    EXPECT_NE(run(server, "apply").find("error: apply needs"),
              std::string::npos);
    EXPECT_NE(run(server, "apply frob=1").find("error: unknown key"),
              std::string::npos);
    EXPECT_NE(run(server, "apply add=/no/such/file.nt").find("error: cannot open"),
              std::string::npos);
    EXPECT_NE(run(server, "compact now").find("error: compact takes no"),
              std::string::npos);
  }
  EXPECT_EQ(p.spade->num_deltas_applied(), 0u);
}

}  // namespace
}  // namespace spade
