#include "src/core/spade.h"

#include <gtest/gtest.h>

#include "src/datagen/realworld.h"
#include "src/datagen/synthetic.h"
#include "src/sparql/eval.h"
#include "src/sparql/parser.h"

namespace spade {
namespace {

SpadeOptions SmallOptions() {
  SpadeOptions options;
  options.cfs.min_size = 20;
  options.enumeration.max_dims = 3;
  options.enumeration.max_lattices_per_cfs = 8;
  options.enumeration.max_measures_per_lattice = 3;
  options.top_k = 5;
  return options;
}

TEST(SpadeTest, EndToEndOnCeos) {
  auto graph = GenerateCeos(42, 0.25);
  Spade spade(graph.get(), SmallOptions());
  ASSERT_TRUE(spade.RunOffline().ok());
  auto insights = spade.RunOnline();
  ASSERT_TRUE(insights.ok()) << insights.status().ToString();
  EXPECT_FALSE(insights->empty());
  EXPECT_LE(insights->size(), 5u);
  // Scores descending.
  for (size_t i = 1; i < insights->size(); ++i) {
    EXPECT_GE((*insights)[i - 1].ranked.score, (*insights)[i].ranked.score);
  }
  // Every insight names its CFS, description, and SPARQL.
  for (const auto& insight : *insights) {
    EXPECT_FALSE(insight.cfs_name.empty());
    EXPECT_FALSE(insight.description.empty());
    EXPECT_NE(insight.sparql.find("SELECT"), std::string::npos);
    EXPECT_GE(insight.ranked.num_groups, 2u);
  }
  const SpadeReport& report = spade.report();
  EXPECT_GT(report.num_triples, 5000u);
  EXPECT_GT(report.num_cfs, 1u);
  EXPECT_GT(report.num_direct_properties, 10u);
  EXPECT_GT(report.derivations.total(), 0u);
  EXPECT_GT(report.num_candidate_aggregates, 0u);
  EXPECT_GT(report.num_evaluated_aggregates, 0u);
}

TEST(SpadeTest, OnlineRequiresOffline) {
  auto graph = GenerateCeos(42, 0.1);
  Spade spade(graph.get(), SmallOptions());
  auto insights = spade.RunOnline();
  EXPECT_FALSE(insights.ok());
}

TEST(SpadeTest, DerivationsWidenTheSearchSpace) {
  // Experiment 1 in miniature: wD must enumerate at least as many MDAs and
  // its best score must be >= the woD best score.
  auto graph_wo = GenerateNasa(42, 0.3);
  SpadeOptions wo = SmallOptions();
  wo.enable_derivations = false;
  Spade spade_wo(graph_wo.get(), wo);
  ASSERT_TRUE(spade_wo.RunOffline().ok());
  ASSERT_TRUE(spade_wo.RunOnline().ok());

  auto graph_w = GenerateNasa(42, 0.3);
  SpadeOptions w = SmallOptions();
  w.enable_derivations = true;
  Spade spade_w(graph_w.get(), w);
  ASSERT_TRUE(spade_w.RunOffline().ok());
  ASSERT_TRUE(spade_w.RunOnline().ok());

  EXPECT_GE(spade_w.report().num_candidate_aggregates,
            spade_wo.report().num_candidate_aggregates);
  EXPECT_GT(spade_w.report().derivations.total(), 0u);
  EXPECT_EQ(spade_wo.report().derivations.total(), 0u);
}

TEST(SpadeTest, AlgorithmsAgreeOnSingleValuedData) {
  // On relational-shaped data, MVDCube and both PGCube variants must produce
  // identical top-k lists (PGCube is correct there — Section 6.5 setting).
  SyntheticOptions sopts;
  sopts.num_facts = 3000;
  sopts.dim_cardinality = {20, 10};
  sopts.num_measures = 2;
  auto run = [&](EvalAlgorithm algo) {
    auto graph = GenerateSynthetic(sopts);
    SpadeOptions options = SmallOptions();
    options.algorithm = algo;
    Spade spade(graph.get(), options);
    EXPECT_TRUE(spade.RunOffline().ok());
    auto insights = spade.RunOnline();
    EXPECT_TRUE(insights.ok());
    return *insights;
  };
  auto mvd = run(EvalAlgorithm::kMvdCube);
  auto pg_star = run(EvalAlgorithm::kPgCubeStar);
  auto pg_d = run(EvalAlgorithm::kPgCubeDistinct);
  ASSERT_EQ(mvd.size(), pg_star.size());
  ASSERT_EQ(mvd.size(), pg_d.size());
  for (size_t i = 0; i < mvd.size(); ++i) {
    EXPECT_TRUE(mvd[i].ranked.key == pg_star[i].ranked.key) << i;
    EXPECT_NEAR(mvd[i].ranked.score, pg_star[i].ranked.score,
                1e-6 * std::max(1.0, mvd[i].ranked.score));
    EXPECT_TRUE(mvd[i].ranked.key == pg_d[i].ranked.key) << i;
  }
}

TEST(SpadeTest, EarlyStopKeepsTopKAccurate) {
  auto graph = GenerateNasa(7, 0.3);
  SpadeOptions base = SmallOptions();
  Spade full(graph.get(), base);
  ASSERT_TRUE(full.RunOffline().ok());
  auto full_insights = full.RunOnline();
  ASSERT_TRUE(full_insights.ok());

  auto graph2 = GenerateNasa(7, 0.3);
  SpadeOptions es = SmallOptions();
  es.enable_earlystop = true;
  es.earlystop.sample_size = 60;
  es.earlystop.num_batches = 2;
  Spade pruned(graph2.get(), es);
  ASSERT_TRUE(pruned.RunOffline().ok());
  auto es_insights = pruned.RunOnline();
  ASSERT_TRUE(es_insights.ok());

  // Accuracy as in Table 4: |top_full ∩ top_es| / |top_full|, on keys.
  size_t hits = 0;
  for (const auto& a : *full_insights) {
    for (const auto& b : *es_insights) {
      if (a.ranked.key == b.ranked.key) {
        ++hits;
        break;
      }
    }
  }
  double accuracy =
      full_insights->empty()
          ? 1.0
          : static_cast<double>(hits) / static_cast<double>(full_insights->size());
  EXPECT_GE(accuracy, 0.6);
  EXPECT_GT(pruned.report().num_pruned_aggregates, 0u);
}

TEST(SpadeTest, SparqlEmissionRunsOnTheGraph) {
  // Cross-validation: for an insight whose dimensions are direct or path
  // attributes, the emitted SPARQL must parse and evaluate on the original
  // graph, with the same number of groups as the ARM recorded (when all
  // groups were stored).
  auto graph = GenerateNobel(11, 0.3);
  SpadeOptions options = SmallOptions();
  options.max_stored_groups = 100000;
  Spade spade(graph.get(), options);
  ASSERT_TRUE(spade.RunOffline().ok());
  auto insights = spade.RunOnline();
  ASSERT_TRUE(insights.ok());

  size_t validated = 0;
  for (const auto& insight : *insights) {
    if (insight.sparql.find("spade:derived") != std::string::npos) continue;
    if (insight.ranked.key.measure.is_count_star()) continue;  // join semantics differ
    // Only validate single-dimension direct attributes: for those the SPARQL
    // group-by semantics coincides with the MDA semantics exactly.
    if (insight.ranked.key.dims.size() != 1) continue;
    const auto& table = spade.store().attribute(insight.ranked.key.dims[0]);
    if (table.origin != AttrOrigin::kDirect) continue;
    auto query = sparql::ParseQuery(insight.sparql, &graph->dict());
    ASSERT_TRUE(query.ok()) << insight.sparql << "\n"
                            << query.status().ToString();
    auto rs = sparql::Evaluate(*query, *graph);
    ASSERT_TRUE(rs.ok());
    EXPECT_EQ(rs->rows.size(), insight.ranked.num_groups) << insight.sparql;
    ++validated;
  }
  // Some insight has a single direct dimension and a real measure, so the
  // SPARQL side actually ran for it.
  EXPECT_FALSE(insights->empty());
  EXPECT_GT(validated, 0u);
}

/// The full ranked stream of `insights`: key, score, group count, and every
/// stored group's dimension values and value, must match `expected`.
void ExpectSameRanked(const std::vector<Insight>& expected,
                      const std::vector<Insight>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    const Arm::Ranked& e = expected[i].ranked;
    const Arm::Ranked& a = actual[i].ranked;
    EXPECT_TRUE(e.key == a.key) << "rank " << i;
    EXPECT_EQ(e.score, a.score) << "rank " << i;
    EXPECT_EQ(e.num_groups, a.num_groups) << "rank " << i;
    ASSERT_EQ(e.groups.size(), a.groups.size()) << "rank " << i;
    for (size_t g = 0; g < e.groups.size(); ++g) {
      EXPECT_EQ(e.groups[g].dim_values, a.groups[g].dim_values)
          << "rank " << i << " group " << g;
      EXPECT_EQ(e.groups[g].value, a.groups[g].value)
          << "rank " << i << " group " << g;
    }
  }
}

TEST(SpadeTest, ExploreOverAllFactSetsEqualsRunOnline) {
  // RunOnline() is Explore() over every fact set with the pipeline's own
  // options: the two must rank the same stream at every thread count, shard
  // count and early-stop setting.
  auto graph = GenerateCeos(42, 0.2);
  for (size_t threads : {1u, 4u}) {
    for (size_t shards : {1u, 4u}) {
      for (bool earlystop : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards) +
                     " earlystop=" + std::to_string(earlystop));
        SpadeOptions options = SmallOptions();
        options.num_threads = threads;
        options.num_shards = shards;
        options.enable_earlystop = earlystop;
        Spade spade(graph.get(), options);
        ASSERT_TRUE(spade.RunOffline().ok());
        auto online = spade.RunOnline();
        ASSERT_TRUE(online.ok()) << online.status().ToString();
        ASSERT_FALSE(online->empty());

        OwnedScheduler scheduler(threads);
        auto explored = spade.Explore(ExploreRequest{}, scheduler.get());
        ASSERT_TRUE(explored.ok()) << explored.status().ToString();
        EXPECT_EQ(explored->num_cfs_explored, spade.fact_sets().size());
        EXPECT_EQ(explored->num_cfs_completed, spade.report().num_cfs_completed);
        EXPECT_FALSE(explored->truncated);
        ExpectSameRanked(*online, explored->insights);
      }
    }
  }
}

TEST(SpadeTest, RepeatedRunOnlineReportsTheLastRun) {
  // report() describes the last RunOnline(), not the sum of all of them;
  // with the incremental cache on, the second run replays every CFS.
  auto graph = GenerateCeos(42, 0.2);
  for (bool incremental : {false, true}) {
    SCOPED_TRACE(incremental ? "incremental" : "plain");
    SpadeOptions options = SmallOptions();
    options.num_threads = 2;
    options.enable_incremental = incremental;
    Spade spade(graph.get(), options);
    ASSERT_TRUE(spade.RunOffline().ok());
    auto first = spade.RunOnline();
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const SpadeReport once = spade.report();
    const size_t once_aggregates = spade.arm().num_aggregates();
    auto second = spade.RunOnline();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
    const SpadeReport& twice = spade.report();

    ExpectSameRanked(*first, *second);
    EXPECT_GT(once.num_evaluated_aggregates, 0u);
    EXPECT_EQ(once.num_lattices, twice.num_lattices);
    EXPECT_EQ(once.num_candidate_aggregates, twice.num_candidate_aggregates);
    EXPECT_EQ(once.num_evaluated_aggregates, twice.num_evaluated_aggregates);
    EXPECT_EQ(once.num_reused_aggregates, twice.num_reused_aggregates);
    EXPECT_EQ(once.num_pruned_aggregates, twice.num_pruned_aggregates);
    EXPECT_EQ(once.num_groups_emitted, twice.num_groups_emitted);
    EXPECT_EQ(once.num_groups_skipped, twice.num_groups_skipped);
    EXPECT_EQ(once.num_cfs_completed, twice.num_cfs_completed);
    EXPECT_EQ(once.shard_fact_counts, twice.shard_fact_counts);
    EXPECT_EQ(spade.arm().num_aggregates(), once_aggregates);
    EXPECT_EQ(once.num_cfs_reused, 0u);
    EXPECT_EQ(twice.num_cfs_reused, incremental ? twice.num_cfs : 0u);
  }
}

TEST(SpadeTest, TimingsAreAccounted) {
  auto graph = GenerateFoodista(42, 0.2);
  Spade spade(graph.get(), SmallOptions());
  ASSERT_TRUE(spade.RunOffline().ok());
  ASSERT_TRUE(spade.RunOnline().ok());
  const SpadeTimings& t = spade.report().timings;
  EXPECT_GT(t.OfflineTotal(), 0.0);
  EXPECT_GT(t.OnlineTotal(), 0.0);
  EXPECT_GE(t.evaluation_ms, 0.0);
}

TEST(SpadeTest, SaturationExpandsTypes) {
  auto graph = std::make_unique<Graph>();
  Dictionary& d = graph->dict();
  TermId ceo = d.InternIri("CEO");
  TermId person = d.InternIri("Person");
  graph->Add(ceo, d.InternIri(vocab::kRdfsSubClassOf), person);
  for (int i = 0; i < 30; ++i) {
    TermId f = d.InternIri("x" + std::to_string(i));
    graph->Add(f, graph->rdf_type(), ceo);
    graph->Add(f, d.InternIri("age"), d.InternInteger(30 + i % 20));
    graph->Add(f, d.InternIri("city"), d.InternString("C" + std::to_string(i % 3)));
  }
  graph->Freeze();
  SpadeOptions options = SmallOptions();
  options.saturate = true;
  Spade spade(graph.get(), options);
  ASSERT_TRUE(spade.RunOffline().ok());
  ASSERT_TRUE(spade.RunOnline().ok());
  // Saturation materialized (x, rdf:type, Person) for every CEO.
  EXPECT_TRUE(graph->Contains(d.InternIri("x0"), graph->rdf_type(), person));
  // The Person and CEO fact sets have identical members, so CFS selection
  // dedups them into a single set of all 30 facts.
  bool ceo_cfs = false;
  for (const auto& cfs : spade.fact_sets()) {
    if (cfs.members.size() == 30) ceo_cfs = true;
  }
  EXPECT_TRUE(ceo_cfs);
}

}  // namespace
}  // namespace spade

namespace spade {
namespace {

TEST(SpadeCfsTest, PropertyBasedSelection) {
  auto graph = GenerateCeos(42, 0.25);
  SpadeOptions options = SmallOptions();
  // Property-based CFS: all nodes with both netWorth and age.
  TermId nw = graph->dict().InternIri("http://data.spade/ceos/netWorth");
  TermId age = graph->dict().InternIri("http://data.spade/ceos/age");
  options.cfs.property_sets = {{nw, age}};
  options.cfs.type_based = false;
  options.cfs.summary_based = false;
  Spade spade(graph.get(), options);
  ASSERT_TRUE(spade.RunOffline().ok());
  ASSERT_TRUE(spade.RunOnline().ok());
  ASSERT_EQ(spade.fact_sets().size(), 1u);
  EXPECT_EQ(spade.fact_sets()[0].origin, CandidateFactSet::Origin::kProperty);
  // Every member has both properties.
  for (TermId m : spade.fact_sets()[0].members) {
    EXPECT_FALSE(graph->Objects(m, nw).empty());
    EXPECT_FALSE(graph->Objects(m, age).empty());
  }
}

TEST(SpadeCfsTest, EmptyGraphYieldsNoInsights) {
  Graph g;
  g.dict().InternIri("lonely");
  g.Freeze();
  Spade spade(&g, SmallOptions());
  ASSERT_TRUE(spade.RunOffline().ok());
  auto insights = spade.RunOnline();
  ASSERT_TRUE(insights.ok());
  EXPECT_TRUE(insights->empty());
  EXPECT_EQ(spade.report().num_cfs, 0u);
}

TEST(SpadeCfsTest, LiteralOnlyGraphYieldsNoInsights) {
  Graph g;
  Dictionary& d = g.dict();
  // A handful of facts below every support threshold.
  for (int i = 0; i < 5; ++i) {
    g.Add(d.InternIri("s" + std::to_string(i)), d.InternIri("p"),
          d.InternString("v"));
  }
  g.Freeze();
  Spade spade(&g, SmallOptions());
  ASSERT_TRUE(spade.RunOffline().ok());
  auto insights = spade.RunOnline();
  ASSERT_TRUE(insights.ok());
  EXPECT_TRUE(insights->empty());
}

TEST(SpadeCfsTest, PgCubeAlgorithmNamesExposed) {
  EXPECT_STREQ(EvalAlgorithmName(EvalAlgorithm::kMvdCube), "MVDCube");
  EXPECT_STREQ(EvalAlgorithmName(EvalAlgorithm::kPgCubeStar), "PGCube*");
  EXPECT_STREQ(EvalAlgorithmName(EvalAlgorithm::kPgCubeDistinct), "PGCube_d");
}

}  // namespace
}  // namespace spade
