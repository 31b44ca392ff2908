// Tests of the persistence layer: snapshot save/load round-trips, the
// corrupted/foreign-file error paths, and the load-time contract the serve
// mode stands on — a loaded store is semantically identical to a freshly
// ingested one at every thread/shard/simd configuration.

#include "src/persist/snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/spade.h"
#include "src/datagen/synthetic.h"
#include "src/exec/cube_evaluator.h"
#include "src/persist/serve.h"
#include "src/simd/measure_fold.h"

namespace spade {
namespace {

SyntheticOptions SmallCorpus() {
  SyntheticOptions sopts;
  sopts.num_facts = 3000;
  sopts.dim_cardinality.assign(3, 20);
  sopts.num_measures = 3;
  sopts.num_fact_types = 3;
  return sopts;
}

SpadeOptions BaseOptions() {
  SpadeOptions options;
  options.cfs.min_size = 20;
  options.enumeration.max_dims = 3;
  options.enumeration.max_lattices_per_cfs = 8;
  options.enumeration.max_measures_per_lattice = 3;
  options.top_k = 8;
  return options;
}

std::string SnapPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Order-insensitive content fingerprint of a sealed store (same shape as
/// the one bench_ingest prints): equal sealed stores => equal sums.
uint64_t StoreChecksum(const AttributeStore& store) {
  uint64_t sum = store.num_attributes();
  for (AttrId a = 0; a < store.num_attributes(); ++a) {
    const AttributeTable& t = store.attribute(a);
    sum = sum * 1000003 + t.num_rows();
    for (TermId s : t.subjects()) sum += s;
    for (TermId o : t.objects()) sum += 31 * static_cast<uint64_t>(o);
  }
  return sum;
}

/// Build the full offline state from a synthetic graph and save it.
/// `with_fact_sets` controls whether step 1 runs before the save.
void BuildAndSave(const std::string& path, bool with_fact_sets,
                  SpadeOptions options = BaseOptions()) {
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade spade(graph.get(), options);
  ASSERT_TRUE(spade.RunOffline().ok());
  if (with_fact_sets) {
    ASSERT_TRUE(spade.PrepareFactSets().ok());
  }
  ASSERT_TRUE(spade.SaveStore(path).ok()) << path;
}

struct RunOutcome {
  std::vector<Insight> insights;
  SpadeReport report;
  uint64_t store_checksum = 0;
};

/// Full pipeline on a freshly generated graph (the ingested baseline).
RunOutcome RunIngested(SpadeOptions options) {
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade spade(graph.get(), options);
  EXPECT_TRUE(spade.RunOffline().ok());
  auto insights = spade.RunOnline();
  EXPECT_TRUE(insights.ok()) << insights.status().ToString();
  return RunOutcome{std::move(*insights), spade.report(),
                    StoreChecksum(spade.store())};
}

/// Full pipeline with the offline state attached from a snapshot.
RunOutcome RunLoaded(const std::string& path, SpadeOptions options) {
  options.load_store = path;
  Graph graph;
  Spade spade(&graph, options);
  EXPECT_TRUE(spade.RunOffline().ok());
  auto insights = spade.RunOnline();
  EXPECT_TRUE(insights.ok()) << insights.status().ToString();
  return RunOutcome{std::move(*insights), spade.report(),
                    StoreChecksum(spade.store())};
}

/// Bit-identical comparison: same keys, exact scores, same groups, same
/// pipeline counters. Mirrors the exec_test determinism contract.
void ExpectIdentical(const RunOutcome& a, const RunOutcome& b) {
  EXPECT_EQ(a.store_checksum, b.store_checksum);
  EXPECT_EQ(a.report.num_cfs, b.report.num_cfs);
  EXPECT_EQ(a.report.num_lattices, b.report.num_lattices);
  EXPECT_EQ(a.report.num_candidate_aggregates,
            b.report.num_candidate_aggregates);
  ASSERT_EQ(a.insights.size(), b.insights.size());
  for (size_t i = 0; i < a.insights.size(); ++i) {
    const Arm::Ranked& x = a.insights[i].ranked;
    const Arm::Ranked& y = b.insights[i].ranked;
    EXPECT_TRUE(x.key == y.key) << "insight " << i;
    EXPECT_EQ(x.score, y.score) << "insight " << i;  // exact, not approximate
    EXPECT_EQ(x.num_groups, y.num_groups) << "insight " << i;
    EXPECT_EQ(a.insights[i].cfs_name, b.insights[i].cfs_name);
    EXPECT_EQ(a.insights[i].description, b.insights[i].description);
    EXPECT_EQ(a.insights[i].sparql, b.insights[i].sparql);
  }
}

// --- Round-trip identity ---------------------------------------------------

TEST(SnapshotTest, RoundTripRestoresTheOfflineState) {
  const std::string path = SnapPath("roundtrip.snap");
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade built(graph.get(), BaseOptions());
  ASSERT_TRUE(built.RunOffline().ok());
  ASSERT_TRUE(built.PrepareFactSets().ok());
  ASSERT_TRUE(built.SaveStore(path).ok());

  SpadeOptions options = BaseOptions();
  options.load_store = path;
  Graph loaded_graph;
  Spade loaded(&loaded_graph, options);
  ASSERT_TRUE(loaded.RunOffline().ok());

  // Store columns, triples and dictionary match exactly.
  EXPECT_EQ(StoreChecksum(built.store()), StoreChecksum(loaded.store()));
  EXPECT_EQ(graph->NumTriples(), loaded_graph.NumTriples());
  const Dictionary& d0 = graph->dict();
  const Dictionary& d1 = loaded_graph.dict();
  ASSERT_EQ(d0.size(), d1.size());
  for (TermId id = 1; id < d0.size(); id += 97) {  // sampled sweep
    EXPECT_EQ(d0.KindOf(id), d1.KindOf(id)) << id;
    EXPECT_EQ(d0.LexicalOf(id), d1.LexicalOf(id)) << id;
  }

  // Summary: same classes, members and property sets.
  const StructuralSummary& s0 = built.summary();
  const StructuralSummary& s1 = loaded.summary();
  ASSERT_EQ(s0.num_classes(), s1.num_classes());
  for (size_t c = 0; c < s0.num_classes(); ++c) {
    EXPECT_EQ(s0.ClassMembers(c).ToVector(), s1.ClassMembers(c).ToVector());
    EXPECT_EQ(s0.ClassPropertySpan(c).ToVector(),
              s1.ClassPropertySpan(c).ToVector());
  }

  // Offline statistics round-trip exactly (doubles are copied, not
  // recomputed).
  const auto& st0 = built.offline_stats();
  const auto& st1 = loaded.offline_stats();
  ASSERT_EQ(st0.size(), st1.size());
  for (size_t i = 0; i < st0.size(); ++i) {
    EXPECT_EQ(st0[i].kind, st1[i].kind);
    EXPECT_EQ(st0[i].num_subjects, st1[i].num_subjects);
    EXPECT_EQ(st0[i].num_values, st1[i].num_values);
    EXPECT_EQ(st0[i].num_distinct_values, st1[i].num_distinct_values);
    EXPECT_EQ(st0[i].min_value, st1[i].min_value);
    EXPECT_EQ(st0[i].max_value, st1[i].max_value);
  }

  // Persisted fact sets were reused (same CfsOptions).
  ASSERT_EQ(built.fact_sets().size(), loaded.fact_sets().size());
  for (size_t i = 0; i < built.fact_sets().size(); ++i) {
    EXPECT_EQ(built.fact_sets()[i].name, loaded.fact_sets()[i].name);
    EXPECT_EQ(built.fact_sets()[i].members, loaded.fact_sets()[i].members);
  }
  std::remove(path.c_str());
}

TEST(SnapshotTest, ResaveOfALoadedStoreIsByteIdentical) {
  // SaveSnapshot reads through the view accessors, so saving a borrowed
  // (just-loaded) state must reproduce the file bit for bit.
  const std::string path1 = SnapPath("gen1.snap");
  const std::string path2 = SnapPath("gen2.snap");
  BuildAndSave(path1, /*with_fact_sets=*/true);

  SpadeOptions options = BaseOptions();
  options.load_store = path1;
  Graph graph;
  Spade spade(&graph, options);
  ASSERT_TRUE(spade.RunOffline().ok());
  ASSERT_TRUE(spade.SaveStore(path2).ok());

  std::ifstream f1(path1, std::ios::binary), f2(path2, std::ios::binary);
  std::stringstream b1, b2;
  b1 << f1.rdbuf();
  b2 << f2.rdbuf();
  ASSERT_FALSE(b1.str().empty());
  EXPECT_EQ(b1.str(), b2.str());
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(SnapshotTest, LoadWithoutPersistedFactSetsRecomputesThem) {
  const std::string path = SnapPath("nofcs.snap");
  BuildAndSave(path, /*with_fact_sets=*/false);
  RunOutcome ingested = RunIngested(BaseOptions());
  RunOutcome loaded = RunLoaded(path, BaseOptions());
  ExpectIdentical(ingested, loaded);
  std::remove(path.c_str());
}

TEST(SnapshotTest, MismatchedCfsOptionsForceRecomputation) {
  // Saved under min_size=20; loaded under min_size=40. The persisted fact
  // sets must not be reused — the loaded run matches a fresh min_size=40
  // run, not the saved selection.
  const std::string path = SnapPath("cfsmismatch.snap");
  BuildAndSave(path, /*with_fact_sets=*/true);
  SpadeOptions narrow = BaseOptions();
  narrow.cfs.min_size = 40;
  RunOutcome ingested = RunIngested(narrow);
  RunOutcome loaded = RunLoaded(path, narrow);
  ExpectIdentical(ingested, loaded);
  std::remove(path.c_str());
}

// --- Loaded == ingested across the execution matrix ------------------------

TEST(SnapshotTest, LoadedInsightsIdenticalAcrossThreadsShardsSimd) {
  const std::string path = SnapPath("matrix.snap");
  BuildAndSave(path, /*with_fact_sets=*/true);

  SpadeOptions base = BaseOptions();
  base.num_threads = 1;
  base.num_shards = 1;
  base.mvd.simd = simd::SimdMode::kScalar;
  RunOutcome reference = RunIngested(base);
  ASSERT_FALSE(reference.insights.empty());

  for (simd::SimdMode mode : {simd::SimdMode::kAuto, simd::SimdMode::kScalar}) {
    for (size_t threads : {1u, 4u}) {
      for (size_t shards : {1u, 4u}) {
        SCOPED_TRACE(std::string("simd = ") + simd::SimdModeName(mode) +
                     ", threads = " + std::to_string(threads) +
                     ", shards = " + std::to_string(shards));
        SpadeOptions options = BaseOptions();
        options.num_threads = threads;
        options.num_shards = shards;
        options.mvd.simd = mode;
        RunOutcome loaded = RunLoaded(path, options);
        ExpectIdentical(reference, loaded);
      }
    }
  }
  std::remove(path.c_str());
}

// --- Borrowed-dictionary behavior -----------------------------------------

TEST(SnapshotTest, BorrowedDictionaryLooksUpAndInternsPastTheArena) {
  const std::string path = SnapPath("dict.snap");
  BuildAndSave(path, /*with_fact_sets=*/false);

  SpadeOptions options = BaseOptions();
  options.load_store = path;
  Graph graph;
  Spade spade(&graph, options);
  ASSERT_TRUE(spade.RunOffline().ok());
  Dictionary& dict = graph.dict();
  const size_t arena_terms = dict.size();

  // Lookup of an arena term resolves to its persisted id; re-interning it
  // must not mint a duplicate.
  const TermId probe = 1;
  Term term;
  term.kind = dict.KindOf(probe);
  term.lexical = std::string(dict.LexicalOf(probe));
  term.language = std::string(dict.LanguageOf(probe));
  term.datatype = dict.DatatypeOf(probe);
  auto found = dict.Lookup(term);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, probe);
  EXPECT_EQ(dict.Intern(term), probe);
  EXPECT_EQ(dict.size(), arena_terms);

  // A genuinely new term lands in the overflow region past the arena and
  // reads back through the same accessors.
  const TermId fresh = dict.InternIri("http://example.org/past-the-arena");
  EXPECT_GE(fresh, arena_terms);
  EXPECT_EQ(dict.LexicalOf(fresh), "http://example.org/past-the-arena");
  EXPECT_EQ(dict.Intern(Term::Iri("http://example.org/past-the-arena")), fresh);
  std::remove(path.c_str());
}

// --- Error paths -----------------------------------------------------------

class SnapshotErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = SnapPath("error.snap");
    BuildAndSave(path_, /*with_fact_sets=*/true);
    std::ifstream in(path_, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    bytes_ = buf.str();
    ASSERT_GT(bytes_.size(), sizeof(persist::SnapshotHeader));
  }

  void TearDown() override { std::remove(path_.c_str()); }

  /// Write a mutated copy of the snapshot and return its path.
  std::string WriteMutated(size_t offset, char xor_mask) {
    std::string bytes = bytes_;
    bytes[offset] ^= xor_mask;
    return WriteBytes(bytes);
  }

  std::string WriteBytes(const std::string& bytes) {
    const std::string path = SnapPath("mutated.snap");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return path;
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotErrorTest, RejectsBadMagic) {
  const std::string p = WriteMutated(0, 0x40);
  persist::SnapshotReader reader;
  Status st = reader.Open(p);
  EXPECT_FALSE(st.ok()) << st.ToString();
  EXPECT_FALSE(reader.is_open());
  std::remove(p.c_str());
}

TEST_F(SnapshotErrorTest, RejectsUnknownVersion) {
  // version is the u32 at offset 8.
  const std::string p = WriteMutated(8, 0x7f);
  persist::SnapshotReader reader;
  Status st = reader.Open(p);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("version"), std::string::npos) << st.ToString();
  std::remove(p.c_str());
}

TEST_F(SnapshotErrorTest, RejectsForeignEndianness) {
  // endian probe is the u32 at offset 12.
  const std::string p = WriteMutated(12, 0x55);
  persist::SnapshotReader reader;
  EXPECT_FALSE(reader.Open(p).ok());
  std::remove(p.c_str());
}

TEST_F(SnapshotErrorTest, DetectsACorruptedSegment) {
  // Flip one payload byte in the middle of the file: checksum verification
  // must catch it; with verification disabled the structural checks alone
  // accept the (trusted) file.
  const std::string p = WriteMutated(bytes_.size() / 2, 0x01);
  {
    persist::SnapshotReader reader;
    Status st = reader.Open(p);
    EXPECT_FALSE(st.ok());
    EXPECT_NE(st.ToString().find("checksum"), std::string::npos)
        << st.ToString();
  }
  {
    persist::SnapshotReader reader;
    persist::SnapshotReader::Options options;
    options.verify_checksums = false;
    EXPECT_TRUE(reader.Open(p, options).ok());
  }
  std::remove(p.c_str());
}

TEST_F(SnapshotErrorTest, RejectsTruncatedFiles) {
  // Every truncation point must fail gracefully — never crash or attach.
  for (size_t keep : {size_t{0}, size_t{17}, sizeof(persist::SnapshotHeader),
                      bytes_.size() / 2, bytes_.size() - 1}) {
    SCOPED_TRACE("keep = " + std::to_string(keep));
    const std::string p = WriteBytes(bytes_.substr(0, keep));
    persist::SnapshotReader reader;
    EXPECT_FALSE(reader.Open(p).ok());
    EXPECT_FALSE(reader.is_open());
    std::remove(p.c_str());
  }
}

TEST_F(SnapshotErrorTest, MissingFileIsAStatusNotACrash) {
  persist::SnapshotReader reader;
  Status st = reader.Open(SnapPath("does-not-exist.snap"));
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(reader.is_open());
}

TEST_F(SnapshotErrorTest, FailedLoadLeavesNoHalfAttachedState) {
  const std::string p = WriteMutated(bytes_.size() / 2, 0x01);
  SpadeOptions options = BaseOptions();
  options.load_store = p;
  Graph graph;
  Spade spade(&graph, options);
  EXPECT_FALSE(spade.RunOffline().ok());
  std::remove(p.c_str());
}

// --- Explore / serve -------------------------------------------------------

TEST(ServeTest, ExploreRejectsUnknownFactSets) {
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade spade(graph.get(), BaseOptions());
  ASSERT_TRUE(spade.RunOffline().ok());
  ASSERT_TRUE(spade.PrepareFactSets().ok());
  ExploreRequest req;
  req.cfs_names.push_back("no-such-fact-set");
  auto result = spade.Explore(req, /*scheduler=*/nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kNotFound);
}

TEST(ServeTest, OutputIsByteIdenticalAcrossThreadCounts) {
  const std::string path = SnapPath("serve.snap");
  BuildAndSave(path, /*with_fact_sets=*/true);

  const std::string requests =
      "stats\n"
      "list\n"
      "explore top=3\n"
      "explore top=2 interestingness=skewness\n"
      "explore cfs=bogus\n"
      "not-a-command\n"
      "explore top=1 algorithm=arraycube earlystop=off\n"
      "# a comment, skipped\n"
      "\n"
      "explore top=2 max-dims=2 min-support=0.2\n"
      "quit\n"
      "explore top=1\n";  // after quit: never evaluated

  auto serve = [&](size_t threads) {
    SpadeOptions options = BaseOptions();
    options.load_store = path;
    Graph graph;
    Spade spade(&graph, options);
    EXPECT_TRUE(spade.RunOffline().ok());
    EXPECT_TRUE(spade.PrepareFactSets().ok());
    persist::ServeOptions sopts;
    sopts.num_threads = threads;
    persist::InsightServer server(&spade, sopts);
    std::istringstream in(requests);
    std::ostringstream out;
    persist::ServeStats stats = server.Serve(in, out);
    EXPECT_EQ(stats.num_requests, 8u);
    EXPECT_EQ(stats.num_errors, 2u);
    return out.str();
  };

  const std::string serial = serve(1);
  EXPECT_NE(serial.find("#1 ok"), std::string::npos);
  EXPECT_NE(serial.find("#5 error: "), std::string::npos);
  EXPECT_NE(serial.find("#6 error: "), std::string::npos);
  EXPECT_EQ(serial.find("#9 "), std::string::npos);  // quit stops the loop
  for (size_t threads : {2u, 4u}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    EXPECT_EQ(serial, serve(threads));
  }
  std::remove(path.c_str());
}

TEST(ServeTest, MaxDimsOutsideTheLatticeRangeIsAnError) {
  // The same [1, 4] range as the CLI's --max-dims: a request for a wider
  // lattice is refused up front, never evaluated.
  auto graph = GenerateSynthetic(SmallCorpus());
  Spade spade(graph.get(), BaseOptions());
  ASSERT_TRUE(spade.RunOffline().ok());
  ASSERT_TRUE(spade.PrepareFactSets().ok());
  persist::InsightServer server(&spade, persist::ServeOptions());
  std::istringstream in(
      "explore max-dims=5\n"
      "explore max-dims=0\n"
      "explore top=1 max-dims=4\n");
  std::ostringstream out;
  persist::ServeStats stats = server.Serve(in, out);
  EXPECT_EQ(stats.num_requests, 3u);
  EXPECT_EQ(stats.num_errors, 2u);
  const std::string text = out.str();
  EXPECT_NE(text.find("#1 error: bad max-dims '5' (want an integer in [1, 4])"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("#2 error: bad max-dims '0'"), std::string::npos) << text;
  EXPECT_NE(text.find("#3 ok"), std::string::npos) << text;
}

}  // namespace
}  // namespace spade
