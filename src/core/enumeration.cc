#include "src/core/enumeration.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>

#include "src/core/mfs.h"
#include "src/util/string_util.h"

namespace spade {

namespace {

// True when one of the attributes is derived from the other: such a pair may
// not appear together as dimensions, nor as dimension + measure
// (e.g. nationality and count(nationality), Section 3 step 3).
bool DerivationConflict(const AttributeStore& db, AttrId a, AttrId b) {
  return db.attribute(a).derived_from == b || db.attribute(b).derived_from == a;
}

}  // namespace

bool ParseMaxDims(std::string_view text, size_t* out) {
  int64_t n = 0;
  if (!ParseInt64(text, &n) || n < static_cast<int64_t>(kMinLatticeDims) ||
      n > static_cast<int64_t>(kMaxLatticeDims)) {
    return false;
  }
  *out = static_cast<size_t>(n);
  return true;
}

CfsAnalysis AnalyzeAttributes(const AttributeStore& db, const CfsIndex& cfs,
                              const std::vector<AttrStats>& offline,
                              const EnumerationOptions& options) {
  CfsAnalysis analysis;
  size_t n = cfs.size();
  size_t min_support =
      std::max<size_t>(1, static_cast<size_t>(options.min_support_ratio *
                                              static_cast<double>(n)));
  for (AttrId attr = 0; attr < db.num_attributes(); ++attr) {
    OnlineAttrStats online = ComputeOnlineStats(db, cfs, attr);
    if (online.support == 0) continue;
    AnalyzedAttribute a;
    a.attr = attr;
    a.online = online;
    const AttrStats& off = offline[attr];

    bool frequent = online.support >= min_support;
    bool low_cardinality =
        online.num_distinct_values <= options.max_distinct_values &&
        online.DistinctRatio(n) <= options.max_distinct_ratio &&
        online.num_distinct_values >= 2;
    a.good_dimension = frequent && low_cardinality;
    a.good_measure = frequent && off.numeric();
    analysis.attrs.push_back(a);
  }
  return analysis;
}

std::vector<LatticeSpec> EnumerateLattices(const AttributeStore& db,
                                           const CfsIndex& cfs,
                                           const CfsAnalysis& analysis,
                                           const std::vector<AttrStats>& offline,
                                           const EnumerationOptions& options) {
  // Candidate dimensions, indexed densely for the miner.
  std::vector<AttrId> dim_attrs;
  for (const auto& a : analysis.attrs) {
    if (a.good_dimension) dim_attrs.push_back(a.attr);
  }
  if (dim_attrs.empty()) return {};

  std::map<AttrId, size_t> support;
  for (const auto& a : analysis.attrs) support[a.attr] = a.online.support;

  // Transactions: the candidate-dimension attributes of each fact.
  size_t n = cfs.size();
  std::vector<std::vector<int>> transactions(n);
  for (size_t di = 0; di < dim_attrs.size(); ++di) {
    ForEachCfsMatch(db.attribute(dim_attrs[di]), cfs.members(),
                    [&](size_t mi, size_t /*si*/) {
                      transactions[mi].push_back(static_cast<int>(di));
                    });
  }

  size_t min_support =
      std::max<size_t>(1, static_cast<size_t>(options.min_support_ratio *
                                              static_cast<double>(n)));
  std::vector<std::vector<int>> mfs =
      MineMaximalFrequentSets(transactions, min_support, options.max_dims);

  // Build dimension sets: resolve conflicts, dedup.
  std::set<std::vector<AttrId>> seen;
  std::vector<std::vector<AttrId>> dim_sets;
  for (const auto& itemset : mfs) {
    std::vector<AttrId> dims;
    for (int item : itemset) dims.push_back(dim_attrs[item]);
    // Rule (b-ii): no attribute together with its derivation. Keep the more
    // supported of a conflicting pair.
    std::sort(dims.begin(), dims.end(), [&](AttrId a, AttrId b) {
      return support[a] > support[b];
    });
    std::vector<AttrId> kept;
    for (AttrId d : dims) {
      bool conflict = false;
      for (AttrId k : kept) conflict |= DerivationConflict(db, d, k);
      if (!conflict) kept.push_back(d);
    }
    std::sort(kept.begin(), kept.end());
    if (kept.empty()) continue;
    if (seen.insert(kept).second) dim_sets.push_back(std::move(kept));
  }

  // Prefer larger, better-supported lattices when capping.
  std::stable_sort(dim_sets.begin(), dim_sets.end(),
                   [&](const auto& a, const auto& b) {
                     if (a.size() != b.size()) return a.size() > b.size();
                     size_t sa = 0, sb = 0;
                     for (AttrId d : a) sa += support[d];
                     for (AttrId d : b) sb += support[d];
                     return sa > sb;
                   });
  if (dim_sets.size() > options.max_lattices_per_cfs) {
    dim_sets.resize(options.max_lattices_per_cfs);
  }

  // Rule (c): measures per lattice.
  std::vector<LatticeSpec> lattices;
  for (auto& dims : dim_sets) {
    LatticeSpec spec;
    spec.dims = std::move(dims);

    // The implicit fact-count measure: "number of CEOs by ...".
    spec.measures.push_back(MeasureSpec{kInvalidAttr, sparql::AggFunc::kCount});

    std::vector<AttrId> measure_attrs;
    for (const auto& a : analysis.attrs) {
      if (!a.good_measure) continue;
      bool excluded = false;
      for (AttrId d : spec.dims) {
        excluded |= (a.attr == d) || DerivationConflict(db, a.attr, d);
      }
      if (!excluded) measure_attrs.push_back(a.attr);
    }
    std::sort(measure_attrs.begin(), measure_attrs.end(),
              [&](AttrId a, AttrId b) {
                if (support[a] != support[b]) return support[a] > support[b];
                return a < b;
              });
    if (measure_attrs.size() > options.max_measures_per_lattice) {
      measure_attrs.resize(options.max_measures_per_lattice);
    }
    for (AttrId m : measure_attrs) {
      const AttrStats& off = offline[m];
      spec.measures.push_back(MeasureSpec{m, sparql::AggFunc::kSum});
      spec.measures.push_back(MeasureSpec{m, sparql::AggFunc::kAvg});
      if (options.use_min_max && off.numeric()) {
        spec.measures.push_back(MeasureSpec{m, sparql::AggFunc::kMin});
        spec.measures.push_back(MeasureSpec{m, sparql::AggFunc::kMax});
      }
    }
    lattices.push_back(std::move(spec));
  }
  return lattices;
}

size_t CountCandidateAggregates(uint32_t cfs_id,
                                const std::vector<LatticeSpec>& lattices) {
  std::set<AggregateKey> keys;
  for (const auto& lattice : lattices) {
    size_t n = lattice.dims.size();
    for (uint32_t mask = 1; mask < (1u << n); ++mask) {
      std::vector<AttrId> dims;
      for (size_t i = 0; i < n; ++i) {
        if (mask & (1u << i)) dims.push_back(lattice.dims[i]);
      }
      for (const auto& m : lattice.measures) {
        AggregateKey key;
        key.cfs_id = cfs_id;
        key.dims = dims;
        key.measure = m;
        keys.insert(std::move(key));
      }
    }
  }
  return keys.size();
}

std::string DescribeAggregate(const AttributeStore& db, const CandidateFactSet& cfs,
                              const AggregateKey& key) {
  std::string out;
  if (key.measure.is_count_star()) {
    out = "count(*)";
  } else {
    out = std::string(sparql::AggFuncName(key.measure.func)) + "(" +
          db.attribute(key.measure.attr).name + ")";
    for (char& c : out) c = static_cast<char>(std::tolower(c));
  }
  out += " of " + cfs.name + " by ";
  for (size_t i = 0; i < key.dims.size(); ++i) {
    if (i > 0) out += ", ";
    out += db.attribute(key.dims[i]).name;
  }
  return out;
}

}  // namespace spade
