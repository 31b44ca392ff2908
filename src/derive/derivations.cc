#include "src/derive/derivations.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>

#include "src/util/string_util.h"

namespace spade {

namespace {

const std::unordered_set<std::string>& EnglishStopWords() {
  static const std::unordered_set<std::string> kWords = {
      "the",  "and",  "for",  "that", "with", "this", "from", "have",
      "has",  "was",  "were", "are",  "not",  "but",  "its",  "his",
      "her",  "they", "them", "been", "will", "would", "which", "their",
      "more", "over", "into", "also", "than", "when", "where", "who",
  };
  return kWords;
}

struct LangProfile {
  const char* name;
  std::vector<std::string> stopwords;
};

const std::vector<LangProfile>& LanguageProfiles() {
  static const std::vector<LangProfile> kProfiles = {
      {"English",
       {"the", "and", "of", "to", "in", "is", "was", "for", "with", "that"}},
      {"French",
       {"le", "la", "les", "de", "des", "et", "est", "une", "un", "dans",
        "pour", "que", "qui", "avec"}},
      {"German",
       {"der", "die", "das", "und", "ist", "von", "mit", "ein", "eine",
        "nicht", "für", "auf"}},
      {"Spanish",
       {"el", "la", "los", "las", "de", "y", "es", "una", "un", "en", "por",
        "con", "para", "del"}},
  };
  return kProfiles;
}

// Lower-cased alphabetic tokens of `text`.
std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : text) {
    if (std::isalpha(static_cast<unsigned char>(c))) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      tokens.push_back(std::move(current));
      current.clear();
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

/// What the previous pass did with one candidate. `known` is false when a
/// source was touched (or there is no previous pass): the candidate must run.
struct PriorOutcome {
  bool known = false;
  AttrId table = kInvalidAttr;  ///< previous table; kInvalidAttr = none derived
};

/// One strategy's view of a DerivationReuse: looks up previous outcomes and
/// registers tables, keeping `previous_id` aligned with the store's ids.
class PriorPass {
 public:
  explicit PriorPass(DerivationReuse* reuse)
      : reuse_(reuse != nullptr && reuse->previous != nullptr ? reuse
                                                              : nullptr) {
    if (reuse_ == nullptr) return;
    const AttributeStore& prev = *reuse_->previous;
    for (AttrId a = 0; a < prev.num_attributes(); ++a) {
      const AttributeTable& t = prev.attribute(a);
      if (t.origin != AttrOrigin::kDirect && t.origin != AttrOrigin::kPath) {
        by_source_.emplace(std::make_pair(t.origin, t.derived_from), a);
      }
    }
  }

  /// The previous id of direct attribute `a`, or kInvalidAttr if touched.
  AttrId Untouched(AttrId a) const {
    if (reuse_ == nullptr || a >= reuse_->previous_id.size()) {
      return kInvalidAttr;
    }
    return reuse_->previous_id[a];
  }

  /// Previous outcome of the `origin` candidate over source `src` (counts,
  /// keywords, languages: one candidate per source).
  PriorOutcome Find(AttrOrigin origin, AttrId src) const {
    const AttrId old_src = Untouched(src);
    if (old_src == kInvalidAttr) return {};
    auto it = by_source_.find(std::make_pair(origin, old_src));
    return {true, it == by_source_.end() ? kInvalidAttr : it->second};
  }

  /// Previous outcome of path p1/p2, located by its previous name, which is
  /// unambiguous while no direct name holds a '/' (see EnablePaths).
  PriorOutcome FindPath(AttrId p1, AttrId p2) const {
    if (!paths_) return {};
    const AttrId o1 = Untouched(p1), o2 = Untouched(p2);
    if (o1 == kInvalidAttr || o2 == kInvalidAttr) return {};
    const AttributeStore& prev = *reuse_->previous;
    std::optional<AttrId> id = prev.FindAttribute(
        prev.attribute(o1).name + "/" + prev.attribute(o2).name);
    if (!id.has_value()) return {true, kInvalidAttr};
    const AttributeTable& t = prev.attribute(*id);
    if (t.origin != AttrOrigin::kPath || t.derived_from != o1) return {};
    return {true, *id};
  }

  /// Allow FindPath unless a direct name of either store contains '/'
  /// ("a/b" + "c" and "a" + "b/c" would share a path name) or the previous
  /// pass stopped at the path cap (its missing pairs prove nothing).
  void EnablePaths(const AttributeStore& db, size_t max_path_attrs) {
    if (reuse_ == nullptr) return;
    size_t prev_paths = 0;
    for (const AttributeStore* store : {&db, reuse_->previous}) {
      for (AttrId a = 0; a < store->num_attributes(); ++a) {
        const AttributeTable& t = store->attribute(a);
        if (t.origin == AttrOrigin::kDirect &&
            t.name.find('/') != std::string::npos) {
          return;
        }
        if (store == reuse_->previous && t.origin == AttrOrigin::kPath) {
          ++prev_paths;
        }
      }
    }
    paths_ = prev_paths < max_path_attrs;
  }

  /// Register a table derived afresh.
  void Add(AttributeStore* db, AttributeTable table) {
    db->AddAttribute(std::move(table));
    if (reuse_ != nullptr) reuse_->previous_id.push_back(kInvalidAttr);
  }

  /// Register a copy of previous table `prev_id` as `name`, derived from
  /// `src` (an id of `db`).
  void Copy(AttributeStore* db, AttrId prev_id, std::string name, AttrId src) {
    AttributeTable table = reuse_->previous->attribute(prev_id);
    table.name = std::move(name);
    table.derived_from = src;
    db->AddAttribute(std::move(table));
    reuse_->previous_id.push_back(prev_id);
  }

 private:
  DerivationReuse* reuse_;
  std::map<std::pair<AttrOrigin, AttrId>, AttrId> by_source_;
  bool paths_ = false;
};

}  // namespace

std::vector<std::string> ExtractKeywords(const std::string& text, size_t min_len) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (std::string& tok : Tokenize(text)) {
    if (tok.size() < min_len) continue;
    if (EnglishStopWords().count(tok)) continue;
    tok[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(tok[0])));
    if (seen.insert(tok).second) out.push_back(tok);
  }
  return out;
}

std::string DetectLanguage(const std::string& text) {
  std::vector<std::string> tokens = Tokenize(text);
  if (tokens.empty()) return "";
  const LangProfile* best = nullptr;
  size_t best_hits = 0;
  for (const LangProfile& profile : LanguageProfiles()) {
    size_t hits = 0;
    for (const std::string& tok : tokens) {
      for (const std::string& sw : profile.stopwords) {
        if (tok == sw) {
          ++hits;
          break;
        }
      }
    }
    if (hits > best_hits) {
      best_hits = hits;
      best = &profile;
    }
  }
  return best == nullptr ? "" : best->name;
}

size_t DeriveCounts(AttributeStore* db, const std::vector<AttrStats>& stats,
                    const DerivationOptions& /*options*/,
                    DerivationReuse* reuse) {
  size_t added = 0;
  PriorPass prior(reuse);
  Dictionary& dict = *db->mutable_dict();
  std::vector<AttrId> direct = db->DirectAttributes();
  for (AttrId a : direct) {
    if (a >= stats.size() || !stats[a].multi_valued()) continue;
    const AttributeTable& src = db->attribute(a);
    const PriorOutcome was = prior.Find(AttrOrigin::kCount, a);
    if (was.known) {
      if (was.table == kInvalidAttr) continue;
      prior.Copy(db, was.table, "count(" + src.name + ")", a);
      ++added;
      continue;
    }
    AttributeTable table;
    table.name = "count(" + src.name + ")";
    table.origin = AttrOrigin::kCount;
    table.derived_from = a;
    // The CSR offsets are exactly the per-subject value counts.
    for (size_t i = 0; i < src.num_subjects(); ++i) {
      table.AddRow(src.subject(i),
                   dict.InternInteger(static_cast<int64_t>(src.values(i).size())));
    }
    prior.Add(db, std::move(table));
    ++added;
  }
  return added;
}

size_t DeriveKeywords(AttributeStore* db, const std::vector<AttrStats>& stats,
                      const DerivationOptions& options,
                      DerivationReuse* reuse) {
  size_t added = 0;
  PriorPass prior(reuse);
  Dictionary& dict = *db->mutable_dict();
  std::vector<AttrId> direct = db->DirectAttributes();
  for (AttrId a : direct) {
    if (a >= stats.size()) continue;
    const AttrStats& st = stats[a];
    if (st.kind != ValueKind::kText) continue;
    if (st.avg_text_length < options.min_text_length_for_keywords) continue;
    const AttributeTable& src = db->attribute(a);
    const PriorOutcome was = prior.Find(AttrOrigin::kKeyword, a);
    if (was.known) {
      if (was.table == kInvalidAttr) continue;
      prior.Copy(db, was.table, "kwIn(" + src.name + ")", a);
      ++added;
      continue;
    }
    AttributeTable table;
    table.name = "kwIn(" + src.name + ")";
    table.origin = AttrOrigin::kKeyword;
    table.derived_from = a;
    for (size_t i = 0; i < src.num_subjects(); ++i) {
      TermId s = src.subject(i);
      for (TermId o : src.values(i)) {
        const Term& term = dict.Get(o);
        if (term.kind != TermKind::kLiteral) continue;
        for (const std::string& kw :
             ExtractKeywords(term.lexical, options.min_keyword_length)) {
          table.AddRow(s, dict.InternString(kw));
          if (table.num_staged() >= options.max_keyword_rows) break;
        }
        if (table.num_staged() >= options.max_keyword_rows) break;
      }
      if (table.num_staged() >= options.max_keyword_rows) break;
    }
    if (table.num_staged() == 0) continue;
    prior.Add(db, std::move(table));
    ++added;
  }
  return added;
}

size_t DeriveLanguages(AttributeStore* db, const std::vector<AttrStats>& stats,
                       const DerivationOptions& options,
                       DerivationReuse* reuse) {
  size_t added = 0;
  PriorPass prior(reuse);
  Dictionary& dict = *db->mutable_dict();
  std::vector<AttrId> direct = db->DirectAttributes();
  for (AttrId a : direct) {
    if (a >= stats.size()) continue;
    const AttrStats& st = stats[a];
    if (st.kind != ValueKind::kText) continue;
    if (st.avg_text_length < options.min_text_length_for_keywords) continue;
    const AttributeTable& src = db->attribute(a);
    const PriorOutcome was = prior.Find(AttrOrigin::kLanguage, a);
    if (was.known) {
      if (was.table == kInvalidAttr) continue;
      prior.Copy(db, was.table, "langOf(" + src.name + ")", a);
      ++added;
      continue;
    }
    AttributeTable table;
    table.name = "langOf(" + src.name + ")";
    table.origin = AttrOrigin::kLanguage;
    table.derived_from = a;
    src.ForEachRow([&](TermId s, TermId o) {
      const Term& term = dict.Get(o);
      if (term.kind != TermKind::kLiteral) return;
      std::string lang;
      if (!term.language.empty()) {
        // Explicit language tags beat detection.
        lang = term.language == "en"   ? "English"
               : term.language == "fr" ? "French"
               : term.language == "de" ? "German"
               : term.language == "es" ? "Spanish"
                                       : term.language;
      } else {
        lang = DetectLanguage(term.lexical);
      }
      if (lang.empty()) return;
      table.AddRow(s, dict.InternString(lang));
    });
    if (table.num_staged() == 0) continue;
    prior.Add(db, std::move(table));
    ++added;
  }
  return added;
}

size_t DerivePaths(AttributeStore* db, const std::vector<AttrStats>& stats,
                   const DerivationOptions& options, DerivationReuse* reuse) {
  size_t added = 0;
  PriorPass prior(reuse);
  prior.EnablePaths(*db, options.max_path_attrs);
  std::vector<AttrId> direct = db->DirectAttributes();

  for (AttrId p1 : direct) {
    if (p1 >= stats.size() || stats[p1].kind != ValueKind::kReference) continue;
    // References into the registry stay valid across AddAttribute (the store
    // keeps tables in a deque), so no defensive copy of t1 is needed.
    const AttributeTable& t1 = db->attribute(p1);
    for (AttrId p2 : direct) {
      if (added >= options.max_path_attrs) return added;
      if (p2 == p1) {
        // Self-composition (p/p) is allowed but rarely useful; skip to match
        // the paper's length-1 path enumeration over distinct properties.
        continue;
      }
      const AttributeTable& t2 = db->attribute(p2);
      const PriorOutcome was = prior.FindPath(p1, p2);
      if (was.known) {
        if (was.table == kInvalidAttr) continue;
        prior.Copy(db, was.table, t1.name + "/" + t2.name, p1);
        ++added;
        continue;
      }
      Span<TermId> subj2 = t2.subjects();
      if (subj2.empty()) continue;
      // How many p1 values continue with p2?
      size_t continuing = 0;
      for (TermId o : t1.objects()) {
        if (std::binary_search(subj2.begin(), subj2.end(), o)) ++continuing;
      }
      if (continuing == 0 ||
          static_cast<double>(continuing) < options.min_path_continuation *
                                                static_cast<double>(t1.num_rows())) {
        continue;
      }
      AttributeTable table;
      table.name = t1.name + "/" + t2.name;
      table.origin = AttrOrigin::kPath;
      table.derived_from = p1;
      for (size_t i = 0; i < t1.num_subjects(); ++i) {
        TermId s = t1.subject(i);
        for (TermId mid : t1.values(i)) {
          for (TermId o2 : t2.ValuesOf(mid)) {
            table.AddRow(s, o2);
            if (table.num_staged() >= options.max_path_rows) break;
          }
          if (table.num_staged() >= options.max_path_rows) break;
        }
        if (table.num_staged() >= options.max_path_rows) break;
      }
      if (table.num_staged() == 0) continue;
      prior.Add(db, std::move(table));
      ++added;
    }
  }
  return added;
}

DerivationReport DeriveAll(AttributeStore* db, const std::vector<AttrStats>& stats,
                           const DerivationOptions& options,
                           DerivationReuse* reuse) {
  DerivationReport report;
  if (options.enable_counts) {
    report.num_count_attrs = DeriveCounts(db, stats, options, reuse);
  }
  if (options.enable_keywords) {
    report.num_keyword_attrs = DeriveKeywords(db, stats, options, reuse);
  }
  if (options.enable_languages) {
    report.num_language_attrs = DeriveLanguages(db, stats, options, reuse);
  }
  if (options.enable_paths) {
    report.num_path_attrs = DerivePaths(db, stats, options, reuse);
  }
  return report;
}

}  // namespace spade
