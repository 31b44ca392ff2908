#ifndef SPADE_CORE_PGCUBE_H_
#define SPADE_CORE_PGCUBE_H_

#include <vector>

#include "src/core/aggregate.h"
#include "src/core/arm.h"
#include "src/core/lattice.h"

namespace spade {

/// PGCube variants (Section 6): how fact counts are computed.
enum class PgCubeVariant : uint8_t {
  kStar,      ///< COUNT(*) over the joined rows (PGCube*)
  kDistinct,  ///< COUNT(DISTINCT fact) — fixes fact counting (PGCube_d)
};

struct PgCubeStats {
  size_t num_joined_rows = 0;  ///< |facts x dim-value combinations|
  size_t num_mdas_evaluated = 0;
  size_t num_groups_emitted = 0;
  double join_ms = 0;
  double aggregate_ms = 0;
};

/// \brief PGCube: PostgreSQL's one-pass GROUP BY CUBE, reproduced in memory
/// (see bench/README.md, "Datasets and substrate").
///
/// Each lattice is evaluated as one "query": the facts are joined with every
/// dimension's value table (multi-valued dimensions multiply rows, missing
/// values become nulls — exactly Figure 4's table A1) and with the measure
/// tables; the joined row stream is then aggregated into all 2^N grouping
/// sets in a single pass over the input (the PostgreSQL >= 9.5 strategy [26],
/// which hashes each row into every grouping set).
///
/// The error model of Section 4.2 follows from the join multiplication:
/// * PGCube*: count(*) counts joined rows, so a fact with multiple values on
///   a projected-away dimension is counted once per value;
/// * PGCube_d: count(*) is replaced by count(distinct fact), correcting pure
///   fact counts, but count(M)/sum(M)/avg(M) still accumulate the fact's
///   measures once per joined row (count(distinct M) would be wrong in a
///   different way: Variation 1).
/// min/max are idempotent and always correct.
///
/// Unlike MVDCube, PGCube shares nothing across lattices: measures are
/// re-joined per lattice and shared nodes are recomputed ("PGCube evaluates
/// each lattice in a separate query"). When `arm` is non-null, results
/// stream into it (keys already present are recomputed but not re-added,
/// mirroring ARM-side dedup of result storage); the full per-node results
/// are also returned for error measurement.
std::vector<AggregateResult> EvaluateLatticePgCube(const AttributeStore& db,
                                                   uint32_t cfs_id,
                                                   const CfsIndex& cfs,
                                                   const LatticeSpec& spec,
                                                   PgCubeVariant variant,
                                                   Arm* arm,
                                                   PgCubeStats* stats);

}  // namespace spade

#endif  // SPADE_CORE_PGCUBE_H_
