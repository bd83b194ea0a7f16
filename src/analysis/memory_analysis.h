/**
 * @file
 * Memory analyses: access collection and normalization against a loop band,
 * the array-partition metric of paper Eq. (1), partition layout-map
 * encoding/decoding, and loop-carried recurrence detection used to bound
 * the achievable pipeline II.
 */

#ifndef SCALEHLS_ANALYSIS_MEMORY_ANALYSIS_H
#define SCALEHLS_ANALYSIS_MEMORY_ANALYSIS_H

#include <map>
#include <optional>
#include <vector>

#include "analysis/loop_analysis.h"

namespace scalehls {

/** A memory access with its subscripts expressed over band IVs
 * (d0 = outermost band loop). `normalized` is false when some subscript
 * refers to a value outside the band (the access is then treated
 * conservatively). */
struct MemAccess
{
    Operation *op = nullptr;
    Value *memref = nullptr;
    bool isWrite = false;
    bool normalized = false;
    std::vector<AffineExpr> indices;
};

/** Collect all affine/memref accesses nested in @p scope and express their
 * subscripts over @p band_ivs. */
std::vector<MemAccess> collectAccesses(Operation *scope,
                                       const std::vector<Value *> &band_ivs);

/** Group accesses by accessed memref (deterministic order of first use). */
std::vector<std::pair<Value *, std::vector<MemAccess>>>
groupByMemRef(const std::vector<MemAccess> &accesses);

/** Array partition fashions supported by downstream HLS tools. */
enum class PartitionKind { None, Cyclic, Block };

/** A per-dimension partition plan for one array. */
struct PartitionPlan
{
    std::vector<PartitionKind> kinds;
    std::vector<int64_t> factors;

    /** Total number of physical banks. */
    int64_t totalBanks() const;
    bool isTrivial() const;
};

/** Compute the partition plan for a memref from its accesses using the
 * enhanced metric of paper Eq. (1): for dimension d,
 * P = Accesses / (max pairwise index distance + 1); cyclic when P >= 1,
 * block otherwise, with the factor set to the unique-access count
 * (clamped to the dimension size). */
PartitionPlan computePartitionPlan(Value *memref,
                                   const std::vector<MemAccess> &accesses);

/** Encode a plan as the 2N-result affine layout map of paper Fig. 3:
 * results 0..N-1 are partition (bank) indices, results N..2N-1 physical
 * indices. */
AffineMap buildPartitionMap(const PartitionPlan &plan,
                            const std::vector<int64_t> &shape);

/** Decode a 2N-result layout map back into a plan (identity/empty maps
 * decode to the trivial plan). */
PartitionPlan decodePartitionMap(const AffineMap &map,
                                 const std::vector<int64_t> &shape);

/** Bank index expressions of an access under a partition layout: composes
 * the first N layout results with the access subscripts. */
std::vector<AffineExpr> bankIndexExprs(const AffineMap &layout,
                                       const std::vector<AffineExpr>
                                           &indices);

/** A loop-carried memory recurrence between a store and a read of the same
 * address. `carriedLevel` is the band position (0 = outermost) of the
 * innermost loop absent from the shared subscripts; `flatDistance` is the
 * recurrence distance in the fully flattened iteration space (the product
 * of trip counts of loops inner to the carried level). */
struct Recurrence
{
    Operation *store = nullptr;
    Operation *read = nullptr;
    unsigned carriedLevel = 0;
    int64_t flatDistance = 1;
};

/** Canonical string key of an access's subscript vector (linear-form
 * based): equal keys imply identical addresses every iteration. */
std::string subscriptKey(const MemAccess &access);

/** Per-dimension partition RELEVANCE of every memref accessed inside the
 * band rooted at @p band_root: dimension d of memref M is relevant iff
 * the band-level QoR estimate can read M's partition plan along d. The
 * estimator consults a plan only through bank-conflict grouping
 * (possiblySameBank), which along dimension d compares pairs of
 * normalized, rank-matching accesses whose subscript difference is a
 * known constant — and every partition kind/factor yields the same
 * verdict when that constant is zero. So d is relevant only when some
 * pair, in some scope the estimator queries (the whole band normalized
 * over the nest IVs, plus each pipelined leaf normalized over its
 * flattened chain), has a known NONZERO difference. Repartitioning an
 * irrelevant dim provably cannot change the band's estimate, which is
 * what lets the band digest mask such dims (partition-aware band keys).
 * The analysis reads subscripts only — never layouts — so digest-equal
 * bands always agree on their masks. */
std::map<Value *, std::vector<bool>> partitionRelevantDims(
    Operation *band_root);

/** The per-scope step of partitionRelevantDims: set @p mask[d] when two
 * normalized accesses of @p group whose rank equals mask.size() have a
 * known nonzero constant difference (constantDiff) along d. Such a
 * difference exists exactly when both subscripts are linear with equal
 * coefficients and different constants, so the accesses are bucketed by
 * coefficient vector instead of compared pairwise. Set bits stay set. */
void markPartitionRelevantDims(const std::vector<MemAccess> &group,
                               std::vector<bool> &mask);

/** Find memory recurrences within @p band. Only equal-subscript pairs are
 * detected (the dominant recurrence pattern of reduction kernels);
 * non-normalizable accesses conservatively produce a distance-1
 * recurrence. */
std::vector<Recurrence> findRecurrences(
    const std::vector<Operation *> &band);

} // namespace scalehls

#endif // SCALEHLS_ANALYSIS_MEMORY_ANALYSIS_H
