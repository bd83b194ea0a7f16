#include "analysis/memory_analysis.h"

#include <algorithm>
#include <map>
#include <set>
#include <cmath>

#include "support/utils.h"

namespace scalehls {

int64_t
PartitionPlan::totalBanks() const
{
    int64_t banks = 1;
    for (int64_t f : factors)
        banks *= f;
    return banks;
}

bool
PartitionPlan::isTrivial() const
{
    for (int64_t f : factors)
        if (f > 1)
            return false;
    return true;
}

namespace {

/** Express one subscript operand as an affine expression over band IVs. */
std::optional<AffineExpr>
operandExpr(Value *v, const std::vector<Value *> &band_ivs)
{
    for (unsigned i = 0; i < band_ivs.size(); ++i)
        if (band_ivs[i] == v)
            return getAffineDimExpr(i);
    if (auto c = getConstantIntValue(v))
        return getAffineConstantExpr(*c);
    return std::nullopt;
}

MemAccess
makeAccess(Operation *op, const std::vector<Value *> &band_ivs)
{
    MemAccess access;
    access.op = op;
    access.memref = accessedMemRef(op);
    access.isWrite = isMemoryWrite(op);
    access.normalized = true;

    AffineMap map;
    std::vector<Value *> operands;
    if (op->is(ops::AffineLoad)) {
        AffineLoadOp load(op);
        map = load.map();
        operands = load.mapOperands();
    } else if (op->is(ops::AffineStore)) {
        AffineStoreOp store(op);
        map = store.map();
        operands = store.mapOperands();
    } else {
        // memref.load/store: identity subscripts.
        unsigned first = op->is(ops::MemLoad) ? 1 : 2;
        for (unsigned i = first; i < op->numOperands(); ++i)
            operands.push_back(op->operand(i));
        map = AffineMap::identity(operands.size());
    }

    std::vector<AffineExpr> dim_repls(operands.size());
    for (unsigned i = 0; i < operands.size(); ++i) {
        auto expr = operandExpr(operands[i], band_ivs);
        if (!expr) {
            access.normalized = false;
            dim_repls[i] = getAffineDimExpr(i);
        } else {
            dim_repls[i] = *expr;
        }
    }
    for (const auto &result : map.results())
        access.indices.push_back(
            result.replaceDimsAndSymbols(dim_repls));
    return access;
}

} // namespace

std::vector<MemAccess>
collectAccesses(Operation *scope, const std::vector<Value *> &band_ivs)
{
    std::vector<MemAccess> accesses;
    scope->walk([&](Operation *op) {
        if (isMemoryAccess(op))
            accesses.push_back(makeAccess(op, band_ivs));
    });
    return accesses;
}

std::vector<std::pair<Value *, std::vector<MemAccess>>>
groupByMemRef(const std::vector<MemAccess> &accesses)
{
    std::vector<std::pair<Value *, std::vector<MemAccess>>> groups;
    for (const MemAccess &access : accesses) {
        auto it = std::find_if(groups.begin(), groups.end(), [&](auto &g) {
            return g.first == access.memref;
        });
        if (it == groups.end()) {
            groups.push_back({access.memref, {access}});
        } else {
            it->second.push_back(access);
        }
    }
    return groups;
}

namespace {

bool
indicesEqual(const std::vector<AffineExpr> &a,
             const std::vector<AffineExpr> &b)
{
    if (a.size() != b.size())
        return false;
    for (unsigned i = 0; i < a.size(); ++i)
        if (!a[i].equals(b[i]))
            return false;
    return true;
}

/** Deduplicate accesses by subscript vector; non-normalized accesses are
 * always considered unique. */
std::vector<const MemAccess *>
uniqueAccesses(const std::vector<MemAccess> &accesses)
{
    std::vector<const MemAccess *> unique;
    for (const MemAccess &access : accesses) {
        bool duplicate = false;
        if (access.normalized) {
            for (const MemAccess *seen : unique) {
                if (seen->normalized &&
                    indicesEqual(seen->indices, access.indices)) {
                    duplicate = true;
                    break;
                }
            }
        }
        if (!duplicate)
            unique.push_back(&access);
    }
    return unique;
}

} // namespace

PartitionPlan
computePartitionPlan(Value *memref, const std::vector<MemAccess> &accesses)
{
    const auto &shape = memref->type().shape();
    unsigned rank = shape.size();
    PartitionPlan plan;
    plan.kinds.assign(rank, PartitionKind::None);
    plan.factors.assign(rank, 1);

    auto unique = uniqueAccesses(accesses);
    if (unique.size() < 2)
        return plan;

    constexpr int64_t kUnknownDistance = -1;
    for (unsigned d = 0; d < rank; ++d) {
        // Unique subscript expressions along this dimension.
        std::vector<AffineExpr> dim_exprs;
        bool any_unknown = false;
        for (const MemAccess *access : unique) {
            if (!access->normalized || d >= access->indices.size()) {
                any_unknown = true;
                continue;
            }
            AffineExpr e = access->indices[d];
            bool seen = false;
            for (const auto &s : dim_exprs) {
                if (s.equals(e)) {
                    seen = true;
                    break;
                }
            }
            if (!seen)
                dim_exprs.push_back(e);
        }
        int64_t num_unique = static_cast<int64_t>(dim_exprs.size()) +
                             (any_unknown ? 1 : 0);
        if (num_unique < 2)
            continue;

        // Max pairwise constant distance (paper Eq. 1 denominator - 1);
        // non-constant differences make the distance unknown.
        int64_t max_dist = 0;
        for (unsigned m = 0; m < dim_exprs.size() && max_dist >= 0; ++m) {
            for (unsigned n = m + 1; n < dim_exprs.size(); ++n) {
                auto diff = constantDiff(dim_exprs[m], dim_exprs[n]);
                if (!diff) {
                    max_dist = kUnknownDistance;
                    break;
                }
                max_dist = std::max(max_dist, std::abs(*diff));
            }
        }
        if (any_unknown)
            max_dist = kUnknownDistance;

        int64_t factor = std::min<int64_t>(num_unique, shape[d]);
        if (factor <= 1)
            continue;
        if (max_dist != kUnknownDistance &&
            num_unique >= max_dist + 1) {
            // P = Accesses / (maxDist + 1) >= 1 -> cyclic.
            plan.kinds[d] = PartitionKind::Cyclic;
        } else {
            plan.kinds[d] = PartitionKind::Block;
        }
        plan.factors[d] = factor;
    }
    return plan;
}

AffineMap
buildPartitionMap(const PartitionPlan &plan,
                  const std::vector<int64_t> &shape)
{
    if (plan.isTrivial())
        return AffineMap();
    unsigned rank = shape.size();
    std::vector<AffineExpr> results(2 * rank);
    for (unsigned d = 0; d < rank; ++d) {
        AffineExpr dim = getAffineDimExpr(d);
        int64_t f = plan.factors[d];
        switch (plan.kinds[d]) {
          case PartitionKind::None:
            results[d] = getAffineConstantExpr(0);
            results[rank + d] = dim;
            break;
          case PartitionKind::Cyclic:
            results[d] = affineMod(dim, f);
            results[rank + d] = affineFloorDiv(dim, f);
            break;
          case PartitionKind::Block: {
            int64_t block = ceilDiv(shape[d], f);
            results[d] = affineFloorDiv(dim, block);
            results[rank + d] = affineMod(dim, block);
            break;
          }
        }
    }
    return AffineMap(rank, 0, std::move(results));
}

PartitionPlan
decodePartitionMap(const AffineMap &map, const std::vector<int64_t> &shape)
{
    unsigned rank = shape.size();
    PartitionPlan plan;
    plan.kinds.assign(rank, PartitionKind::None);
    plan.factors.assign(rank, 1);
    if (map.empty() || map.numResults() != 2 * rank)
        return plan;
    for (unsigned d = 0; d < rank; ++d) {
        AffineExpr part = map.result(d);
        if (part.isConstant())
            continue;
        if (part.kind() == AffineExprKind::Mod &&
            part.rhs().isConstant()) {
            plan.kinds[d] = PartitionKind::Cyclic;
            plan.factors[d] = part.rhs().constantValue();
        } else if (part.kind() == AffineExprKind::FloorDiv &&
                   part.rhs().isConstant()) {
            int64_t block = part.rhs().constantValue();
            plan.kinds[d] = PartitionKind::Block;
            plan.factors[d] = ceilDiv(shape[d], block);
        }
    }
    return plan;
}

std::vector<AffineExpr>
bankIndexExprs(const AffineMap &layout,
               const std::vector<AffineExpr> &indices)
{
    std::vector<AffineExpr> banks;
    if (layout.empty())
        return banks;
    unsigned rank = indices.size();
    assert(layout.numResults() == 2 * rank);
    for (unsigned d = 0; d < rank; ++d)
        banks.push_back(
            layout.result(d).replaceDimsAndSymbols(indices));
    return banks;
}

std::string
subscriptKey(const MemAccess &access)
{
    std::string key;
    for (const AffineExpr &e : access.indices) {
        std::vector<std::pair<unsigned, int64_t>> coeffs;
        int64_t constant = 0;
        if (e.linearForm(coeffs, constant)) {
            key += "L";
            for (const auto &[pos, coeff] : coeffs)
                key += std::to_string(pos) + "*" +
                       std::to_string(coeff) + "+";
            key += std::to_string(constant);
        } else {
            key += "E" + e.toString();
        }
        key += "|";
    }
    return key;
}

std::vector<Recurrence>
findRecurrences(const std::vector<Operation *> &band)
{
    std::vector<Recurrence> recurrences;
    if (band.empty())
        return recurrences;
    auto ivs = bandIVs(band);
    auto accesses = collectAccesses(band[0], ivs);

    // Trip counts for flattened-distance computation.
    std::vector<int64_t> trips;
    for (Operation *loop : band)
        trips.push_back(getTripCount(AffineForOp(loop)).value_or(1));

    auto flatDistance = [&](unsigned carried_level) {
        int64_t dist = 1;
        for (unsigned i = carried_level + 1; i < band.size(); ++i)
            dist *= trips[i];
        return dist;
    };

    // Bucket by (memref, canonical subscripts): a recurrence needs a
    // write and another access at the identical address, so one
    // representative pair per bucket suffices (all members share the
    // same carried level and path structure after unrolling).
    struct Bucket
    {
        Operation *write = nullptr;
        Operation *other = nullptr;
        const MemAccess *sample = nullptr;
    };
    std::map<std::pair<Value *, std::string>, Bucket> buckets;
    std::set<Value *> conservative; // Memrefs with unanalyzable writes.
    std::map<Value *, std::pair<Operation *, Operation *>> conservative_ops;

    for (const MemAccess &access : accesses) {
        if (!access.normalized) {
            auto &[w, o] = conservative_ops[access.memref];
            (access.isWrite ? w : o) = access.op;
            if (access.isWrite)
                conservative.insert(access.memref);
            continue;
        }
        Bucket &bucket =
            buckets[{access.memref, subscriptKey(access)}];
        bucket.sample = &access;
        if (access.isWrite && !bucket.write)
            bucket.write = access.op;
        else if (!access.isWrite && !bucket.other)
            bucket.other = access.op;
    }

    for (Value *memref : conservative) {
        auto [w, o] = conservative_ops[memref];
        recurrences.push_back(
            {w, o ? o : w, static_cast<unsigned>(band.size()) - 1, 1});
    }

    for (auto &[key, bucket] : buckets) {
        if (!bucket.write)
            continue;
        // The innermost loop absent from the subscripts carries the
        // dependence with distance 1 at its level.
        int carried = -1;
        for (int level = static_cast<int>(band.size()) - 1; level >= 0;
             --level) {
            bool involved = false;
            for (const auto &e : bucket.sample->indices)
                involved |= e.involvesDim(level);
            if (!involved) {
                carried = level;
                break;
            }
        }
        if (carried < 0)
            continue; // Every iteration touches a distinct address.
        Operation *reader = bucket.other ? bucket.other : bucket.write;
        recurrences.push_back({bucket.write, reader,
                               static_cast<unsigned>(carried),
                               flatDistance(carried)});
    }
    return recurrences;
}

std::map<Value *, std::vector<bool>>
partitionRelevantDims(Operation *band_root)
{
    std::map<Value *, std::vector<bool>> relevant;

    // One scope per plan query the estimator makes; mirrors
    // estimateBand (whole band over the nest IVs) and minLoopII (each
    // pipelined leaf over its flattened chain's IVs).
    auto scan = [&](Operation *scope, const std::vector<Value *> &ivs) {
        auto accesses = collectAccesses(scope, ivs);
        for (auto &[memref, group] : groupByMemRef(accesses)) {
            if (!memref->type().isMemRef())
                continue;
            unsigned rank = memref->type().rank();
            auto &mask =
                relevant.emplace(memref, std::vector<bool>(rank, false))
                    .first->second;
            if (mask.size() != rank)
                continue;
            for (size_t i = 0; i < group.size(); ++i) {
                const MemAccess &a = group[i];
                if (!a.normalized || a.indices.size() != rank)
                    continue; // possiblySameBank never reads the plan.
                for (size_t j = i + 1; j < group.size(); ++j) {
                    const MemAccess &b = group[j];
                    if (!b.normalized || b.indices.size() != rank)
                        continue;
                    for (unsigned d = 0; d < rank; ++d) {
                        if (mask[d])
                            continue;
                        auto diff =
                            constantDiff(a.indices[d], b.indices[d]);
                        if (diff && *diff != 0)
                            mask[d] = true;
                    }
                }
            }
        }
    };

    scan(band_root, bandIVs(getLoopNest(band_root)));
    band_root->walk([&](Operation *op) {
        if (!op->is(ops::AffineFor) || !getLoopDirective(op).pipeline)
            return;
        // The maximal flatten chain ending at this pipelined leaf —
        // exactly the chain minLoopII normalizes over.
        std::vector<Operation *> chain = {op};
        for (Operation *parent = op->parentOp();
             isa(parent, ops::AffineFor) &&
             getLoopDirective(parent).flatten;
             parent = parent->parentOp())
            chain.insert(chain.begin(), parent);
        scan(op, bandIVs(chain));
    });
    return relevant;
}

} // namespace scalehls
