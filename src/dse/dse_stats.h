/**
 * @file
 * DSEStats: the one counter record of the DSE stack. The evaluator fills
 * it, DSEEngine exposes it, DSEResult and Compiler::FuncDSEResult carry
 * it, scalehls-serve writes it as JSON and scalehls-opt prints it.
 */

#ifndef SCALEHLS_DSE_DSE_STATS_H
#define SCALEHLS_DSE_DSE_STATS_H

#include <cstddef>
#include <ostream>
#include <string>

namespace scalehls {

/** Every counter, as (member, JSON key):
 * - evaluations: points the search evaluated (set by DSEEngine; an
 *   evaluator on its own leaves it 0);
 * - memo: materializations (memo misses), cache_hits (memo hits),
 *   batch_dedups (duplicate in-batch slots served by a sibling);
 * - how each memo miss was answered, exactly one of:
 *   full_materializations (the full pipeline), overlay_materializations
 *   (plan-first, only the schedule-tier misses among the bands were
 *   built), plan_composed (plan-first, composed from the schedule tier
 *   with zero IR built), plan_infeasible (proved infeasible with zero
 *   IR);
 * - plan_mismatches: overlay materializations whose phase-1 digest
 *   contradicted the PLAN tier (they fell back to the full pipeline);
 * - audit_checks / audit_violations: L3/L4 auditor invocations and
 *   findings (zero unless auditing; every finding forced the full
 *   pipeline). */
#define SCALEHLS_DSE_STATS_COUNTERS(X)                                       \
    X(evaluations, "evaluations")                                            \
    X(materializations, "materializations")                                  \
    X(cacheHits, "cache_hits")                                               \
    X(batchDedups, "batch_dedups")                                           \
    X(fullMaterializations, "full_materializations")                         \
    X(overlayMaterializations, "overlay_materializations")                   \
    X(planInfeasible, "plan_infeasible")                                     \
    X(planComposed, "plan_composed")                                         \
    X(planMismatches, "plan_mismatches")                                     \
    X(auditChecks, "audit_checks")                                           \
    X(auditViolations, "audit_violations")

/** Counters of one evaluator or one exploration. A plain value: fill one
 * per task and merge with +=. */
struct DSEStats
{
#define SCALEHLS_DSE_STATS_MEMBER(member, key) size_t member = 0;
    SCALEHLS_DSE_STATS_COUNTERS(SCALEHLS_DSE_STATS_MEMBER)
#undef SCALEHLS_DSE_STATS_MEMBER

    /** Call @p fn(key, counter) for every counter of @p stats (const or
     * not), in declaration order. */
    template <typename Stats, typename Fn>
    static void
    forEach(Stats &stats, Fn &&fn)
    {
#define SCALEHLS_DSE_STATS_VISIT(member, key) fn(key, stats.member);
        SCALEHLS_DSE_STATS_COUNTERS(SCALEHLS_DSE_STATS_VISIT)
#undef SCALEHLS_DSE_STATS_VISIT
    }

    DSEStats &
    operator+=(const DSEStats &other)
    {
#define SCALEHLS_DSE_STATS_ADD(member, key) member += other.member;
        SCALEHLS_DSE_STATS_COUNTERS(SCALEHLS_DSE_STATS_ADD)
#undef SCALEHLS_DSE_STATS_ADD
        return *this;
    }

    /** The counters as JSON object members ("key":value, comma
     * separated, no braces) for splicing into an enclosing object. */
    std::string
    jsonMembers() const
    {
        std::string out;
        forEach(*this, [&out](const char *key, size_t value) {
            out += (out.empty() ? "\"" : ",\"") + std::string(key) +
                   "\":" + std::to_string(value);
        });
        return out;
    }

    /** One human-readable line: "key=value" pairs, space separated. */
    void
    print(std::ostream &os) const
    {
        const char *sep = "";
        forEach(*this, [&](const char *key, size_t value) {
            os << sep << key << "=" << value;
            sep = " ";
        });
    }
};

#undef SCALEHLS_DSE_STATS_COUNTERS

} // namespace scalehls

#endif // SCALEHLS_DSE_DSE_STATS_H
